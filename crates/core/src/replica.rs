//! NR-lite read-mostly replication for the warm engine state.
//!
//! The engine's caches are read-dominated in the `ghr serve` steady
//! state: thousands of warm hits per cold evaluation. A sharded
//! `Mutex<HashMap>` makes every one of those hits take a lock, and under
//! a zipf-shaped request mix the hot keys all land on the same shard, so
//! the locks that were supposed to be uncontended are exactly the ones
//! that are not.
//!
//! [`ReadMostly`] recasts the map as *node replication* in miniature
//! (the flat-combining/NR pattern): updates append to a shared,
//! totally-ordered log under one mutex, and every reader thread owns a
//! private replica of the map that it advances by replaying the log
//! tail. A reader whose replica is already at the log's version — the
//! steady state, because the log only grows on cold evaluations —
//! answers from its own `HashMap` with **zero mutex acquisitions**: the
//! only shared access is one `Acquire` load of the version counter.
//!
//! The type is generic over the key: the engine instantiates one cell
//! per cache layer — the response memo (`u64` request ids), the GPU
//! point cache (`WorkItem`), the co-run series cache (`CorunConfig`) and
//! the per-`p` co-run point cache — so the *entire* warm read path is
//! replica-local, not just the response memo.
//!
//! Correctness leans on three properties:
//!
//! * the log is append-only and its entries are immutable, so replaying
//!   `log[replica.version..]` under the log lock can never miss or
//!   reorder an update, and replicas at the same version are identical;
//! * publication is **first-write-wins**: a key is appended at most once
//!   (engine values are deterministic, so a racing duplicate publish
//!   carries an identical value). The log's length therefore equals the
//!   number of distinct published keys — the bound [`ReadMostly::log_bytes`]
//!   reports — and replay order cannot change a key's value;
//! * the version counter is stored with `Release` *after* the append and
//!   loaded with `Acquire` before any snapshot read, so a reader that
//!   observes version `v` also observes the first `v` log entries.
//!
//! Replicas live in thread-local storage keyed by a process-unique cell
//! id, so any number of [`ReadMostly`] instances (four per engine) can
//! coexist on one thread. A global registry of live cell ids lets a
//! thread garbage-collect replicas of dropped instances the next time it
//! creates a replica — the rare path — so long-lived worker threads do
//! not leak a replica per dead engine.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Identity hasher for request-id keys. The response memo's keys are
/// already uniform 64-bit hashes, so hashing them again buys no
/// distribution and costs the warm snapshot read an extra FNV walk per
/// probe.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Hasher state for id-keyed cells (the response memo).
pub type BuildId = BuildHasherDefault<IdHasher>;

/// Hasher state for structured keys (work items, co-run configs):
/// deterministic FNV-1a, same as the machine fingerprint.
pub type BuildFnv = BuildHasherDefault<crate::engine::Fnv1aHasher>;

/// Process-wide allocator of cell ids. Ids are never reused, so a stale
/// thread-local replica of a dropped cell can never be mistaken for a
/// replica of a live one.
static NEXT_CELL: AtomicU64 = AtomicU64::new(1);

/// Cell ids with a live [`ReadMostly`] behind them — what replica
/// garbage collection checks against.
fn live_cells() -> &'static Mutex<HashSet<u64>> {
    static LIVE: OnceLock<Mutex<HashSet<u64>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(HashSet::new()))
}

thread_local! {
    /// This thread's replicas, indexed directly by cell id (ids are
    /// small, sequential, and process-unique, so the table stays tiny).
    /// `Box<dyn Any>` lets one slot serve `ReadMostly` instances of any
    /// key/value type. A straight `Vec` index keeps the per-read registry
    /// hop to a bounds check instead of a hash probe — this table sits
    /// on the warm hot path. `const` init skips the lazy-init flag too.
    static REPLICAS: RefCell<Vec<Option<Box<dyn Any>>>> = const { RefCell::new(Vec::new()) };
}

/// One thread's private copy of a cell's map, plus how much of the log
/// it has replayed.
struct Replica<K, V, S> {
    version: u64,
    map: HashMap<K, V, S>,
}

/// Outcome of one [`ReadMostly::get`]: the value (if published) plus the
/// cost the read actually paid — the accounting behind the engine's
/// per-layer `warm_lock_acquisitions` counters.
#[derive(Debug)]
pub struct ReplicaRead<V> {
    /// The published value for the key, if any.
    pub value: Option<V>,
    /// Mutex acquisitions this read performed (0 = wait-free snapshot
    /// read, 1 = the replica was behind and replayed the log tail).
    pub locks: u64,
    /// Whether the read replayed the log tail into its replica.
    pub synced: bool,
}

/// The log proper: the ordered publications plus a key index that makes
/// publication first-write-wins. Both live under the one log mutex.
struct Log<K, V, S> {
    entries: Vec<(K, V)>,
    index: HashSet<K, S>,
}

/// A read-mostly map: an append-only, first-write-wins log of
/// `(key, value)` publications under one mutex, plus wait-free
/// per-thread read replicas (see the module docs). Keys and values are
/// cloned into each replica, so `V` is typically an `Arc` or a small
/// `Copy` scalar.
pub struct ReadMostly<K, V, S = BuildFnv> {
    cell: u64,
    version: AtomicU64,
    log: Mutex<Log<K, V, S>>,
    bytes: AtomicU64,
}

impl<K, V, S> ReadMostly<K, V, S>
where
    K: Clone + Eq + Hash + Send + 'static,
    V: Clone + Send + 'static,
    S: BuildHasher + Default + Clone + Send + 'static,
{
    /// An empty cell with a fresh process-unique id.
    pub fn new() -> Self {
        let cell = NEXT_CELL.fetch_add(1, Ordering::Relaxed);
        live_cells()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(cell);
        ReadMostly {
            cell,
            version: AtomicU64::new(0),
            log: Mutex::new(Log {
                entries: Vec::new(),
                index: HashSet::default(),
            }),
            bytes: AtomicU64::new(0),
        }
    }

    /// Number of publications in the log (the current version). Because
    /// publication is first-write-wins, this equals the number of
    /// *distinct* published keys.
    pub fn published(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Shallow footprint of the log in bytes: one `(K, V)` entry plus
    /// one index key per distinct publication. Heap owned *behind* a
    /// value (an `Arc`'d response body) is shared with the caches and
    /// not double-counted here; the point of the counter is that the log
    /// itself is bounded by distinct keys, not by request traffic.
    pub fn log_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Publish one `(key, value)` record. First write wins: if the key
    /// was already published the log is left untouched and `false` comes
    /// back — coalesced followers, double-checked cache fills and store
    /// loads can all call this without growing the log. Returns `true`
    /// when the record was appended (the version advanced).
    pub fn publish(&self, key: K, value: V) -> bool {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if !log.index.insert(key.clone()) {
            return false;
        }
        log.entries.push((key, value));
        self.bytes.fetch_add(
            (std::mem::size_of::<(K, V)>() + std::mem::size_of::<K>()) as u64,
            Ordering::Relaxed,
        );
        // Release pairs with the Acquire in `get`: a reader that sees
        // this version also sees the entry pushed above.
        self.version
            .store(log.entries.len() as u64, Ordering::Release);
        true
    }

    /// Read `key` through this thread's replica. When the replica is at
    /// the log's version — the warm steady state — this takes **zero**
    /// locks; otherwise it replays the log tail under the log mutex
    /// first ([`ReplicaRead`] reports which path ran).
    pub fn get(&self, key: &K) -> ReplicaRead<V> {
        self.with_replica(|replica, published, log| {
            if replica.version == published {
                return ReplicaRead {
                    value: replica.map.get(key).cloned(),
                    locks: 0,
                    synced: false,
                };
            }
            Self::replay(replica, log);
            ReplicaRead {
                value: replica.map.get(key).cloned(),
                locks: 1,
                synced: true,
            }
        })
    }

    /// Bring this thread's replica up to the log's current version
    /// without reading a key. Returns `true` when the call replayed the
    /// log tail (the replica was behind or did not exist yet) — the
    /// loadgen warmup and the race tests use this to pre-pay every
    /// sync before a timed section.
    pub fn sync(&self) -> bool {
        self.with_replica(|replica, published, log| {
            if replica.version == published {
                return false;
            }
            Self::replay(replica, log);
            true
        })
    }

    /// Replay the log tail into `replica` under the log mutex.
    fn replay(replica: &mut Replica<K, V, S>, log: &Mutex<Log<K, V, S>>) {
        let log = log.lock().unwrap_or_else(PoisonError::into_inner);
        for (k, v) in &log.entries[replica.version as usize..] {
            replica.map.insert(k.clone(), v.clone());
        }
        replica.version = log.entries.len() as u64;
    }

    /// Run `f` against this thread's replica of this cell, creating (and
    /// garbage-collecting dead) replicas on the rare miss path. `f` also
    /// receives the version observed *before* the replica lookup (the
    /// Acquire fence) and the log for tail replay.
    fn with_replica<R>(
        &self,
        f: impl FnOnce(&mut Replica<K, V, S>, u64, &Mutex<Log<K, V, S>>) -> R,
    ) -> R {
        let published = self.version.load(Ordering::Acquire);
        REPLICAS.with(|cells| {
            let mut cells = cells.borrow_mut();
            let idx = self.cell as usize;
            loop {
                // Single indexed registry hop on the hot path; the miss
                // arm below installs the replica and loops back into it.
                if let Some(slot) = cells.get_mut(idx).and_then(Option::as_mut) {
                    let replica = slot
                        .downcast_mut::<Replica<K, V, S>>()
                        .expect("cell ids are unique, so the slot type is fixed");
                    return f(replica, published, &self.log);
                }
                // Creating a replica is the rare path; use it to drop
                // replicas whose cells no longer exist.
                let live = live_cells().lock().unwrap_or_else(PoisonError::into_inner);
                for (cell, slot) in cells.iter_mut().enumerate() {
                    if slot.is_some() && !live.contains(&(cell as u64)) {
                        *slot = None;
                    }
                }
                drop(live);
                if cells.len() <= idx {
                    cells.resize_with(idx + 1, || None);
                }
                cells[idx] = Some(Box::new(Replica::<K, V, S> {
                    version: 0,
                    map: HashMap::default(),
                }));
            }
        })
    }
}

impl<K, V, S> Default for ReadMostly<K, V, S>
where
    K: Clone + Eq + Hash + Send + 'static,
    V: Clone + Send + 'static,
    S: BuildHasher + Default + Clone + Send + 'static,
{
    fn default() -> Self {
        ReadMostly::new()
    }
}

impl<K, V, S> Drop for ReadMostly<K, V, S> {
    fn drop(&mut self) {
        live_cells()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_read_syncs_then_reads_are_wait_free() {
        let cell: ReadMostly<u64, Arc<str>, BuildId> = ReadMostly::new();
        assert!(cell.publish(1, Arc::from("one")));
        assert!(cell.publish(2, Arc::from("two")));
        assert_eq!(cell.published(), 2);

        let first = cell.get(&1);
        assert_eq!(first.value.as_deref(), Some("one"));
        assert_eq!(first.locks, 1, "a cold replica replays the log");
        assert!(first.synced);

        for key in [1u64, 2, 3] {
            let read = cell.get(&key);
            assert_eq!(read.locks, 0, "synced replica reads take no locks");
            assert!(!read.synced);
            assert_eq!(read.value.is_some(), key <= 2);
        }

        // A new publication forces exactly one more sync.
        assert!(cell.publish(3, Arc::from("three")));
        let read = cell.get(&3);
        assert_eq!((read.locks, read.value.as_deref()), (1, Some("three")));
        assert_eq!(cell.get(&3).locks, 0);
    }

    #[test]
    fn publication_is_first_write_wins_and_the_log_stays_bounded() {
        let cell: ReadMostly<u64, u32, BuildId> = ReadMostly::new();
        assert!(cell.publish(7, 1));
        let bytes_after_first = cell.log_bytes();
        assert!(bytes_after_first > 0);
        // A duplicate publish — the coalesced/cached path — is a no-op:
        // no new entry, no new bytes, and readers keep the first value.
        assert!(!cell.publish(7, 2));
        assert_eq!(cell.get(&7).value, Some(1));
        assert_eq!(cell.published(), 1, "log length == distinct keys");
        assert_eq!(cell.log_bytes(), bytes_after_first);
        assert!(cell.publish(8, 3));
        assert_eq!(cell.published(), 2);
        assert_eq!(cell.log_bytes(), 2 * bytes_after_first);
    }

    #[test]
    fn structured_keys_replicate_like_id_keys() {
        // The point/series/corun caches key by structured values; any
        // Clone + Eq + Hash key goes through the same log machinery.
        let cell: ReadMostly<(u32, &'static str), f64> = ReadMostly::new();
        assert!(cell.publish((1, "a"), 1.5));
        assert!(cell.publish((2, "b"), 2.5));
        let first = cell.get(&(1, "a"));
        assert_eq!((first.value, first.locks), (Some(1.5), 1));
        let warm = cell.get(&(2, "b"));
        assert_eq!((warm.value, warm.locks), (Some(2.5), 0));
        assert_eq!(cell.get(&(3, "c")).value, None);
    }

    #[test]
    fn sync_replays_once_then_is_free() {
        let cell: ReadMostly<u64, u64, BuildId> = ReadMostly::new();
        for k in 0..8 {
            cell.publish(k, k);
        }
        assert!(cell.sync(), "a cold replica replays");
        assert!(!cell.sync(), "an up-to-date replica does not");
        assert_eq!(cell.get(&5).locks, 0, "post-sync reads are wait-free");
        cell.publish(99, 99);
        assert!(cell.sync(), "a publication forces one more replay");
        assert_eq!(cell.get(&99).locks, 0);
    }

    #[test]
    fn publications_are_visible_across_threads() {
        let cell: Arc<ReadMostly<u64, u64, BuildId>> = Arc::new(ReadMostly::new());
        for k in 0..16 {
            cell.publish(k, k * 10);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    let first = cell.get(&0);
                    assert_eq!(first.value, Some(0));
                    assert_eq!(first.locks, 1, "fresh thread syncs once");
                    for k in 0..16 {
                        let read = cell.get(&k);
                        assert_eq!(read.value, Some(k * 10));
                        assert_eq!(read.locks, 0, "then every read is wait-free");
                    }
                });
            }
        });
    }

    #[test]
    fn instances_do_not_share_state_and_drop_unregisters() {
        let a: ReadMostly<u64, u8, BuildId> = ReadMostly::new();
        let b: ReadMostly<u64, u8, BuildId> = ReadMostly::new();
        a.publish(1, 10);
        b.publish(1, 20);
        assert_eq!(a.get(&1).value, Some(10));
        assert_eq!(b.get(&1).value, Some(20));
        let cell_a = a.cell;
        drop(a);
        assert!(
            !live_cells().lock().unwrap().contains(&cell_a),
            "dropped cells leave the live registry"
        );
        // A replica create after the drop garbage-collects the stale
        // thread-local entry and the survivor still answers correctly.
        let c: ReadMostly<u64, u8, BuildId> = ReadMostly::new();
        c.publish(1, 30);
        assert_eq!(c.get(&1).value, Some(30));
        assert_eq!(b.get(&1).value, Some(20));
    }
}
