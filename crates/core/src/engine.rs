//! The parallel, memoizing experiment engine — the execution end of the
//! request → plan → execute pipeline.
//!
//! Every result the paper reports is a grid of *independent* model
//! evaluations — Fig. 1 is a 10×6 `(teams, V)` sweep per case, Table 1 is
//! eight kernel timings, the Section IV study is sixteen co-run series —
//! and many points recur verbatim across drivers (the paper's optimized
//! configurations appear in the Fig. 1 sweeps, Table 1, `autotune`, and
//! the co-run GPU-only leg). The pipeline exploits both properties in
//! three explicit layers:
//!
//! 1. A declarative [`Request`] says *what* to
//!    compute and nothing about how (see [`crate::request`]).
//! 2. The [`Planner`] lowers a request into a [`Plan`]: a deduplicated
//!    DAG of cacheable [`WorkItem`]s, consulting both caches *without
//!    executing anything* so the plan predicts its own hit rate (see
//!    [`crate::plan`]).
//! 3. The [`Executor`] walks the plan's stages, fanning each across
//!    threads with per-stage timing, then assembles typed responses from
//!    the now-warm caches (see [`crate::exec`]).
//!
//! [`Engine::run`] ties them together and memoizes whole responses by
//! [`Request::id`](crate::request::Request::id) — a repeated identical
//! request (the `ghr serve` steady state) is answered with zero
//! re-planning — and [`Engine::render_once`] memoizes the body a front
//! end renders from a repeated response, so a repeated serve line skips
//! the renderer too. Underneath sit:
//!
//! * a **result cache** keyed by [`WorkItem`] — the resolved
//!   [`TargetRegion`] geometry × element count/types × supply
//!   constraint — one locked map per layer, with one exact-key single
//!   flight in front of evaluation, so identical points are evaluated
//!   once per process no matter which request asks;
//! * a **parallel fan driver** that spreads a stage's items over
//!   [`ghr_parallel::parallel_map`] (scoped threads, the caller among
//!   them) and reassembles results in deterministic index order — tables
//!   are bit-identical to the serial path at any thread count. Two kinds
//!   of stage run on the caller's thread alone, where a hand-off costs
//!   more than the work: a workload's teams sweep (seven kernel points)
//!   and a stage the plan predicted to be all cache hits;
//! * a **checksum memo**: the functional checksum of a workload answer
//!   runs the real SIMD kernels once per (kind, case, backend) per
//!   engine, in memory only (see `Engine::checksum`).
//!
//! Cache keys are *resolved geometry*, not driver-level names: Table 1's
//! optimized row and the Fig. 1 sweep both key to
//! `TargetRegion::optimized(65536, v)` at the case's paper scale, so
//! `ghr all` pays for each unique kernel timing exactly once.
//!
//! A co-run series ([`CorunConfig`]) has two granularities. Its A1 variant
//! is *stateful* across the `p` loop (the allocation survives and pages
//! stay where earlier iterations migrated them), so the series — not the
//! `p` point — is its smallest independently evaluable unit and it is one
//! [`WorkItem`]. An **A2** series frees and re-allocates per `p`
//! iteration, so each of its eleven points is an independent item: the
//! planner fans them and the assembly stitches the series in `p` order
//! ([`crate::corun::run_corun_point`]).
//!
//! When a [`PersistentStore`] is attached ([`Engine::with_store_dir`]),
//! every memoized point also round-trips through a versioned on-disk store
//! keyed by the same `WorkItem` render (one file per machine fingerprint),
//! so a second `ghr all` in another process answers from disk instead of
//! re-evaluating.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard};

use crate::autotune::TunedConfig;
use crate::case::Case;
use crate::corun::{run_corun, run_corun_point, AllocSite, CorunConfig, CorunPoint, CorunSeries};
use crate::exec::Executor;
use crate::kernels::{self, WorkloadPoint, WorkloadResult, WORKLOAD_TEAMS_AXIS};
use crate::plan::{refine_axes, Plan, Planner, WorkItem};
use crate::reduction::ReductionSpec;
use crate::request::{autotune_sweep, Request, Response};
use crate::store::{self, PersistentStore};
use crate::study::{self, CorunStudy};
use crate::sweep::{GpuSweep, SweepMode, SweepPoint, SweepResult};
use crate::table1::{Table1, Table1Row};
use crate::whatif::{self, RuntimeScenario, WhatIfRow, WhatIfStudy};
use ghr_gpusim::GpuModel;
use ghr_machine::MachineConfig;
use ghr_omp::{OmpRuntime, TargetRegion};
use ghr_parallel::Backend;
use ghr_types::{Bandwidth, DType, GhrError, KernelDescriptor, Result, StageTiming, WorkloadKind};

/// FNV-1a, used for the machine fingerprint and for the structured-key
/// cache maps. Deterministic across processes and platforms (unlike
/// the std `RandomState`).
#[derive(Debug, Clone)]
pub struct Fnv1aHasher(u64);

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Fnv1aHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Identity hasher for request-id keys. The response map's keys are
/// already uniform 64-bit hashes, so hashing them again buys no
/// distribution and costs every warm probe an extra FNV walk.
#[derive(Default)]
struct IdHasher(u64);

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

/// Hasher state for the id-keyed response map.
type BuildId = BuildHasherDefault<IdHasher>;

/// Hasher state for structured keys (work items, co-run configs).
type BuildFnv = BuildHasherDefault<Fnv1aHasher>;

/// Fingerprint of a machine description (FNV-1a over its debug render):
/// results cached under one machine are never served for another. Selects
/// the persistent store *file*; within a file, keys are fingerprint-free
/// [`WorkItem`] renders.
pub fn machine_fingerprint(machine: &MachineConfig) -> u64 {
    let mut h = Fnv1aHasher::default();
    h.write(format!("{machine:?}").as_bytes());
    h.finish()
}

/// The eight Table 1 kernel specs in row order (baseline then optimized
/// per case) — one definition for the planner's lowering and the
/// executor's assembly.
pub(crate) fn table1_specs() -> Vec<ReductionSpec> {
    let mut specs = Vec::with_capacity(8);
    for case in Case::ALL {
        specs.push(ReductionSpec::baseline(case));
        specs.push(ReductionSpec::optimized_paper(case));
    }
    specs
}

/// Exact-key single flight: at most one thread holds a key at a time.
/// [`lead`](SingleFlight::lead) waits out the key's current holder, then
/// hands back a [`Flight`] guard that frees the key when dropped — on
/// return, on an error, or while a panic unwinds — so a failed leader
/// never strands the threads queued behind it; the next one re-probes,
/// misses, and evaluates itself. Keys are exact, so two different keys
/// never wait on each other.
///
/// Every call site runs probe → lead → re-probe → evaluate → publish →
/// release. The previous holder published before freeing the key, and
/// the key set's mutex orders that publication before the next holder's
/// re-probe, so a re-probe miss means the key is genuinely cold. Warm
/// hits answer from the first probe and never touch the key set.
///
/// A poisoned key-set lock is recovered, not propagated: the set only
/// changes by single `insert`/`remove` calls, so it is valid at every
/// step, and the guard's `Drop` must not panic.
struct SingleFlight<K> {
    held: Mutex<HashSet<K>>,
    freed: Condvar,
    /// Leads that found their key held and waited for it.
    joins: AtomicU64,
}

impl<K: Copy + Eq + Hash> SingleFlight<K> {
    fn new() -> Self {
        SingleFlight {
            held: Mutex::new(HashSet::new()),
            freed: Condvar::new(),
            joins: AtomicU64::new(0),
        }
    }

    /// Take `key`, first waiting for any current holder to drop its
    /// guard.
    fn lead(&self, key: K) -> Flight<'_, K> {
        let mut held = self.held.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        while held.contains(&key) {
            if !waited {
                // Counted under the mutex, before blocking: whoever sees
                // the join knows this thread is parked on the condvar
                // (or will be before the holder can free the key).
                self.joins.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }
            held = self
                .freed
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner);
        }
        held.insert(key);
        Flight {
            flights: self,
            key,
            waited,
        }
    }
}

/// One held key of a [`SingleFlight`]; dropping it frees the key and
/// wakes the threads waiting on it.
struct Flight<'a, K: Copy + Eq + Hash> {
    flights: &'a SingleFlight<K>,
    key: K,
    /// Whether [`SingleFlight::lead`] had to wait for a previous holder.
    waited: bool,
}

impl<K: Copy + Eq + Hash> Drop for Flight<'_, K> {
    fn drop(&mut self) {
        self.flights
            .held
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        self.flights.freed.notify_all();
    }
}

/// How [`Engine::respond`] obtained its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Planned and executed by this call (the single-flight leader).
    Fresh,
    /// Answered whole from the response cache.
    ResponseCache,
    /// An identical request was already in flight on another thread; this
    /// call waited for its result instead of duplicating the work.
    Coalesced,
}

/// A response plus its provenance, as [`Engine::respond`] reports it —
/// what the serve layer renders frame headers from.
#[derive(Debug, Clone)]
pub struct Responded {
    /// The assembled (or cached) response.
    pub response: Arc<Response>,
    /// Where the response came from.
    pub source: ResponseSource,
    /// Points freshly evaluated while this call led the request. Exact
    /// when requests run one at a time; an upper bound under concurrency
    /// (the global counter also advances for overlapping work other
    /// requests evaluate meanwhile). Always 0 for cache hits and
    /// coalesced waits.
    pub evals: u64,
}

/// Stage timings an engine keeps: a server runs cold plans for its whole
/// life, so only the most recent ones are held.
const STAGE_LOG_CAP: usize = 4096;

/// The most recent [`STAGE_LOG_CAP`] stage timings, oldest first, plus the
/// lifetime count of stages executed.
#[derive(Default)]
struct StageLog {
    recent: VecDeque<StageTiming>,
    total: u64,
}

impl StageLog {
    fn push(&mut self, timing: StageTiming) {
        if self.recent.len() == STAGE_LOG_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(timing);
        self.total += 1;
    }
}

/// One engine cache layer: a map under one reader-writer lock, shared by
/// every thread. A probe clones the value under the read lock, so `V` is
/// an `Arc` or a small `Copy` scalar.
///
/// Publication is first-write-wins: a key keeps the first value published
/// for it. Engine values are deterministic, so a racing duplicate (an A2
/// series two requests assemble at once) carries an identical value, and
/// the map holds one entry per distinct key however the race lands.
///
/// A poisoned lock is recovered, as [`SingleFlight`] recovers its key
/// set: the map only changes by single `entry().or_insert` calls, so it
/// is valid at every step.
struct CacheMap<K, V, S = BuildFnv> {
    map: RwLock<HashMap<K, V, S>>,
}

impl<K: Eq + Hash, V: Clone, S: BuildHasher + Default> CacheMap<K, V, S> {
    fn new() -> Self {
        CacheMap {
            map: RwLock::new(HashMap::default()),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<K, V, S>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value published for `key`, if any.
    fn probe(&self, key: &K) -> Option<V> {
        self.read().get(key).cloned()
    }

    /// Whether `key` has been published (the planner's dry run).
    fn contains(&self, key: &K) -> bool {
        self.read().contains_key(key)
    }

    /// Publish a result unless `key` already has one.
    fn publish(&self, key: K, value: V) {
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(value);
    }

    /// Shallow footprint: entries × `size_of::<(K, V)>()`. Heap owned
    /// behind a value (an `Arc`'d response body) is not counted.
    fn bytes(&self) -> u64 {
        (self.read().len() * std::mem::size_of::<(K, V)>()) as u64
    }
}

/// Counters the `--stats` flag reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Threads a fan stage may use, the caller included (1 = serial).
    pub threads: usize,
    /// Requests run through the pipeline ([`Engine::run`]).
    pub requests: u64,
    /// Requests answered whole from the response cache — zero re-planning.
    pub response_hits: u64,
    /// Requests that waited for an identical in-flight request instead of
    /// planning a duplicate evaluation (single-flight coalescing; only
    /// nonzero when [`Engine::respond`] runs concurrently).
    pub coalesced: u64,
    /// Cache lookups performed.
    pub lookups: u64,
    /// Lookups answered from the in-process cache.
    pub hits: u64,
    /// Points actually evaluated (an A1 co-run series counts as one point
    /// — it is its atomic unit of evaluation; each A2 `p` point counts
    /// individually; see the module docs).
    pub evaluated: u64,
    /// Entries the persistent store held when it was opened (0 when no
    /// store is attached).
    pub persistent_loaded: u64,
    /// In-process misses answered from the persistent store.
    pub persistent_hits: u64,
    /// Lookups that missed both caches and had to evaluate (only counted
    /// while a store is attached).
    pub persistent_misses: u64,
    /// Freshly evaluated results written to the persistent store.
    pub persistent_stored: u64,
    /// Grid points refined sweeps actually evaluated.
    pub sweep_evaluated: u64,
    /// Grid points refined sweeps skipped (full grid minus evaluated) —
    /// reported so an adaptively truncated grid is never silent.
    pub sweep_skipped: u64,
    /// Shallow bytes held by the six cache maps (response, rendered
    /// body, point, series, co-run point, functional checksum): entries ×
    /// `size_of::<(K, V)>()`, summed.
    /// Publication is first-write-wins, so this is bounded by distinct
    /// published keys, not by request traffic. The name predates the
    /// maps; the benchmark harness reads it under this name.
    pub replica_log_bytes: u64,
    /// Request ids whose single-flight leader found them still cold and
    /// evaluated (one per cold request-id evaluation attempt).
    pub inflight_claims: u64,
    /// Arrivals that found their request id held by another thread's
    /// flight and waited for it (the coalescing path).
    pub inflight_joins: u64,
}

impl EngineStats {
    /// Fraction of lookups answered from either cache (in-process or
    /// persistent) — i.e. not freshly evaluated. 0.0 before any lookup,
    /// never a division by zero.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.hits + self.persistent_hits) as f64 / self.lookups as f64
        }
    }

    /// Fraction of requests answered whole from the response cache. 0.0
    /// before any request, never a division by zero.
    pub fn response_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.response_hits as f64 / self.requests as f64
        }
    }
}

/// Number of threads to use when none is requested explicitly: the
/// `GHR_THREADS` environment variable if set and positive, otherwise the
/// host's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var("GHR_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The evaluation engine: one machine, one thread budget, one result cache.
///
/// Construct it once per process (or per `ghr` invocation) and route every
/// request through it; repeated and overlapping experiments then share
/// the memoized points. [`Engine::run`] is the pipeline
/// front door; the named methods ([`Engine::table1`], [`Engine::sweep`],
/// …) are typed shorthands that build the equivalent request.
pub struct Engine {
    machine: MachineConfig,
    rt: OmpRuntime,
    fingerprint: u64,
    threads: usize,
    store: Option<PersistentStore>,
    points: CacheMap<WorkItem, f64>,
    series: CacheMap<CorunConfig, Arc<CorunSeries>>,
    corun_pts: CacheMap<(CorunConfig, u32), CorunPoint>,
    responses: CacheMap<u64, Arc<Response>, BuildId>,
    bodies: CacheMap<(u64, u32), Arc<str>>,
    checksums: CacheMap<(WorkloadKind, Case, Backend), f64>,
    request_flights: SingleFlight<u64>,
    item_flights: SingleFlight<WorkItem>,
    inflight_claims: AtomicU64,
    stage_log: Mutex<StageLog>,
    requests: AtomicU64,
    response_hits: AtomicU64,
    coalesced: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    evaluated: AtomicU64,
    pstore_hits: AtomicU64,
    pstore_misses: AtomicU64,
    pstore_stored: AtomicU64,
    sweep_evaluated: AtomicU64,
    sweep_skipped: AtomicU64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("fingerprint", &self.fingerprint)
            .field("threads", &self.threads)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Engine {
    /// Build an engine for a machine. `threads == 0` resolves via
    /// [`default_threads`] (`GHR_THREADS`, then available parallelism);
    /// `threads == 1` evaluates every grid serially on the caller's
    /// thread — the reference path the determinism tests compare against.
    pub fn new(machine: MachineConfig, threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let fingerprint = machine_fingerprint(&machine);
        let rt = OmpRuntime::new(machine.clone());
        Engine {
            machine,
            rt,
            fingerprint,
            threads,
            store: None,
            points: CacheMap::new(),
            series: CacheMap::new(),
            corun_pts: CacheMap::new(),
            responses: CacheMap::new(),
            bodies: CacheMap::new(),
            checksums: CacheMap::new(),
            request_flights: SingleFlight::new(),
            item_flights: SingleFlight::new(),
            inflight_claims: AtomicU64::new(0),
            stage_log: Mutex::new(StageLog::default()),
            requests: AtomicU64::new(0),
            response_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            pstore_hits: AtomicU64::new(0),
            pstore_misses: AtomicU64::new(0),
            pstore_stored: AtomicU64::new(0),
            sweep_evaluated: AtomicU64::new(0),
            sweep_skipped: AtomicU64::new(0),
        }
    }

    /// Attach the persistent result store under `dir` (created on flush if
    /// missing). The engine opens the file matching its machine
    /// fingerprint and the current schema version; a mismatched or corrupt
    /// file loads as empty. Call [`Engine::flush_store`] (or rely on
    /// `Drop`) to write freshly evaluated points back.
    pub fn with_store_dir(mut self, dir: &Path) -> Self {
        self.store = Some(PersistentStore::open(dir, self.fingerprint));
        self
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&PersistentStore> {
        self.store.as_ref()
    }

    /// Flush the persistent store (no-op when none is attached or nothing
    /// is dirty). Returns the number of entries written.
    pub fn flush_store(&self) -> std::io::Result<u64> {
        match &self.store {
            Some(store) => store.flush(),
            None => Ok(0),
        }
    }

    /// The machine this engine evaluates against.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The OpenMP runtime the GPU points go through.
    pub fn rt(&self) -> &OmpRuntime {
        &self.rt
    }

    /// Threads a fan stage may use, the caller included (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            threads: self.threads,
            requests: self.requests.load(Ordering::Relaxed),
            response_hits: self.response_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evaluated: self.evaluated.load(Ordering::Relaxed),
            persistent_loaded: self.store.as_ref().map_or(0, |s| s.loaded()),
            persistent_hits: self.pstore_hits.load(Ordering::Relaxed),
            persistent_misses: self.pstore_misses.load(Ordering::Relaxed),
            persistent_stored: self.pstore_stored.load(Ordering::Relaxed),
            sweep_evaluated: self.sweep_evaluated.load(Ordering::Relaxed),
            sweep_skipped: self.sweep_skipped.load(Ordering::Relaxed),
            replica_log_bytes: self.responses.bytes()
                + self.bodies.bytes()
                + self.points.bytes()
                + self.series.bytes()
                + self.corun_pts.bytes()
                + self.checksums.bytes(),
            inflight_claims: self.inflight_claims.load(Ordering::Relaxed),
            inflight_joins: self.request_flights.joins.load(Ordering::Relaxed),
        }
    }

    /// Per-stage wall-clock and work accounting for the most recent plans
    /// this engine executed (up to 4096 stages), in execution order
    /// (`--stats-json` reads it).
    pub fn stage_timings(&self) -> Vec<StageTiming> {
        self.stage_log().recent.iter().cloned().collect()
    }

    /// Stages executed over the engine's lifetime, including those
    /// [`Engine::stage_timings`] no longer holds.
    pub fn stages_executed(&self) -> u64 {
        self.stage_log().total
    }

    pub(crate) fn log_stage(&self, timing: StageTiming) {
        self.stage_log().push(timing);
    }

    fn stage_log(&self) -> std::sync::MutexGuard<'_, StageLog> {
        self.stage_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    // -----------------------------------------------------------------
    // The pipeline front door
    // -----------------------------------------------------------------

    /// Run one request through the pipeline: response cache → plan →
    /// execute → assemble. A repeated identical request (same
    /// [`Request::id`]) is answered from the response cache with zero
    /// re-planning — the `ghr serve` steady state. Shorthand for
    /// [`Engine::respond`] when the provenance does not matter.
    pub fn run(&self, request: &Request) -> Result<Arc<Response>> {
        Ok(self.respond(request)?.response)
    }

    /// [`Engine::run`] with provenance: says whether the response was
    /// freshly evaluated, answered from the response cache, or coalesced
    /// onto an identical request already in flight on another thread
    /// (single-flight: concurrent duplicates wait for the leader's result
    /// instead of planning their own evaluation). Safe to call from any
    /// number of threads over one shared engine — every cache and counter
    /// behind it is lock- or atomic-guarded.
    pub fn respond(&self, request: &Request) -> Result<Responded> {
        self.respond_with_id(request, request.id().0)
    }

    /// A warm response hit's provenance and counter bump: an arrival
    /// that waited on an in-flight leader counts as coalesced, a direct
    /// hit as a response-cache answer.
    fn warm_hit(&self, response: Arc<Response>, waited: bool) -> Responded {
        let source = if waited {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            ResponseSource::Coalesced
        } else {
            self.response_hits.fetch_add(1, Ordering::Relaxed);
            ResponseSource::ResponseCache
        };
        Responded {
            response,
            source,
            evals: 0,
        }
    }

    /// [`Engine::respond`] with the request id precomputed by the caller
    /// (`id` must be `request.id().0`). A caller that already holds the
    /// id — `ghr serve` hashes each line once for its frame header —
    /// passes it in, so the warm path's cost is the cache probe itself,
    /// not a second canonical render feeding the hash.
    ///
    /// A warm hit takes one read lock, the response map's, and returns
    /// before the single flight is touched. A cold id leads the
    /// request-id flight; duplicates arriving meanwhile wait for it and
    /// re-probe the response the leader published *before* releasing.
    pub fn respond_with_id(&self, request: &Request, id: u64) -> Result<Responded> {
        request.validate(&self.machine)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(response) = self.responses.probe(&id) {
            return Ok(self.warm_hit(response, false));
        }
        let flight = self.request_flights.lead(id);
        if let Some(response) = self.responses.probe(&id) {
            return Ok(self.warm_hit(response, flight.waited));
        }
        self.inflight_claims.fetch_add(1, Ordering::Relaxed);
        let evals_before = self.evaluated.load(Ordering::Relaxed);
        // On error (or panic) the flight frees the id without a
        // publication; a waiting duplicate re-probes, misses, and
        // evaluates itself — the id stays evaluable and each caller
        // observes its own attempt's outcome.
        let response = self.evaluate(request, id)?;
        drop(flight);
        Ok(Responded {
            response,
            source: ResponseSource::Fresh,
            evals: self
                .evaluated
                .load(Ordering::Relaxed)
                .saturating_sub(evals_before),
        })
    }

    /// The body a front end renders from `responded` under its render
    /// `variant` — a packing of the command and every switch its renderer
    /// reads. `id` must be the id `responded` was asked under (as for
    /// [`Engine::respond_with_id`]). Memoized per `(id, variant)`: a
    /// published body is returned without calling `render`.
    ///
    /// A body is published only when `responded` came from the response
    /// cache, the id's second touch, so a one-off id costs the memo
    /// nothing. Fresh and coalesced answers render without publishing.
    pub fn render_once<E>(
        &self,
        id: u64,
        variant: u32,
        responded: &Responded,
        render: impl FnOnce(&Response) -> std::result::Result<String, E>,
    ) -> std::result::Result<Arc<str>, E> {
        let key = (id, variant);
        if let Some(body) = self.bodies.probe(&key) {
            return Ok(body);
        }
        let body: Arc<str> = render(&responded.response)?.into();
        if responded.source == ResponseSource::ResponseCache {
            self.bodies.publish(key, Arc::clone(&body));
        }
        Ok(body)
    }

    /// Plan and execute one cold request, publishing the assembled
    /// response (the single-flight leader's body) — and doing so
    /// *before* the caller releases its flight.
    fn evaluate(&self, request: &Request, id: u64) -> Result<Arc<Response>> {
        let plan = Planner::new(self).plan(request)?;
        let mut responses = Executor::new(self).run(&plan)?;
        let response = responses
            .pop()
            .ok_or_else(|| GhrError::internal("plan produced no response".to_string()))?;
        self.responses.publish(id, Arc::clone(&response));
        Ok(response)
    }

    /// Lower a request into its plan without executing anything (the
    /// `ghr plan` dry run).
    pub fn plan(&self, request: &Request) -> Result<Plan> {
        Planner::new(self).plan(request)
    }

    /// Lower several requests into one combined, cross-request-deduplicated
    /// plan without executing anything.
    pub fn plan_many(&self, requests: &[Request]) -> Result<Plan> {
        Planner::new(self).plan_many(requests)
    }

    // -----------------------------------------------------------------
    // Work-item evaluation (the executor's fan target)
    // -----------------------------------------------------------------

    /// Whether `item` would be answered from a cache right now — the
    /// planner's probe.
    pub(crate) fn probe_item(&self, item: &WorkItem) -> bool {
        let in_memory = match item {
            WorkItem::CorunSeries(cfg) => self.series.contains(cfg),
            WorkItem::CorunPoint(cfg, i) => self.corun_pts.contains(&(*cfg, *i)),
            WorkItem::Gpu { .. } | WorkItem::WhatIf { .. } | WorkItem::Kernel { .. } => {
                self.points.contains(item)
            }
        };
        in_memory
            || self
                .store
                .as_ref()
                .is_some_and(|s| s.contains(&format!("{item:?}")))
    }

    /// Evaluate (or cache-fill) one work item. Results land in the item
    /// caches; the assembly re-reads them as hits.
    pub(crate) fn eval_item(&self, item: &WorkItem) -> Result<()> {
        match *item {
            WorkItem::Gpu {
                region,
                m,
                elem,
                acc,
                supply_bits,
            } => {
                self.gpu_point(
                    &region,
                    m,
                    elem,
                    acc,
                    supply_bits.map(|bits| Bandwidth::gbps(f64::from_bits(bits))),
                )?;
            }
            WorkItem::CorunSeries(cfg) => {
                self.corun_series(&cfg)?;
            }
            WorkItem::CorunPoint(cfg, i) => {
                self.corun_point_a2(&cfg, i)?;
            }
            WorkItem::WhatIf { scenario, case } => {
                self.whatif_point(scenario, case)?;
            }
            WorkItem::Kernel {
                kind,
                region,
                m,
                elem,
                acc,
            } => {
                self.kernel_point(kind, &region, m, elem, acc)?;
            }
        }
        Ok(())
    }

    /// Fan a stage's items across threads (see [`Engine::map_grid`]).
    /// Two kinds of stage run on the caller's thread, where they cost
    /// less than spawning a helper: one of workload kernel points only (a
    /// `dot|scan|gemv` teams sweep: seven analytic points of about 2 µs
    /// each), and one whose `predicted_hits` covers every item (a warm
    /// start's stages are all store hits).
    pub(crate) fn map_items(&self, items: &[WorkItem], predicted_hits: usize) -> Result<()> {
        if predicted_hits >= items.len()
            || items.iter().all(|i| matches!(i, WorkItem::Kernel { .. }))
        {
            return items.iter().try_for_each(|i| self.eval_item(i));
        }
        self.map_grid(items, |item| self.eval_item(item))?
            .into_iter()
            .collect()
    }

    /// Fan `f` over `items` on up to [`Engine::threads`] threads, the
    /// caller included, and return results in item order: the vector is
    /// identical to the serial map at any thread count. An item that
    /// panics surfaces as [`GhrError::Internal`] (after every other item
    /// has run) instead of aborting the whole study.
    fn map_grid<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        ghr_parallel::parallel_map(items, self.threads, f).map_err(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            GhrError::internal(format!("worker panicked: {msg}"))
        })
    }

    /// Look up an in-process miss in the persistent store; decode with
    /// `dec`. Counts a persistent hit or miss as a side effect.
    fn store_get<V>(&self, key: &str, dec: impl FnOnce(&str) -> Option<V>) -> Option<V> {
        let store = self.store.as_ref()?;
        match store.get(key).as_deref().and_then(dec) {
            Some(v) => {
                self.pstore_hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.pstore_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record a freshly evaluated result in the persistent store.
    fn store_put(&self, key: String, value: String) {
        if let Some(store) = &self.store {
            store.put(key, value);
            self.pstore_stored.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Memoized scalar evaluation: in-process cache, then the persistent
    /// store, then `eval` (whose result feeds both). The miss path runs
    /// under the item's flight, so concurrent requests racing on the
    /// same point evaluate it once — the losers re-probe the cache after
    /// the leader's publish and count a hit.
    fn cached(&self, key: WorkItem, eval: impl FnOnce() -> Result<f64>) -> Result<f64> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(v) = self.points.probe(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        let flight = self.item_flights.lead(key);
        if let Some(v) = self.points.probe(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        let skey = format!("{key:?}");
        if let Some(v) = self.store_get(&skey, store::decode_f64) {
            self.points.publish(key, v);
            return Ok(v);
        }
        let v = eval()?;
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        self.store_put(skey, store::encode_f64(v));
        self.points.publish(key, v);
        drop(flight);
        Ok(v)
    }

    /// Bandwidth (GB/s) of one GPU kernel timing, memoized. This is the
    /// primitive under every sweep, Table 1 and autotune item; its key is
    /// the *resolved* region geometry, so the same point reached through
    /// different requests hits the cache.
    pub fn gpu_point(
        &self,
        region: &TargetRegion,
        m: u64,
        elem: DType,
        acc: DType,
        supply: Option<Bandwidth>,
    ) -> Result<f64> {
        let key = WorkItem::Gpu {
            region: *region,
            m,
            elem,
            acc,
            supply_bits: supply.map(|b| b.as_gbps().to_bits()),
        };
        self.cached(key, || {
            Ok(self
                .rt
                .time_target_reduce(region, m, elem, acc, supply)?
                .effective_bw
                .as_gbps())
        })
    }

    /// Bandwidth (GB/s) of one descriptor-timed workload kernel point,
    /// memoized under the same point cache as the reduction GPU points —
    /// the workload kind rides in the key, so a dot and a scan at the
    /// same geometry never alias.
    pub fn kernel_point(
        &self,
        kind: WorkloadKind,
        region: &TargetRegion,
        m: u64,
        elem: DType,
        acc: DType,
    ) -> Result<f64> {
        let key = WorkItem::Kernel {
            kind,
            region: *region,
            m,
            elem,
            acc,
        };
        self.cached(key, || {
            let desc = KernelDescriptor::for_kind(kind, elem, acc);
            Ok(self
                .rt
                .time_target_kernel(region, m, &desc, None)?
                .effective_bw
                .as_gbps())
        })
    }

    /// Assemble one workload request's result from the warm point cache:
    /// the teams sweep (pure hits after the plan's fan stage), the CPU
    /// roofline over the same bytes, the simulated first-touch placement
    /// and the functional checksum (see [`Engine::checksum`]).
    pub(crate) fn workload_result(
        &self,
        kind: WorkloadKind,
        case: Case,
        m: u64,
    ) -> Result<WorkloadResult> {
        let (elem, acc) = (case.elem(), case.acc());
        let mut points = Vec::with_capacity(WORKLOAD_TEAMS_AXIS.len());
        let (mut best_teams, mut best_gbps) = (0u64, f64::NEG_INFINITY);
        for &teams in &WORKLOAD_TEAMS_AXIS {
            let region = TargetRegion::optimized(teams, case.v_optimized());
            let gbps = self.kernel_point(kind, &region, m, elem, acc)?;
            if gbps > best_gbps {
                best_gbps = gbps;
                best_teams = teams;
            }
            points.push(WorkloadPoint { teams, gbps });
        }
        let cpu_gbps = kernels::cpu_workload_gbps(&self.rt, kind, case, m);
        let desc = KernelDescriptor::for_kind(kind, elem, acc);
        let mut um = ghr_mem::UnifiedMemory::new(&self.machine);
        let placement =
            kernels::first_touch_placement(&mut um, desc.input_bytes(m), best_gbps, cpu_gbps);
        let checksum = self.checksum(kind, case);
        Ok(WorkloadResult {
            kind,
            case,
            m,
            points,
            best_teams,
            best_gbps,
            cpu_gbps,
            placement,
            checksum,
        })
    }

    /// The functional checksum of `kind` and `case` on the active SIMD
    /// backend, run once per (functional kind, case, backend) and kept in
    /// memory: its input is fixed at [`kernels::FUNC_M`] elements, so the
    /// value never depends on the request's element count. It is never
    /// written to the persistent store, so every process runs the real
    /// kernels once per key and a broken vector path still shows in the
    /// output. No single flight: a race runs one key's kernels twice and
    /// the first value published wins (both are the same bits).
    fn checksum(&self, kind: WorkloadKind, case: Case) -> f64 {
        let backend = Backend::active();
        let key = (kernels::functional_kind(kind), case, backend);
        if let Some(sum) = self.checksums.probe(&key) {
            return sum;
        }
        let sum = kernels::checksum_on(kind, case, backend);
        self.checksums.publish(key, sum);
        sum
    }

    /// The paper's bandwidth metric for a spec at the paper's scale
    /// (memoized equivalent of [`ReductionSpec::gbps_paper`]).
    pub fn spec_gbps_paper(&self, spec: &ReductionSpec) -> Result<f64> {
        self.gpu_point(
            &spec.region(),
            spec.case.m_paper(),
            spec.case.elem(),
            spec.case.acc(),
            None,
        )
    }

    /// One point of a Fig. 1 sweep (memoized like any other GPU point).
    fn sweep_point(&self, sweep: &GpuSweep, teams: u64, v: u32) -> Result<f64> {
        let region = TargetRegion::optimized(teams, v).with_thread_limit(sweep.thread_limit);
        self.gpu_point(&region, sweep.m, sweep.case.elem(), sweep.case.acc(), None)
    }

    /// One co-execution series, memoized, in whatever granularity its
    /// allocation site dictates (see the module docs). An A1 series is
    /// stateful across `p` and evaluated whole; an A2 series is stitched
    /// from its independently cached per-`p` points — when the executor
    /// has already fanned those points, this is pure cache traffic.
    pub(crate) fn corun_series(&self, config: &CorunConfig) -> Result<Arc<CorunSeries>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.series.probe(config) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(s);
        }
        let s = match config.alloc {
            AllocSite::A1 => {
                // An A1 series is one atomic work item: lead its flight
                // so concurrent requests evaluate it once. (The A2 arm
                // below leads nothing — its points each lead their own
                // inside `corun_point_a2`, and a series holder must not
                // wait on other keys.)
                let item = WorkItem::CorunSeries(*config);
                let flight = self.item_flights.lead(item);
                if let Some(s) = self.series.probe(config) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(s);
                }
                let skey = format!("{item:?}");
                let s = if let Some(points) = self.store_get(&skey, store::decode_corun_points) {
                    Arc::new(CorunSeries {
                        config: *config,
                        points,
                    })
                } else {
                    let s = Arc::new(run_corun(&self.machine, config)?);
                    self.evaluated.fetch_add(1, Ordering::Relaxed);
                    self.store_put(skey, store::encode_corun_points(&s.points));
                    s
                };
                self.series.publish(*config, Arc::clone(&s));
                drop(flight);
                return Ok(s);
            }
            AllocSite::A2 => {
                let points = (0..=config.p_steps)
                    .map(|i| self.corun_point_a2(config, i))
                    .collect::<Result<Vec<_>>>()?;
                Arc::new(CorunSeries {
                    config: *config,
                    points,
                })
            }
        };
        // Racing A2 assemblies may both reach this publish; the first
        // write wins (the bodies are deterministic and identical).
        self.series.publish(*config, Arc::clone(&s));
        Ok(s)
    }

    /// One `p` point of an A2 co-run series, memoized individually —
    /// byte-identical to the corresponding point of the sequential
    /// [`run_corun`] loop (each A2 iteration re-allocates, so no state
    /// crosses `p`; see [`run_corun_point`]).
    fn corun_point_a2(&self, config: &CorunConfig, i: u32) -> Result<CorunPoint> {
        let key = (*config, i);
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = self.corun_pts.probe(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        let item = WorkItem::CorunPoint(*config, i);
        let flight = self.item_flights.lead(item);
        if let Some(p) = self.corun_pts.probe(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        let skey = format!("{item:?}");
        if let Some(p) = self.store_get(&skey, store::decode_corun_point) {
            self.corun_pts.publish(key, p);
            return Ok(p);
        }
        let p = run_corun_point(&self.machine, config, i)?;
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        self.store_put(skey, store::encode_corun_point(&p));
        self.corun_pts.publish(key, p);
        drop(flight);
        Ok(p)
    }

    /// One what-if point: the baseline code under a runtime scenario, or
    /// (`scenario == None`) the optimized source-level-V reference.
    fn whatif_point(&self, scenario: Option<RuntimeScenario>, case: Case) -> Result<f64> {
        let key = WorkItem::WhatIf { scenario, case };
        self.cached(key, || {
            let gbps = match scenario {
                Some(sc) => {
                    let model = whatif::model_for(&self.machine, sc);
                    let launch = whatif::baseline_launch(&self.machine, case, sc);
                    model.reduce(&launch)?.effective_bw.as_gbps()
                }
                None => {
                    let model = GpuModel::new(self.machine.gpu.clone());
                    let launch = ghr_gpusim::calibrate::optimized_launch(match case {
                        Case::C1 => 1,
                        Case::C2 => 2,
                        Case::C3 => 3,
                        Case::C4 => 4,
                    });
                    model.reduce(&launch)?.effective_bw.as_gbps()
                }
            };
            Ok(gbps)
        })
    }

    // -----------------------------------------------------------------
    // Refinement and assembly (the executor's read-back path)
    // -----------------------------------------------------------------

    /// The refined sweep's adaptive follow-up: given the coarse largest-`V`
    /// pass (already in cache after the plan's coarse stage), binary-search
    /// each in-band teams column for the smallest `V` still inside the
    /// 0.1% hysteresis band of [`SweepResult::best`].
    ///
    /// Exploits one model property, pinned by the exhaustive sweep tests
    /// (`bandwidth_monotone_in_v_at_fixed_teams`): **at a fixed teams
    /// value, bandwidth is non-decreasing in `V`** — a larger `V` only
    /// widens each team's strided slice, it never adds launch overhead.
    /// Nothing is assumed about the shape along the teams axis (at small
    /// element counts the series rise and then *fall* as teams outgrow the
    /// work, so a plateau at the largest teams value cannot be assumed).
    /// By column monotonicity the largest-`V` series dominates every
    /// column, so its maximum is the grid's true maximum, and only teams
    /// values reaching its band can host any in-band point; each of those
    /// columns is sorted, so ≤ log2(|vs|) probes find its minimum. The
    /// lexicographically smallest `(V, teams)` among those column minima
    /// is exactly the point the exhaustive sweep's `best()` returns.
    ///
    /// The returned result holds only the evaluated points (reported via
    /// [`SweepResult::coverage`] and the engine's `sweep_evaluated` /
    /// `sweep_skipped` counters), and its `best()` is the same point —
    /// bit-identical bandwidth — as the exhaustive sweep's. Falls back to
    /// the exhaustive grid when the space is degenerate or too small for
    /// refinement to pay for itself ([`refine_axes`] — the same predicate
    /// the planner lowers with, so plan and execution always agree).
    pub(crate) fn refine_search(&self, sweep: &GpuSweep) -> Result<SweepResult> {
        let Some((vs_sorted, v_max)) = refine_axes(sweep) else {
            return self.assemble_sweep_exhaustive(sweep);
        };

        // 1. Coarse pass: the dominating largest-V series, whole axis
        // (cache hits when the plan's coarse stage ran first).
        let mut evaluated: Vec<SweepPoint> = Vec::with_capacity(sweep.teams_axis.len() + 8);
        let mut max = f64::NEG_INFINITY;
        for &t in &sweep.teams_axis {
            let gbps = self.sweep_point(sweep, t, v_max)?;
            max = max.max(gbps);
            evaluated.push(SweepPoint {
                teams_axis: t,
                v: v_max,
                gbps,
            });
        }
        let band = max * (1.0 - 1e-3);

        // 2. Fine pass: per in-band teams value, binary-search the
        // smallest in-band V. Invariant: vs_sorted[hi] is in band,
        // everything below vs_sorted[lo] is not.
        let in_band_teams: Vec<u64> = evaluated
            .iter()
            .filter(|p| p.gbps >= band)
            .map(|p| p.teams_axis)
            .collect();
        for t in in_band_teams {
            let (mut lo, mut hi) = (0usize, vs_sorted.len() - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                let gbps = self.sweep_point(sweep, t, vs_sorted[mid])?;
                evaluated.push(SweepPoint {
                    teams_axis: t,
                    v: vs_sorted[mid],
                    gbps,
                });
                if gbps >= band {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
        }

        // Deterministic (v-major, teams-minor) order, like the full grid.
        evaluated.sort_by_key(|p| (p.v, p.teams_axis));
        evaluated.dedup_by_key(|p| (p.v, p.teams_axis));
        self.sweep_evaluated
            .fetch_add(evaluated.len() as u64, Ordering::Relaxed);
        self.sweep_skipped.fetch_add(
            sweep.grid_size().saturating_sub(evaluated.len()) as u64,
            Ordering::Relaxed,
        );
        Ok(SweepResult {
            sweep: sweep.clone(),
            points: evaluated,
            mode: SweepMode::Refined,
        })
    }

    /// Assemble the full (v-major, teams-minor) grid from the point cache
    /// — pure hits after the plan's grid stage ran.
    fn assemble_sweep_exhaustive(&self, sweep: &GpuSweep) -> Result<SweepResult> {
        let mut points = Vec::with_capacity(sweep.grid_size());
        for &v in &sweep.vs {
            for &teams in &sweep.teams_axis {
                points.push(SweepPoint {
                    teams_axis: teams,
                    v,
                    gbps: self.sweep_point(sweep, teams, v)?,
                });
            }
        }
        Ok(SweepResult {
            sweep: sweep.clone(),
            points,
            mode: SweepMode::Exhaustive,
        })
    }

    /// Assemble the typed response for one request from the warm caches.
    /// `refined` holds the adaptive stages' results keyed by their sweep
    /// (an adaptive search cannot be re-read from the point cache alone —
    /// *which* points it probed is part of the result).
    pub(crate) fn assemble(
        &self,
        request: &Request,
        refined: &HashMap<GpuSweep, SweepResult>,
    ) -> Result<Response> {
        match request {
            Request::Sweep { sweep, mode } => {
                let result = match mode {
                    SweepMode::Exhaustive => self.assemble_sweep_exhaustive(sweep)?,
                    SweepMode::Refined => match refined.get(sweep) {
                        Some(r) => r.clone(),
                        // Degenerate space: the planner lowered the full
                        // grid and refine_search falls back to it too.
                        None => self.refine_search(sweep)?,
                    },
                };
                Ok(Response::Sweep(result))
            }
            Request::Table1 => {
                let peak_gbps = self.machine.gpu.hbm_peak_bw.as_gbps();
                let mut rows = Vec::with_capacity(4);
                for case in Case::ALL {
                    let base_gbps = self.spec_gbps_paper(&ReductionSpec::baseline(case))?;
                    let opt_gbps = self.spec_gbps_paper(&ReductionSpec::optimized_paper(case))?;
                    rows.push(Table1Row {
                        case,
                        base_gbps,
                        opt_gbps,
                        speedup: opt_gbps / base_gbps,
                        eff_base: base_gbps / peak_gbps,
                        eff_opt: opt_gbps / peak_gbps,
                    });
                }
                Ok(Response::Table1(Table1 { peak_gbps, rows }))
            }
            Request::Corun { configs } => Ok(Response::Corun(
                configs
                    .iter()
                    .map(|cfg| self.corun_series(cfg))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Request::Study { m, n_reps } => {
                let mut out = CorunStudy {
                    a1_base: Vec::with_capacity(4),
                    a1_opt: Vec::with_capacity(4),
                    a2_base: Vec::with_capacity(4),
                    a2_opt: Vec::with_capacity(4),
                };
                for (i, cfg) in study::study_configs(*m, *n_reps).iter().enumerate() {
                    let s = (*self.corun_series(cfg)?).clone();
                    match i % 4 {
                        0 => out.a1_base.push(s),
                        1 => out.a1_opt.push(s),
                        2 => out.a2_base.push(s),
                        _ => out.a2_opt.push(s),
                    }
                }
                Ok(Response::Study(out))
            }
            Request::WhatIf => {
                let mut rows = Vec::with_capacity(whatif::SCENARIOS.len());
                for scenario in whatif::SCENARIOS {
                    let mut gbps = [0.0; 4];
                    for (g, case) in gbps.iter_mut().zip(Case::ALL) {
                        *g = self.whatif_point(Some(scenario), case)?;
                    }
                    rows.push(WhatIfRow { scenario, gbps });
                }
                let mut optimized_gbps = [0.0; 4];
                for (g, case) in optimized_gbps.iter_mut().zip(Case::ALL) {
                    *g = self.whatif_point(None, case)?;
                }
                Ok(Response::WhatIf(WhatIfStudy {
                    rows,
                    optimized_gbps,
                }))
            }
            Request::Autotune { cases, m } => {
                let mut out = Vec::with_capacity(cases.len());
                for &case in cases {
                    let sweep = autotune_sweep(case, *m);
                    let result = match refined.get(&sweep) {
                        Some(r) => r.clone(),
                        None => self.refine_search(&sweep)?,
                    };
                    let best = result.best();
                    out.push(TunedConfig {
                        case,
                        teams_axis: best.teams_axis,
                        v: best.v,
                        gbps: best.gbps,
                    });
                }
                Ok(Response::Autotune(out))
            }
            Request::Dot { .. } | Request::Scan { .. } | Request::Gemv { .. } => {
                let (kind, case, m) = request
                    .workload_parts()
                    .expect("workload request has workload parts");
                Ok(Response::Workload(self.workload_result(kind, case, m)?))
            }
        }
    }

    // -----------------------------------------------------------------
    // Typed shorthands (each builds and runs the equivalent request)
    // -----------------------------------------------------------------

    /// Run a Fig. 1 sweep over the full grid, fanned across threads.
    /// Point order and values are bit-identical to [`GpuSweep::run`].
    pub fn sweep(&self, sweep: &GpuSweep) -> Result<SweepResult> {
        Ok(self
            .run(&Request::Sweep {
                sweep: sweep.clone(),
                mode: SweepMode::Exhaustive,
            })?
            .sweep()?
            .clone())
    }

    /// Run a sweep in the requested [`SweepMode`].
    pub fn sweep_mode(&self, sweep: &GpuSweep, mode: SweepMode) -> Result<SweepResult> {
        Ok(self
            .run(&Request::Sweep {
                sweep: sweep.clone(),
                mode,
            })?
            .sweep()?
            .clone())
    }

    /// Coarse-to-fine sweep: the same [`SweepResult::best`] as the
    /// exhaustive grid while evaluating only a fraction of it (see
    /// `Engine::refine_search` for the algorithm and its invariant).
    pub fn sweep_refined(&self, sweep: &GpuSweep) -> Result<SweepResult> {
        self.sweep_mode(sweep, SweepMode::Refined)
    }

    /// Regenerate Table 1 with the eight kernel timings fanned across
    /// threads (memoized equivalent of [`crate::table1::table1`]).
    pub fn table1(&self) -> Result<Table1> {
        Ok(self.run(&Request::Table1)?.table1()?.clone())
    }

    /// Autotune one case over the paper's space at the paper's scale.
    pub fn autotune(&self, case: Case) -> Result<TunedConfig> {
        self.autotune_scaled(case, case.m_paper())
    }

    /// Autotune at a reduced element count (for tests). The underlying
    /// sweep runs in [`SweepMode::Refined`] — it returns the same best
    /// point as the full grid while probing only a fraction of it.
    pub fn autotune_scaled(&self, case: Case, m: u64) -> Result<TunedConfig> {
        let tuned = self
            .run(&Request::Autotune {
                cases: vec![case],
                m: Some(m),
            })?
            .autotune()?
            .to_vec();
        tuned
            .into_iter()
            .next()
            .ok_or_else(|| GhrError::internal("autotune produced no config".to_string()))
    }

    /// Autotune all four cases in one request.
    pub fn autotune_all(&self) -> Result<Vec<TunedConfig>> {
        Ok(self
            .run(&Request::Autotune {
                cases: Case::ALL.to_vec(),
                m: None,
            })?
            .autotune()?
            .to_vec())
    }

    /// One co-execution series, memoized (see the module docs for the
    /// A1/A2 granularity split).
    pub fn corun(&self, config: &CorunConfig) -> Result<Arc<CorunSeries>> {
        let response = self.run(&Request::Corun {
            configs: vec![*config],
        })?;
        let series = response.corun()?;
        series
            .first()
            .cloned()
            .ok_or_else(|| GhrError::internal("corun produced no series".to_string()))
    }

    /// Evaluate several co-run series in one request; results come back
    /// in config order.
    pub fn corun_many(&self, configs: &[CorunConfig]) -> Result<Vec<Arc<CorunSeries>>> {
        if configs.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self
            .run(&Request::Corun {
                configs: configs.to_vec(),
            })?
            .corun()?
            .to_vec())
    }

    /// The full Section IV study at the paper's scale.
    pub fn full_study(&self) -> Result<CorunStudy> {
        self.full_study_scaled(None, None)
    }

    /// The full study with optional scaling — the parallel, memoized
    /// equivalent of [`crate::study::run_full_study_scaled`], assembling
    /// buckets in the same order.
    pub fn full_study_scaled(&self, m: Option<u64>, n_reps: Option<u32>) -> Result<CorunStudy> {
        Ok(self.run(&Request::Study { m, n_reps })?.study()?.clone())
    }

    /// The what-if study (runtime-side recovery of the baseline deficit),
    /// its 20 points fanned across threads — the parallel, memoized
    /// equivalent of [`crate::whatif::whatif_study`].
    pub fn whatif(&self) -> Result<WhatIfStudy> {
        Ok(self.run(&Request::WhatIf)?.whatif()?.clone())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Backstop flush of the persistent store; callers that care about
        // the entry count (or the I/O error) call `flush_store` directly.
        let _ = self.flush_store();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(threads: usize) -> Engine {
        Engine::new(MachineConfig::gh200(), threads)
    }

    #[test]
    fn fingerprint_distinguishes_machines() {
        let a = MachineConfig::gh200();
        let mut b = MachineConfig::gh200();
        b.cpu.cores += 1;
        assert_ne!(machine_fingerprint(&a), machine_fingerprint(&b));
        assert_eq!(machine_fingerprint(&a), machine_fingerprint(&a.clone()));
    }

    #[test]
    fn engine_with_zero_threads_resolves_a_default() {
        let e = engine(0);
        assert!(e.threads() >= 1);
    }

    #[test]
    fn a_panicking_fan_item_becomes_an_internal_error() {
        let items: Vec<u32> = (0..8).collect();
        for threads in [1, 2, 8] {
            let err = engine(threads)
                .map_grid(&items, |&i| {
                    if i == 5 {
                        panic!("item {i} failed");
                    }
                    i
                })
                .unwrap_err();
            let want = "worker panicked: item 5 failed";
            let internal = matches!(&err, GhrError::Internal { detail } if detail == want);
            assert!(internal, "threads={threads}: {err:?}");
            let ok = engine(threads).map_grid(&items, |&i| i * 2).unwrap();
            assert_eq!(ok, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn gpu_point_matches_direct_runtime_call() {
        let e = engine(1);
        let region = TargetRegion::optimized(65536, 4);
        let direct = e
            .rt()
            .time_target_reduce(&region, 1 << 20, DType::I32, DType::I32, None)
            .unwrap()
            .effective_bw
            .as_gbps();
        let cached = e
            .gpu_point(&region, 1 << 20, DType::I32, DType::I32, None)
            .unwrap();
        assert_eq!(direct.to_bits(), cached.to_bits());
    }

    #[test]
    fn second_lookup_is_a_hit_not_an_evaluation() {
        let e = engine(1);
        let region = TargetRegion::baseline();
        for _ in 0..3 {
            e.gpu_point(&region, 1 << 20, DType::F32, DType::F32, None)
                .unwrap();
        }
        let s = e.stats();
        assert_eq!(s.evaluated, 1, "{s:?}");
        assert_eq!(s.hits, 2, "{s:?}");
        assert_eq!(s.lookups, 3, "{s:?}");
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_engine_rates_are_zero_not_nan() {
        let s = engine(1).stats();
        assert_eq!(s.lookups, 0);
        assert_eq!(s.requests, 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.response_hit_rate(), 0.0);
        assert!(!s.hit_rate().is_nan());
        assert!(!s.response_hit_rate().is_nan());
    }

    #[test]
    fn supply_cap_is_part_of_the_key() {
        let e = engine(1);
        let region = TargetRegion::optimized(65536, 4);
        let local = e
            .gpu_point(&region, 1 << 22, DType::I32, DType::I32, None)
            .unwrap();
        let capped = e
            .gpu_point(
                &region,
                1 << 22,
                DType::I32,
                DType::I32,
                Some(Bandwidth::gbps(380.0)),
            )
            .unwrap();
        assert!(capped < local);
        assert_eq!(e.stats().evaluated, 2);
    }

    #[test]
    fn refined_sweep_finds_the_exhaustive_best() {
        let e = engine(2);
        for case in Case::ALL {
            let sweep = GpuSweep::paper_scaled(case, 1 << 22);
            let full = e.sweep(&sweep).unwrap();
            let refined = e.sweep_refined(&sweep).unwrap();
            assert_eq!(refined.mode, SweepMode::Refined);
            let (fb, rb) = (full.best(), refined.best());
            assert_eq!(
                (fb.teams_axis, fb.v),
                (rb.teams_axis, rb.v),
                "{case}: exhaustive {fb:?} vs refined {rb:?}"
            );
            assert_eq!(fb.gbps.to_bits(), rb.gbps.to_bits(), "{case}");
            let (eval, grid) = refined.coverage();
            assert!(eval * 2 <= grid, "{case}: {eval}/{grid} evaluated");
        }
        let s = e.stats();
        assert!(s.sweep_evaluated > 0);
        assert!(s.sweep_skipped > 0);
    }

    #[test]
    fn sweep_mode_dispatches() {
        let e = engine(1);
        let sweep = GpuSweep::paper_scaled(Case::C1, 1 << 20);
        let a = e.sweep_mode(&sweep, SweepMode::Exhaustive).unwrap();
        let b = e.sweep_mode(&sweep, SweepMode::Refined).unwrap();
        assert_eq!(a.mode, SweepMode::Exhaustive);
        assert_eq!(b.mode, SweepMode::Refined);
        assert!(b.points.len() < a.points.len());
    }

    #[test]
    fn repeated_request_is_a_response_hit_with_no_new_work() {
        let e = engine(1);
        let first = e.table1().unwrap();
        let after_first = e.stats();
        assert_eq!(after_first.evaluated, 8, "{after_first:?}");
        let second = e.table1().unwrap();
        let s = e.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.response_hits, 1, "{s:?}");
        assert_eq!(
            s.lookups, after_first.lookups,
            "a response hit must not re-walk the point caches"
        );
        assert_eq!(s.evaluated, 8);
        assert!((s.response_hit_rate() - 0.5).abs() < 1e-12);
        for (a, b) in first.rows.iter().zip(&second.rows) {
            assert_eq!(a.base_gbps.to_bits(), b.base_gbps.to_bits());
            assert_eq!(a.opt_gbps.to_bits(), b.opt_gbps.to_bits());
        }
    }

    #[test]
    fn run_records_stage_timings() {
        let e = engine(2);
        e.table1().unwrap();
        let timings = e.stage_timings();
        assert_eq!(timings.len(), 2, "{timings:?}");
        assert!(timings[0].name.contains("kernels"), "{timings:?}");
        assert_eq!(timings[0].evaluated, 8);
        assert_eq!(timings[1].name, "assemble");
        assert_eq!(timings[1].evaluated, 0, "assembly must be pure hits");
        // A response hit adds no stages.
        e.table1().unwrap();
        assert_eq!(e.stage_timings().len(), 2);
        assert_eq!(e.stages_executed(), 2);
    }

    #[test]
    fn stage_log_keeps_the_most_recent_stages_and_counts_them_all() {
        let e = engine(1);
        for items in 0..5000 {
            e.log_stage(StageTiming {
                name: "stage".into(),
                items,
                evaluated: 0,
                millis: 0.0,
            });
        }
        let kept = e.stage_timings();
        assert_eq!(kept.len(), 4096);
        assert_eq!(e.stages_executed(), 5000);
        assert_eq!((kept[0].items, kept[4095].items), (904, 4999));
    }

    #[test]
    fn a2_series_assembled_from_points_matches_sequential_run() {
        let cfg = CorunConfig::paper(
            Case::C1,
            crate::reduction::KernelKind::Optimized {
                teams_axis: 65536,
                v: 4,
            },
            AllocSite::A2,
        );
        let reference = run_corun(&MachineConfig::gh200(), &cfg).unwrap();
        for threads in [1, 8] {
            let s = engine(threads).corun(&cfg).unwrap();
            assert_eq!(s.points.len(), reference.points.len(), "{threads} threads");
            for (a, b) in s.points.iter().zip(&reference.points) {
                assert_eq!(a, b, "{threads} threads");
            }
        }
    }

    #[test]
    fn a2_series_is_cached_as_points_and_as_a_series() {
        let e = engine(1);
        let cfg = CorunConfig::paper(
            Case::C2,
            crate::reduction::KernelKind::Baseline,
            AllocSite::A2,
        );
        e.corun(&cfg).unwrap();
        let s = e.stats();
        assert_eq!(s.evaluated, 11, "one evaluation per p point: {s:?}");
        // 11 fanned point evaluations + the assembly's series probe and
        // its 11 point re-reads (all hits).
        assert_eq!(s.lookups, 23, "{s:?}");
        assert_eq!(s.hits, 11, "{s:?}");
        e.corun(&cfg).unwrap();
        let s = e.stats();
        assert_eq!(s.evaluated, 11, "{s:?}");
        assert_eq!(s.response_hits, 1, "repeat is a whole-response hit: {s:?}");
        assert_eq!(s.lookups, 23, "{s:?}");
    }

    #[test]
    fn whatif_matches_serial_study_bitwise() {
        let serial = whatif::whatif_study(&MachineConfig::gh200()).unwrap();
        for threads in [1, 4] {
            let ours = engine(threads).whatif().unwrap();
            assert_eq!(ours.rows.len(), serial.rows.len());
            for (a, b) in ours.rows.iter().zip(&serial.rows) {
                assert_eq!(a.scenario, b.scenario);
                for (x, y) in a.gbps.iter().zip(b.gbps) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            for (x, y) in ours.optimized_gbps.iter().zip(serial.optimized_gbps) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn workload_requests_round_trip_with_a_warm_second_pass() {
        let e = engine(2);
        for req in [
            Request::dot(Case::C1),
            Request::scan(Case::C2),
            Request::gemv(Case::C4),
        ] {
            let cold = e.respond(&req).unwrap();
            assert_eq!(cold.source, ResponseSource::Fresh, "{req:?}");
            assert_eq!(cold.evals, 7, "one evaluation per teams value: {req:?}");
            let w = cold.response.workload().unwrap();
            assert_eq!(w.points.len(), 7);
            assert!(w.best_gbps > 0.0, "{w:?}");
            assert!(w.cpu_gbps > 0.0, "{w:?}");
            let warm = e.respond(&req).unwrap();
            assert_eq!(warm.source, ResponseSource::ResponseCache, "{req:?}");
            assert_eq!(warm.evals, 0, "warm workload must re-plan nothing");
        }
        for t in e.stage_timings().iter().filter(|t| t.name == "assemble") {
            assert_eq!(t.evaluated, 0, "workload assembly must be pure hits");
        }
    }

    #[test]
    fn checksums_run_once_per_functional_key_and_stay_out_of_the_store() {
        let dir = std::env::temp_dir().join(format!("ghr-checksum-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = engine(2).with_store_dir(&dir);
        let gemv = |cols| Request::Gemv {
            case: Case::C1,
            cols,
            m: Some(1 << 22),
        };
        let requests = [
            Request::Dot {
                case: Case::C1,
                m: Some(1 << 20),
            },
            Request::Dot {
                case: Case::C1,
                m: Some(1 << 22),
            },
            gemv(512),
            gemv(65_536),
            gemv(70_000),
        ];
        for request in &requests {
            let r = e.respond(request).unwrap();
            assert_eq!(r.source, ResponseSource::Fresh, "{request:?}");
            let w = r.response.workload().unwrap();
            assert_eq!(
                w.checksum.to_bits(),
                kernels::functional_checksum(w.kind, w.case).to_bits(),
                "{request:?}"
            );
        }
        // One entry per functional kind: both dots share one, and the
        // two GEMVs at or above FUNC_M columns clamp to one.
        assert_eq!(e.checksums.read().len(), 3);

        e.flush_store().unwrap();
        let text = std::fs::read_to_string(e.store().unwrap().path()).unwrap();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 7 * requests.len(), "one row per kernel point");
        for row in rows {
            assert!(row.starts_with("Kernel {"), "{row}");
            assert!(!row.to_lowercase().contains("checksum"), "{row}");
        }
        drop(e);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_kinds_do_not_alias_in_the_point_cache() {
        let e = engine(1);
        let region = TargetRegion::optimized(65536, 4);
        let m = Case::C3.m_paper();
        e.kernel_point(WorkloadKind::Dot, &region, m, DType::F32, DType::F32)
            .unwrap();
        e.kernel_point(WorkloadKind::Scan, &region, m, DType::F32, DType::F32)
            .unwrap();
        // Same region, m and dtypes — if the kind were missing from the
        // cache key the second call would be a hit and evals would be 1.
        assert_eq!(e.stats().evaluated, 2);
        e.kernel_point(WorkloadKind::Dot, &region, m, DType::F32, DType::F32)
            .unwrap();
        assert_eq!(e.stats().evaluated, 2, "repeat point must be a hit");
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let e = engine(2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| e.run(&Request::Table1).unwrap());
            }
        });
        let st = e.stats();
        assert_eq!(st.requests, 4, "{st:?}");
        // One leader evaluates Table 1's eight kernels; the other three
        // arrivals either coalesce onto the in-flight evaluation or hit
        // the response cache, depending on timing — never re-evaluate.
        assert_eq!(st.evaluated, 8, "{st:?}");
        assert_eq!(st.response_hits + st.coalesced, 3, "{st:?}");
    }

    #[test]
    fn cache_map_publication_is_first_write_wins() {
        let map: CacheMap<u64, u32, BuildId> = CacheMap::new();
        assert_eq!((map.probe(&7), map.bytes()), (None, 0));
        map.publish(7, 1);
        map.publish(7, 2);
        assert_eq!(map.probe(&7), Some(1), "a duplicate keeps the first value");
        assert!(map.contains(&7) && !map.contains(&8));
        assert_eq!(map.bytes(), std::mem::size_of::<(u64, u32)>() as u64);
    }

    #[test]
    fn a_body_is_published_on_the_first_response_cache_hit_only() {
        let e = engine(1);
        let (request, id) = (Request::Table1, Request::Table1.id().0);
        let renders = std::cell::Cell::new(0);
        let render = |r: &Response| {
            renders.set(renders.get() + 1);
            r.table1().map(|t| format!("{} rows", t.rows.len()))
        };
        let memo_len = || e.bodies.read().len();

        let fresh = e.respond_with_id(&request, id).unwrap();
        assert_eq!(fresh.source, ResponseSource::Fresh);
        assert_eq!(&*e.render_once(id, 0, &fresh, render).unwrap(), "4 rows");
        assert_eq!(memo_len(), 0, "a fresh answer publishes nothing");
        let coalesced = Responded {
            source: ResponseSource::Coalesced,
            ..fresh.clone()
        };
        e.render_once(id, 0, &coalesced, render).unwrap();
        assert_eq!(memo_len(), 0, "a coalesced answer publishes nothing");

        let hit = e.respond_with_id(&request, id).unwrap();
        assert_eq!(hit.source, ResponseSource::ResponseCache);
        let before = e.stats().replica_log_bytes;
        let body = e.render_once(id, 0, &hit, render).unwrap();
        assert_eq!(memo_len(), 1, "the first hit publishes one entry");
        assert_eq!(
            e.stats().replica_log_bytes - before,
            std::mem::size_of::<((u64, u32), Arc<str>)>() as u64,
            "cache_bytes counts the entry"
        );
        assert_eq!(renders.get(), 3);

        // A published body answers without the renderer, shared.
        let again = e.render_once(id, 0, &hit, render).unwrap();
        assert!(Arc::ptr_eq(&again, &body));
        assert_eq!((renders.get(), memo_len()), (3, 1));
        // Another variant of the same id renders and publishes its own.
        e.render_once(id, 1, &hit, render).unwrap();
        assert_eq!((renders.get(), memo_len()), (4, 2));
    }

    #[test]
    fn a_panicking_holder_frees_its_key() {
        let flights = SingleFlight::<u64>::new();
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _flight = flights.lead(7);
                panic!("evaluation failed mid-flight");
            })
            .join()
        });
        assert!(joined.is_err(), "the holder must have panicked");
        assert!(
            flights.held.lock().unwrap().is_empty(),
            "the unwinding guard must free its key"
        );
        assert!(!flights.lead(7).waited, "the next lead must not wait");
        assert_eq!(flights.joins.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn holding_one_key_never_delays_another() {
        let flights = SingleFlight::<u64>::new();
        let a = flights.lead(1);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(flights.lead(2).waited).unwrap());
            let got = rx.recv_timeout(std::time::Duration::from_secs(10));
            // Free key 1 before asserting, so a broken primitive fails
            // the test instead of hanging the scope's join.
            drop(a);
            assert_eq!(got, Ok(false), "lead(2) must not wait behind key 1");
        });
        assert_eq!(flights.joins.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_waiter_reports_waited_once_the_holder_drops() {
        let flights = SingleFlight::<u64>::new();
        let holder = flights.lead(9);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| flights.lead(9).waited);
            // The join is counted under the key set's mutex before the
            // waiter blocks, so once it shows, the waiter is parked (or
            // about to be) and cannot miss the release below.
            while flights.joins.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            drop(holder);
            assert!(waiter.join().unwrap(), "the waiter must report waited");
        });
        assert_eq!(flights.joins.load(Ordering::Relaxed), 1);
        assert!(flights.held.lock().unwrap().is_empty());
    }

    #[test]
    fn respond_reports_the_response_source() {
        let e = engine(1);
        let cold = e.respond(&Request::Table1).unwrap();
        assert_eq!(cold.source, ResponseSource::Fresh);
        assert_eq!(cold.evals, 8, "{cold:?}");
        let warm = e.respond(&Request::Table1).unwrap();
        assert_eq!(warm.source, ResponseSource::ResponseCache);
        assert_eq!(warm.evals, 0, "{warm:?}");
        assert!(Arc::ptr_eq(&warm.response, &cold.response));
    }

    #[test]
    fn recombined_ids_are_new_and_answered_without_evaluation() {
        use crate::reduction::KernelKind;
        let e = engine(2);
        let corun =
            |case, alloc, m| CorunConfig::paper(case, KernelKind::Baseline, alloc).scaled(m, 2);
        let a1 = [
            corun(Case::C2, AllocSite::A1, 65_856),
            corun(Case::C1, AllocSite::A1, 68_096),
        ];
        let a2 = [
            corun(Case::C3, AllocSite::A2, 66_176),
            corun(Case::C2, AllocSite::A2, 68_416),
        ];
        let sweep = GpuSweep {
            case: Case::C1,
            teams_axis: vec![4096, 65536],
            vs: vec![1, 4],
            thread_limit: 256,
            m: 1 << 16,
        };
        let exhaustive = |sweep| Request::Sweep {
            sweep,
            mode: SweepMode::Exhaustive,
        };
        let cols = kernels::GEMV_COLS_DEFAULT;
        let gemv = |m| Request::Gemv {
            case: Case::C3,
            cols,
            m: Some(m),
        };
        let raw_m = 67_456;
        let rounded_m = kernels::workload_m(WorkloadKind::Gemv { cols }, Case::C3, Some(raw_m));
        assert_ne!(rounded_m, raw_m, "GEMV rounds m to whole rows");

        // The base set, evaluated once: a sweep, four single-config
        // co-run requests and a GEMV at its raw m.
        let mut base = vec![exhaustive(sweep.clone()), gemv(raw_m)];
        base.extend(
            a1.iter()
                .chain(&a2)
                .map(|&cfg| Request::Corun { configs: vec![cfg] }),
        );
        for r in &base {
            e.run(r).unwrap();
        }
        // New ids over already-published work items: a one-column
        // sub-sweep, each site's pair merged into one request, and the
        // GEMV at its row-rounded m.
        let recombined = [
            exhaustive(GpuSweep {
                vs: vec![4],
                ..sweep
            }),
            Request::Corun {
                configs: a1.to_vec(),
            },
            Request::Corun {
                configs: a2.to_vec(),
            },
            gemv(rounded_m),
        ];
        let mut ids: Vec<u64> = recombined.iter().chain(&base).map(|r| r.id().0).collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "recombined ids must be new");

        let before = e.stats();
        for r in &recombined {
            let got = e.respond(r).unwrap();
            assert_eq!(got.source, ResponseSource::Fresh, "{r:?}");
            assert_eq!(got.evals, 0, "recombined {r:?} must re-use warm items");
        }
        let after = e.stats();
        assert_eq!(after.evaluated, before.evaluated, "no fresh evaluation");
        assert!(
            after.hits > before.hits,
            "recombined requests must drive warm item-cache traffic"
        );
    }
}
