//! The persistent, cross-process result store behind the engine cache.
//!
//! [`crate::engine::Engine`] memoizes every grid point in process memory;
//! this module makes those results survive the process. The store is a
//! deliberately boring, std-only file format so the workspace keeps its
//! zero-dependency offline build:
//!
//! * **One file per (schema version, machine fingerprint)** —
//!   `results-v<SCHEMA>-<fingerprint>.ghr` inside the cache directory. A
//!   schema bump or a different machine description resolves to a different
//!   file name, so stale results are never even read.
//! * **A header line** repeating the schema version and fingerprint. A file
//!   whose header does not match what the opener expects is ignored, never
//!   trusted and never a panic; the next flush rewrites it.
//! * **An append-only log of `key<TAB>value` records, one per line.** Keys
//!   are the engine's deterministic `Debug` renders of its cache keys;
//!   values are hex-encoded `f64` bit patterns (bit-exact round trips) or
//!   `;`/`,`-joined tuples for co-run points. A line that fails to parse is
//!   skipped individually, and bytes after the last newline (a torn row) are
//!   never read as a record. A key may appear more than once and the last
//!   row wins: two processes stored it before seeing each other's rows, or
//!   a value the engine could not decode was stored again.
//! * **Flush appends only new rows**: [`PersistentStore::put`] queues a row
//!   unless the store already holds that key with that value, and
//!   [`PersistentStore::flush`] writes the queued rows in one `write` to
//!   the file opened `O_APPEND` under an exclusive `flock(2)`, then
//!   `sync_data`s. Under the lock it first cuts off any bytes after the
//!   last newline, so a crashed writer's torn row never joins onto the next
//!   record, and rewrites a missing or foreign header. A flush costs O(its
//!   own rows), not O(file). Where `flock` is unavailable (not Unix), a
//!   process-global mutex serializes the writers of one process only.
//! * **Refresh on miss**: the store keeps a cursor into the file — its inode
//!   and the byte offset its reads reached. A `get`/`contains` miss costs
//!   one `stat`; if the file grew, only the bytes past the cursor are read
//!   and union-merged into memory; if the inode changed (`ghr cache clear`
//!   removed the file and a writer created it again), the file is read
//!   again from the start. This is what lets one router worker answer warm
//!   for a request another worker evaluated and flushed.
//!
//! The cache directory resolves from `GHR_CACHE_DIR`, then
//! `$XDG_CACHE_HOME/ghr`, then `~/.cache/ghr` (see [`resolve_cache_dir`]);
//! the CLI exposes `--cache-dir`, `--no-cache` and a `ghr cache`
//! subcommand on top.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::corun::CorunPoint;
use ghr_types::{Bytes, SimTime};

/// Version of the on-disk record format. Bump whenever the key or value
/// encoding changes meaning; old files are then ignored (different file
/// name *and* rejected header) and rebuilt. v2: keys are the engine's
/// `WorkItem` renders (the machine fingerprint moved out of the key and
/// into the file name alone).
pub const SCHEMA_VERSION: u32 = 2;

/// Resolve the cache directory: `explicit` (a CLI flag), then the
/// `GHR_CACHE_DIR` environment variable, then `$XDG_CACHE_HOME/ghr`, then
/// `$HOME/.cache/ghr`. `None` when nothing resolves (caching disabled).
pub fn resolve_cache_dir(explicit: Option<&str>) -> Option<PathBuf> {
    if let Some(dir) = explicit {
        return Some(PathBuf::from(dir));
    }
    if let Ok(dir) = std::env::var("GHR_CACHE_DIR") {
        if !dir.is_empty() {
            return Some(PathBuf::from(dir));
        }
    }
    if let Ok(dir) = std::env::var("XDG_CACHE_HOME") {
        if !dir.is_empty() {
            return Some(Path::new(&dir).join("ghr"));
        }
    }
    if let Ok(home) = std::env::var("HOME") {
        if !home.is_empty() {
            return Some(Path::new(&home).join(".cache").join("ghr"));
        }
    }
    None
}

/// File name of the store for a fingerprint under the current schema.
pub fn store_file_name(fingerprint: u64) -> String {
    format!("results-v{SCHEMA_VERSION}-{fingerprint:016x}.ghr")
}

fn header_line(fingerprint: u64) -> String {
    format!("ghr-store v{SCHEMA_VERSION} fp={fingerprint:016x}")
}

/// A cross-process result store for one (schema, machine fingerprint).
///
/// Opening never fails: an unreadable, mismatched or corrupt file simply
/// yields an empty store (and the bad file is replaced on the next flush).
/// All methods are `&self` and internally locked, so one store can back a
/// multi-threaded engine.
pub struct PersistentStore {
    path: PathBuf,
    header: String,
    mem: Mutex<Mem>,
    /// How far this store has read the backing file. Held across each
    /// refresh's and flush's file I/O, so those run one at a time per
    /// store (taken before `mem` when both are needed); `flock` serializes
    /// writers across stores and processes.
    cursor: Mutex<Cursor>,
    loaded: u64,
    /// Entries merged in from peer flushes by [`Self::get`]/[`Self::contains`]
    /// misses (excludes the open-time load).
    refreshed: AtomicU64,
}

/// The in-memory side of a store: every live entry, plus the rows stored
/// since the last flush, already rendered as `key\tvalue\n` lines.
#[derive(Default)]
struct Mem {
    entries: HashMap<String, String>,
    pending: String,
    pending_rows: u64,
}

/// Where this store's reads of the backing file stopped.
#[derive(Debug, Default, Clone, Copy)]
struct Cursor {
    /// Inode of the file `offset` points into.
    ino: u64,
    /// End of the last whole line read from (or appended to) that file.
    offset: u64,
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentStore")
            .field("path", &self.path)
            .field("loaded", &self.loaded)
            .field("len", &self.len())
            .finish()
    }
}

impl PersistentStore {
    /// Open (or create empty) the store for `fingerprint` inside `dir`.
    pub fn open(dir: &Path, fingerprint: u64) -> Self {
        let path = dir.join(store_file_name(fingerprint));
        let header = header_line(fingerprint);
        let mut cursor = Cursor::default();
        let entries = read_past(&path, &header, &mut cursor).unwrap_or_default();
        PersistentStore {
            loaded: entries.len() as u64,
            mem: Mutex::new(Mem {
                entries,
                ..Mem::default()
            }),
            cursor: Mutex::new(cursor),
            path,
            header,
            refreshed: AtomicU64::new(0),
        }
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Entries read from disk when the store was opened.
    pub fn loaded(&self) -> u64 {
        self.loaded
    }

    /// Entries currently held (loaded + inserted).
    pub fn len(&self) -> usize {
        self.mem().entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.mem().entries.is_empty()
    }

    /// Entries inserted since the last flush.
    pub fn dirty(&self) -> u64 {
        self.mem().pending_rows
    }

    /// Entries merged in from peer flushes on lookup misses.
    pub fn refreshed(&self) -> u64 {
        self.refreshed.load(Ordering::Relaxed)
    }

    /// Look up a value by key. A miss re-checks the backing file (one
    /// `stat`; a read of the new bytes only when it changed), so a row
    /// flushed by a *peer process* — another `ghr serve` worker behind the
    /// router — becomes visible without reopening the store.
    pub fn get(&self, key: &str) -> Option<String> {
        if let Some(v) = self.mem().entries.get(key) {
            return Some(v.clone());
        }
        if self.refresh() {
            return self.mem().entries.get(key).cloned();
        }
        None
    }

    /// Whether a value exists for `key` — the planner's dry-run probe,
    /// which must not clone the value or touch any hit/miss counter. Like
    /// [`Self::get`], a miss consults the backing file before answering.
    pub fn contains(&self, key: &str) -> bool {
        if self.mem().entries.contains_key(key) {
            return true;
        }
        self.refresh() && self.mem().entries.contains_key(key)
    }

    /// Union-merge rows that reached the backing file since our last read
    /// (existing entries win; values are deterministic, so ties are
    /// byte-identical). Returns whether any new key arrived. When the
    /// file's inode and length still match the cursor, this is one `stat`.
    fn refresh(&self) -> bool {
        let Ok(meta) = std::fs::metadata(&self.path) else {
            return false;
        };
        let mut cursor = self.cursor();
        if cursor.ino == file_id(&meta) && cursor.offset == meta.len() {
            return false;
        }
        let Ok(rows) = read_past(&self.path, &self.header, &mut cursor) else {
            return false;
        };
        let mut added = 0;
        let mut mem = self.mem();
        for (k, v) in rows {
            if let Entry::Vacant(slot) = mem.entries.entry(k) {
                slot.insert(v);
                added += 1;
            }
        }
        self.refreshed.fetch_add(added, Ordering::Relaxed);
        added > 0
    }

    /// Insert a value. A key the store already holds with this value is
    /// not queued, so rows loaded from disk are never written again; a new
    /// key, or a new value for a held key, is queued for the next flush
    /// (reads are last-wins, so an appended value replaces the old row).
    /// Keys and values must be single-line and tab-free (the engine's keys
    /// are `Debug` renders, which are); offending records are dropped
    /// rather than corrupting the file.
    pub fn put(&self, key: String, value: String) {
        if key.contains(['\t', '\n']) || value.contains(['\t', '\n']) {
            debug_assert!(false, "store record must be single-line and tab-free");
            return;
        }
        let mut mem = self.mem();
        if mem.entries.get(&key) == Some(&value) {
            return;
        }
        mem.pending.push_str(&key);
        mem.pending.push('\t');
        mem.pending.push_str(&value);
        mem.pending.push('\n');
        mem.pending_rows += 1;
        mem.entries.insert(key, value);
    }

    /// Append the rows stored since the last flush to the backing file and
    /// make them durable. Returns the number of rows written; a no-op when
    /// nothing is pending.
    ///
    /// Every writer — another thread, another store over the same file,
    /// another process — appends under an exclusive `flock` on the file
    /// (off Unix, under a mutex that covers this process only), so appends
    /// never interleave and a flush costs only its own rows. A
    /// second caller waits for a flush in progress, so when `flush`
    /// returns, every row stored before the call is on disk. On an I/O
    /// error the rows stay queued for the next flush.
    pub fn flush(&self) -> io::Result<u64> {
        let mut cursor = self.cursor();
        let (rows, n) = {
            let mut mem = self.mem();
            (
                std::mem::take(&mut mem.pending),
                std::mem::take(&mut mem.pending_rows),
            )
        };
        if n == 0 {
            return Ok(0);
        }
        if let Err(e) = append(&self.path, &self.header, &rows, &mut cursor) {
            let mut mem = self.mem();
            mem.pending.insert_str(0, &rows);
            mem.pending_rows += n;
            return Err(e);
        }
        Ok(n)
    }

    fn mem(&self) -> MutexGuard<'_, Mem> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn cursor(&self) -> MutexGuard<'_, Cursor> {
        self.cursor.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Read the store file's rows past `cursor` and advance it to the end of
/// the last whole line. Reading resumes at the cursor while the file is
/// the one it points into; after the inode changes (the file was removed
/// and created again) or the file was rewritten in place, it starts again
/// from the header. Rows come back last-wins. Errors when the file is
/// missing or unreadable; a foreign or headerless file yields no rows.
fn read_past(
    path: &Path,
    header: &str,
    cursor: &mut Cursor,
) -> io::Result<HashMap<String, String>> {
    let mut file = File::open(path)?;
    let meta = file.metadata()?;
    let ino = file_id(&meta);
    let resume = cursor.offset > 0 && cursor.ino == ino && meta.len() >= cursor.offset;
    // Resuming re-reads the newline that ends our last line, to check the
    // file still has a line boundary there.
    let start = if resume { cursor.offset - 1 } else { 0 };
    file.seek(SeekFrom::Start(start))?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    if resume && buf.first() != Some(&b'\n') {
        *cursor = Cursor::default();
        return read_past(path, header, cursor);
    }
    // Bytes after the last newline are a torn row (or one still being
    // written): they are never a record, and the next append cuts them off.
    let whole = buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut lines = buf[..whole].split(|&b| b == b'\n');
    let first = lines.next(); // with `resume`, the empty remainder before the newline
    if !resume && first != Some(header.as_bytes()) {
        // Wrong schema or fingerprint, or no whole header line: nothing
        // to trust until a flush rewrites the file.
        *cursor = Cursor {
            ino,
            offset: buf.len() as u64,
        };
        return Ok(HashMap::new());
    }
    let mut rows = HashMap::new();
    for line in lines {
        let Ok(line) = std::str::from_utf8(line) else {
            continue;
        };
        if let Some((k, v)) = line.split_once('\t') {
            if !k.is_empty() && !v.is_empty() && !v.contains('\t') {
                rows.insert(k.to_string(), v.to_string());
            }
        }
    }
    *cursor = Cursor {
        ino,
        offset: start + whole as u64,
    };
    Ok(rows)
}

/// Append `rows` (whole lines) to the store file under its lock: a
/// missing or foreign header is rewritten as the header plus `rows`, a
/// torn tail is cut off first, and the write is one `write` followed by
/// `sync_data`. The cursor advances over the rows only if it had already
/// read everything before them; otherwise a later refresh reads the
/// peers' rows and ours together.
fn append(path: &Path, header: &str, rows: &str, cursor: &mut Cursor) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let (mut file, meta, _lock) = open_locked(path)?;
    let (ino, mut end) = (file_id(&meta), meta.len());
    let has_header = starts_with_line(&mut file, end, header)?;
    let mut buf = String::with_capacity(header.len() + 1 + rows.len());
    if has_header {
        let whole = whole_lines_len(&mut file, end)?;
        if whole < end {
            file.set_len(whole)?;
            end = whole;
        }
    } else {
        file.set_len(0)?;
        end = 0;
        buf.push_str(header);
        buf.push('\n');
    }
    buf.push_str(rows);
    file.write_all(buf.as_bytes())?;
    file.sync_data()?;
    if !has_header {
        sync_parent(path)?;
    }
    let caught_up = cursor.ino == ino && cursor.offset == end;
    if !has_header || caught_up {
        *cursor = Cursor {
            ino,
            offset: end + buf.len() as u64,
        };
    }
    Ok(())
}

/// Open the store file for appending (creating it if missing), take the
/// write lock, and return the file, its metadata and the lock. `ghr cache
/// clear` may remove the file between our open and our lock, leaving the
/// descriptor on a file no one reads any more: then open again.
fn open_locked(path: &Path) -> io::Result<(File, std::fs::Metadata, WriteLock)> {
    loop {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let lock = lock_exclusive(&file)?;
        let meta = file.metadata()?;
        let current = std::fs::metadata(path).map(|m| file_id(&m));
        if current.ok() == Some(file_id(&meta)) {
            return Ok((file, meta, lock));
        }
    }
}

/// Whether the first `line.len() + 1` of the file's `len` bytes are `line`
/// and a newline.
fn starts_with_line(file: &mut File, len: u64, line: &str) -> io::Result<bool> {
    let mut head = vec![0; line.len() + 1];
    if len < head.len() as u64 {
        return Ok(false);
    }
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut head)?;
    Ok(head.strip_suffix(b"\n") == Some(line.as_bytes()))
}

/// Length of the longest prefix of the file's `len` bytes that ends in a
/// newline, scanning back from the end.
fn whole_lines_len(file: &mut File, len: u64) -> io::Result<u64> {
    const CHUNK: u64 = 4096;
    let mut end = len;
    let mut buf = Vec::new();
    while end > 0 {
        let start = end.saturating_sub(CHUNK);
        buf.resize((end - start) as usize, 0);
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(&mut buf)?;
        if let Some(i) = buf.iter().rposition(|&b| b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

/// Make the directory entry of a created file durable. Where a directory
/// cannot be opened as a file (not on Unix), this is skipped.
fn sync_parent(path: &Path) -> io::Result<()> {
    match path.parent().map(File::open) {
        Some(Ok(dir)) => dir.sync_all(),
        _ => Ok(()),
    }
}

/// Inode number, which tells a re-created store file from the one a
/// cursor points into. Without inodes every file looks the same, and the
/// cursor falls back on its line-boundary check.
#[cfg(unix)]
fn file_id(meta: &std::fs::Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::ino(meta)
}

#[cfg(not(unix))]
fn file_id(_meta: &std::fs::Metadata) -> u64 {
    0
}

/// Held while a writer may modify the store file. On Unix the `flock` on
/// the open file is the lock and this guard holds nothing; elsewhere it
/// holds a process-global mutex, which keeps the writers of one process
/// apart but not those of different processes.
struct WriteLock {
    #[cfg(not(unix))]
    _writers: MutexGuard<'static, ()>,
}

/// Take an exclusive `flock(2)` on `file`, waiting for other holders. The
/// lock belongs to this open file description, so two opens of the store
/// in one process exclude each other too, and it is released when `file`
/// closes. (`File::lock` needs a newer Rust than this workspace's MSRV.)
#[cfg(unix)]
fn lock_exclusive(file: &File) -> io::Result<WriteLock> {
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    const LOCK_EX: i32 = 2;

    loop {
        // SAFETY: `flock` only reads its integer arguments, and `file`
        // keeps the descriptor open for the duration of the call.
        if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
            return Ok(WriteLock {});
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(not(unix))]
fn lock_exclusive(_file: &File) -> io::Result<WriteLock> {
    static WRITERS: Mutex<()> = Mutex::new(());
    Ok(WriteLock {
        _writers: WRITERS.lock().unwrap_or_else(PoisonError::into_inner),
    })
}

// ---------------------------------------------------------------------------
// Value encodings (bit-exact, std-only)
// ---------------------------------------------------------------------------

/// Encode an `f64` as its hex bit pattern (bit-exact round trip).
pub fn encode_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decode [`encode_f64`] output.
pub fn decode_f64(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Encode one co-run point as comma-separated fields.
pub fn encode_corun_point(p: &CorunPoint) -> String {
    format!(
        "{},{},{},{},{},{}",
        encode_f64(p.p),
        encode_f64(p.gbps),
        encode_f64(p.total.as_secs()),
        p.migrated_to_gpu.0,
        p.cpu_remote.0,
        p.gpu_remote.0
    )
}

/// Decode [`encode_corun_point`] output.
pub fn decode_corun_point(s: &str) -> Option<CorunPoint> {
    let mut it = s.split(',');
    let p = decode_f64(it.next()?)?;
    let gbps = decode_f64(it.next()?)?;
    let total = SimTime::secs(decode_f64(it.next()?)?);
    let migrated_to_gpu = Bytes(it.next()?.parse().ok()?);
    let cpu_remote = Bytes(it.next()?.parse().ok()?);
    let gpu_remote = Bytes(it.next()?.parse().ok()?);
    if it.next().is_some() {
        return None;
    }
    Some(CorunPoint {
        p,
        gbps,
        total,
        migrated_to_gpu,
        cpu_remote,
        gpu_remote,
    })
}

/// Encode a whole co-run series' points (`;`-joined).
pub fn encode_corun_points(points: &[CorunPoint]) -> String {
    points
        .iter()
        .map(encode_corun_point)
        .collect::<Vec<_>>()
        .join(";")
}

/// Decode [`encode_corun_points`] output. `None` on any malformed point.
pub fn decode_corun_points(s: &str) -> Option<Vec<CorunPoint>> {
    if s.is_empty() {
        return None;
    }
    s.split(';').map(decode_corun_point).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ghr-store-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, 3795.123456789, f64::MIN_POSITIVE, 1e300] {
            let enc = encode_f64(v);
            assert_eq!(decode_f64(&enc).unwrap().to_bits(), v.to_bits(), "{v}");
        }
        assert!(decode_f64("not-hex").is_none());
        assert!(decode_f64("123").is_none());
    }

    #[test]
    fn corun_point_roundtrip() {
        let p = CorunPoint {
            p: 0.3,
            gbps: 812.25,
            total: SimTime::millis(4.25),
            migrated_to_gpu: Bytes(123456),
            cpu_remote: Bytes(0),
            gpu_remote: Bytes(987),
        };
        let one = decode_corun_point(&encode_corun_point(&p)).unwrap();
        assert_eq!(one, p);
        let series = vec![p, p, p];
        let back = decode_corun_points(&encode_corun_points(&series)).unwrap();
        assert_eq!(back, series);
        assert!(decode_corun_point("1,2,3").is_none());
        assert!(decode_corun_points("").is_none());
    }

    #[test]
    fn put_flush_reopen_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let store = PersistentStore::open(&dir, 42);
        assert_eq!(store.loaded(), 0);
        store.put("key-a".into(), encode_f64(1.25));
        store.put("key-b".into(), "payload".into());
        assert_eq!(store.dirty(), 2);
        assert_eq!(store.flush().unwrap(), 2);
        assert_eq!(store.dirty(), 0);

        let again = PersistentStore::open(&dir, 42);
        assert_eq!(again.loaded(), 2);
        assert_eq!(decode_f64(&again.get("key-a").unwrap()).unwrap(), 1.25);
        assert_eq!(again.get("key-b").unwrap(), "payload");
    }

    #[test]
    fn flush_with_nothing_dirty_is_a_noop() {
        let dir = tmp_dir("noop");
        let store = PersistentStore::open(&dir, 1);
        assert_eq!(store.flush().unwrap(), 0);
        assert!(!store.path().exists(), "no-op flush must not create a file");
    }

    #[test]
    fn fingerprint_mismatch_reads_nothing() {
        let dir = tmp_dir("fp");
        let store = PersistentStore::open(&dir, 7);
        store.put("k".into(), "v".into());
        store.flush().unwrap();
        // A different fingerprint resolves to a different file entirely.
        assert_eq!(PersistentStore::open(&dir, 8).loaded(), 0);
        // A file whose header lies about its fingerprint is discarded too.
        std::fs::write(
            dir.join(store_file_name(9)),
            format!("{}\nk\tv\n", header_line(7)),
        )
        .unwrap();
        assert_eq!(PersistentStore::open(&dir, 9).loaded(), 0);
    }

    #[test]
    fn schema_mismatch_reads_nothing() {
        let dir = tmp_dir("schema");
        std::fs::write(
            dir.join(store_file_name(5)),
            format!("ghr-store v999 fp={:016x}\nk\tv\n", 5),
        )
        .unwrap();
        assert_eq!(PersistentStore::open(&dir, 5).loaded(), 0);
    }

    #[test]
    fn corrupt_file_is_discarded_not_a_panic() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(store_file_name(3));
        std::fs::write(&path, b"\xff\xfe garbage \x00\x01").unwrap();
        let store = PersistentStore::open(&dir, 3);
        assert_eq!(store.loaded(), 0);
        // And a flush rebuilds a valid file over the garbage.
        store.put("fresh".into(), "1".into());
        store.flush().unwrap();
        assert_eq!(PersistentStore::open(&dir, 3).loaded(), 1);
    }

    #[test]
    fn truncated_tail_record_is_skipped() {
        let dir = tmp_dir("torn");
        let path = dir.join(store_file_name(11));
        std::fs::write(
            &path,
            format!("{}\ngood\tvalue\ntorn\tvalu", header_line(11)),
        )
        .unwrap();
        let store = PersistentStore::open(&dir, 11);
        assert_eq!(store.loaded(), 1);
        assert_eq!(store.get("good").unwrap(), "value");
        assert!(store.get("torn").is_none());
    }

    #[test]
    fn malformed_interior_records_are_skipped_individually() {
        let dir = tmp_dir("interior");
        let path = dir.join(store_file_name(12));
        std::fs::write(
            &path,
            format!(
                "{}\nno-tab-line\na\t1\n\tmissing-key\nb\t2\n",
                header_line(12)
            ),
        )
        .unwrap();
        let store = PersistentStore::open(&dir, 12);
        assert_eq!(store.loaded(), 2);
        assert_eq!(store.get("a").unwrap(), "1");
        assert_eq!(store.get("b").unwrap(), "2");
    }

    #[test]
    fn concurrent_stores_merge_on_flush() {
        let dir = tmp_dir("merge");
        let a = PersistentStore::open(&dir, 21);
        let b = PersistentStore::open(&dir, 21);
        a.put("from-a".into(), "1".into());
        b.put("from-b".into(), "2".into());
        a.flush().unwrap();
        b.flush().unwrap(); // appends after a's row
        let merged = PersistentStore::open(&dir, 21);
        assert_eq!(merged.loaded(), 2);
        assert_eq!(merged.get("from-a").unwrap(), "1");
        assert_eq!(merged.get("from-b").unwrap(), "2");
    }

    #[test]
    fn interleaved_flushes_from_two_stores_union_on_disk() {
        // Two stores over the same file, each flushing after every insert
        // from its own thread. Appends are serialized by the file lock, so
        // the on-disk log only ever grows toward the union — no flush may
        // clobber the other store's records or tear one of them.
        let dir = tmp_dir("torture");
        let a = PersistentStore::open(&dir, 51);
        let b = PersistentStore::open(&dir, 51);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..50 {
                    a.put(format!("a-{i}"), format!("{i}"));
                    a.flush().unwrap();
                }
            });
            s.spawn(|| {
                for i in 0..50 {
                    b.put(format!("b-{i}"), format!("{i}"));
                    b.flush().unwrap();
                }
            });
        });
        // One last dirty flush from each side: each appends after the
        // other's rows, so neither side's rows are dropped.
        a.put("a-final".into(), "1".into());
        a.flush().unwrap();
        b.put("b-final".into(), "1".into());
        b.flush().unwrap();
        let merged = PersistentStore::open(&dir, 51);
        assert_eq!(merged.loaded(), 102, "{merged:?}");
        for i in 0..50 {
            assert_eq!(merged.get(&format!("a-{i}")).unwrap(), format!("{i}"));
            assert_eq!(merged.get(&format!("b-{i}")).unwrap(), format!("{i}"));
        }
        assert!(merged.get("a-final").is_some());
        assert!(merged.get("b-final").is_some());
        // No stray temp files survive.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "ghr"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn multiline_records_are_rejected_not_written() {
        let dir = tmp_dir("reject");
        let store = PersistentStore::open(&dir, 31);
        // debug_assert fires in debug builds; use release semantics here by
        // checking the observable behavior only when assertions are off.
        if !cfg!(debug_assertions) {
            store.put("bad\tkey".into(), "v".into());
            store.put("k".into(), "bad\nvalue".into());
            assert!(store.is_empty());
        }
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn flush_appends_exactly_its_new_rows_and_no_temp_file() {
        let dir = tmp_dir("append");
        let store = PersistentStore::open(&dir, 61);
        store.put("first".into(), "1".into());
        assert_eq!(store.flush().unwrap(), 1);
        let before = std::fs::read(store.path()).unwrap();

        store.put("second".into(), encode_f64(2.5));
        store.put("first".into(), "1".into()); // already held: not queued
        assert_eq!(store.dirty(), 1);
        assert_eq!(store.flush().unwrap(), 1);
        let after = std::fs::read(store.path()).unwrap();
        let row = format!("second\t{}\n", encode_f64(2.5));
        assert_eq!(after.len(), before.len() + row.len());
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(&after[before.len()..], row.as_bytes());
        assert_eq!(file_names(&dir), [store_file_name(61)]);

        // Rows loaded from disk are never appended again.
        let again = PersistentStore::open(&dir, 61);
        again.put("first".into(), "1".into());
        again.put("second".into(), encode_f64(2.5));
        assert_eq!(again.flush().unwrap(), 0);
        assert_eq!(std::fs::read(again.path()).unwrap(), after);
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn torn_tail_is_cut_off_by_the_next_append() {
        let dir = tmp_dir("torn-append");
        let path = dir.join(store_file_name(62));
        let header = header_line(62);
        std::fs::write(&path, format!("{header}\ngood\tvalue\nGpu {{ torn")).unwrap();
        let store = PersistentStore::open(&dir, 62);
        assert_eq!(store.loaded(), 1);
        store.put("fresh".into(), "row".into());
        store.flush().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{header}\ngood\tvalue\nfresh\trow\n")
        );

        let again = PersistentStore::open(&dir, 62);
        assert_eq!(again.loaded(), 2);
        assert_eq!(again.get("good").unwrap(), "value");
        assert_eq!(again.get("fresh").unwrap(), "row");
        assert!(again.get("Gpu { tornfresh").is_none(), "torn row joined");
    }

    #[test]
    fn a_changed_value_is_appended_and_wins_on_reopen() {
        // A row the engine cannot decode is evaluated again and stored
        // with its good value, which must replace the bad row for every
        // later reader.
        let dir = tmp_dir("replace");
        let path = dir.join(store_file_name(63));
        let header = header_line(63);
        std::fs::write(&path, format!("{header}\nk\tnot-hex\n")).unwrap();
        let store = PersistentStore::open(&dir, 63);
        assert_eq!(store.get("k").unwrap(), "not-hex");
        store.put("k".into(), encode_f64(1.5));
        assert_eq!(store.dirty(), 1);
        assert_eq!(store.get("k").unwrap(), encode_f64(1.5));
        assert_eq!(store.flush().unwrap(), 1);

        let again = PersistentStore::open(&dir, 63);
        assert_eq!(again.loaded(), 1);
        assert_eq!(decode_f64(&again.get("k").unwrap()), Some(1.5));
        // The good value is now held, so storing it again writes nothing.
        again.put("k".into(), encode_f64(1.5));
        assert_eq!(again.flush().unwrap(), 0);
    }

    #[test]
    fn resolve_cache_dir_prefers_explicit() {
        assert_eq!(
            resolve_cache_dir(Some("/tmp/explicit")),
            Some(PathBuf::from("/tmp/explicit"))
        );
    }
}
