//! Persistent-store lifecycle tests: results survive the engine (standing
//! in for the process), mismatched or corrupt files invalidate cleanly,
//! concurrent flushes union in the append-only log, a live store reads
//! its peers' appends, and the cached answers are bit-identical to fresh
//! evaluations.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use ghr_core::corun::run_corun;
use ghr_core::engine::Engine;
use ghr_core::store::{self, PersistentStore};
use ghr_core::sweep::GpuSweep;
use ghr_core::{AllocSite, Case, CorunConfig, KernelKind, SweepMode};
use ghr_machine::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::gh200()
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ghr-pcache-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const M_SMALL: u64 = 400_000;
const REPS_SMALL: u32 = 5;

#[test]
fn second_engine_answers_from_disk_bit_identically() {
    let dir = tmp_dir("roundtrip");

    // Engine A (first process): evaluates everything, flushes on drop.
    let a = Engine::new(machine(), 2).with_store_dir(&dir);
    let sweep_a = a.sweep(&GpuSweep::paper_scaled(Case::C1, 1 << 20)).unwrap();
    let study_a = a
        .full_study_scaled(Some(M_SMALL), Some(REPS_SMALL))
        .unwrap();
    let stats_a = a.stats();
    assert_eq!(stats_a.persistent_loaded, 0, "{stats_a:?}");
    assert_eq!(stats_a.persistent_hits, 0, "{stats_a:?}");
    assert_eq!(stats_a.persistent_stored, stats_a.evaluated, "{stats_a:?}");
    let written = a.flush_store().unwrap();
    assert!(written >= stats_a.persistent_stored, "{written}");
    drop(a);

    // Engine B (second process): same machine, same store — every lookup
    // is answered from disk, nothing is evaluated, results are
    // bit-identical.
    let b = Engine::new(machine(), 2).with_store_dir(&dir);
    let sweep_b = b.sweep(&GpuSweep::paper_scaled(Case::C1, 1 << 20)).unwrap();
    let study_b = b
        .full_study_scaled(Some(M_SMALL), Some(REPS_SMALL))
        .unwrap();
    let stats_b = b.stats();
    assert_eq!(stats_b.evaluated, 0, "{stats_b:?}");
    assert_eq!(stats_b.persistent_misses, 0, "{stats_b:?}");
    // The plan's fan stages answer straight from disk; the assembly then
    // re-reads the same points as in-process hits. Every lookup except
    // the 8 A2 series-level ones (which resolve via their fanned per-p
    // points, not a store record of their own) lands in one of the two.
    assert_eq!(
        stats_b.persistent_hits + stats_b.hits,
        stats_b.lookups - 8,
        "{stats_b:?}"
    );
    assert_eq!(stats_b.persistent_hits, stats_b.hits, "{stats_b:?}");
    assert!(stats_b.persistent_loaded >= written, "{stats_b:?}");

    for (pa, pb) in sweep_a.points.iter().zip(&sweep_b.points) {
        assert_eq!(pa.gbps.to_bits(), pb.gbps.to_bits(), "{pa:?} vs {pb:?}");
    }
    assert_eq!(
        study_a.summary().to_comparison_table().to_markdown(),
        study_b.summary().to_comparison_table().to_markdown()
    );
}

#[test]
fn live_store_sees_a_peer_flush_on_lookup_miss() {
    // Two stores over the same file, both open *before* either flushes —
    // the situation of two router workers sharing one --cache-dir. A row
    // flushed by one must become visible to the other without a reopen.
    let dir = tmp_dir("refresh");
    let fp = ghr_core::engine::machine_fingerprint(&machine());
    let a = PersistentStore::open(&dir, fp);
    let b = PersistentStore::open(&dir, fp);

    a.put("shared-key".to_string(), store::encode_f64(42.0));
    assert!(b.get("shared-key").is_none(), "not flushed yet");
    a.flush().unwrap();

    assert!(b.contains("shared-key"), "miss must re-check the file");
    assert_eq!(
        b.get("shared-key").as_deref(),
        Some(store::encode_f64(42.0).as_str())
    );
    assert_eq!(b.refreshed(), 1, "exactly one row merged from the peer");

    // A repeated miss on an unchanged file is answered from memory alone:
    // one `stat` finds the file's inode and length where the cursor left
    // them, so nothing is read.
    assert!(b.get("absent-key").is_none());
    assert_eq!(b.refreshed(), 1);

    // Engine-level: a live engine warms up from a peer's flush too.
    let warm = Engine::new(machine(), 1).with_store_dir(&dir);
    let cold = Engine::new(machine(), 1).with_store_dir(&dir);
    warm.table1().unwrap();
    warm.flush_store().unwrap();
    cold.table1().unwrap();
    let stats = cold.stats();
    assert_eq!(stats.evaluated, 0, "peer flush not picked up: {stats:?}");
}

#[test]
fn refresh_reads_only_a_peers_append_until_the_file_is_replaced() {
    let dir = tmp_dir("cursor");
    let fp = ghr_core::engine::machine_fingerprint(&machine());
    let a = PersistentStore::open(&dir, fp);
    a.put("row-1".to_string(), "1".to_string());
    a.flush().unwrap();
    let b = PersistentStore::open(&dir, fp);
    assert_eq!(b.loaded(), 1);

    // Rewrite row-1 in place as row-X (same inode, same length): a reader
    // that resumes at its cursor never looks back at bytes it has read.
    let path = a.path().to_path_buf();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("row-1\t", "row-X\t")).unwrap();

    // A peer's append is picked up on a miss, and only the append is read.
    a.put("row-2".to_string(), "2".to_string());
    a.flush().unwrap();
    assert_eq!(b.get("row-2").as_deref(), Some("2"));
    assert_eq!(b.refreshed(), 1);
    assert!(b.get("row-X").is_none(), "re-read bytes before the cursor");

    // A file renamed over the store has a new inode: read from the start.
    let tmp = dir.join("replacement");
    std::fs::write(
        &tmp,
        format!("{}row-3\t3\n", text.replace("row-1\t", "row-X\t")),
    )
    .unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    assert_eq!(b.get("row-3").as_deref(), Some("3"));
    assert_eq!(b.get("row-X").as_deref(), Some("1"));
    assert_eq!(b.refreshed(), 3);
}

#[test]
fn different_machine_fingerprint_never_reads_the_other_stores_results() {
    let dir = tmp_dir("fingerprint");
    let a = Engine::new(machine(), 1).with_store_dir(&dir);
    a.table1().unwrap();
    a.flush_store().unwrap();
    drop(a);

    let mut other = machine();
    other.cpu.cores += 1;
    let b = Engine::new(other, 1).with_store_dir(&dir);
    b.table1().unwrap();
    let stats = b.stats();
    assert_eq!(stats.persistent_loaded, 0, "{stats:?}");
    assert_eq!(stats.persistent_hits, 0, "{stats:?}");
    assert_eq!(stats.evaluated, 8, "{stats:?}");
}

#[test]
fn schema_bump_or_corrupt_file_rebuilds_cleanly() {
    let dir = tmp_dir("corrupt");
    let fp = ghr_core::engine::machine_fingerprint(&machine());

    // A future-schema file under the *current* name must be discarded
    // (header mismatch), and plain garbage must never panic.
    let path = dir.join(store::store_file_name(fp));
    std::fs::write(&path, format!("ghr-store v999 fp={fp:016x}\nk\tv\n")).unwrap();
    let e = Engine::new(machine(), 1).with_store_dir(&dir);
    assert_eq!(e.stats().persistent_loaded, 0);
    drop(e);

    std::fs::write(&path, b"\x00\xffnot a store at all").unwrap();
    let e = Engine::new(machine(), 1).with_store_dir(&dir);
    assert_eq!(e.stats().persistent_loaded, 0);
    e.table1().unwrap();
    e.flush_store().unwrap();
    drop(e);

    // The garbage was replaced by a valid store.
    let e = Engine::new(machine(), 1).with_store_dir(&dir);
    assert_eq!(e.stats().persistent_loaded, 8);
    e.table1().unwrap();
    assert_eq!(e.stats().evaluated, 0);
}

#[test]
fn concurrent_engines_merge_instead_of_clobbering() {
    // Two engines over the same directory, each evaluating a different
    // grid, flushing in either order: the store ends up with both (each
    // flush appends its own rows after whatever is on disk).
    let dir = tmp_dir("merge");
    let a = Engine::new(machine(), 1).with_store_dir(&dir);
    let b = Engine::new(machine(), 1).with_store_dir(&dir);
    a.table1().unwrap();
    b.sweep(&GpuSweep::paper_scaled(Case::C2, 1 << 20)).unwrap();
    a.flush_store().unwrap();
    b.flush_store().unwrap();
    drop(a);
    drop(b);

    let c = Engine::new(machine(), 1).with_store_dir(&dir);
    assert!(c.stats().persistent_loaded >= 8 + 60);
    c.table1().unwrap();
    c.sweep(&GpuSweep::paper_scaled(Case::C2, 1 << 20)).unwrap();
    assert_eq!(c.stats().evaluated, 0, "{:?}", c.stats());
}

#[test]
fn interleaved_flushes_from_racing_engines_merge_not_clobber() {
    // Torture the append path: two engines over the same directory
    // evaluate disjoint grids and flush *concurrently*, each several
    // times while the other is mid-evaluation or mid-flush. The file lock
    // serializes the appends, so the log ends up holding the union — no
    // flush drops or tears the other's rows.
    let dir = tmp_dir("interleave");
    let a = Engine::new(machine(), 2).with_store_dir(&dir);
    let b = Engine::new(machine(), 2).with_store_dir(&dir);
    std::thread::scope(|s| {
        s.spawn(|| {
            a.table1().unwrap();
            a.flush_store().unwrap();
            a.sweep(&GpuSweep::paper_scaled(Case::C1, 1 << 20)).unwrap();
            a.flush_store().unwrap();
        });
        s.spawn(|| {
            b.whatif().unwrap();
            b.flush_store().unwrap();
            b.sweep(&GpuSweep::paper_scaled(Case::C3, 1 << 20)).unwrap();
            b.flush_store().unwrap();
        });
    });
    let stored = a.stats().persistent_stored + b.stats().persistent_stored;
    drop(a);
    drop(b);

    // The disjoint grids sum exactly: the reopened file holds every entry
    // either engine stored, and nothing evaluates on a warm re-run.
    let fp = ghr_core::engine::machine_fingerprint(&machine());
    let reopened = PersistentStore::open(&dir, fp);
    assert_eq!(reopened.loaded(), stored, "flush dropped a loser's rows");

    let c = Engine::new(machine(), 2).with_store_dir(&dir);
    c.table1().unwrap();
    c.whatif().unwrap();
    c.sweep(&GpuSweep::paper_scaled(Case::C1, 1 << 20)).unwrap();
    c.sweep(&GpuSweep::paper_scaled(Case::C3, 1 << 20)).unwrap();
    assert_eq!(c.stats().evaluated, 0, "{:?}", c.stats());
}

#[test]
fn flush_is_atomic_no_partial_file_visible() {
    // A flush appends whole rows in one write under the file lock and
    // cuts off any torn tail first, so the file always ends in a complete
    // row and no temp file is involved.
    let dir = tmp_dir("atomic");
    let e = Engine::new(machine(), 1).with_store_dir(&dir);
    e.table1().unwrap();
    e.flush_store().unwrap();
    let path = e.store().unwrap().path().to_path_buf();
    drop(e);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.ends_with('\n'), "complete trailing newline");
    assert!(!std::fs::read_dir(&dir).unwrap().any(|f| f
        .unwrap()
        .file_name()
        .to_string_lossy()
        .contains("tmp")));
    // Loading it back sees every record.
    let fp = ghr_core::engine::machine_fingerprint(&machine());
    let store = PersistentStore::open(&dir, fp);
    assert_eq!(store.loaded() as usize, text.lines().count() - 1);
}

#[test]
fn a2_fanout_is_bit_identical_to_sequential_at_any_thread_count() {
    let cfg = CorunConfig::paper(
        Case::C3,
        KernelKind::Optimized {
            teams_axis: 65536,
            v: 4,
        },
        AllocSite::A2,
    )
    .scaled(M_SMALL, REPS_SMALL);
    let reference = run_corun(&machine(), &cfg).unwrap();
    for threads in [1, 2, 8] {
        let e = Engine::new(machine(), threads);
        let s = e.corun(&cfg).unwrap();
        assert_eq!(s.points.len(), reference.points.len());
        for (a, b) in s.points.iter().zip(&reference.points) {
            assert_eq!(a.p.to_bits(), b.p.to_bits(), "threads={threads}");
            assert_eq!(a.gbps.to_bits(), b.gbps.to_bits(), "threads={threads}");
            assert_eq!(a.total, b.total, "threads={threads}");
            assert_eq!(a.migrated_to_gpu, b.migrated_to_gpu, "threads={threads}");
            assert_eq!(a.cpu_remote, b.cpu_remote, "threads={threads}");
            assert_eq!(a.gpu_remote, b.gpu_remote, "threads={threads}");
        }
    }
}

#[test]
fn a2_points_round_trip_through_the_store() {
    let dir = tmp_dir("a2");
    let cfg = CorunConfig::paper(Case::C4, KernelKind::Baseline, AllocSite::A2)
        .scaled(M_SMALL, REPS_SMALL);
    let a = Engine::new(machine(), 4).with_store_dir(&dir);
    let first = a.corun(&cfg).unwrap();
    assert_eq!(a.stats().evaluated, 11);
    a.flush_store().unwrap();
    drop(a);

    let b = Engine::new(machine(), 4).with_store_dir(&dir);
    let second = b.corun(&cfg).unwrap();
    let stats = b.stats();
    assert_eq!(stats.evaluated, 0, "{stats:?}");
    assert_eq!(stats.persistent_hits, 11, "{stats:?}");
    for (x, y) in first.points.iter().zip(&second.points) {
        assert_eq!(x, y);
    }
}

#[test]
fn refined_sweep_matches_exhaustive_best_for_all_cases_at_half_cost() {
    // The acceptance criterion: for C1–C4, the refined sweep reports the
    // same best (teams, V) as the exhaustive grid while evaluating no
    // more than half of it. Checked at the paper scale (monotone teams
    // axis) and at a reduced scale (non-monotone teams axis).
    let e = Engine::new(machine(), 4);
    for case in Case::ALL {
        for sweep in [GpuSweep::paper(case), GpuSweep::paper_scaled(case, 1 << 20)] {
            let full = e.sweep_mode(&sweep, SweepMode::Exhaustive).unwrap();
            let refined = e.sweep_mode(&sweep, SweepMode::Refined).unwrap();
            let (fb, rb) = (full.best(), refined.best());
            assert_eq!((fb.v, fb.teams_axis), (rb.v, rb.teams_axis), "{case}");
            assert_eq!(fb.gbps.to_bits(), rb.gbps.to_bits(), "{case}");
            let (eval, grid) = refined.coverage();
            assert!(eval * 2 <= grid, "{case}: {eval}/{grid}");
        }
    }
}
