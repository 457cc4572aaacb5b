//! Property tests of the unified-memory state machine under arbitrary
//! access traces.
//!
//! Each property runs over SplitMix64-seeded random traces: std-only and
//! deterministic, so every `cargo test` exercises it offline. A one-byte
//! region (`len = 1`), a case that once failed, is replayed on its own.

use ghr_machine::MachineConfig;
use ghr_mem::{CpuAccessPolicy, Residency, UnifiedMemory};
use ghr_types::{Bytes, Device};

fn machine_with_pages(page: u64) -> MachineConfig {
    let mut m = MachineConfig::gh200();
    m.page_size = Bytes(page);
    m
}

#[derive(Debug, Clone)]
enum Op {
    Cpu(f64, f64),
    Gpu(f64, f64),
    PrefetchGpu(f64, f64),
    PrefetchCpu(f64, f64),
}

impl Op {
    fn of(kind: u8, a: f64, b: f64) -> Op {
        match kind {
            0 => Op::Cpu(a, b),
            1 => Op::Gpu(a, b),
            2 => Op::PrefetchGpu(a, b),
            _ => Op::PrefetchCpu(a, b),
        }
    }
}

fn range_of(len: u64, a: f64, b: f64) -> (Bytes, Bytes) {
    let off = (a * len as f64) as u64;
    let n = ((b * (len - off) as f64) as u64).min(len - off);
    (Bytes(off), Bytes(n))
}

/// Run one trace over a fresh region and check, after every op, that
/// page counts are conserved, outcomes account for exactly the
/// requested bytes, and migration stats never decrease. `Err` names the
/// first op that broke an invariant.
fn check_trace(len: u64, page: u64, ops: &[Op]) -> Result<(), String> {
    let machine = machine_with_pages(page);
    let mut um = UnifiedMemory::new(&machine);
    let rid = um.alloc(Bytes(len));
    let total_pages = len.div_ceil(page);
    let mut last_migrated = Bytes::ZERO;
    for (i, op) in ops.iter().enumerate() {
        let accounted = match *op {
            Op::Cpu(a, b) => {
                let (off, n) = range_of(len, a, b);
                Some((um.cpu_access(rid, off, n).total(), n))
            }
            Op::Gpu(a, b) => {
                let (off, n) = range_of(len, a, b);
                Some((um.gpu_access(rid, off, n).total(), n))
            }
            Op::PrefetchGpu(a, b) => {
                let (off, n) = range_of(len, a, b);
                um.prefetch(Device::GPU0, rid, off, n);
                None
            }
            Op::PrefetchCpu(a, b) => {
                let (off, n) = range_of(len, a, b);
                um.prefetch(Device::Host, rid, off, n);
                None
            }
        };
        if let Some((got, want)) = accounted {
            if got != want {
                return Err(format!(
                    "op {i} {op:?}: outcome {got:?} != requested {want:?}"
                ));
            }
        }
        let (u, c, g) = um.residency_histogram(rid);
        if u + c + g != total_pages {
            return Err(format!("op {i} {op:?}: {u}+{c}+{g} pages != {total_pages}"));
        }
        let migrated = um.stats().migrated_to_gpu + um.stats().migrated_to_cpu;
        if migrated < last_migrated {
            return Err(format!("op {i} {op:?}: migrated bytes went backwards"));
        }
        last_migrated = migrated;
    }
    Ok(())
}

/// A full GPU pass after CPU initialization of `pages` whole pages:
/// `(unpopulated, cpu-resident)` pages after it, and the pages a second
/// pass migrates.
fn gpu_pass_residue(pages: u64) -> (u64, u64, u64) {
    let len = pages * 4096;
    let machine = machine_with_pages(4096);
    let mut um = UnifiedMemory::new(&machine);
    let rid = um.alloc(Bytes(len));
    um.cpu_access(rid, Bytes::ZERO, Bytes(len));
    um.gpu_access(rid, Bytes::ZERO, Bytes(len));
    let (u, c, _) = um.residency_histogram(rid);
    let before = um.stats().pages_migrated;
    um.gpu_access(rid, Bytes::ZERO, Bytes(len));
    (u, c, um.stats().pages_migrated - before)
}

/// The properties, each over SplitMix64-seeded random inputs.
mod std_fallback {
    use super::*;
    use ghr_types::SplitMix64;

    /// A random operation: its kind, then its two unit draws.
    fn any_op(rng: &mut SplitMix64) -> Op {
        let kind = rng.below(4) as u8;
        Op::of(kind, rng.next_f64(), rng.next_f64())
    }

    const CASES: usize = 48;

    #[test]
    fn trace_invariants() {
        let mut rng = SplitMix64::new(0x0a11_0c01);
        for _ in 0..CASES {
            let len = 1 + rng.below(199_999);
            let page = [512u64, 4096, 65536][rng.below(3) as usize];
            let ops: Vec<Op> = (0..1 + rng.below(39)).map(|_| any_op(&mut rng)).collect();
            if let Err(e) = check_trace(len, page, &ops) {
                panic!("len={len} page={page}: {e}");
            }
        }
    }

    /// The case that once failed: a one-byte region, a single partial
    /// page, under every op kind at both ends of its range and every
    /// page size.
    #[test]
    fn trace_invariants_one_byte_region() {
        let ops: Vec<Op> = (0..4u8)
            .flat_map(|k| {
                [
                    Op::of(k, 0.0, 1.0),
                    Op::of(k, 0.0, 0.0),
                    Op::of(k, 0.99, 1.0),
                ]
            })
            .collect();
        for page in [512u64, 4096, 65536] {
            if let Err(e) = check_trace(1, page, &ops) {
                panic!("len=1 page={page}: {e}");
            }
        }
    }

    #[test]
    fn full_gpu_pass_settles() {
        for pages in 1u64..32 {
            assert_eq!(gpu_pass_residue(pages), (0, 0, 0), "pages={pages}");
        }
    }

    #[test]
    fn migrate_back_ping_pong() {
        for pages in 1u64..12 {
            for rounds in 1u64..6 {
                let len = pages * 4096;
                let machine = machine_with_pages(4096);
                let mut um = UnifiedMemory::new(&machine);
                um.set_cpu_policy(CpuAccessPolicy::MigrateBack { passes: 1.0 });
                let rid = um.alloc(Bytes(len));
                um.cpu_access(rid, Bytes::ZERO, Bytes(len));
                for _ in 0..rounds {
                    um.gpu_access(rid, Bytes::ZERO, Bytes(len));
                    assert_eq!(um.residency_at(rid, Bytes::ZERO), Residency::Gpu);
                    um.cpu_access(rid, Bytes::ZERO, Bytes(len));
                    assert_eq!(um.residency_at(rid, Bytes::ZERO), Residency::Cpu);
                }
                // Each round migrates every page twice.
                assert_eq!(
                    um.stats().pages_migrated,
                    2 * pages * rounds,
                    "pages={pages} rounds={rounds}"
                );
            }
        }
    }

    #[test]
    fn threshold_delays_migration() {
        for k in 2u32..6 {
            let machine = machine_with_pages(4096);
            let mut um = UnifiedMemory::new(&machine);
            um.set_gpu_migrate_threshold(f64::from(k));
            let len = Bytes(40_960);
            let rid = um.alloc(len);
            um.cpu_access(rid, Bytes::ZERO, len);
            for pass in 1..k {
                let out = um.gpu_access(rid, Bytes::ZERO, len);
                assert_eq!(out.remote, len, "k={k} pass {pass}");
            }
            let out = um.gpu_access(rid, Bytes::ZERO, len);
            assert_eq!(out.migrated, len, "k={k}");
        }
    }

    #[test]
    fn regions_are_isolated() {
        let mut rng = SplitMix64::new(0x0a11_0c05);
        for _ in 0..CASES {
            let (l1, l2) = (1 + rng.below(49_999), 1 + rng.below(49_999));
            let machine = machine_with_pages(4096);
            let mut um = UnifiedMemory::new(&machine);
            let a = um.alloc(Bytes(l1));
            let b = um.alloc(Bytes(l2));
            um.cpu_access(a, Bytes::ZERO, Bytes(l1));
            um.gpu_access(b, Bytes::ZERO, Bytes(l2));
            let (_, c_a, g_a) = um.residency_histogram(a);
            let (_, c_b, g_b) = um.residency_histogram(b);
            assert_eq!(g_a, 0, "l1={l1} l2={l2}");
            assert_eq!(c_b, 0, "l1={l1} l2={l2}");
            assert_eq!(c_a, l1.div_ceil(4096));
            assert_eq!(g_b, l2.div_ceil(4096));
            um.free(a);
            assert_eq!(um.len(b), Bytes(l2));
        }
    }
}
