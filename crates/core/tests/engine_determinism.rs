//! Engine acceptance tests: parallel output bit-identical to the serial
//! drivers, and repeated experiments answered from the cache.

use ghr_core::engine::Engine;
use ghr_core::kernels::{self, WorkloadPoint, WorkloadResult, WORKLOAD_TEAMS_AXIS};
use ghr_core::study::run_full_study_scaled;
use ghr_core::sweep::GpuSweep;
use ghr_core::table1::table1;
use ghr_core::{Case, Request};
use ghr_machine::MachineConfig;
use ghr_omp::{OmpRuntime, TargetRegion};
use ghr_types::{KernelDescriptor, WorkloadKind};

fn machine() -> MachineConfig {
    MachineConfig::gh200()
}

/// Reduced element count: enough pages for a non-trivial co-run walk,
/// small enough that the full study stays fast in debug builds.
const M_SMALL: u64 = 400_000;
const REPS_SMALL: u32 = 5;

#[test]
fn parallel_sweep_is_bit_identical_to_serial_for_every_case() {
    let rt = OmpRuntime::new(machine());
    let parallel = Engine::new(machine(), 8);
    for case in Case::ALL {
        let sweep = GpuSweep::paper_scaled(case, 2_000_000);
        let serial = sweep.run(&rt).unwrap();
        let ours = parallel.sweep(&sweep).unwrap();
        assert_eq!(serial.points.len(), ours.points.len());
        for (a, b) in serial.points.iter().zip(&ours.points) {
            assert_eq!(a.teams_axis, b.teams_axis);
            assert_eq!(a.v, b.v);
            assert_eq!(a.gbps.to_bits(), b.gbps.to_bits(), "{case} {a:?} vs {b:?}");
        }
        // The rendered table (what the CLI prints) matches byte for byte.
        assert_eq!(
            serial.to_table().to_markdown(),
            ours.to_table().to_markdown()
        );
    }
}

#[test]
fn parallel_study_is_bit_identical_to_serial() {
    let serial = run_full_study_scaled(&machine(), Some(M_SMALL), Some(REPS_SMALL)).unwrap();
    for threads in [1, 8] {
        let e = Engine::new(machine(), threads);
        let ours = e
            .full_study_scaled(Some(M_SMALL), Some(REPS_SMALL))
            .unwrap();
        for (bucket, (a, b)) in [
            ("a1_base", (&serial.a1_base, &ours.a1_base)),
            ("a1_opt", (&serial.a1_opt, &ours.a1_opt)),
            ("a2_base", (&serial.a2_base, &ours.a2_base)),
            ("a2_opt", (&serial.a2_opt, &ours.a2_opt)),
        ] {
            assert_eq!(a.len(), b.len(), "{bucket}");
            for (sa, sb) in a.iter().zip(b.iter()) {
                assert_eq!(sa.config, sb.config, "{bucket}");
                assert_eq!(sa.points.len(), sb.points.len(), "{bucket}");
                for (pa, pb) in sa.points.iter().zip(&sb.points) {
                    assert_eq!(pa.p.to_bits(), pb.p.to_bits(), "{bucket}");
                    assert_eq!(
                        pa.gbps.to_bits(),
                        pb.gbps.to_bits(),
                        "{bucket} threads={threads} p={}",
                        pa.p
                    );
                    assert_eq!(pa.migrated_to_gpu, pb.migrated_to_gpu, "{bucket}");
                }
            }
        }
        // The aggregate summary table matches byte for byte too.
        assert_eq!(
            serial.summary().to_comparison_table().to_markdown(),
            ours.summary().to_comparison_table().to_markdown(),
            "threads={threads}"
        );
    }
}

#[test]
fn repeated_study_evaluates_each_series_once() {
    // 16 series: the 8 A1 series evaluate as one unit each, the 8 A2
    // series fan into 11 independently cached p points each (8 + 88 = 96
    // evaluations in the plan's fan stage). The assembly then re-reads
    // everything as cache hits: 8 A1 series hits, plus 8 A2 series
    // stitched from their 88 point hits. A repeated identical request is
    // answered whole from the response cache — no new cache traffic.
    let e = Engine::new(machine(), 4);
    e.full_study_scaled(Some(M_SMALL), Some(REPS_SMALL))
        .unwrap();
    let first = e.stats();
    assert_eq!(first.evaluated, 96, "{first:?}");
    assert_eq!(first.lookups, 200, "{first:?}");
    assert_eq!(first.hits, 96, "{first:?}");
    e.full_study_scaled(Some(M_SMALL), Some(REPS_SMALL))
        .unwrap();
    let second = e.stats();
    assert_eq!(second.evaluated, 96, "no new evaluations: {second:?}");
    assert_eq!(second.response_hits, 1, "{second:?}");
    assert_eq!(second.lookups, 200, "a response hit is free: {second:?}");
}

#[test]
fn engine_table1_is_bit_identical_to_serial() {
    let rt = OmpRuntime::new(machine());
    let serial = table1(&rt).unwrap();
    for threads in [1, 8] {
        let ours = Engine::new(machine(), threads).table1().unwrap();
        assert_eq!(serial.peak_gbps.to_bits(), ours.peak_gbps.to_bits());
        for (a, b) in serial.rows.iter().zip(&ours.rows) {
            assert_eq!(a.case, b.case);
            assert_eq!(a.base_gbps.to_bits(), b.base_gbps.to_bits());
            assert_eq!(a.opt_gbps.to_bits(), b.opt_gbps.to_bits());
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        }
        assert_eq!(
            serial.to_table().to_markdown(),
            ours.to_table().to_markdown()
        );
    }
}

#[test]
fn sweep_points_are_shared_with_table1_and_autotune() {
    // The Fig. 1 sweep at the paper scale contains C1's optimized Table-1
    // point (teams 65536, v 4, thread_limit 256), so running table1 after
    // fig1 evaluates only the 7 points the sweep did not cover; a later
    // autotune of the same case is pure cache hits.
    let e = Engine::new(machine(), 4);
    e.sweep(&GpuSweep::paper(Case::C1)).unwrap();
    assert_eq!(e.stats().evaluated, 60);
    e.table1().unwrap();
    let after_table1 = e.stats();
    assert_eq!(after_table1.evaluated, 67, "{after_table1:?}");
    e.autotune(Case::C1).unwrap();
    let after_tune = e.stats();
    assert_eq!(after_tune.evaluated, 67, "{after_tune:?}");
    // The refined autotune sweep probed a strict subset of the grid (all
    // cache hits), and reported its evaluated-vs-skipped split.
    let tune_lookups = after_tune.lookups - after_table1.lookups;
    assert_eq!(
        after_tune.hits - after_table1.hits,
        tune_lookups,
        "{after_tune:?}"
    );
    assert!(tune_lookups <= 30, "{after_tune:?}");
    assert_eq!(
        after_tune.sweep_evaluated + after_tune.sweep_skipped,
        60,
        "{after_tune:?}"
    );
    assert!(after_tune.sweep_evaluated * 2 <= 60, "{after_tune:?}");
}

#[test]
fn engine_autotune_matches_serial_autotune() {
    let rt = OmpRuntime::new(machine());
    let e = Engine::new(machine(), 8);
    for case in Case::ALL {
        let serial = ghr_core::autotune::autotune(&rt, case).unwrap();
        let ours = e.autotune(case).unwrap();
        assert_eq!(serial.teams_axis, ours.teams_axis, "{case}");
        assert_eq!(serial.v, ours.v, "{case}");
        assert_eq!(serial.gbps.to_bits(), ours.gbps.to_bits(), "{case}");
    }
}

/// Workload element count: a whole number of default GEMV rows.
const M_WORK: u64 = 1 << 20;

/// dot, scan and GEMV (default row length) for every case.
fn workload_requests() -> Vec<Request> {
    let m = Some(M_WORK);
    Case::ALL
        .into_iter()
        .flat_map(|case| {
            [
                Request::Dot { case, m },
                Request::Scan { case, m },
                Request::Gemv {
                    case,
                    cols: kernels::GEMV_COLS_DEFAULT,
                    m,
                },
            ]
        })
        .collect()
}

/// The serial driver: every teams point priced in axis order on the
/// caller's thread, then the roofline, placement and checksum.
fn serial_workload(rt: &OmpRuntime, kind: WorkloadKind, case: Case, m: u64) -> WorkloadResult {
    let desc = KernelDescriptor::for_kind(kind, case.elem(), case.acc());
    let points: Vec<WorkloadPoint> = WORKLOAD_TEAMS_AXIS
        .iter()
        .map(|&teams| {
            let region = TargetRegion::optimized(teams, case.v_optimized());
            let timing = rt.time_target_kernel(&region, m, &desc, None).unwrap();
            WorkloadPoint {
                teams,
                gbps: timing.effective_bw.as_gbps(),
            }
        })
        .collect();
    let best = points.iter().fold(
        points[0],
        |best, &p| if p.gbps > best.gbps { p } else { best },
    );
    let cpu_gbps = kernels::cpu_workload_gbps(rt, kind, case, m);
    let mut um = ghr_mem::UnifiedMemory::new(&machine());
    WorkloadResult {
        kind,
        case,
        m,
        best_teams: best.teams,
        best_gbps: best.gbps,
        cpu_gbps,
        placement: kernels::first_touch_placement(
            &mut um,
            desc.input_bytes(m),
            best.gbps,
            cpu_gbps,
        ),
        checksum: kernels::functional_checksum(kind, case),
        points,
    }
}

#[test]
fn workload_results_are_bit_identical_at_every_thread_count() {
    let rt = OmpRuntime::new(machine());
    let requests = workload_requests();
    // Debug formatting round-trips every f64 exactly, so string equality
    // means bit-identical numbers.
    let reference: Vec<String> = requests
        .iter()
        .map(|r| {
            let (kind, case, m) = r.workload_parts().unwrap();
            format!("{:?}", serial_workload(&rt, kind, case, m))
        })
        .collect();
    for threads in [1, 8] {
        let e = Engine::new(machine(), threads);
        for (request, want) in requests.iter().zip(&reference) {
            let got = e.run(request).unwrap();
            assert_eq!(
                &format!("{:?}", got.workload().unwrap()),
                want,
                "{request:?} threads={threads}"
            );
        }
    }
}
