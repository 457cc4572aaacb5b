//! Race acceptance for the shared cache maps: eight threads hammer the
//! response cache with overlapping request ids, one request of every
//! class a server answers, and every answer must be byte-identical to a
//! serial engine's cold answer without evaluating; racing publications
//! must leave exactly one entry per distinct key.

use ghr_core::kernels::GEMV_COLS_DEFAULT;
use ghr_core::{
    AllocSite, Case, CorunConfig, Engine, GpuSweep, KernelKind, Request, ResponseSource, SweepMode,
};
use ghr_machine::MachineConfig;
use std::sync::Barrier;

const THREADS: usize = 8;
const ROUNDS: usize = 50;

/// One request per class: the paper's tables and figures, a 2x2
/// exhaustive sweep (GPU points), an A1 co-run series, A2 per-`p` co-run
/// points, and the descriptor-timed dot, scan and GEMV workloads.
fn requests() -> Vec<Request> {
    let corun = |alloc| Request::Corun {
        configs: vec![CorunConfig::paper(Case::C2, KernelKind::Baseline, alloc).scaled(65536, 2)],
    };
    let m = Some(1 << 16);
    vec![
        Request::Table1,
        Request::WhatIf,
        Request::fig1(Case::C1),
        Request::Sweep {
            sweep: GpuSweep {
                case: Case::C1,
                teams_axis: vec![4096, 65536],
                vs: vec![1, 4],
                thread_limit: 256,
                m: 1 << 16,
            },
            mode: SweepMode::Exhaustive,
        },
        corun(AllocSite::A1),
        corun(AllocSite::A2),
        Request::Dot { case: Case::C1, m },
        Request::Scan { case: Case::C2, m },
        Request::Gemv {
            case: Case::C3,
            cols: GEMV_COLS_DEFAULT,
            m,
        },
    ]
}

#[test]
fn warm_reads_race_free_across_eight_threads() {
    // Reference bodies from a serial engine's cold answers, which read
    // through no cache: whatever the shared maps return must match these
    // bytes.
    let serial = Engine::new(MachineConfig::gh200(), 1);
    let reference: Vec<String> = requests()
        .iter()
        .map(|r| {
            let cold = serial.respond(r).unwrap();
            assert_eq!(cold.source, ResponseSource::Fresh);
            format!("{:?}", cold.response)
        })
        .collect();

    let engine = Engine::new(MachineConfig::gh200(), 2);
    let reqs = requests();
    let warmed = Barrier::new(THREADS + 1);
    let timed = Barrier::new(THREADS + 1);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (engine, reqs, reference) = (&engine, &reqs, &reference);
                let (warmed, timed) = (&warmed, &timed);
                s.spawn(move || {
                    // Cold pass: every thread issues every request, so the
                    // single-flight leaders publish every response.
                    for r in reqs {
                        engine.respond(r).unwrap();
                    }
                    warmed.wait();
                    timed.wait();
                    for round in 0..ROUNDS {
                        for (i, r) in reqs.iter().enumerate() {
                            let got = engine.respond(r).unwrap();
                            assert_eq!(
                                got.source,
                                ResponseSource::ResponseCache,
                                "round {round} request {i} must be a warm hit"
                            );
                            assert_eq!(got.evals, 0, "round {round} request {i}");
                            assert_eq!(
                                format!("{:?}", got.response),
                                reference[i],
                                "round {round} request {i}: warm read \
                                 diverged from the serial cold answer"
                            );
                        }
                    }
                })
            })
            .collect();
        // Every thread has finished its cold pass, so every response is
        // published; from here to join, each read is a warm hit.
        warmed.wait();
        let before = engine.stats();
        timed.wait();
        for h in handles {
            h.join().unwrap();
        }
        let after = engine.stats();
        let reads = (THREADS * ROUNDS * reqs.len()) as u64;
        assert_eq!(after.response_hits - before.response_hits, reads);
        assert_eq!(after.evaluated, before.evaluated, "no timed evaluation");
    });
}

#[test]
fn cache_maps_stay_bounded_by_distinct_published_keys() {
    let reqs = requests();
    let serial = Engine::new(MachineConfig::gh200(), 1);
    for r in &reqs {
        serial.respond(r).unwrap();
    }
    let bound = serial.stats().replica_log_bytes;
    assert!(bound > 0, "populated maps report their footprint");

    // Racing duplicates: every thread issues every request, repeatedly.
    // Publication is first-write-wins, so however the race lands, every
    // map ends with exactly one entry per distinct key — the serial
    // engine's footprint.
    let engine = Engine::new(MachineConfig::gh200(), 2);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let (engine, reqs) = (&engine, &reqs);
            s.spawn(move || {
                for _ in 0..3 {
                    for r in reqs {
                        engine.respond(r).unwrap();
                    }
                }
            });
        }
    });
    let warmed = engine.stats();
    assert_eq!(
        warmed.replica_log_bytes, bound,
        "racing publications must not duplicate an entry: {warmed:?}"
    );

    // A further storm of pure warm traffic must not grow any map.
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let (engine, reqs) = (&engine, &reqs);
            s.spawn(move || {
                for _ in 0..10 {
                    for r in reqs {
                        let got = engine.respond(r).unwrap();
                        assert_eq!(got.source, ResponseSource::ResponseCache);
                    }
                }
            });
        }
    });
    let after = engine.stats();
    assert_eq!(
        after.replica_log_bytes, bound,
        "warm traffic must never publish: {after:?}"
    );
}
