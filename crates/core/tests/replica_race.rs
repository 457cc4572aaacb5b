//! Race acceptance for the lock-free warm-read path: eight threads
//! hammer the replica-backed response cache with overlapping request
//! ids and every answer must be byte-identical to a serial engine's
//! cold answer, with **zero** warm lock acquisitions once the replicas
//! are synced — the `warm_lock_acquisitions` counter is the proof.

use ghr_core::engine::{Engine, ResponseSource};
use ghr_core::{Case, Request};
use ghr_machine::MachineConfig;
use ghr_types::CacheLayer;
use std::sync::Barrier;

const THREADS: usize = 8;
const ROUNDS: usize = 50;

fn requests() -> [Request; 3] {
    [Request::Table1, Request::WhatIf, Request::fig1(Case::C1)]
}

#[test]
fn warm_replica_reads_race_free_and_lock_free_across_eight_threads() {
    // Reference bodies from a serial engine's cold answers, which read
    // through no cache: whatever the lock-free path returns must match
    // these bytes.
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
    let cold_done = Barrier::new(THREADS);
    let warmed = Barrier::new(THREADS + 1);
    let timed = Barrier::new(THREADS + 1);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (engine, reqs, reference) = (&engine, &reqs, &reference);
                let (cold_done, warmed, timed) = (&cold_done, &warmed, &timed);
                s.spawn(move || {
                    // Cold pass: every thread issues every request, so the
                    // single-flight leaders publish all three responses.
                    for r in reqs {
                        engine.respond(r).unwrap();
                    }
                    // All publications exist once every thread passes this
                    // barrier; one more read then replays this thread's
                    // replica past the whole log.
                    cold_done.wait();
                    engine.respond(&reqs[0]).unwrap();
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
                                "round {round} request {i}: lock-free read \
                                 diverged from the serial cold answer"
                            );
                        }
                    }
                })
            })
            .collect();
        warmed.wait();
        // Every replica is synced; from here to join, the timed section
        // must be pure wait-free snapshot reads.
        let before = engine.stats();
        timed.wait();
        for h in handles {
            h.join().unwrap();
        }
        let after = engine.stats();
        let reads = (THREADS * ROUNDS * reqs.len()) as u64;
        assert_eq!(
            after.warm_lock_acquisitions - before.warm_lock_acquisitions,
            0,
            "synced warm reads must acquire zero locks: {before:?} -> {after:?}"
        );
        assert_eq!(
            after.replica_snapshot_hits - before.replica_snapshot_hits,
            reads,
            "every timed read must be a wait-free snapshot hit"
        );
        assert_eq!(after.replica_syncs - before.replica_syncs, 0);
        assert_eq!(after.response_hits - before.response_hits, reads);
        assert_eq!(after.evaluated, before.evaluated, "no timed evaluation");
    });
}

#[test]
fn replica_logs_stay_bounded_by_distinct_published_keys() {
    const THREADS: usize = 8;
    let reqs = requests();
    let engine = Engine::new(MachineConfig::gh200(), 2);

    // Racing duplicates: every thread issues every request, repeatedly.
    // Publication is first-write-wins under the log's index, so however
    // the race lands, the response log ends with exactly one record per
    // distinct request id.
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
    let response = warmed.layer(CacheLayer::Response);
    assert_eq!(
        response.replica_published,
        reqs.len() as u64,
        "append-only response log must hold one record per distinct id: {warmed:?}"
    );
    assert!(
        response.replica_log_bytes > 0,
        "a populated log reports its footprint: {warmed:?}"
    );
    // The item layers are first-write-wins too: published counts equal
    // the aggregate only if no duplicate ever re-appended.
    let published_total = warmed.replica_published;

    // A further storm of pure warm traffic — hits and coalesced flights
    // only — must not grow any append-only log by a single record.
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
        after.replica_published, published_total,
        "warm traffic must never append: {after:?}"
    );
    assert_eq!(
        after.layer(CacheLayer::Response).replica_log_bytes,
        response.replica_log_bytes,
        "log bytes are pinned to the distinct-key bound: {after:?}"
    );
}
