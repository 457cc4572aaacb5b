//! Engine concurrency acceptance: many threads calling [`Engine::respond`]
//! on one shared engine must produce bit-identical responses, consistent
//! stats counters (exactly one fresh evaluation pass per distinct request,
//! everything else a response hit or a coalesced flight), and — with a
//! persistent store attached — exactly one stored entry per work item.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

use ghr_core::engine::{machine_fingerprint, Engine, ResponseSource};
use ghr_core::store::PersistentStore;
use ghr_core::{Case, Request};
use ghr_machine::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::gh200()
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ghr-conc-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared request mix: three distinct requests, rotated per thread so
/// concurrent threads collide on the same id from the first instant.
fn requests() -> [Request; 3] {
    [Request::Table1, Request::WhatIf, Request::fig1(Case::C1)]
}

#[test]
fn concurrent_responds_are_deterministic_and_coalesced() {
    const THREADS: usize = 8;
    let reqs = requests();

    // Serial reference: one request at a time on a fresh single-threaded
    // engine. Debug formatting round-trips every f64 exactly, so string
    // equality below means bit-identical numbers.
    let serial = Engine::new(machine(), 1);
    let reference: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", serial.run(r).unwrap()))
        .collect();

    let engine = Engine::new(machine(), 2);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let reqs = &reqs;
                s.spawn(move || {
                    let mut seen = Vec::new();
                    for k in 0..reqs.len() {
                        let which = (t + k) % reqs.len();
                        let got = engine.respond(&reqs[which]).unwrap();
                        seen.push((which, format!("{:?}", got.response), got.source));
                    }
                    seen
                })
            })
            .collect();

        let mut fresh = 0usize;
        for handle in handles {
            for (which, body, source) in handle.join().unwrap() {
                assert_eq!(
                    body, reference[which],
                    "request {which} diverged from the serial reference"
                );
                if source == ResponseSource::Fresh {
                    fresh += 1;
                }
            }
        }
        // Exactly one thread per distinct request did the fresh work.
        assert_eq!(fresh, reqs.len(), "one Fresh response per distinct id");
    });

    // Counter consistency across all sessions: every request is accounted
    // for, duplicates never re-evaluated, and the point-level ledger still
    // balances (each lookup is a hit or an evaluation, never both or lost).
    let items = Engine::new(machine(), 1)
        .plan_many(&reqs)
        .unwrap()
        .summary()
        .items();
    let stats = engine.stats();
    assert_eq!(stats.requests as usize, THREADS * reqs.len(), "{stats:?}");
    assert_eq!(
        stats.evaluated as usize, items,
        "{stats:?} vs {items} items"
    );
    assert_eq!(
        (stats.response_hits + stats.coalesced) as usize,
        THREADS * reqs.len() - reqs.len(),
        "{stats:?}"
    );
    assert_eq!(stats.lookups, stats.hits + stats.evaluated, "{stats:?}");
}

#[test]
fn single_flight_storm_elects_one_leader_and_parks_followers() {
    const THREADS: usize = 8;
    let request = Request::fig1(Case::C2);

    // Serial reference body: whatever the storm returns must match.
    let reference = format!("{:?}", Engine::new(machine(), 1).run(&request).unwrap());

    let engine = Engine::new(machine(), 2);
    let before = engine.stats();
    let start = Barrier::new(THREADS);
    let sources = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (engine, request, start) = (&engine, &request, &start);
                let reference = &reference;
                s.spawn(move || {
                    // Barrier-aligned: all eight arrivals carry the same
                    // cold id into the single flight in the same instant.
                    start.wait();
                    let got = engine.respond(request).unwrap();
                    assert_eq!(&format!("{:?}", got.response), reference);
                    got.source
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let after = engine.stats();

    // Exactly one storm thread led the flight and evaluated; everyone
    // else waited out the leader or hit its publish, without evaluating.
    let fresh = sources
        .iter()
        .filter(|s| **s == ResponseSource::Fresh)
        .count();
    assert_eq!(fresh, 1, "one leader per duplicate id: {sources:?}");
    assert_eq!(after.inflight_claims - before.inflight_claims, 1);
    let followers = (THREADS - 1) as u64;
    assert_eq!(
        (after.inflight_joins - before.inflight_joins)
            + (after.response_hits - before.response_hits),
        followers,
        "every follower either joined the flight or hit the published \
         response: {after:?}"
    );
}

#[test]
fn concurrent_store_backed_engine_keeps_one_entry_per_work_item() {
    const THREADS: usize = 8;
    let dir = tmp_dir("one-entry");
    let reqs = [Request::Table1, Request::WhatIf];
    let engine = Arc::new(Engine::new(machine(), 2).with_store_dir(&dir));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            let reqs = &reqs;
            s.spawn(move || {
                for k in 0..reqs.len() {
                    engine.run(&reqs[(t + k) % reqs.len()]).unwrap();
                    // Interleave flushes with other threads' evaluations;
                    // flushing mid-run must never lose or duplicate rows.
                    engine.flush_store().unwrap();
                }
            });
        }
    });
    engine.flush_store().unwrap();

    let items = Engine::new(machine(), 1)
        .plan_many(&reqs)
        .unwrap()
        .summary()
        .items();
    let stats = engine.stats();
    assert_eq!(stats.evaluated as usize, items, "{stats:?}");
    assert_eq!(stats.persistent_stored, stats.evaluated, "{stats:?}");

    // The on-disk store holds exactly one entry per distinct work item.
    let reopened = PersistentStore::open(&dir, machine_fingerprint(&machine()));
    assert_eq!(reopened.loaded() as usize, items, "one row per work item");
    assert_eq!(reopened.len(), items);

    // A cold engine over the same store answers everything from disk.
    let warm = Engine::new(machine(), 2).with_store_dir(&dir);
    for r in &reqs {
        warm.run(r).unwrap();
    }
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.evaluated, 0, "{warm_stats:?}");
    assert_eq!(warm_stats.persistent_hits as usize, items, "{warm_stats:?}");
}
