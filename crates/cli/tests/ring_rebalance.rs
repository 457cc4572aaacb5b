//! Property tests for the consistent-hash ring's rebalance bounds.
//!
//! Runtime membership changes (a `ghr-join`, a retirement) are only
//! safe to do live because the ring promises locality: a member's
//! vnode points depend on nothing but its own index, so changing the
//! member set moves exactly the arcs the delta member claims or
//! returns. These tests pin that promise over SplitMix64-generated
//! worker sets and 10k sampled keys per case — std-only, no RNG or
//! property-testing dependency, so they run offline:
//!
//! * a join moves only keys that land on the new member, and no more
//!   of the keyspace than the new member's own arc share;
//! * a removal moves only the removed member's keys, and routing on
//!   the shrunk ring is *identical* to routing on the full ring with
//!   the removed member's alive-flag cleared (which is why retirement
//!   is pure bookkeeping — the successor walk already routed that way);
//! * occupancy tiles to exactly 1.0 with absent members at share 0;
//! * whatever the membership and alive mask, the routed owner is live.

use ghr_cli::router::HashRing;
use ghr_types::SplitMix64;

const KEY_SAMPLES: usize = 10_000;
/// Member indices live in `0..INDEX_SPACE`; sets are sparse subsets so
/// joins and removals exercise arbitrary (not just dense) indices.
const INDEX_SPACE: usize = 24;

/// A random member set of `len` distinct indices from the index space.
fn member_set(rng: &mut SplitMix64, len: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..INDEX_SPACE).collect();
    for i in 0..len {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(len);
    pool
}

fn alive_mask(members: &[usize]) -> Vec<bool> {
    let mut alive = vec![false; INDEX_SPACE];
    for &m in members {
        alive[m] = true;
    }
    alive
}

#[test]
fn join_moves_at_most_the_new_members_arc_share() {
    let mut rng = SplitMix64::new(0x9152_0001);
    for round in 0..12 {
        let len = 1 + rng.below(10) as usize;
        let mut members = member_set(&mut rng, len + 1);
        let joiner = members.pop().unwrap();
        let before = HashRing::for_members(&members);
        let mut grown = members.clone();
        grown.push(joiner);
        let after = HashRing::for_members(&grown);

        let alive_before = alive_mask(&members);
        let alive_after = alive_mask(&grown);
        let mut moved = 0usize;
        for _ in 0..KEY_SAMPLES {
            let key = rng.next_u64();
            let old = before.route(key, &alive_before).unwrap();
            let new = after.route(key, &alive_after).unwrap();
            if old != new {
                moved += 1;
                assert_eq!(
                    new, joiner,
                    "round {round}: a join may only move keys onto the joiner \
                     (key went {old} -> {new}, joiner {joiner})"
                );
            }
        }
        let share = after.occupancy(INDEX_SPACE)[joiner];
        let moved_frac = moved as f64 / KEY_SAMPLES as f64;
        assert!(
            moved_frac <= share * 1.25 + 0.01,
            "round {round}: moved {moved_frac:.4} of keys but the joiner's \
             arc share is only {share:.4}"
        );
    }
}

#[test]
fn removal_moves_only_the_removed_members_keys() {
    let mut rng = SplitMix64::new(0x9152_0002);
    for round in 0..12 {
        let len = 2 + rng.below(9) as usize;
        let members = member_set(&mut rng, len);
        let removed = members[rng.below(members.len() as u64) as usize];
        let survivors: Vec<usize> = members.iter().copied().filter(|&m| m != removed).collect();
        let full = HashRing::for_members(&members);
        let shrunk = HashRing::for_members(&survivors);

        let alive_full = alive_mask(&members);
        let mut alive_skip = alive_full.clone();
        alive_skip[removed] = false;
        let alive_survivors = alive_mask(&survivors);

        let mut moved = 0usize;
        for _ in 0..KEY_SAMPLES {
            let key = rng.next_u64();
            let old = full.route(key, &alive_full).unwrap();
            let new = shrunk.route(key, &alive_survivors).unwrap();
            if old != new {
                moved += 1;
                assert_eq!(
                    old, removed,
                    "round {round}: a removal may only move the removed \
                     member's keys (key went {old} -> {new}, removed {removed})"
                );
            }
            // Retirement equivalence: the rebuilt ring routes exactly
            // like the full ring walking past the dead member.
            assert_eq!(
                new,
                full.route(key, &alive_skip).unwrap(),
                "round {round}: shrunk-ring routing must equal the \
                 dead-flag successor walk"
            );
        }
        let share = full.occupancy(INDEX_SPACE)[removed];
        let moved_frac = moved as f64 / KEY_SAMPLES as f64;
        assert!(
            moved_frac <= share * 1.25 + 0.01,
            "round {round}: moved {moved_frac:.4} of keys but the removed \
             member's arc share was only {share:.4}"
        );
    }
}

#[test]
fn occupancy_tiles_to_one_with_absent_members_at_zero() {
    let mut rng = SplitMix64::new(0x9152_0003);
    for round in 0..20 {
        let len = 1 + rng.below(11) as usize;
        let members = member_set(&mut rng, len);
        let ring = HashRing::for_members(&members);
        let occ = ring.occupancy(INDEX_SPACE);
        let total: f64 = occ.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "round {round}: occupancy must tile the keyspace, got {total}"
        );
        for (w, &share) in occ.iter().enumerate() {
            if members.contains(&w) {
                assert!(share > 0.0, "round {round}: member {w} holds no arc");
            } else {
                assert_eq!(
                    share, 0.0,
                    "round {round}: absent member {w} holds arc {share}"
                );
            }
        }
    }
}

#[test]
fn routed_owner_is_always_live() {
    let mut rng = SplitMix64::new(0x9152_0004);
    for round in 0..20 {
        let len = 1 + rng.below(11) as usize;
        let members = member_set(&mut rng, len);
        let ring = HashRing::for_members(&members);
        // A random non-empty live subset of the membership.
        let mut alive = vec![false; INDEX_SPACE];
        for &m in &members {
            alive[m] = rng.next_u64().is_multiple_of(2);
        }
        if !alive.iter().any(|&a| a) {
            alive[members[0]] = true;
        }
        for _ in 0..1_000 {
            let key = rng.next_u64();
            let owner = ring
                .route(key, &alive)
                .expect("a ring with a live member must route");
            assert!(alive[owner], "round {round}: routed to dead worker {owner}");
        }
        // And a fully-dead ring degrades to None, never a bogus owner.
        assert_eq!(ring.route(rng.next_u64(), &[false; INDEX_SPACE]), None);
    }
}
