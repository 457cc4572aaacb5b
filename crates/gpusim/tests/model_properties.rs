//! Property and structure tests of the GPU timing model across the whole
//! launch space.
//!
//! Each property runs over SplitMix64-seeded random launches: std-only
//! and deterministic, so every `cargo test` exercises it offline. The
//! paper-grid structure test walks the paper's own launch grid.

use ghr_gpusim::{GpuModel, LaunchConfig};
use ghr_machine::GpuSpec;
use ghr_types::DType;

fn model() -> GpuModel {
    GpuModel::new(GpuSpec::h100_sxm_gh200())
}

/// The properties, each over SplitMix64-seeded random launches.
mod std_fallback {
    use super::model;
    use ghr_gpusim::{GpuModel, GpuModelParams, LaunchConfig};
    use ghr_machine::GpuSpec;
    use ghr_types::{DType, SplitMix64};

    const CASES: usize = 128;

    fn any_launch(rng: &mut SplitMix64) -> LaunchConfig {
        let (elem, acc) = [
            (DType::I32, DType::I32),
            (DType::I8, DType::I64),
            (DType::F32, DType::F32),
            (DType::F64, DType::F64),
        ][rng.below(4) as usize];
        LaunchConfig {
            num_teams: 1 + rng.below(20_000_000),
            threads_per_team: [32u32, 64, 128, 256, 512, 1024][rng.below(6) as usize],
            v: [1u32, 2, 4, 8, 16, 32][rng.below(6) as usize],
            m: 1 + rng.below(5_000_000_000),
            elem,
            acc,
        }
    }

    #[test]
    fn outputs_are_physical() {
        let mut rng = SplitMix64::new(0x6d01_0001);
        let m = model();
        for _ in 0..CASES {
            let cfg = any_launch(&mut rng);
            let b = m.reduce(&cfg).unwrap();
            assert!(b.total.is_valid_span(), "{cfg:?}");
            assert!(b.memory.is_valid_span());
            assert!(b.compute.is_valid_span());
            assert!(b.team_pipeline.is_valid_span());
            assert!(b.effective_bw.as_gbps() > 0.0);
            assert!(b.effective_bw.as_gbps() <= m.spec().hbm_peak_bw.as_gbps() + 1e-9);
            assert!(b.total >= b.launch, "{cfg:?}");
        }
    }

    #[test]
    fn monotone_in_m() {
        let mut rng = SplitMix64::new(0x6d01_0002);
        let m = model();
        for _ in 0..CASES {
            let cfg = any_launch(&mut rng);
            let t1 = m.reduce(&cfg).unwrap().total;
            let mut big = cfg;
            big.m = cfg.m.saturating_mul(2);
            let t2 = m.reduce(&big).unwrap().total;
            assert!(t2 >= t1, "{cfg:?}");
        }
    }

    #[test]
    fn supply_cap_is_monotone() {
        let mut rng = SplitMix64::new(0x6d01_0003);
        let m = model();
        for _ in 0..CASES {
            let cfg = any_launch(&mut rng);
            let cap_gbps = 10.0 + rng.next_f64() * 3990.0;
            let free = m.reduce(&cfg).unwrap().total;
            let capped = m
                .reduce_with_supply(&cfg, Some(ghr_types::Bandwidth::gbps(cap_gbps)))
                .unwrap()
                .total;
            assert!(capped >= free, "{cfg:?} cap {cap_gbps}");
        }
    }

    #[test]
    fn team_overhead_is_monotone() {
        let mut rng = SplitMix64::new(0x6d01_0004);
        for _ in 0..CASES {
            let cfg = any_launch(&mut rng);
            let factor = 1.0 + rng.next_f64() * 9.0;
            let base = model().reduce(&cfg).unwrap().total;
            let mut params = GpuModelParams::default();
            params.team_overhead_ns *= factor;
            let slower = GpuModel::with_params(GpuSpec::h100_sxm_gh200(), params)
                .reduce(&cfg)
                .unwrap()
                .total;
            assert!(slower >= base, "{cfg:?} factor {factor}");
        }
    }
}

#[test]
fn the_paper_grid_is_fully_evaluable() {
    // Every point of the paper's Fig. 1 parameter space must evaluate
    // without error for all four cases.
    let m = model();
    let cases = [
        (DType::I32, DType::I32, 1_048_576_000u64),
        (DType::I8, DType::I64, 4_194_304_000),
        (DType::F32, DType::F32, 1_048_576_000),
        (DType::F64, DType::F64, 1_048_576_000),
    ];
    let mut evaluated = 0;
    for (elem, acc, elems) in cases {
        for i in 7..=16u32 {
            for v in [1u32, 2, 4, 8, 16, 32] {
                let cfg = LaunchConfig {
                    num_teams: ((1u64 << i) / v as u64).max(1),
                    threads_per_team: 256,
                    v,
                    m: elems,
                    elem,
                    acc,
                };
                let b = m.reduce(&cfg).unwrap();
                assert!(b.effective_bw.as_gbps() > 10.0, "{cfg:?}");
                evaluated += 1;
            }
        }
    }
    assert_eq!(evaluated, 4 * 10 * 6);
}
