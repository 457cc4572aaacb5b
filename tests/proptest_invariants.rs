//! Property-based invariants across the workspace: execution semantics,
//! page-placement conservation, and timing-model sanity.
//!
//! Each property runs over SplitMix64-seeded random cases: std-only and
//! deterministic, so every `cargo test` exercises it offline.

/// The properties, each over SplitMix64-seeded random cases.
mod std_fallback {
    use grace_hopper_reduction::gpusim::{execute_reduction, GpuModel, LaunchConfig};
    use grace_hopper_reduction::machine::{GpuSpec, MachineConfig};
    use grace_hopper_reduction::mem::{Residency, UnifiedMemory};
    use grace_hopper_reduction::parallel::{parallel_sum_unrolled, sum_sequential, ChunkPolicy};
    use grace_hopper_reduction::types::{Bytes, DType, Device, SplitMix64};

    const CASES: usize = 64;

    #[test]
    fn device_execution_matches_sequential_i32() {
        let mut rng = SplitMix64::new(0x1457_0001);
        for _ in 0..CASES {
            let len = 1 + rng.below(5000) as usize;
            let data: Vec<i32> = (0..len).map(|_| rng.below(2000) as i32 - 1000).collect();
            let launch = LaunchConfig {
                num_teams: 1 + rng.below(100_000),
                threads_per_team: [32u32, 64, 128, 256, 512][rng.below(5) as usize],
                v: [1u32, 2, 4, 8, 16, 32][rng.below(6) as usize],
                m: data.len() as u64,
                elem: DType::I32,
                acc: DType::I32,
            };
            let got = execute_reduction(&data, &launch).unwrap();
            assert_eq!(got, sum_sequential(&data), "{launch:?}");
        }
    }

    #[test]
    fn parallel_cpu_reduction_matches_sequential_i8() {
        let mut rng = SplitMix64::new(0x1457_0002);
        for _ in 0..CASES {
            let len = rng.below(10_000) as usize;
            let data: Vec<i8> = (0..len)
                .map(|_| (rng.below(200) as i64 - 100) as i8)
                .collect();
            let threads = 1 + rng.below(15) as usize;
            let v = [1usize, 2, 4, 8, 16, 32][rng.below(6) as usize];
            let chunk = if rng.below(2) == 0 {
                ChunkPolicy::Static
            } else {
                ChunkPolicy::StaticChunked(1 + rng.below(499) as usize)
            };
            let got = parallel_sum_unrolled(&data, threads, v, chunk);
            assert_eq!(
                got,
                sum_sequential(&data),
                "threads={threads} v={v} {chunk:?}"
            );
        }
    }

    #[test]
    fn device_execution_float_bounded() {
        let mut rng = SplitMix64::new(0x1457_0003);
        for _ in 0..CASES {
            let len = 1 + rng.below(5000) as usize;
            let data: Vec<f64> = (0..len).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let launch = LaunchConfig {
                num_teams: 1 + rng.below(10_000),
                threads_per_team: 128,
                v: 4,
                m: data.len() as u64,
                elem: DType::F64,
                acc: DType::F64,
            };
            let got = execute_reduction(&data, &launch).unwrap();
            let expect = sum_sequential(&data);
            let bound = f64::EPSILON * data.len() as f64 * data.len() as f64;
            assert!(
                (got - expect).abs() <= bound.max(1e-12),
                "got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn page_states_are_conserved() {
        let mut rng = SplitMix64::new(0x1457_0004);
        for _ in 0..CASES {
            let len = 1 + rng.below(100_000);
            let mut machine = MachineConfig::gh200();
            machine.page_size = Bytes(4096);
            let mut um = UnifiedMemory::new(&machine);
            let rid = um.alloc(Bytes(len));
            let total_pages = len.div_ceil(4096);
            for _ in 0..rng.below(50) {
                let dev = if rng.below(2) == 0 {
                    Device::Host
                } else {
                    Device::GPU0
                };
                let off = (rng.next_f64() * len as f64) as u64;
                let n = ((rng.next_f64() * (len - off) as f64) as u64).min(len - off);
                um.access(dev, rid, Bytes(off), Bytes(n));
                let (u, c, g) = um.residency_histogram(rid);
                assert_eq!(u + c + g, total_pages);
            }
        }
    }

    #[test]
    fn access_outcomes_account_for_all_bytes() {
        let mut rng = SplitMix64::new(0x1457_0005);
        for _ in 0..CASES {
            let len = 1 + rng.below(50_000);
            let mut machine = MachineConfig::gh200();
            machine.page_size = Bytes(1024);
            let mut um = UnifiedMemory::new(&machine);
            let rid = um.alloc(Bytes(len));
            let off = (rng.next_f64() * len as f64) as u64;
            let n = ((rng.next_f64() * (len - off) as f64) as u64).min(len - off);
            let out = um.gpu_access(rid, Bytes(off), Bytes(n));
            assert_eq!(out.total(), Bytes(n));
            let out = um.cpu_access(rid, Bytes(off), Bytes(n));
            assert_eq!(out.total(), Bytes(n));
        }
    }

    #[test]
    fn gpu_model_sanity() {
        let mut rng = SplitMix64::new(0x1457_0006);
        let model = GpuModel::new(GpuSpec::h100_sxm_gh200());
        for _ in 0..CASES {
            let cfg = LaunchConfig {
                num_teams: 1 + rng.below(100_000),
                threads_per_team: [32u32, 64, 128, 256, 512][rng.below(5) as usize],
                v: [1u32, 2, 4, 8, 16, 32][rng.below(6) as usize],
                m: 1_000_000,
                elem: DType::F32,
                acc: DType::F32,
            };
            let b = model.reduce(&cfg).unwrap();
            assert!(b.total.is_valid_span());
            assert!(b.effective_bw.as_gbps() <= model.spec().hbm_peak_bw.as_gbps() + 1e-9);
            let mut bigger = cfg;
            bigger.m *= 2;
            let b2 = model.reduce(&bigger).unwrap();
            assert!(b2.total >= b.total, "{cfg:?}");
        }
    }

    #[test]
    fn migrated_pages_are_sticky() {
        for passes in 1usize..10 {
            let mut machine = MachineConfig::gh200();
            machine.page_size = Bytes(512);
            let mut um = UnifiedMemory::new(&machine);
            let rid = um.alloc(Bytes(8192));
            um.cpu_access(rid, Bytes(0), Bytes(8192));
            for _ in 0..passes {
                um.gpu_access(rid, Bytes(0), Bytes(8192));
            }
            let (_, _, gpu) = um.residency_histogram(rid);
            assert_eq!(gpu, 16);
            // Pages remain GPU-resident; CPU reads do not steal them back.
            um.cpu_access(rid, Bytes(0), Bytes(8192));
            assert_eq!(um.residency_at(rid, Bytes(0)), Residency::Gpu);
        }
    }
}
