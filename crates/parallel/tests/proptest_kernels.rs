//! Property tests of the real reduction kernels and the item fan.
//!
//! Each property runs over SplitMix64-seeded random cases: std-only and
//! deterministic, so every `cargo test` exercises it offline.

/// The properties, each over SplitMix64-seeded random cases.
mod std_fallback {
    use ghr_parallel::{
        parallel_map, parallel_max, parallel_min, parallel_sum, parallel_sum_unrolled, sum_kahan,
        sum_pairwise, sum_sequential, sum_unrolled, ChunkPolicy,
    };
    use ghr_types::SplitMix64;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const CASES: usize = 64;

    #[test]
    fn all_i32_kernels_agree() {
        let mut rng = SplitMix64::new(0x2a11_0001);
        for _ in 0..CASES {
            let len = rng.below(20_000) as usize;
            let data: Vec<i32> = (0..len)
                .map(|_| rng.below(20_000) as i32 - 10_000)
                .collect();
            let threads = 1 + rng.below(11) as usize;
            let v = [1usize, 2, 4, 8, 16, 32][rng.below(6) as usize];
            let chunk = 1 + rng.below(1999) as usize;
            let expect = sum_sequential(&data);
            assert_eq!(sum_unrolled(&data, v), expect);
            assert_eq!(sum_pairwise(&data), expect);
            assert_eq!(parallel_sum(&data, threads), expect);
            assert_eq!(
                parallel_sum_unrolled(&data, threads, v, ChunkPolicy::StaticChunked(chunk)),
                expect
            );
        }
    }

    #[test]
    fn min_max_agree_with_iterators() {
        let mut rng = SplitMix64::new(0x2a11_0002);
        for _ in 0..CASES {
            let len = 1 + rng.below(10_000) as usize;
            let data: Vec<i8> = (0..len)
                .map(|_| (rng.below(200) as i64 - 100) as i8)
                .collect();
            let threads = 1 + rng.below(9) as usize;
            assert_eq!(
                parallel_min(&data, threads),
                *data.iter().min().unwrap() as i64
            );
            assert_eq!(
                parallel_max(&data, threads),
                *data.iter().max().unwrap() as i64
            );
        }
    }

    #[test]
    fn float_kernels_are_bounded() {
        let mut rng = SplitMix64::new(0x2a11_0003);
        for _ in 0..CASES {
            let len = 1 + rng.below(10_000) as usize;
            let data: Vec<f32> = (0..len)
                .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
                .collect();
            let threads = 1 + rng.below(7) as usize;
            let exact: f64 = data.iter().map(|&x| x as f64).sum();
            let naive = sum_sequential(&data) as f64;
            let par = parallel_sum(&data, threads) as f64;
            let bound = f32::EPSILON as f64 * data.len() as f64 * data.len() as f64;
            assert!((par - exact).abs() <= bound.max(1e-6));
            assert!((naive - exact).abs() <= bound.max(1e-6));
            // Kahan in f64 over widened data reproduces the exact sum closely.
            let wide: Vec<f64> = data.iter().map(|&x| x as f64).collect();
            assert!((sum_kahan(&wide) - exact).abs() <= 1e-9 * exact.abs().max(1.0));
        }
    }

    #[test]
    fn parallel_map_maps_each_item_once_in_order() {
        let mut rng = SplitMix64::new(0x2a11_0004);
        for _ in 0..CASES {
            let threads = 1 + rng.below(8) as usize;
            let items: Vec<u64> = (0..rng.below(201)).map(|_| rng.next_u64()).collect();
            let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let idx: Vec<usize> = (0..items.len()).collect();
            let out = parallel_map(&idx, threads, |&i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                items[i].rotate_left(17)
            })
            .unwrap();
            assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            let expect: Vec<u64> = items.iter().map(|x| x.rotate_left(17)).collect();
            assert_eq!(out, expect, "threads={threads} items={}", items.len());
        }
    }
}
