//! Bit-identity contract of the SIMD kernel layer, pinned as an
//! integration suite: for every available backend, every paper dtype,
//! every unroll factor and a battery of awkward lengths, the vector
//! kernels must reproduce the scalar unrolled kernel's accumulation tree
//! *exactly* — integer equality for i32/i8, bit-for-bit float equality
//! (not epsilon closeness) for f32/f64.
//!
//! Deterministic and std-only: it runs offline on every `cargo test`.

use ghr_parallel::{parallel_sum_unrolled_on, sum_unrolled_with_backend, Backend, ChunkPolicy};
use ghr_types::Element;

/// Lengths chosen to hit every edge of the kernel structure: empty, a
/// single element, shorter than any vector width, tails of every size
/// modulo V, exact multiples, and a long-enough run to exercise the main
/// loop many times.
const LENGTHS: &[usize] = &[
    0, 1, 2, 3, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 255, 1000, 1023, 4096,
    10_007,
];

const VS: &[usize] = &[1, 2, 4, 8, 16, 32];

fn backends_under_test() -> Vec<Backend> {
    [Backend::Sse2, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.available())
        .collect()
}

/// Deterministic value stream with sign changes and enough dynamic range
/// that float rounding differences would be visible: index-hash mapped
/// through the dtype's `from_index` plus an alternating sign.
fn awkward_data<T: Element>(n: usize) -> Vec<T> {
    (0..n as u64)
        .map(|i| T::from_index((i.wrapping_mul(2654435761) >> 7) % 509))
        .collect()
}

fn assert_parity<T: Element>(dtype: &str) {
    for &n in LENGTHS {
        let data = awkward_data::<T>(n);
        for &v in VS {
            let scalar = sum_unrolled_with_backend(&data, v, Backend::Scalar);
            for b in backends_under_test() {
                let got = sum_unrolled_with_backend(&data, v, b);
                // `==` (not approx) — the contract is bit-identity.
                assert!(
                    got == scalar,
                    "{dtype}: backend {b} diverged from scalar at n={n} v={v}"
                );
            }
        }
    }
}

#[test]
fn i32_sums_are_bit_identical_across_backends() {
    assert_parity::<i32>("i32");
}

#[test]
fn i8_widening_sums_are_bit_identical_across_backends() {
    assert_parity::<i8>("i8");
}

#[test]
fn f32_sums_are_bit_identical_across_backends() {
    assert_parity::<f32>("f32");
}

#[test]
fn f64_sums_are_bit_identical_across_backends() {
    assert_parity::<f64>("f64");
}

#[test]
fn parallel_reductions_are_bit_identical_across_backends() {
    let data = awkward_data::<f32>(10_007);
    for &v in &[1usize, 8, 32] {
        for threads in [1usize, 2, 3, 8] {
            let scalar =
                parallel_sum_unrolled_on(&data, threads, v, ChunkPolicy::Static, Backend::Scalar)
                    .unwrap();
            for b in backends_under_test() {
                let got =
                    parallel_sum_unrolled_on(&data, threads, v, ChunkPolicy::Static, b).unwrap();
                assert!(
                    got == scalar,
                    "parallel f32: backend {b} diverged at threads={threads} v={v}"
                );
            }
        }
    }
}

#[test]
fn negative_floats_and_cancellation_stay_bit_identical() {
    // Alternating-sign series with partial cancellation — the shape where
    // a reassociating (non-contract-honouring) vector sum would betray
    // itself first.
    for &n in &[63usize, 64, 65, 1001] {
        let data: Vec<f32> = (0..n)
            .map(|i| {
                let x = <f32 as Element>::from_index((i as u64 % 97) + 1);
                if i % 2 == 0 {
                    x
                } else {
                    -x * 0.5
                }
            })
            .collect();
        for &v in VS {
            let scalar = sum_unrolled_with_backend(&data, v, Backend::Scalar);
            for b in backends_under_test() {
                let got = sum_unrolled_with_backend(&data, v, b);
                assert!(
                    got.to_bits() == scalar.to_bits(),
                    "cancellation case: backend {b} n={n} v={v}: {got:e} vs {scalar:e}"
                );
            }
        }
    }
}
