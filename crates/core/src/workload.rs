//! Workload generators for the reduction experiments.
//!
//! The paper's input is simply "M numbers"; the distribution does not
//! affect the *timing* of a streaming reduction, but it does affect
//! verification strength and floating-point error behaviour. These
//! generators cover the regimes the test suites need, all
//! deterministic given a seed.

use ghr_types::{Element, SplitMix64};

/// A reproducible input distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The deterministic index pattern used by the verification layer
    /// (exact integer sums, well-conditioned float sums).
    Indexed,
    /// Every element equal to `Element::from_unit(u)`.
    Constant {
        /// Unit-interval sample selecting the value.
        u: f64,
    },
    /// Independent uniform samples over the type's test range.
    UniformRandom {
        /// RNG seed.
        seed: u64,
    },
    /// Uniform samples with long same-sign runs (`run_len` consecutive
    /// elements share a sign): stresses cancellation in float sums and
    /// produces large intermediate partials.
    SignRuns {
        /// RNG seed.
        seed: u64,
        /// Length of each same-sign run.
        run_len: u32,
    },
}

impl Workload {
    /// Generate `m` elements of type `T`.
    pub fn generate<T: Element>(&self, m: u64) -> Vec<T> {
        match *self {
            Workload::Indexed => (0..m).map(T::from_index).collect(),
            Workload::Constant { u } => {
                let v = T::from_unit(u.clamp(0.0, 1.0));
                vec![v; m as usize]
            }
            Workload::UniformRandom { seed } => {
                let mut rng = SplitMix64::new(seed);
                (0..m).map(|_| T::from_unit(rng.next_f64())).collect()
            }
            Workload::SignRuns { seed, run_len } => {
                let run = run_len.max(1) as u64;
                let mut rng = SplitMix64::new(seed);
                (0..m)
                    .map(|i| {
                        // Map to the positive or negative half of the range
                        // depending on the run parity.
                        let half = rng.next_f64() / 2.0;
                        let u = if (i / run).is_multiple_of(2) {
                            0.5 + half
                        } else {
                            half
                        };
                        T::from_unit(u)
                    })
                    .collect()
            }
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            Workload::Indexed => "indexed".into(),
            Workload::Constant { u } => format!("constant(u={u:.2})"),
            Workload::UniformRandom { seed } => format!("uniform(seed={seed})"),
            Workload::SignRuns { seed, run_len } => {
                format!("sign-runs(seed={seed}, run={run_len})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_parallel::sum_sequential;

    #[test]
    fn generators_produce_requested_length() {
        for w in [
            Workload::Indexed,
            Workload::Constant { u: 0.7 },
            Workload::UniformRandom { seed: 1 },
            Workload::SignRuns {
                seed: 1,
                run_len: 8,
            },
        ] {
            assert_eq!(w.generate::<i32>(1234).len(), 1234, "{}", w.name());
            assert_eq!(w.generate::<f64>(0).len(), 0);
        }
    }

    #[test]
    fn random_workloads_are_deterministic_per_seed() {
        let a = Workload::UniformRandom { seed: 42 }.generate::<f32>(1000);
        let b = Workload::UniformRandom { seed: 42 }.generate::<f32>(1000);
        let c = Workload::UniformRandom { seed: 43 }.generate::<f32>(1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_workload_sums_exactly() {
        let data = Workload::Constant { u: 0.999 }.generate::<i32>(1000);
        // from_unit(0.999) for i32 = floor(0.999*11) - 5 = 5.
        assert_eq!(sum_sequential(&data), 5000);
    }

    #[test]
    fn sign_runs_alternate_in_blocks() {
        let data = Workload::SignRuns {
            seed: 7,
            run_len: 16,
        }
        .generate::<f64>(64);
        for (i, &x) in data.iter().enumerate() {
            let positive_block = (i / 16) % 2 == 0;
            assert_eq!(x >= 0.0, positive_block, "i={i}, x={x}");
        }
    }

    #[test]
    fn uniform_i8_spans_the_test_range() {
        let data = Workload::UniformRandom { seed: 3 }.generate::<i8>(10_000);
        let min = *data.iter().min().unwrap();
        let max = *data.iter().max().unwrap();
        assert_eq!((min, max), (-3, 3));
    }

    #[test]
    fn device_execution_verifies_on_random_workloads() {
        use ghr_gpusim::{execute_reduction, LaunchConfig};
        use ghr_types::DType;
        let data = Workload::UniformRandom { seed: 9 }.generate::<i32>(50_000);
        let launch = LaunchConfig {
            num_teams: 77,
            threads_per_team: 128,
            v: 4,
            m: 50_000,
            elem: DType::I32,
            acc: DType::I32,
        };
        assert_eq!(
            execute_reduction(&data, &launch).unwrap(),
            sum_sequential(&data)
        );
    }
}
