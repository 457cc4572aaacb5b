//! Seeded input generation, sample statistics and the answer digest.
//!
//! The benchmark owns its generators instead of borrowing the program's
//! (`ghr_core::loadgen` has its own), so a change to the program can never
//! change the inputs it is measured on.

use std::time::Instant;

/// SplitMix64 (Steele et al.): the seed is the whole state.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf over `0..n`, `P(i) ∝ 1/(i+1)^s`: index 0 is the hottest.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// 64-bit FNV-1a, folded incrementally over everything a run answered.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`); 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Length of the slices a timed window is cut into.
pub const SLICE_S: f64 = 0.25;

/// What one slice of a timed window, or one round, measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Answers per second.
    pub rate: f64,
    /// Share of the machine's CPU time stolen by other guests meanwhile.
    pub steal: f64,
    /// Each answer's latency, in µs.
    pub lat_us: Vec<f64>,
}

/// A run's timings, from its quietest slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub rate: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    /// The largest steal share among the slices used.
    pub steal: f64,
    /// How many slices were used.
    pub used: usize,
}

impl Slice {
    pub fn of(lat_us: Vec<f64>, secs: f64, steal: f64) -> Slice {
        Slice {
            rate: lat_us.len() as f64 / secs,
            steal,
            lat_us,
        }
    }

    /// The run's figures from its quietest slices: every slice that lost
    /// no more CPU to other guests than the quietest quarter did. The
    /// figures are the median slice rate, and the latency percentiles of
    /// those slices' answers taken together. Other guests of the machine
    /// steal CPU in bursts lasting seconds to minutes, and a slice that
    /// loses a fifth of its CPU runs at half speed; ranking by measured
    /// steal keeps those bursts out without judging a slice by its speed.
    /// A window with no steal uses all of its slices.
    pub fn quiet(slices: &[Slice]) -> Timing {
        let mut steal: Vec<f64> = slices.iter().map(|s| s.steal).collect();
        steal.sort_by(f64::total_cmp);
        let cut = steal
            .get(slices.len().div_ceil(4).saturating_sub(1))
            .copied()
            .unwrap_or(0.0);
        let used: Vec<&Slice> = slices.iter().filter(|s| s.steal <= cut).collect();
        let lat: Vec<f64> = used.iter().flat_map(|s| s.lat_us.iter().copied()).collect();
        Timing {
            rate: median(&used.iter().map(|s| s.rate).collect::<Vec<_>>()),
            p50_us: percentile(&lat, 0.5),
            p90_us: percentile(&lat, 0.9),
            steal: cut,
            used: used.len(),
        }
    }
}

/// Cut a closed-loop window into whole `SLICE_S` slices by completion
/// time. `done_s[i]` is when the answer that took `lat_us[i]` completed,
/// in seconds from the window's start, in order; `steal[k]` is the
/// machine's steal share during slice `k`. A window shorter than one
/// slice is one slice.
pub fn time_slices(done_s: &[f64], lat_us: &[f64], steal: &[f64]) -> Vec<Slice> {
    let end = done_s.last().copied().unwrap_or(0.0);
    let whole = ((end / SLICE_S) as usize).min(steal.len());
    if whole == 0 {
        let steal = steal.first().copied().unwrap_or(0.0);
        return vec![Slice::of(
            lat_us.to_vec(),
            end.max(f64::MIN_POSITIVE),
            steal,
        )];
    }
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); whole];
    for (&t, &l) in done_s.iter().zip(lat_us) {
        if let Some(slice) = per.get_mut((t / SLICE_S) as usize) {
            slice.push(l);
        }
    }
    per.into_iter()
        .zip(steal)
        .map(|(lat, &steal)| Slice::of(lat, SLICE_S, steal))
        .collect()
}

/// Run `f` and return its result with the elapsed time in microseconds —
/// the span recorded around one call into a layer.
pub fn span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// Steal share up to which a slice counts as quiet when a window decides
/// whether it has measured enough.
const QUIET_STEAL: f64 = 0.05;
/// How much longer than asked a window may measure while it lacks quiet
/// slices, as a multiple of the time asked.
const MAX_EXTRA: f64 = 1.5;

/// When a timed window (or a run of rounds) may stop: once its time is
/// up and at least a quarter of its slices lost no more than
/// `QUIET_STEAL` of the CPU to other guests; at the latest `MAX_EXTRA`
/// times its time later. A burst of steal that would leave a run with
/// no quiet slices then costs the run time instead of its figures.
pub struct Until {
    t0: Instant,
    secs: f64,
    slices: usize,
    quiet: usize,
}

impl Until {
    pub fn new(secs: f64) -> Until {
        Until {
            t0: Instant::now(),
            secs,
            slices: 0,
            quiet: 0,
        }
    }

    /// Count one finished slice by its steal share.
    pub fn slice(&mut self, steal: f64) {
        self.slices += 1;
        if steal <= QUIET_STEAL {
            self.quiet += 1;
        }
    }

    /// Whether to keep measuring.
    pub fn more(&self) -> bool {
        self.more_at(self.t0.elapsed().as_secs_f64())
    }

    fn more_at(&self, elapsed: f64) -> bool {
        elapsed < self.secs
            || (elapsed < self.secs * (1.0 + MAX_EXTRA) && self.quiet < self.slices.div_ceil(4))
    }
}

/// Largest relative error, in percent, over the rows of a rendered
/// `| quantity | paper | ours |` markdown table — how both Section IV
/// summaries (served and in-process) are read.
pub fn table_max_err_pct(markdown: &str) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for line in markdown.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() != 5 {
            continue;
        }
        if let (Ok(paper), Ok(ours)) = (cells[2].parse::<f64>(), cells[3].parse::<f64>()) {
            let err = (ours - paper).abs() / paper * 100.0;
            worst = Some(worst.map_or(err, |w: f64| w.max(err)));
        }
    }
    worst
}

/// The Table 1 error line of a `table1 --compare` body.
pub fn table1_err_pct(body: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix("max relative error vs paper: "))
        .and_then(|v| v.trim_end_matches('%').parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.9), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// A window cut into slices: `(answers, µs each, steal share)` per
    /// slice, answers spread evenly over it.
    fn window(spec: &[(usize, f64, f64)]) -> Vec<Slice> {
        let (mut done, mut lat, mut steal) = (Vec::new(), Vec::new(), Vec::new());
        for (k, &(n, us, st)) in spec.iter().enumerate() {
            for i in 0..n {
                done.push(k as f64 * SLICE_S + (i as f64 + 0.5) * SLICE_S / n as f64);
                lat.push(us);
            }
            steal.push(st);
        }
        time_slices(&done, &lat, &steal)
    }

    #[test]
    fn the_figures_come_from_the_quietest_slices() {
        // 100 answers of 5 us per slice while nothing steals CPU;
        // 10 answers of 50 us in the two slices that lost 30% of it. The
        // sixth slice ends before its time is up: not a whole slice.
        let spec: Vec<_> = (0..6)
            .map(|k| {
                if k % 2 == 1 {
                    (10, 50.0, 0.3)
                } else {
                    (100, 5.0, 0.01)
                }
            })
            .collect();
        let slices = window(&spec);
        assert_eq!(slices.len(), 5);
        let q = Slice::quiet(&slices);
        assert_eq!((q.rate, q.p50_us, q.p90_us), (100.0 / SLICE_S, 5.0, 5.0));
        assert_eq!((q.used, q.steal), (3, 0.01));
        assert_eq!(time_slices(&[0.1, 0.2], &[1.0, 3.0], &[])[0].rate, 10.0);
    }

    #[test]
    fn a_window_without_steal_uses_every_slice() {
        // No steal at all, and the program slows down as the window goes
        // on: 100 answers of 5 us in each of the first four slices, then
        // 60 of 20 us in each of the next eight (the last of which ends
        // early: not a whole slice). The slow end must show.
        let spec: Vec<_> = (0..12)
            .map(|k| {
                if k < 4 {
                    (100, 5.0, 0.0)
                } else {
                    (60, 20.0, 0.0)
                }
            })
            .collect();
        let q = Slice::quiet(&window(&spec));
        assert_eq!(q.used, 11);
        assert_eq!((q.rate, q.p50_us, q.p90_us), (60.0 / SLICE_S, 20.0, 20.0));
    }

    #[test]
    fn a_window_runs_over_only_while_it_lacks_quiet_slices() {
        let mut until = Until::new(20.0);
        assert!(until.more_at(19.9));
        // 80 slices, 19 of them quiet: fewer than a quarter.
        for k in 0..80 {
            until.slice(if k < 19 { 0.0 } else { 0.2 });
        }
        assert!(until.more_at(20.1) && until.more_at(49.9));
        assert!(!until.more_at(50.0));
        // One more quiet slice makes 20 of 81: still short of a quarter.
        until.slice(QUIET_STEAL);
        assert!(until.more_at(20.1));
        until.slice(0.0);
        assert!(!until.more_at(20.1));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_is_seeded() {
        let z = Zipf::new(29, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        let hot = d.iter().filter(|&&i| i == 0).count();
        let cold = d.iter().filter(|&&i| i == 28).count();
        assert!(hot > 5 * cold.max(1), "{hot} vs {cold}");
    }

    #[test]
    fn comparison_tables_parse() {
        let md = "| Quantity | Paper | Ours |\n|---|---|---|\n| a | 10.654 | 19.030 |\n| b | 2.0 | 2.0 |\n";
        let err = table_max_err_pct(md).unwrap();
        assert!((err - 78.618).abs() < 0.01, "{err}");
        assert_eq!(
            table1_err_pct("x\nmax relative error vs paper: 0.31%\n"),
            Some(0.31)
        );
    }
}
