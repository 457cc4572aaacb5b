//! Small online-statistics helpers used by harnesses and benches, plus
//! the router's forwarding ledger.

/// One worker's row in the router's forwarding ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterWorkerStats {
    /// Worker name (`worker-0`, `worker-1`, … or the attached socket
    /// path's stem).
    pub name: String,
    /// Whether the worker was live when the ledger was rendered.
    pub alive: bool,
    /// Requests forwarded to this worker and answered (ok or error
    /// frames — the worker responded).
    pub forwarded: u64,
    /// Requests rejected at the router with `reason=overload` because
    /// this worker's in-flight budget was spent.
    pub rejected: u64,
    /// Requests whose ring position landed on this worker while it was
    /// (or proved to be) dead, and were re-routed to a ring successor.
    pub rerouted: u64,
    /// This worker's share of the hash ring's key space, in [0, 1].
    /// Dead workers keep their share (the ring is stable); routing
    /// simply walks past them.
    pub ring_share: f64,
}

/// The router's whole forwarding ledger: per-worker counters plus the
/// requests the router itself answered (rejections and dead-cluster
/// errors). Rendered as the `--stats-json` object at drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterStats {
    /// One row per worker, in ring order.
    pub workers: Vec<RouterWorkerStats>,
    /// Request lines received across all router sessions.
    pub requests: u64,
    /// Lines rejected at the router's own framing layer.
    pub malformed: u64,
    /// Requests answered with `reason=no-live-worker` (whole ring dead).
    pub unrouted: u64,
}

impl RouterStats {
    /// Total requests forwarded to any worker.
    pub fn forwarded(&self) -> u64 {
        self.workers.iter().map(|w| w.forwarded).sum()
    }

    /// Total requests rejected on a spent worker budget.
    pub fn rejected(&self) -> u64 {
        self.workers.iter().map(|w| w.rejected).sum()
    }

    /// Total requests that had to leave their home worker's range.
    pub fn rerouted(&self) -> u64 {
        self.workers.iter().map(|w| w.rerouted).sum()
    }

    /// The ledger as one JSON object (std-only; the router's
    /// `--stats-json` output, readable back via [`crate::Json`]).
    pub fn to_json(&self) -> String {
        use crate::pipeline::{json_escape, json_f64};
        use std::fmt::Write as _;
        let mut s = String::with_capacity(128 + self.workers.len() * 128);
        let _ = write!(
            s,
            "{{\"router\":{{\"requests\":{},\"forwarded\":{},\"rejected\":{},\
             \"rerouted\":{},\"malformed\":{},\"unrouted\":{},\"workers\":[",
            self.requests,
            self.forwarded(),
            self.rejected(),
            self.rerouted(),
            self.malformed,
            self.unrouted,
        );
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"alive\":{},\"forwarded\":{},\
                 \"rejected\":{},\"rerouted\":{},\"ring_share\":{}}}",
                json_escape(&w.name),
                w.alive,
                w.forwarded,
                w.rejected,
                w.rerouted,
                json_f64(w.ring_share),
            );
        }
        s.push_str("]}}");
        s
    }

    /// One human-readable line per worker plus a totals line, for the
    /// drain log.
    pub fn summary_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for w in &self.workers {
            let _ = writeln!(
                s,
                "router:   {}: {} forwarded, {} rejected, {} rerouted, \
                 {:.1}% of ring{}",
                w.name,
                w.forwarded,
                w.rejected,
                w.rerouted,
                w.ring_share * 100.0,
                if w.alive { "" } else { " (dead)" }
            );
        }
        let _ = write!(
            s,
            "router: {} request(s): {} forwarded, {} rejected, {} rerouted, \
             {} malformed, {} unrouted",
            self.requests,
            self.forwarded(),
            self.rejected(),
            self.rerouted(),
            self.malformed,
            self.unrouted,
        );
        s
    }
}

/// Online summary statistics (count / min / max / mean / variance) over a
/// stream of `f64` samples, using Welford's algorithm so that long series
/// (e.g. per-repetition kernel times) stay numerically stable.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation, or `None` if empty.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(name: &str, forwarded: u64, alive: bool) -> RouterWorkerStats {
        RouterWorkerStats {
            name: name.to_string(),
            alive,
            forwarded,
            rejected: 1,
            rerouted: 2,
            ring_share: 0.5,
        }
    }

    #[test]
    fn router_stats_totals_and_json_round_trip() {
        let stats = RouterStats {
            workers: vec![worker("worker-0", 10, true), worker("worker-1", 5, false)],
            requests: 21,
            malformed: 1,
            unrouted: 2,
        };
        assert_eq!(stats.forwarded(), 15);
        assert_eq!(stats.rejected(), 2);
        assert_eq!(stats.rerouted(), 4);
        let json = stats.to_json();
        let doc = crate::Json::parse(&json).expect("ledger parses back");
        assert_eq!(
            doc.path(&["router", "forwarded"]).unwrap().as_f64(),
            Some(15.0)
        );
        assert_eq!(
            doc.path(&["router", "unrouted"]).unwrap().as_f64(),
            Some(2.0)
        );
        let workers = doc
            .path(&["router", "workers"])
            .and_then(crate::Json::as_arr)
            .unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(
            workers[1].get("alive"),
            Some(&crate::Json::Bool(false)),
            "{json}"
        );
        assert_eq!(workers[0].get("ring_share").unwrap().as_f64(), Some(0.5));
        let lines = stats.summary_lines();
        assert!(lines.contains("worker-1: 5 forwarded"), "{lines}");
        assert!(lines.contains("(dead)"), "{lines}");
        assert!(lines.contains("21 request(s)"), "{lines}");
    }

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.stddev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn known_values() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((s.stddev().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..37].iter().copied().collect();
        let right: Summary = xs[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        s.merge(&Summary::new());
        assert_eq!(s.count(), 2);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert_eq!(e.max(), Some(2.0));
    }
}
