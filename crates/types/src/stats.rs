//! The router's forwarding ledger.

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
}
