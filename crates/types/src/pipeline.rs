//! Crate-agnostic vocabulary for the request → plan → execute pipeline.
//!
//! `ghr-core` lowers a declarative experiment request into a plan (a
//! deduplicated DAG of cacheable work items) and then executes that plan
//! stage by stage. The *shapes* of those reports — stable request
//! identifiers, per-stage predictions and per-stage timings — live here so
//! the CLI, the serve loop and external tooling can consume them without
//! depending on the experiment types themselves.

/// Stable identity of a request: an FNV-1a hash of its canonical render.
///
/// Identical requests hash identically across processes and platforms, so
/// the id is usable as a cross-process cache key (the engine's response
/// cache and the serve loop both key on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(pub u64);

impl RequestId {
    /// Hash a canonical request render (FNV-1a, same constants as the
    /// engine's fingerprint hasher).
    pub fn of(canonical: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in canonical.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RequestId(h)
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One stage of a lowered plan, as the planner predicts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Stage label (e.g. `"table1"`, `"sweep C1 coarse"`).
    pub name: String,
    /// Independently cacheable work items in the stage (0 for an adaptive
    /// stage, whose probes are chosen at run time).
    pub items: usize,
    /// Items the planner expects to answer from a cache (in-process or
    /// persistent) without evaluating.
    pub predicted_hits: usize,
    /// Whether the stage's work is chosen adaptively while it runs (the
    /// refined sweep's binary search) rather than enumerated up front.
    pub adaptive: bool,
}

/// The planner's summary of a lowered plan — what `ghr plan` prints and
/// what the dry-run path reports without executing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSummary {
    /// Human-readable request label(s).
    pub request: String,
    /// Stable id of the (combined) request.
    pub id: RequestId,
    /// The stages, in execution order.
    pub stages: Vec<StagePlan>,
    /// Duplicate work items dropped during lowering (a point that two
    /// requests or two stages both need is planned only once).
    pub deduped: usize,
}

impl PlanSummary {
    /// Total enumerated work items across all stages.
    pub fn items(&self) -> usize {
        self.stages.iter().map(|s| s.items).sum()
    }

    /// Total predicted cache hits across all stages.
    pub fn predicted_hits(&self) -> usize {
        self.stages.iter().map(|s| s.predicted_hits).sum()
    }

    /// Enumerated items the planner expects to actually evaluate.
    pub fn predicted_misses(&self) -> usize {
        self.items().saturating_sub(self.predicted_hits())
    }

    /// Fraction of enumerated items predicted to hit a cache. An empty
    /// plan (zero items) reports 0.0, never a division by zero.
    pub fn predicted_hit_ratio(&self) -> f64 {
        let items = self.items();
        if items == 0 {
            0.0
        } else {
            self.predicted_hits() as f64 / items as f64
        }
    }

    /// Number of adaptive (refinement) stages in the plan.
    pub fn adaptive_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.adaptive).count()
    }
}

/// Wall-clock and work accounting for one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage label, prefixed with its request label (e.g.
    /// `"table1/table1"`).
    pub name: String,
    /// Work items the stage walked (enumerated items for a fan stage,
    /// probes for an adaptive one).
    pub items: u64,
    /// Points freshly evaluated during the stage (0 = pure cache traffic).
    pub evaluated: u64,
    /// Wall-clock milliseconds the stage took.
    pub millis: f64,
}

/// Per-session accounting for one serve session (one stdin batch or one
/// socket connection). Sessions are independent workers over one shared
/// engine, so the server sums these with [`SessionStats::absorb`] when a
/// session drains; the engine's own counters stay the cross-session truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Response frames written (ok or error).
    pub served: u64,
    /// Requests answered with `status=ok`.
    pub ok: u64,
    /// Requests answered with `status=error` (unknown or unservable).
    pub errors: u64,
    /// Lines rejected at the framing layer (CRLF, NUL, oversized,
    /// truncated) with a `ghr-error` frame — never parsed as requests.
    pub malformed: u64,
    /// Requests answered whole from the engine's response cache.
    pub response_cache_hits: u64,
    /// Requests coalesced onto another session's in-flight evaluation.
    pub coalesced: u64,
    /// Work items freshly evaluated on behalf of this session.
    pub evals: u64,
    /// Requests rejected by admission control with a
    /// `ghr-error reason=overload` frame (never handed to the engine).
    pub overloaded: u64,
}

impl SessionStats {
    /// Fold another session's counters into this one (the server's
    /// drain-time aggregation).
    pub fn absorb(&mut self, other: &SessionStats) {
        self.served += other.served;
        self.ok += other.ok;
        self.errors += other.errors;
        self.malformed += other.malformed;
        self.response_cache_hits += other.response_cache_hits;
        self.coalesced += other.coalesced;
        self.evals += other.evals;
        self.overloaded += other.overloaded;
    }

    /// One human-readable line for the server's stderr log.
    pub fn summary_line(&self) -> String {
        format!(
            "{} served ({} ok, {} error, {} malformed), {} response hits, \
             {} coalesced, {} evals, {} overloaded",
            self.served,
            self.ok,
            self.errors,
            self.malformed,
            self.response_cache_hits,
            self.coalesced,
            self.evals,
            self.overloaded
        )
    }
}

/// Escape a string for inclusion in a JSON string literal (std-only; the
/// workspace has no serializer dependency).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number. JSON has no NaN/Infinity; those (and
/// only those) render as `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_is_stable_and_distinguishing() {
        let a = RequestId::of("Table1");
        let b = RequestId::of("Table1");
        let c = RequestId::of("WhatIf");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string().len(), 16);
    }

    #[test]
    fn empty_plan_ratio_is_zero_not_nan() {
        let p = PlanSummary {
            request: "noop".into(),
            id: RequestId::of("noop"),
            stages: Vec::new(),
            deduped: 0,
        };
        assert_eq!(p.items(), 0);
        assert_eq!(p.predicted_hit_ratio(), 0.0);
        assert!(!p.predicted_hit_ratio().is_nan());
    }

    #[test]
    fn plan_summary_totals() {
        let p = PlanSummary {
            request: "x".into(),
            id: RequestId::of("x"),
            stages: vec![
                StagePlan {
                    name: "a".into(),
                    items: 10,
                    predicted_hits: 4,
                    adaptive: false,
                },
                StagePlan {
                    name: "b".into(),
                    items: 0,
                    predicted_hits: 0,
                    adaptive: true,
                },
            ],
            deduped: 2,
        };
        assert_eq!(p.items(), 10);
        assert_eq!(p.predicted_hits(), 4);
        assert_eq!(p.predicted_misses(), 6);
        assert_eq!(p.adaptive_stages(), 1);
        assert!((p.predicted_hit_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn session_stats_absorb_sums_every_counter() {
        let mut total = SessionStats::default();
        let a = SessionStats {
            served: 3,
            ok: 2,
            errors: 1,
            malformed: 4,
            response_cache_hits: 1,
            coalesced: 1,
            evals: 8,
            overloaded: 5,
        };
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.served, 6);
        assert_eq!(total.ok, 4);
        assert_eq!(total.errors, 2);
        assert_eq!(total.malformed, 8);
        assert_eq!(total.response_cache_hits, 2);
        assert_eq!(total.coalesced, 2);
        assert_eq!(total.evals, 16);
        assert_eq!(total.overloaded, 10);
        let line = total.summary_line();
        assert!(line.contains("6 served"), "{line}");
        assert!(line.contains("8 malformed"), "{line}");
        assert!(line.contains("10 overloaded"), "{line}");
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
