//! The run's result: the contract line the benchmark prints last, plus
//! the detail line before it.

use std::collections::BTreeMap;
use std::time::Duration;

use sdx_telemetry::{Json, SharedRegistry};

/// Every end-to-end metric, in `BENCHMARK.json` order: (name, unit).
/// Every workload reports all of them; what each measures per workload
/// is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric of the traced run: (name, unit). A workload
/// that does not exercise a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sdx-bgp / sdx-runtime / agent (bgp_stream)
    ("gen.lateness_ms", "ms"),
    ("rs.decision_us", "us"),
    ("fastpath.update_us", "us"),
    ("fastpath.apply_us", "us"),
    ("fastpath.total_us", "us"),
    ("daemon.updates_per_compile", "ratio"),
    ("daemon.reoptimize_ms", "ms"),
    ("daemon.reoptimize_wait_ms", "ms"),
    ("channel.frame_bytes", "B"),
    ("agent.decode_us", "us"),
    ("agent.apply_us", "us"),
    ("open_loop.rate_over_saturation", "ratio"),
    ("open_loop.backlog_ratio", "ratio"),
    // sdx-core (churn_replay)
    ("churn.fastpath_ms", "ms"),
    ("compile.total_ms", "ms"),
    ("compile.fec_ms", "ms"),
    ("compile.compose_ms", "ms"),
    ("compile.classifiers_ms", "ms"),
    ("compile.shard.merge_ms", "ms"),
    ("shard.recompiled_ratio", "ratio"),
    ("policy.dirty_units", "count"),
    ("txn.begin_ms", "ms"),
    ("txn.drop_ms", "ms"),
    ("txn.validate_ms", "ms"),
    ("reconcile.diff_ms", "ms"),
    ("reconcile.unchanged_ratio", "ratio"),
    ("schedule.plan_ms", "ms"),
    ("schedule.waves_ms", "ms"),
    ("schedule.waves", "count"),
    ("fibsync.sent_ratio", "ratio"),
    ("prepare.residual_ms", "ms"),
    // sdx-openflow (forwarding)
    ("classify_batch_mpps", "Mpps"),
    ("matcher.share.exact", "ratio"),
    ("matcher.share.trie", "ratio"),
    ("matcher.share.residual", "ratio"),
    ("matcher.share.miss", "ratio"),
    ("matcher.bytes", "B"),
    ("matcher.rebuild_us", "us"),
    ("switch.action_ns_per_pkt", "ns"),
    ("flowmod.apply_us", "us"),
    // all workloads
    ("residual_ms", "ms"),
    ("tracing_overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (updates, bursts + pushes, packet batches).
    pub attempted: u64,
    /// Operations that failed, plus one per failed correctness gate.
    pub failed: u64,
    /// Failed correctness gates, by description.
    pub gate_failures: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own named figures, printed on the detail line.
    pub detail: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a correctness gate; a failure counts as a failed op.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what.into());
        }
    }

    /// Adds a detail figure.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push((name.into(), value, unit));
    }
}

/// A measured value as JSON, with all its digits; a non-finite value
/// (which JSON cannot carry) prints as 0.
fn num(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { 0.0 })
}

fn metric_obj<'a>(pairs: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::obj(pairs.into_iter().map(|(name, v, unit)| {
        (
            name.to_string(),
            Json::obj([
                ("value".to_string(), num(v)),
                ("unit".to_string(), Json::from(unit)),
            ]),
        )
    }))
}

/// The detail line: the workload's own figures by name and unit.
pub fn detail_line(workload: &str, out: &Outcome) -> String {
    Json::obj([
        ("workload".to_string(), Json::from(workload)),
        (
            "gate_failures".to_string(),
            Json::from(out.gate_failures.len()),
        ),
        (
            "detail".to_string(),
            metric_obj(out.detail.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        ),
    ])
    .to_string()
}

/// The contract line: `correct`, `attempted`, `failed` and every metric
/// of the selected set.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let (set, values) = if traced {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let metrics = set
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit));
    Json::obj([
        (
            "correct".to_string(),
            Json::from(out.failed == 0 && out.attempted > 0),
        ),
        ("attempted".to_string(), Json::from(out.attempted.max(1))),
        ("failed".to_string(), Json::from(out.failed)),
        ("metrics".to_string(), metric_obj(metrics)),
    ])
    .to_string()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads registry figures from outside the program: histogram sums and
/// counts, counters. Differences of two readings attribute work to the
/// calls made between them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hist {
    /// Sum of observations (ns for timers).
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Hist {
    /// `self − earlier`.
    pub fn since(self, earlier: Hist) -> Hist {
        Hist {
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    /// The summed time as milliseconds.
    pub fn ms(self) -> f64 {
        self.sum as f64 / 1e6
    }
}

/// Current sum and count of a registry histogram.
pub fn hist(reg: &SharedRegistry, key: &str) -> Hist {
    let h = reg.histogram(key);
    Hist {
        sum: h.sum(),
        count: h.count(),
    }
}

/// Current value of a registry counter.
pub fn counter(reg: &SharedRegistry, key: &str) -> u64 {
    reg.counter(key).get()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_of_the_set() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.e2e.insert("latency_ms_p50", 1.25);
        out.e2e.insert("setup_s", f64::NAN);
        let line = Json::parse(&result_line(&out, false)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = line.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert!(m.get("value").is_some(), "{name}");
        }
        let value = |name: &str| metrics.get(name).and_then(|m| m.get("value")).cloned();
        assert_eq!(value("latency_ms_p50"), Some(Json::Float(1.25)));
        // A non-finite value still prints as a number.
        assert_eq!(value("setup_s"), Some(Json::Float(0.0)));
        let traced = Json::parse(&result_line(&out, true)).expect("valid JSON");
        match traced.get("metrics") {
            Some(Json::Obj(pairs)) => assert_eq!(pairs.len(), PER_LAYER.len()),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.gate(true, "fine");
        out.gate(false, "tables differ");
        assert_eq!(out.failed, 1);
        let line = Json::parse(&result_line(&out, false)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
    }
}
