//! Sharded-compilation scaling — the PR-9 performance experiment.
//!
//! Replays a calibrated AMS-IX-scale day against the compiler under each
//! sharding configuration: a full-table cold compile, then every burst
//! of a `sdx_ixp::updates` churn trace applied to the route server and
//! followed by an incremental `compile_all`. The `off` baseline compiles
//! one shard with its cache cleared before every compile, so each burst
//! pays a full-table recompile; sharded, the compile-dirty set maps bursts to
//! shards and only those shards recompute their phase-A slices (the
//! per-viewer × per-prefix FEC signature pass that dominates at table
//! scale), everything else serving from the shard cache.
//!
//! Equivalence rides along, untimed: after the replay every sharded
//! configuration's final report is fingerprinted — total rules, total
//! groups, per-shard group counts bucketed by the config's own plan, and
//! an FNV-64 over the canonically relabeled classifier + groups — and
//! asserted identical to the `off` baseline's. A speedup without
//! equality is a bug, not a result, so the binary refuses to print one.
//!
//! Run: `cargo run --release -p sdx-bench --bin repro_shard_scaling
//! [--quick] [--json out.json]`

use std::time::{Duration, Instant};

use sdx_bench::{fmt_duration, print_table, row, Workbench};
use sdx_core::shard::{canonicalize_report, ShardPlan, Sharding};
use sdx_core::vnh::VnhAllocator;
use sdx_core::CompileReport;
use sdx_ixp::updates::{self, TraceParams};
use sdx_telemetry::MetricsSnapshot;

/// FNV-64 over the canonical (relabeled) classifier and group structure:
/// two reports with the same fingerprint install the same rules on the
/// same FEC partition, whatever their VNH numbering was.
fn canonical_fingerprint(report: &CompileReport) -> u64 {
    let canon = canonicalize_report(report, VnhAllocator::default_pool());
    let text = format!(
        "{:?}|{:?}|{:?}",
        canon.classifier, canon.groups, canon.vnh_of
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Groups per shard under `plan` (a group belongs where its first
/// prefix lives) — the per-shard equality column.
fn groups_by_shard(report: &CompileReport, plan: &ShardPlan) -> Vec<usize> {
    let mut counts = vec![0usize; plan.len()];
    for g in report.groups.values().flatten() {
        if let Some(&p) = g.prefixes.first() {
            counts[plan.shard_of(p)] += 1;
        }
    }
    counts
}

struct ConfigResult {
    name: &'static str,
    initial: Duration,
    replay: Duration,
    bursts: usize,
    report: CompileReport,
    plan: Option<ShardPlan>,
    skipped: u64,
    recompiled: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Workload scale: 600 participants over a scaled full table (AMS-IX
    // hosts ~700 members; the prefix count is scaled so the replay
    // finishes in minutes while phase A keeps its real table-scale
    // dominance). The trace reproduces the §4.3.2 burst quantiles.
    // Quick mode still needs replays in the tens of milliseconds —
    // microsecond-scale bursts drown the speedup ratio in timer noise
    // and make the CI floor flaky.
    let (participants, prefixes, policy_prefixes, duration_secs) = if quick {
        (150usize, 10_000usize, 1_500usize, 300u64)
    } else {
        (600, 30_000, 4_000, 600)
    };
    let seed = 42u64;
    let configs: [(&'static str, Sharding); 5] = [
        ("off", Sharding::Shards(1)),
        ("shards(2)", Sharding::Shards(2)),
        ("shards(4)", Sharding::Shards(4)),
        ("shards(8)", Sharding::Shards(8)),
        ("auto", Sharding::Auto),
    ];

    let mut metrics = MetricsSnapshot::default();
    let mut results: Vec<ConfigResult> = Vec::new();
    for &(name, sharding) in &configs {
        // Every configuration replays the identical world: same seed,
        // same topology, same policies, same trace.
        let wb = Workbench::new(participants, prefixes, policy_prefixes, seed);
        let trace = updates::generate(
            &wb.ixp,
            &TraceParams {
                duration_secs,
                seed: seed.wrapping_add(1),
                ..Default::default()
            },
        );
        let mut compiler = wb.compiler();
        compiler.options.sharding = sharding;
        let mut rs = wb.rs.clone();
        let mut vnh = VnhAllocator::default();
        let t0 = Instant::now();
        let mut report = compiler.compile_all(&rs, &mut vnh).expect("cold compile");
        let initial = t0.elapsed();
        metrics.absorb(report.metrics_snapshot());
        let mut replay = Duration::ZERO;
        for burst in &trace.bursts {
            for (from, msg) in &burst.updates {
                rs.process_update(*from, msg);
            }
            if name == "off" {
                compiler.clear_shard_cache();
            }
            let t = Instant::now();
            report = compiler.compile_all(&rs, &mut vnh).expect("burst compile");
            replay += t.elapsed();
        }
        let snap = compiler.telemetry().snapshot();
        results.push(ConfigResult {
            name,
            initial,
            replay,
            bursts: trace.bursts.len(),
            report,
            plan: compiler.shard_plan().cloned(),
            skipped: snap
                .counters
                .get("compile.shard.skipped.count")
                .copied()
                .unwrap_or(0),
            recompiled: snap
                .counters
                .get("compile.shard.recompiled.count")
                .copied()
                .unwrap_or(0),
        });
    }

    // Equivalence gate (untimed): every sharded config's final table
    // equals the `off` baseline's, globally and per shard.
    let base = &results[0];
    let base_fp = canonical_fingerprint(&base.report);
    let base_groups: usize = base.report.groups.values().map(Vec::len).sum();
    let base_rules = base.report.classifier.rules().len();
    let mut mismatches = 0usize;
    for r in &results[1..] {
        let groups: usize = r.report.groups.values().map(Vec::len).sum();
        let rules = r.report.classifier.rules().len();
        assert_eq!(
            (groups, rules),
            (base_groups, base_rules),
            "{}: rule/group counts diverged from off",
            r.name
        );
        let plan = r.plan.as_ref().expect("sharded config has a plan");
        assert_eq!(
            groups_by_shard(&r.report, plan),
            groups_by_shard(&base.report, plan),
            "{}: per-shard group counts diverged from off",
            r.name
        );
        if canonical_fingerprint(&r.report) != base_fp {
            mismatches += 1;
            eprintln!("{}: canonical fingerprint diverged from off", r.name);
        }
    }
    assert_eq!(mismatches, 0, "equivalence mismatches — numbers withheld");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for r in &results {
        let speedup = base.replay.as_secs_f64() / r.replay.as_secs_f64().max(1e-9);
        let shard_count = r.plan.as_ref().map_or(0, ShardPlan::len);
        rows.push(vec![
            r.name.to_string(),
            shard_count.to_string(),
            fmt_duration(r.initial),
            fmt_duration(r.replay),
            format!(
                "{:.1}",
                r.replay.as_secs_f64() * 1e3 / r.bursts.max(1) as f64
            ),
            r.recompiled.to_string(),
            r.skipped.to_string(),
            format!("{speedup:.2}x"),
        ]);
        json.push(row([
            ("config", r.name.into()),
            ("participants", participants.into()),
            ("prefixes", prefixes.into()),
            ("policy_prefixes", policy_prefixes.into()),
            ("shards", shard_count.into()),
            ("bursts", r.bursts.into()),
            ("initial_compile_ms", (r.initial.as_secs_f64() * 1e3).into()),
            ("replay_ms", (r.replay.as_secs_f64() * 1e3).into()),
            (
                "per_burst_ms",
                (r.replay.as_secs_f64() * 1e3 / r.bursts.max(1) as f64).into(),
            ),
            ("shards_recompiled", (r.recompiled as usize).into()),
            ("shards_skipped", (r.skipped as usize).into()),
            ("replay_speedup_vs_off", speedup.into()),
            (
                "groups",
                r.report.groups.values().map(Vec::len).sum::<usize>().into(),
            ),
            ("rules", r.report.classifier.rules().len().into()),
            ("equivalent_to_off", true.into()),
        ]));
    }
    print_table(
        &format!(
            "Shard scaling: {participants} participants, {prefixes} prefixes, \
             {policy_prefixes} policy prefixes, {}-burst replay ({duration_secs}s trace)",
            results[0].bursts
        ),
        &[
            "config",
            "shards",
            "cold",
            "replay",
            "ms/burst",
            "recompiled",
            "skipped",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\n  equivalence: every sharded configuration's final table matched the\n  \
         `off` baseline rule-for-rule after canonical VNH relabeling, and\n  \
         per-shard group counts matched under each config's own plan (asserted\n  \
         before any number above was printed). speedup is replay wall-clock vs\n  \
         `off`: sharded bursts recompute only their dirty shards' FEC slices."
    );
    sdx_bench::report("shard_scaling", &json, &metrics);
}
