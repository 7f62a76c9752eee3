//! `churn_replay`: ixp50 route churn and policy pushes through the
//! controller's commit path, in process.
//!
//! A closed loop with one caller, as the single-owner controller in
//! `sdxd --shards auto` runs: for each §4.3.2-calibrated route burst,
//! every update takes the fast path (`process_update`), then the burst
//! commits through `prepare_scheduled` + `commit_scheduled`. After every
//! second burst one policy push commits the same way: the pushes cycle
//! install / replace / retract over outbound and inbound policies of
//! participants that start without one, plus export-deny flips (the
//! DDoS-mitigation shape), so each full cycle returns the exchange to
//! its starting policy state.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sdx_bench::Workbench;
use sdx_bgp::ExportPolicy;
use sdx_bgp::UpdateMessage;
use sdx_core::schedule::ScheduleOpts;
use sdx_core::{FabricTxn, SdxController, Sharding};
use sdx_ixp::updates::{self, TraceParams};
use sdx_net::{FieldMatch, Ipv4Addr, ParticipantId, PortId, Prefix};
use sdx_openflow::Fabric;
use sdx_oracle::Differential;
use sdx_policy::{Policy as P, PolicyDelta};
use sdx_telemetry::SharedRegistry;

use crate::report::{counter, hist, ms, peak_rss_mb, Hist, Outcome};
use crate::stats::{beyond, mean, median, quantile, ratio, sorted};
use crate::trace::{SpanId, Tracer};

/// Set-ups per run (the median is reported).
const SETUPS: usize = 9;
/// Probes for the closing oracle and cold-deploy checks.
const PROBES: usize = 400;

/// One policy push.
enum Push {
    /// A policy delta, staged and committed.
    Delta(PolicyDelta),
    /// An export-policy change on the route server, then a commit.
    Export(ParticipantId, ExportPolicy),
}

/// The push cycle: for each step, outbound install → replace → retract
/// on one policy-free participant, inbound install → replace → retract
/// on one policy-free multi-port participant, then an export deny of a
/// victim's routes toward three peers and its lifting. Participants
/// rotate across cycles.
fn pushes(wb: &Workbench, seed: u64, n: usize) -> Vec<Push> {
    let parts = &wb.ixp.participants;
    let announcers: Vec<ParticipantId> = parts
        .iter()
        .zip(&wb.ixp.announcements)
        .filter(|(_, a)| !a.is_empty())
        .map(|(c, _)| c.id)
        .collect();
    let outbound: Vec<ParticipantId> = parts
        .iter()
        .filter(|c| c.outbound.is_none())
        .map(|c| c.id)
        .collect();
    let inbound: Vec<(ParticipantId, u8)> = parts
        .iter()
        .filter(|c| c.inbound.is_none() && c.ports.len() >= 2)
        .map(|c| (c.id, c.ports[1].index))
        .collect();
    assert!(
        announcers.len() > 4 && !outbound.is_empty() && !inbound.is_empty(),
        "workload lacks participants for the push cycle"
    );
    let mut out = Vec::with_capacity(n);
    let mut cycle = 0usize;
    while out.len() < n {
        let p = outbound[cycle % outbound.len()];
        let t1 = announcers[(cycle * 7 + 1) % announcers.len()];
        let t2 = announcers[(cycle * 7 + 3) % announcers.len()];
        let (t1, t2) = (
            if t1 == p { announcers[0] } else { t1 },
            if t2 == p { announcers[1] } else { t2 },
        );
        // The seed varies the policies' ports, not whom they touch.
        let port = 8000 + ((seed as usize + cycle) % 500) as u16;
        let fwd = |t: ParticipantId, port: u16| {
            P::match_(FieldMatch::TpDst(port)) >> P::fwd(PortId::Virt(t))
        };
        out.push(Push::Delta(
            PolicyDelta::new().install_outbound(p, fwd(t1, port)),
        ));
        out.push(Push::Delta(
            PolicyDelta::new().replace_outbound(p, fwd(t2, port + 1)),
        ));
        out.push(Push::Delta(PolicyDelta::new().retract_outbound(p)));

        let (q, scrub) = inbound[cycle % inbound.len()];
        let half = |hi: bool| {
            FieldMatch::NwSrc(Prefix::new(
                Ipv4Addr::new(if hi { 128 } else { 0 }, 0, 0, 0),
                1,
            ))
        };
        let steer = |hi: bool| P::match_(half(hi)) >> P::fwd(PortId::Phys(q, scrub));
        out.push(Push::Delta(
            PolicyDelta::new().install_inbound(q, steer(true)),
        ));
        out.push(Push::Delta(
            PolicyDelta::new().replace_inbound(q, steer(false)),
        ));
        out.push(Push::Delta(PolicyDelta::new().retract_inbound(q)));

        let victim = announcers[(cycle * 5) % announcers.len()];
        let mut deny = ExportPolicy::allow_all();
        let victim_prefixes = wb.rs.loc_rib().announced_by(victim).collect::<Vec<_>>();
        for k in 1..=3 {
            let attacker = announcers[(cycle * 5 + k * 11) % announcers.len()];
            if attacker == victim {
                continue;
            }
            for &pfx in &victim_prefixes {
                deny.deny(attacker, pfx);
            }
        }
        out.push(Push::Export(victim, deny));
        out.push(Push::Export(victim, ExportPolicy::allow_all()));
        cycle += 1;
    }
    out.truncate(n);
    out
}

/// The ixp50 controller, deployed with `Sharding::Auto`.
fn deploy(wb: &Workbench) -> (SdxController, Fabric, SharedRegistry) {
    let reg = SharedRegistry::new();
    let mut compiler = wb.compiler();
    compiler.set_telemetry(reg.clone());
    let mut rs = wb.rs.clone();
    rs.set_telemetry(reg.clone());
    let mut ctl = SdxController::with_telemetry(reg.clone());
    ctl.compiler = compiler;
    ctl.rs = rs;
    ctl.set_sharding(Sharding::Auto);
    let fabric = ctl.deploy().expect("ixp50 deploys");
    (ctl, fabric, reg)
}

/// Registry figures the commit path leaves, read around each call.
#[derive(Clone, Copy, Default)]
struct Reading {
    compile: Hist,
    fec: Hist,
    compose: Hist,
    classifiers: Hist,
    merge: Hist,
    validate: Hist,
    recompiled: u64,
    skipped: u64,
    dirty_units: u64,
    unchanged: u64,
    fib_sent: u64,
    fib_skipped: u64,
    mods: u64,
}

fn read(reg: &SharedRegistry) -> Reading {
    Reading {
        compile: hist(reg, "compile.total"),
        fec: hist(reg, "compile.fec"),
        compose: hist(reg, "compile.compose"),
        classifiers: hist(reg, "compile.classifiers"),
        merge: hist(reg, "compile.shard.merge"),
        validate: hist(reg, "txn.validate"),
        recompiled: counter(reg, "compile.shard.recompiled.count"),
        skipped: counter(reg, "compile.shard.skipped.count"),
        dirty_units: counter(reg, "policy.dirty_units.count"),
        unchanged: counter(reg, "reconcile.unchanged.count"),
        fib_sent: counter(reg, "fibsync.sent.count"),
        fib_skipped: counter(reg, "fibsync.skipped.count"),
        mods: counter(reg, "fabric.flowmod.add.count")
            + counter(reg, "fabric.flowmod.modify.count")
            + counter(reg, "fabric.flowmod.delete.count"),
    }
}

/// Per-event layer times (ms) and counts.
#[derive(Clone, Copy, Default)]
struct Layers {
    fastpath: f64,
    prepare: f64,
    commit: f64,
    compile: f64,
    fec: f64,
    compose: f64,
    classifiers: f64,
    merge: f64,
    validate: f64,
    txn_begin: f64,
    txn_drop: f64,
    diff: f64,
    plan: f64,
    waves: f64,
    recompiled: f64,
    shards: f64,
    dirty_units: f64,
    unchanged: f64,
    table: f64,
    fib_sent: f64,
    fib_total: f64,
    mods: f64,
}

/// One measured change (a burst or a push).
struct Event {
    push: bool,
    e2e_ms: f64,
    layers: Layers,
}

/// Drives the commit path for one change at a time, reading registry
/// figures around each call.
struct Committer<'a> {
    ctl: &'a mut SdxController,
    fabric: &'a mut Fabric,
    reg: &'a SharedRegistry,
    tracer: &'a mut Tracer,
    /// Time spent in side-measured calls (traced run only).
    side: Duration,
    failed: u64,
}

impl Committer<'_> {
    /// Times `FabricTxn::begin` and its drop on the live state — the
    /// snapshot `prepare_scheduled` is about to take.
    fn side_txn(&mut self, ev: u64, root: SpanId, l: &mut Layers) {
        let t0 = Instant::now();
        let txn = FabricTxn::begin(self.ctl, self.fabric);
        let t1 = Instant::now();
        drop(txn);
        let t2 = Instant::now();
        l.txn_begin = ms(t1 - t0);
        l.txn_drop = ms(t2 - t1);
        self.tracer.record(ev, "side.txn.begin", root, t0, t1);
        self.tracer.record(ev, "side.txn.drop", root, t1, t2);
        self.side += t2 - t0;
    }

    /// Times the reconcile diff and the wave plan on the prepared state
    /// (the same inputs `prepare_scheduled` just used). Each is the
    /// fastest of three calls: the first call after the transaction's
    /// drop also pays allocator work that belongs to the drop.
    fn side_diff_plan(&mut self, ev: u64, root: SpanId, l: &mut Layers) {
        let Some(report) = self.ctl.report.as_ref() else {
            return;
        };
        let table = self.fabric.switch.table();
        let t_side = Instant::now();
        let fastest = |best: &mut Option<(Instant, Instant)>, a: Instant, b: Instant| {
            if best.is_none_or(|(x, y)| b - a < y - x) {
                *best = Some((a, b));
            }
        };
        let (mut diff_best, mut plan_best) = (None, None);
        for _ in 0..3 {
            let t0 = Instant::now();
            let diff = sdx_core::diff_base_table(table, &report.classifier, u64::MAX);
            let t1 = Instant::now();
            let plan = sdx_core::schedule::plan(table, &diff.batch);
            let t2 = Instant::now();
            std::hint::black_box(plan.wave_count());
            fastest(&mut diff_best, t0, t1);
            fastest(&mut plan_best, t1, t2);
        }
        for (name, best, slot) in [
            ("side.reconcile.diff", diff_best, &mut l.diff),
            ("side.schedule.plan", plan_best, &mut l.plan),
        ] {
            if let Some((a, b)) = best {
                *slot = ms(b - a);
                self.tracer.record(ev, name, root, a, b);
            }
        }
        self.side += t_side.elapsed();
    }

    /// Runs one change end to end and returns its event record.
    /// `hand_over` gives the change to the controller (fast-path updates
    /// or staging) and returns how many of its operations failed.
    fn change(
        &mut self,
        ev: u64,
        push: bool,
        hand_over: impl FnOnce(&mut SdxController, &mut Fabric) -> u64,
    ) -> Event {
        let mut l = Layers::default();
        let r0 = read(self.reg);
        let side0 = self.side;
        let t_start = Instant::now();
        let root = self
            .tracer
            .open(ev, if push { "push" } else { "burst" }, None, t_start);
        let t0 = Instant::now();
        self.failed += hand_over(self.ctl, self.fabric);
        let t1 = Instant::now();
        self.tracer
            .record(ev, if push { "stage" } else { "fastpath" }, root, t0, t1);
        l.fastpath = ms(t1 - t0);
        if self.tracer.enabled() {
            self.side_txn(ev, root, &mut l);
        }
        let before_prepare = read(self.reg);
        let t2 = Instant::now();
        let prepared = self.ctl.prepare_scheduled(self.fabric);
        let t3 = Instant::now();
        let after_prepare = read(self.reg);
        self.tracer.record(ev, "prepare", root, t2, t3);
        l.prepare = ms(t3 - t2);
        let mut waves = 0;
        match prepared {
            Ok(prepared) => {
                waves = prepared.plan.wave_count();
                if self.tracer.enabled() {
                    self.side_diff_plan(ev, root, &mut l);
                }
                let t4 = Instant::now();
                let done = self.ctl.commit_scheduled(
                    self.fabric,
                    prepared,
                    &ScheduleOpts::default(),
                    None,
                );
                let t5 = Instant::now();
                self.tracer.record(ev, "commit", root, t4, t5);
                l.commit = ms(t5 - t4);
                if done.is_err() {
                    self.failed += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
        let t_end = Instant::now();
        let r1 = read(self.reg);
        self.tracer.close(root, t_end);
        let p = |a: Hist, b: Hist| b.since(a).ms();
        l.compile = p(before_prepare.compile, after_prepare.compile);
        l.fec = p(before_prepare.fec, after_prepare.fec);
        l.compose = p(before_prepare.compose, after_prepare.compose);
        l.classifiers = p(before_prepare.classifiers, after_prepare.classifiers);
        l.merge = p(before_prepare.merge, after_prepare.merge);
        l.validate = p(before_prepare.validate, after_prepare.validate);
        l.waves = waves as f64;
        l.recompiled = (r1.recompiled - r0.recompiled) as f64;
        l.shards = l.recompiled + (r1.skipped - r0.skipped) as f64;
        l.dirty_units = (r1.dirty_units - r0.dirty_units) as f64;
        l.unchanged = (r1.unchanged - r0.unchanged) as f64;
        l.table = self.fabric.switch.table().len() as f64;
        l.fib_sent = (r1.fib_sent - r0.fib_sent) as f64;
        l.fib_total = l.fib_sent + (r1.fib_skipped - r0.fib_skipped) as f64;
        l.mods = (r1.mods - r0.mods) as f64;
        let side = self.side - side0;
        Event {
            push,
            e2e_ms: ms((t_end - t_start).saturating_sub(side)),
            layers: l,
        }
    }
}

/// Burst sizes of one block of 21 bursts. Twenty are the §4.3.2 size
/// distribution at its 20 evenly spaced quantiles — 75% of bursts touch
/// at most three prefixes, the rest follow the generator's
/// `4 + 2/x^0.9` tail — and one is [`TAIL_BURST`]. Every block has the
/// same size mix, so a run's distribution does not depend on where the
/// seed's random tail happens to fall.
const BLOCK: [usize; 21] = [
    1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 6, 6, 7, 9, 19, TAIL_BURST,
];

/// The generator's tail at its 0.99 quantile (`4 + 2/0.01^0.9` ≈ 130
/// prefixes), so a cost that grows with burst size shows. The rare
/// table-scale bursts (1000+ prefixes) are not replayed.
const TAIL_BURST: usize = 130;

/// Route bursts for the replay: the seed's §4.3.2 update trace (no
/// session resets), its messages regrouped into bursts of the [`BLOCK`]
/// sizes, in a seed-shuffled order within each block.
fn bursts(wb: &Workbench, seed: u64) -> Vec<Vec<(ParticipantId, UpdateMessage)>> {
    let trace = updates::generate(
        &wb.ixp,
        &TraceParams {
            duration_secs: 200_000,
            session_resets: 0,
            seed,
            ..Default::default()
        },
    );
    let mut messages = trace
        .bursts
        .into_iter()
        .filter(|b| !b.is_session_reset)
        .flat_map(|b| b.updates);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    loop {
        let mut sizes = BLOCK;
        sizes.shuffle(&mut rng);
        for size in sizes {
            let burst: Vec<_> = messages.by_ref().take(size).collect();
            if burst.len() < size {
                return out;
            }
            out.push(burst);
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let wb = crate::ixp50();
    let bursts = bursts(&wb, seed);
    let pushes = pushes(&wb, seed, bursts.len() / 2 + 1);

    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let deployed = deploy(&wb);
        setups.push(t0.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            live = Some(deployed);
        }
    }
    let (mut ctl, mut fabric, reg) = live.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let t_loop = Instant::now();
    let mut events: Vec<Event> = Vec::new();
    let mut c = Committer {
        ctl: &mut ctl,
        fabric: &mut fabric,
        reg: &reg,
        tracer,
        side: Duration::ZERO,
        failed: 0,
    };
    let (mut b, mut p) = (0usize, 0usize);
    let mut tail_ms = Vec::new();
    while Instant::now() < deadline && b < bursts.len() {
        let burst = &bursts[b];
        let ev = c.change(events.len() as u64, false, |ctl, fabric| {
            burst
                .iter()
                .filter(|(from, msg)| ctl.process_update(*from, msg, fabric).is_err())
                .count() as u64
        });
        if burst.len() == TAIL_BURST {
            tail_ms.push(ev.e2e_ms);
        }
        events.push(ev);
        b += 1;
        if b % 2 == 0 {
            let push = &pushes[p];
            let ev = c.change(events.len() as u64, true, |ctl, _| match push {
                Push::Delta(d) => u64::from(ctl.stage_policy_delta(d).is_err()),
                Push::Export(victim, export) => {
                    ctl.rs.set_export_policy(*victim, export.clone());
                    0
                }
            });
            events.push(ev);
            p += 1;
        }
    }
    let wall = t_loop.elapsed().saturating_sub(c.side);
    let side = c.side;
    let failed_ops = c.failed;

    // ---- Correctness, outside the timed loop.
    let probes = sdx_oracle::synth::sample_probes(&ctl.compiler, &ctl.rs, seed, PROBES);
    let mismatches = match ctl.report.as_ref() {
        Some(report) => {
            let diff =
                Differential::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table());
            probes
                .iter()
                .filter(|(from, pkt)| diff.check(*from, pkt).is_err())
                .count()
        }
        None => probes.len(),
    };
    out.gate(
        mismatches == 0,
        format!("{mismatches} oracle mismatches over the final table"),
    );
    let mut cold = SdxController::new();
    for cfg in ctl.compiler.participants().values() {
        cold.compiler.upsert_participant(cfg.clone());
    }
    cold.rs = ctl.rs.clone();
    let cold_diverged = match cold.deploy() {
        Ok(mut cold_fabric) => probes
            .iter()
            .filter(|(from, pkt)| {
                let warm: Vec<_> = fabric
                    .send(*from, *pkt)
                    .iter()
                    .map(|d| (d.loc, d.pkt))
                    .collect();
                let fresh: Vec<_> = cold_fabric
                    .send(*from, *pkt)
                    .iter()
                    .map(|d| (d.loc, d.pkt))
                    .collect();
                warm != fresh
            })
            .count(),
        Err(_) => probes.len(),
    };
    out.gate(
        cold_diverged == 0,
        format!("{cold_diverged} probes forward differently from a cold deploy"),
    );

    out.attempted = events.len() as u64;
    out.failed += failed_ops;

    let all: Vec<f64> = events.iter().map(|e| e.e2e_ms).collect();
    let of = |push: bool| -> Vec<&Event> { events.iter().filter(|e| e.push == push).collect() };
    let (bs, ps) = (of(false), of(true));
    let lat = |es: &[&Event]| sorted(&es.iter().map(|e| e.e2e_ms).collect::<Vec<_>>());
    let (bl, pl, al) = (lat(&bs), lat(&ps), sorted(&all));
    let setup_s = median(&setups);
    let rss = peak_rss_mb();
    let throughput = events.len() as f64 / wall.as_secs_f64();
    out.e2e.insert("latency_ms_p50", quantile(&al, 0.5));
    out.e2e.insert("latency_ms_tail", quantile(&al, 0.9));
    out.e2e.insert("throughput_per_s", throughput);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("peak_rss_mb", rss);

    let mean_of = |es: &[&Event], f: fn(&Layers) -> f64| {
        mean(&es.iter().map(|e| f(&e.layers)).collect::<Vec<_>>())
    };
    out.detail("burst_converge_ms_p50", quantile(&bl, 0.5), "ms");
    out.detail("burst_converge_ms_p90", quantile(&bl, 0.9), "ms");
    let tail_p50 = if tail_ms.is_empty() {
        0.0
    } else {
        median(&tail_ms)
    };
    out.detail("tail_burst_converge_ms_p50", tail_p50, "ms");
    out.detail("tail_bursts", tail_ms.len() as f64, "count");
    out.detail("policy_converge_ms_p50", quantile(&pl, 0.5), "ms");
    out.detail("policy_converge_ms_p90", quantile(&pl, 0.9), "ms");
    out.detail("flowmods_per_burst", mean_of(&bs, |l| l.mods), "count");
    out.detail("flowmods_per_push", mean_of(&ps, |l| l.mods), "count");
    out.detail(
        "rules_installed",
        fabric.switch.table().len() as f64,
        "count",
    );
    out.detail("bursts", bs.len() as f64, "count");
    out.detail("pushes", ps.len() as f64, "count");
    out.detail("beyond_p90", beyond(&al, 0.9) as f64, "count");
    out.detail("changes_per_s", throughput, "1/s");
    out.detail("setup_s", setup_s, "s");
    out.detail("peak_rss_mb", rss, "MB");
    out.detail("oracle_probes", probes.len() as f64, "count");

    // ---- Per-layer means per change (bursts and pushes together).
    let every: Vec<&Event> = events.iter().collect();
    let m = |f: fn(&Layers) -> f64| mean_of(&every, f);
    let sum = |f: fn(&Layers) -> f64| every.iter().map(|e| f(&e.layers)).sum::<f64>();
    let l = &mut out.layers;
    l.insert("churn.fastpath_ms", m(|l| l.fastpath));
    l.insert("compile.total_ms", m(|l| l.compile));
    l.insert("compile.fec_ms", m(|l| l.fec));
    l.insert("compile.compose_ms", m(|l| l.compose));
    l.insert("compile.classifiers_ms", m(|l| l.classifiers));
    l.insert("compile.shard.merge_ms", m(|l| l.merge));
    l.insert(
        "shard.recompiled_ratio",
        ratio(sum(|l| l.recompiled), sum(|l| l.shards)),
    );
    l.insert("policy.dirty_units", mean_of(&ps, |l| l.dirty_units));
    l.insert("txn.begin_ms", m(|l| l.txn_begin));
    l.insert("txn.drop_ms", m(|l| l.txn_drop));
    l.insert("txn.validate_ms", m(|l| l.validate));
    l.insert("reconcile.diff_ms", m(|l| l.diff));
    l.insert(
        "reconcile.unchanged_ratio",
        ratio(sum(|l| l.unchanged), sum(|l| l.table)),
    );
    l.insert("schedule.plan_ms", m(|l| l.plan));
    l.insert("schedule.waves_ms", m(|l| l.commit));
    l.insert("schedule.waves", m(|l| l.waves));
    l.insert(
        "fibsync.sent_ratio",
        ratio(sum(|l| l.fib_sent), sum(|l| l.fib_total)),
    );
    let prepare_residual = |l: &Layers| {
        l.prepare - (l.txn_begin + l.txn_drop + l.compile + l.validate + l.diff + l.plan)
    };
    l.insert(
        "prepare.residual_ms",
        mean(
            &every
                .iter()
                .map(|e| prepare_residual(&e.layers))
                .collect::<Vec<_>>(),
        ),
    );
    l.insert(
        "residual_ms",
        mean(
            &every
                .iter()
                .map(|e| {
                    let x = &e.layers;
                    crate::trace::residual(e.e2e_ms, &[x.fastpath, x.prepare, x.commit])
                })
                .collect::<Vec<_>>(),
        ),
    );
    l.insert(
        "tracing_overhead",
        ratio(side.as_secs_f64(), (wall + side).as_secs_f64()),
    );
    out
}
