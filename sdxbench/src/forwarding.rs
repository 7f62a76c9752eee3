//! `forwarding`: packet batches through `Switch::process_batch` with the
//! control plane idle.
//!
//! Three tables take turns in short rounds, so each one's throughput is
//! measured over the whole run rather than one stretch of it:
//!
//! * **ixp50** — the 50-participant exchange's deployed table, which
//!   also carries an inbound `dstip`-steering policy (a §3 application),
//!   with probes toward the steered prefix. (A wide-area load-balancer
//!   rewrite is not installed: ixp50's port-keyed outbound policies
//!   overlap it, and the install fails with `MulticastOutbound`.)
//! * **large** — the 120 × 9000 × 2400 exchange's table;
//! * **churn** — the ixp50 table while a recorded flow-mod stream (a
//!   policy install's reconcile waves and its retraction's, alternating)
//!   is applied through `Fabric::apply_flowmods` every few batches.
//!
//! Probes are fabric-tagged by the senders' border routers exactly as
//! the data plane would tag them. Packets are header structs that cross
//! no link, so per-packet cost is the measure and packet size does not
//! apply.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sdx_bench::Workbench;
use sdx_core::schedule::ScheduleOpts;
use sdx_core::SdxController;
use sdx_net::{FieldMatch, Ipv4Addr, LocatedPacket, Packet, ParticipantId, PortId, Prefix};
use sdx_openflow::flowmod::FlowModBatch;
use sdx_openflow::table::FlowTable;
use sdx_openflow::{Fabric, MatcherStats};
use sdx_policy::{Policy as P, PolicyDelta};

use crate::report::{ms, peak_rss_mb, Outcome};
use crate::stats::{beyond, mean, median, quantile, ratio, sorted};
use crate::trace::Tracer;

/// Packets per batch.
const BATCH: usize = 256;
/// Batches per table per round.
const ROUND: usize = 48;
/// A flow-mod batch lands on the churn table every this many batches.
const CHURN_EVERY: usize = 12;
/// Timing windows per run (per-window figures, median reported).
const WINDOWS: u32 = 5;
/// Sampled probes per table, plus targeted ones on ixp50.
const PROBES: usize = 8192;
const TARGETED: usize = 768;
/// The traced run keeps the spans of one batch in this many.
const SPAN_EVERY: u64 = 16;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 3;

/// A deployed exchange and its tagged probes.
struct Table {
    fabric: Fabric,
    probes: Vec<LocatedPacket>,
}

/// The tables and the churn stream, ready to measure.
struct Rig {
    ixp50: Table,
    large: Table,
    churn: Fabric,
    /// Alternating flow-mod batches: install waves, then retract waves.
    stream: [FlowModBatch; 2],
}

fn controller(wb: &Workbench) -> SdxController {
    let mut ctl = SdxController::new();
    ctl.compiler = wb.compiler();
    ctl.rs = wb.rs.clone();
    ctl
}

/// Fabric-tags raw probes through the senders' border routers; probes
/// with no route are dropped at the router, as in the data plane. The
/// tagged probes come back in a seed-shuffled order, so every batch cut
/// from them carries the same mix: batches of one kind of probe each
/// made the batch-time median hop between kinds from run to run.
fn tag(fabric: &mut Fabric, raw: Vec<(PortId, Packet)>, seed: u64) -> Vec<LocatedPacket> {
    let mut arp = fabric.arp.clone();
    let mut tagged: Vec<LocatedPacket> = raw
        .into_iter()
        .filter_map(|(port, pkt)| fabric.router_mut(port)?.forward(pkt, &mut arp))
        .collect();
    tagged.shuffle(&mut StdRng::seed_from_u64(seed));
    tagged
}

/// A host inside `p`.
fn host(p: Prefix, n: u32) -> Ipv4Addr {
    Ipv4Addr(p.addr().0 + n)
}

/// The ixp50 exchange with inbound `dstip` steering installed, plus
/// probes aimed at the steered prefix.
fn ixp50(wb: &Workbench, seed: u64) -> (SdxController, Table) {
    let parts = &wb.ixp.participants;
    let announced = &wb.ixp.announcements;
    let mut ctl = controller(wb);

    let mut fabric = ctl.deploy().expect("ixp50 deploys");

    // Inbound traffic engineering on destination: a multi-port announcer
    // steers one of its prefixes to its second port.
    let te = (0..parts.len())
        .find(|&i| parts[i].ports.len() >= 2 && !announced[i].is_empty())
        .expect("a multi-port announcer");
    let (steerer, port, steered) = (parts[te].id, parts[te].ports[1].index, announced[te][0]);
    let policy = P::match_(FieldMatch::NwDst(steered)) >> P::fwd(PortId::Phys(steerer, port));
    ctl.stage_policy_delta(&PolicyDelta::new().replace_inbound(steerer, policy))
        .expect("steering policy validates");
    ctl.reoptimize(&mut fabric)
        .expect("steering policy deploys");

    let mut raw = sdx_oracle::synth::sample_probes(&ctl.compiler, &ctl.rs, seed, PROBES);
    let ports: Vec<PortId> = parts.iter().flat_map(|c| c.port_ids()).collect();
    for k in 0..TARGETED {
        let from = ports[(k * 7 + seed as usize) % ports.len()];
        let src = if k % 2 == 0 {
            Ipv4Addr::new(9, 0, 0, 1 + (k % 200) as u8)
        } else {
            Ipv4Addr::new(200, 0, 0, 1 + (k % 200) as u8)
        };
        let dst = steered;
        let dport = [80, 443, 22, 8080][k % 4];
        raw.push((
            from,
            Packet::tcp(src, host(dst, 1 + (k % 60) as u32), 4321, dport),
        ));
    }
    let probes = tag(&mut fabric, raw, seed);
    (ctl, Table { fabric, probes })
}

fn large(wb: &Workbench, seed: u64) -> Table {
    let mut ctl = controller(wb);
    let mut fabric = ctl.deploy().expect("large exchange deploys");
    let raw = sdx_oracle::synth::sample_probes(&ctl.compiler, &ctl.rs, seed, PROBES);
    let probes = tag(&mut fabric, raw, seed);
    Table { fabric, probes }
}

/// All waves of a prepared update as one batch (applied in order).
fn flatten(waves: &[FlowModBatch]) -> FlowModBatch {
    FlowModBatch {
        epoch: waves.last().map_or(0, |w| w.epoch),
        mods: waves.iter().flat_map(|w| w.mods.iter().cloned()).collect(),
    }
}

/// Records the churn stream: the reconcile waves of installing an
/// outbound policy on ixp50, and of retracting it again, committed on a
/// copy of the fabric.
fn record_stream(ctl: &mut SdxController, fabric: &Fabric, wb: &Workbench) -> [FlowModBatch; 2] {
    let parts = &wb.ixp.participants;
    let viewer = parts
        .iter()
        .find(|c| c.outbound.is_none())
        .map_or(parts[0].id, |c| c.id);
    let target: ParticipantId = parts
        .iter()
        .zip(&wb.ixp.announcements)
        .find(|(c, a)| c.id != viewer && !a.is_empty())
        .map(|(c, _)| c.id)
        .expect("an announcer");
    let mut copy = fabric.clone();
    let policy = P::match_(FieldMatch::TpDst(8080)) >> P::fwd(PortId::Virt(target));
    let mut commit = |ctl: &mut SdxController, delta: PolicyDelta| {
        let prepared = ctl
            .apply_policy_delta_scheduled(&delta, &mut copy)
            .expect("recorded policy change prepares");
        let batch = flatten(&prepared.plan.waves);
        ctl.commit_scheduled(&mut copy, prepared, &ScheduleOpts::default(), None)
            .expect("recorded policy change commits");
        batch
    };
    let install = commit(ctl, PolicyDelta::new().install_outbound(viewer, policy));
    let retract = commit(ctl, PolicyDelta::new().retract_outbound(viewer));
    [install, retract]
}

fn set_up(wb50: &Workbench, wb_large: &Workbench, seed: u64) -> Rig {
    let (mut ctl, ixp50) = ixp50(wb50, seed);
    let large = large(wb_large, seed);
    let stream = record_stream(&mut ctl, &ixp50.fabric, wb50);
    let churn = ixp50.fabric.clone();
    Rig {
        ixp50,
        large,
        churn,
        stream,
    }
}

/// Probes on which the compiled matcher and the linear walk disagree.
fn mismatches(table: &FlowTable, probes: &[LocatedPacket]) -> usize {
    probes
        .iter()
        .filter(|lp| {
            let fast = table.classify(lp).map(|(i, e)| (i, e.priority, e.pattern));
            let slow = table
                .classify_linear(lp)
                .map(|(i, e)| (i, e.priority, e.pattern));
            fast != slow
        })
        .count()
}

/// Matcher hit counts: exact, trie, residual, miss.
fn hits(s: &MatcherStats) -> [u64; 4] {
    [s.exact_hits, s.trie_hits, s.residual_hits, s.miss_count]
}

fn hit_delta(before: [u64; 4], after: [u64; 4]) -> [f64; 4] {
    let d: Vec<f64> = (0..4).map(|i| (after[i] - before[i]) as f64).collect();
    let total: f64 = d.iter().sum();
    [0, 1, 2, 3].map(|i| ratio(d[i], total))
}

/// Per-window accumulators: (packets, busy time) per table, plus the
/// window's total wall time.
#[derive(Default, Clone, Copy)]
struct Window {
    packets: [u64; 3],
    busy: [Duration; 3],
    wall: Duration,
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let wb50 = crate::ixp50();
    let wb_large = Workbench::new(120, 9000, 2400, crate::EXCHANGE_SEED);

    let mut setups = Vec::new();
    let mut rig = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let r = set_up(&wb50, &wb_large, seed);
        setups.push(t0.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("at least one set-up");

    // ---- Correctness before timing: compiled ≡ linear on every probe,
    // in both states of the churn table.
    let t0_table = rig.ixp50.fabric.switch.table().clone();
    let bad = mismatches(&t0_table, &rig.ixp50.probes)
        + mismatches(rig.large.fabric.switch.table(), &rig.large.probes);
    out.gate(
        bad == 0,
        format!("{bad} classify/classify_linear mismatches"),
    );
    let mut probe_fabric = rig.churn.clone();
    let applied = probe_fabric.apply_flowmods(&rig.stream[0]).is_ok();
    let bad1 = mismatches(probe_fabric.switch.table(), &rig.ixp50.probes);
    let back = probe_fabric.apply_flowmods(&rig.stream[1]).is_ok();
    out.gate(applied && back, "recorded flow-mod stream applies");
    out.gate(
        bad1 == 0,
        format!("{bad1} mismatches with the policy installed"),
    );
    out.gate(
        probe_fabric.switch.table() == &t0_table,
        "retract waves restore the installed table",
    );
    out.gate(
        !rig.stream[0].is_empty() && !rig.stream[1].is_empty(),
        "recorded flow-mod stream is not empty",
    );
    drop(probe_fabric);

    let batches = |probes: &[LocatedPacket]| -> Vec<Vec<LocatedPacket>> {
        probes
            .chunks(BATCH)
            .filter(|c| c.len() == BATCH)
            .map(<[_]>::to_vec)
            .collect()
    };
    let b50 = batches(&rig.ixp50.probes);
    let blarge = batches(&rig.large.probes);
    let hits0 = [
        hits(&rig.ixp50.fabric.switch.table().matcher_stats()),
        hits(&rig.large.fabric.switch.table().matcher_stats()),
        hits(&rig.churn.switch.table().matcher_stats()),
    ];

    // ---- Measure: rounds of ROUND batches per table, in windows.
    let window_len = Duration::from_secs(seconds) / WINDOWS;
    let mut windows = vec![Window::default(); WINDOWS as usize];
    let mut quiet_batch_ms: Vec<f64> = Vec::new();
    let mut apply_us: Vec<f64> = Vec::new();
    let mut side = Duration::ZERO;
    let (mut classify_time, mut classify_pkts, mut process_time) =
        (Duration::ZERO, 0u64, Duration::ZERO);
    let (mut batches_run, mut apply_failures, mut next_mod, mut ev) = (0u64, 0u64, 0usize, 0u64);
    for w in windows.iter_mut() {
        let w_start = Instant::now();
        let w_end = w_start + window_len;
        while Instant::now() < w_end {
            for (t, table_batches) in [&b50, &blarge, &b50].into_iter().enumerate() {
                for k in 0..ROUND {
                    if t == 2 && k % CHURN_EVERY == 0 {
                        let batch = &rig.stream[next_mod % 2];
                        next_mod += 1;
                        let a = Instant::now();
                        let ok = rig.churn.apply_flowmods(batch).is_ok();
                        let b = Instant::now();
                        apply_failures += u64::from(!ok);
                        apply_us.push((b - a).as_secs_f64() * 1e6);
                        w.busy[t] += b - a;
                        if ev % SPAN_EVERY == 0 {
                            tracer.record(ev, "flowmod.apply", None, a, b);
                        }
                    }
                    let input = &table_batches[(k + batches_run as usize) % table_batches.len()];
                    let switch = match t {
                        0 => &mut rig.ixp50.fabric.switch,
                        1 => &mut rig.large.fabric.switch,
                        _ => &mut rig.churn.switch,
                    };
                    let a = Instant::now();
                    let delivered = switch.process_batch(input);
                    let b = Instant::now();
                    black_box(delivered.len());
                    w.busy[t] += b - a;
                    w.packets[t] += input.len() as u64;
                    if t == 0 {
                        quiet_batch_ms.push(ms(b - a));
                    }
                    if tracer.enabled() {
                        // Side measurement: classification alone on the
                        // same batch, outside the timed call. Spans are
                        // kept for one batch in SPAN_EVERY.
                        let c0 = Instant::now();
                        black_box(switch.table().classify_batch(input));
                        let c1 = Instant::now();
                        if ev % SPAN_EVERY == 0 {
                            let root = tracer.record(ev, "switch.process_batch", None, a, b);
                            tracer.record(ev, "side.classify_batch", root, c0, c1);
                        }
                        classify_time += c1 - c0;
                        classify_pkts += input.len() as u64;
                        process_time += b - a;
                        side += Instant::now() - b;
                    }
                    batches_run += 1;
                    ev += 1;
                }
            }
        }
        w.wall = w_start.elapsed().saturating_sub(side);
        side = Duration::ZERO;
    }

    // ---- Correctness after timing: the churn table is in one of its
    // two recorded states and still classifies like the linear walk.
    let bad_end = mismatches(rig.churn.switch.table(), &rig.ixp50.probes);
    out.gate(
        bad_end == 0,
        format!("{bad_end} mismatches on the churned table"),
    );
    out.gate(
        apply_failures == 0,
        format!("{apply_failures} flow-mod batches rejected"),
    );
    out.attempted = batches_run + next_mod as u64;
    out.failed += apply_failures;

    let mpps = |t: usize| -> f64 {
        median(
            &windows
                .iter()
                .map(|w| w.packets[t] as f64 / w.busy[t].as_secs_f64() / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let overall = median(
        &windows
            .iter()
            .map(|w| {
                let pkts: u64 = w.packets.iter().sum();
                let busy: Duration = w.busy.iter().sum();
                pkts as f64 / busy.as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let lat = sorted(&quiet_batch_ms);
    let setup_s = median(&setups);
    let rss = peak_rss_mb();
    out.e2e.insert("latency_ms_p50", quantile(&lat, 0.5));
    out.e2e.insert("latency_ms_tail", quantile(&lat, 0.99));
    out.e2e.insert("throughput_per_s", overall);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("peak_rss_mb", rss);

    let tables = [
        ("ixp50", rig.ixp50.fabric.switch.table()),
        ("large", rig.large.fabric.switch.table()),
        ("churn", rig.churn.switch.table()),
    ];
    let shares: Vec<[f64; 4]> = tables
        .iter()
        .enumerate()
        .map(|(i, (_, t))| hit_delta(hits0[i], hits(&t.matcher_stats())))
        .collect();
    out.detail("fwd_mpps", mpps(0), "Mpps");
    out.detail("fwd_mpps_large", mpps(1), "Mpps");
    out.detail("fwd_mpps_churn", mpps(2), "Mpps");
    out.detail("batch_ms_p50", quantile(&lat, 0.5), "ms");
    out.detail("batch_ms_p99", quantile(&lat, 0.99), "ms");
    out.detail("batch_samples", lat.len() as f64, "count");
    out.detail("batch_beyond_p99", beyond(&lat, 0.99) as f64, "count");
    out.detail("rules_ixp50", tables[0].1.len() as f64, "count");
    out.detail("rules_large", tables[1].1.len() as f64, "count");
    out.detail(
        "flowmods_per_churn_batch",
        mean(&[rig.stream[0].len() as f64, rig.stream[1].len() as f64]),
        "count",
    );
    for (i, (name, _)) in tables.iter().enumerate() {
        let [exact, trie, residual, miss] = shares[i];
        let key = |k: &str| format!("{name}_share_{k}");
        out.detail(key("exact"), exact, "ratio");
        out.detail(key("trie"), trie, "ratio");
        out.detail(key("residual"), residual, "ratio");
        out.detail(key("miss"), miss, "ratio");
    }
    out.detail("setup_s", setup_s, "s");
    out.detail("peak_rss_mb", rss, "MB");

    // ---- Per-layer figures.
    let all_hits: [f64; 4] = {
        let mut acc = [0.0; 4];
        for (i, (_, t)) in tables.iter().enumerate() {
            let after = hits(&t.matcher_stats());
            for k in 0..4 {
                acc[k] += (after[k] - hits0[i][k]) as f64;
            }
        }
        let total: f64 = acc.iter().sum();
        acc.map(|x| ratio(x, total))
    };
    let rebuild_us = if tracer.enabled() {
        let mut copy = rig.churn.switch.table().clone();
        let t = Instant::now();
        for _ in 0..8 {
            copy.rebuild_matcher();
        }
        t.elapsed().as_secs_f64() * 1e6 / 8.0
    } else {
        0.0
    };
    let wall: Duration = windows.iter().map(|w| w.wall).sum();
    let busy: Duration = windows.iter().flat_map(|w| w.busy).sum();
    let rounds = (batches_run as f64 / (3 * ROUND) as f64).max(1.0);
    let l = &mut out.layers;
    l.insert(
        "classify_batch_mpps",
        ratio(classify_pkts as f64, classify_time.as_secs_f64()) / 1e6,
    );
    l.insert("matcher.share.exact", all_hits[0]);
    l.insert("matcher.share.trie", all_hits[1]);
    l.insert("matcher.share.residual", all_hits[2]);
    l.insert("matcher.share.miss", all_hits[3]);
    l.insert(
        "matcher.bytes",
        tables[0].1.matcher_stats().approx_bytes as f64,
    );
    l.insert("matcher.rebuild_us", rebuild_us);
    l.insert(
        "switch.action_ns_per_pkt",
        ratio(
            process_time.saturating_sub(classify_time).as_secs_f64() * 1e9,
            classify_pkts as f64,
        ),
    );
    l.insert("flowmod.apply_us", mean(&apply_us));
    l.insert("residual_ms", ms(wall.saturating_sub(busy)) / rounds);
    let traced_wall = Duration::from_secs(seconds);
    l.insert(
        "tracing_overhead",
        if tracer.enabled() {
            ratio(
                traced_wall.saturating_sub(wall).as_secs_f64(),
                traced_wall.as_secs_f64(),
            )
        } else {
            0.0
        },
    );
    out
}
