//! `bgp_stream`: a BGP update stream through `sdxd` over loopback.
//!
//! One BGP session re-announces a fixed pool of 256 /16s with rotating
//! AS paths, so the RIB keeps its size for the whole run. The announcing
//! participant is one that outbound policies target, so every update
//! lands fast-path overlay rules. The benchmark's own switch agent
//! decodes each frame, applies it to its fabric and acks it.
//!
//! The run repeats a 7 s cycle, so both figures sample the whole run:
//!
//! * **open loop** — 3.5 s at 200 updates/s with a scheduled
//!   re-optimization every 2 s of schedule. Each update's latency runs
//!   from its *scheduled* send time to the agent's receipt of the frame
//!   that carries it (see [`crate::attribution`]).
//! * **blasts** — three blasts of 1500 updates, each on a freshly
//!   re-optimized table; the delivered rate is pooled over all blasts.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sdx_bench::Workbench;
use sdx_bgp::BgpMessage;
use sdx_core::{ParticipantConfig, SdxController, VnhAllocator};
use sdx_net::{Ipv4Addr, ParticipantId, PortId, Prefix};
use sdx_openflow::Fabric;
use sdx_runtime::{codec, daemon, ChannelFrame, DaemonConfig, DaemonHandle, TestPeer};
use sdx_telemetry::{Event, SharedRegistry};

use crate::attribution::{fresh_tags, Attributor};
use crate::report::{counter, hist, ms, peak_rss_mb, Hist, Outcome};
use crate::stats::{beyond, mean, median, quantile, ratio, sorted};
use crate::trace::Tracer;

/// Phase-1 offered load, updates per second.
const RATE: f64 = 200.0;
/// Prefixes the session cycles through.
const POOL: usize = 256;
/// Schedule time between open-loop re-optimizations.
const REOPT_EVERY: Duration = Duration::from_secs(2);
/// Updates per blast.
const BLAST: usize = 1500;
/// Blasts per cycle.
const BLASTS: usize = 3;
/// One cycle: an open-loop segment, then `BLASTS` blasts.
const CYCLE: Duration = Duration::from_secs(7);
/// Part of a cycle left to the blasts and their re-optimizations.
const BLAST_SHARE: Duration = Duration::from_millis(3500);
/// Set-ups per run (the median is reported).
const SETUPS: usize = 9;
/// Longest wait for delivery or a re-optimization before a gate fails.
const PATIENCE: Duration = Duration::from_secs(30);

/// The session's update stream: update `i` re-announces pool prefix
/// `i mod 256` with an AS path that differs from its previous round.
struct Stream {
    cfg: ParticipantConfig,
    /// The pool in the seed's announcement order.
    pool: Vec<Prefix>,
    /// Seed-chosen offset of the AS-path rotation.
    path_offset: usize,
    /// Fresh VMACs (affected viewers) per update.
    per_update: usize,
}

impl Stream {
    fn path(&self, round: usize) -> [u32; 2] {
        [
            self.cfg.asn.0,
            64_700 + ((round + self.path_offset) % 97) as u32,
        ]
    }

    fn update(&self, i: usize) -> BgpMessage {
        let prefix = self.pool[i % POOL];
        BgpMessage::Update(self.cfg.announce([prefix], &self.path(i / POOL)))
    }
}

/// The pool: 30.0.0.0/16 … 30.255.0.0/16, outside the synthetic
/// exchange's 100/8 universe, in a seed-chosen order that every round
/// repeats (so one prefix's updates stay 256 apart).
fn pool(seed: u64) -> Vec<Prefix> {
    let mut pool: Vec<Prefix> = (0..POOL)
        .map(|i| Prefix::new(Ipv4Addr::new(30, i as u8, 0, 0), 16))
        .collect();
    pool.shuffle(&mut StdRng::seed_from_u64(seed));
    pool
}

/// How many participants' outbound policies forward to each participant.
fn policy_targets(wb: &Workbench) -> BTreeMap<ParticipantId, usize> {
    let mut targeted: BTreeMap<ParticipantId, usize> = BTreeMap::new();
    for cfg in &wb.ixp.participants {
        let Some(policy) = &cfg.outbound else {
            continue;
        };
        let targets: BTreeSet<ParticipantId> = sdx_policy::delta::referenced_ports(policy)
            .into_iter()
            .filter_map(|p| match p {
                PortId::Virt(t) if t != cfg.id => Some(t),
                _ => None,
            })
            .collect();
        for t in targets {
            *targeted.entry(t).or_default() += 1;
        }
    }
    targeted
}

/// Picks the announcer: among participants that outbound policies
/// target, the least-targeted one whose pool updates give every update
/// the same, non-zero number of fresh tags (checked by running the fast
/// path on a scratch copy of the inputs).
fn choose_stream(wb: &Workbench, seed: u64) -> Stream {
    let targeted = policy_targets(wb);
    let mut candidates: Vec<(usize, ParticipantId)> =
        targeted.into_iter().map(|(t, n)| (n, t)).collect();
    candidates.sort_unstable();
    for (_, id) in candidates {
        let cfg = wb
            .ixp
            .participants
            .iter()
            .find(|c| c.id == id)
            .expect("target is a participant")
            .clone();
        let mut stream = Stream {
            cfg,
            pool: pool(seed),
            path_offset: (seed % 97) as usize,
            per_update: 0,
        };
        let mut compiler = wb.compiler();
        let mut rs = wb.rs.clone();
        let mut vnh = VnhAllocator::default();
        let mut tags = BTreeSet::new();
        for i in [0, 1, 2, POOL, POOL + 1, 2 * POOL] {
            let BgpMessage::Update(u) = stream.update(i) else {
                unreachable!("the stream only announces");
            };
            rs.process_update(id, &u);
            let delta = compiler
                .fast_update(&rs, &mut vnh, stream.pool[i % POOL])
                .expect("fast path on scratch inputs");
            tags.insert(delta.arp_bindings.len());
        }
        if let [v] = tags.into_iter().collect::<Vec<_>>()[..] {
            if v > 0 {
                stream.per_update = v;
                return stream;
            }
        }
    }
    panic!("no policy-targeted participant gives pool updates a constant fresh-tag count");
}

/// One frame as the agent saw it.
#[derive(Clone, Copy, Debug)]
struct FrameRec {
    recv: Instant,
    bytes: usize,
    tags: usize,
    decode: Duration,
    apply: Duration,
    ok: bool,
}

/// The benchmark's switch agent: decode, apply, ack, report.
fn run_agent(stream: TcpStream, tx: Sender<FrameRec>) -> Fabric {
    let mut fabric = Fabric::new();
    let Ok(write) = stream.try_clone() else {
        return fabric;
    };
    let mut w = BufWriter::new(write);
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let recv = Instant::now();
        let text = line.trim_end();
        if text.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let Ok(frame) = codec::decode_frame(text) else {
            break; // no seq to nack: drop the channel so the daemon sees it
        };
        let decode = t0.elapsed();
        let tags = fresh_tags(&frame);
        let seq = frame.seq();
        let t1 = Instant::now();
        let result = match frame {
            ChannelFrame::Apply { batch, .. } => fabric.apply_flowmods(&batch),
            ChannelFrame::Sync { batch, .. } => {
                fabric.switch.table_mut().clear();
                fabric.apply_flowmods(&batch)
            }
        };
        let apply = t1.elapsed();
        let err = result.as_ref().err().map(ToString::to_string);
        let ack = codec::encode_ack(seq, err.as_deref().map_or(Ok(()), Err));
        if w.write_all(ack.as_bytes()).is_err() || w.write_all(b"\n").is_err() || w.flush().is_err()
        {
            break;
        }
        let rec = FrameRec {
            recv,
            bytes: text.len(),
            tags,
            decode,
            apply,
            ok: err.is_none(),
        };
        if tx.send(rec).is_err() {
            break;
        }
    }
    fabric
}

/// A running daemon with its agent and BGP session.
struct Rig {
    handle: DaemonHandle,
    reg: SharedRegistry,
    agent: JoinHandle<Fabric>,
    frames_rx: Receiver<FrameRec>,
    peer: TestPeer,
    attrib: Attributor,
    /// Agent receipt time of every attributed update, by stream index.
    recv_of: Vec<Instant>,
    /// Updates each attributed update shared its frame with.
    frame_size_of: Vec<usize>,
    frames: Vec<FrameRec>,
    bad_frames: usize,
    sent: usize,
    /// Latencies (ns) of every journaled re-optimization, in order.
    reopt_ns: Vec<u64>,
    /// Journal sequence number of the next entry not yet read.
    journal_seen: u64,
    /// Whether the journal ring evicted an entry before it was read.
    journal_lost: bool,
}

impl Rig {
    /// Deploys the exchange in `sdxd`, connects the agent and waits for
    /// its sync frame, then establishes the BGP session.
    fn set_up(wb: &Workbench, stream: &Stream) -> std::io::Result<Rig> {
        let reg = SharedRegistry::with_journal_capacity(1 << 18);
        let mut compiler = wb.compiler();
        compiler.set_telemetry(reg.clone());
        let mut rs = wb.rs.clone();
        rs.set_telemetry(reg.clone());
        let mut ctl = SdxController::with_telemetry(reg.clone());
        ctl.compiler = compiler;
        ctl.rs = rs;
        let handle = daemon::start(ctl, DaemonConfig::default())?;
        let (tx, frames_rx) = std::sync::mpsc::channel();
        let agent_addr: SocketAddr = handle.openflow_addr;
        let conn = TcpStream::connect(agent_addr)?;
        conn.set_nodelay(true)?;
        let agent = std::thread::spawn(move || run_agent(conn, tx));
        let mut rig = Rig {
            peer: TestPeer::establish(handle.bgp_addr, stream.cfg.asn.0, 90)?,
            handle,
            reg,
            agent,
            frames_rx,
            attrib: Attributor::new(stream.per_update),
            recv_of: Vec::new(),
            frame_size_of: Vec::new(),
            frames: Vec::new(),
            bad_frames: 0,
            sent: 0,
            reopt_ns: Vec::new(),
            journal_seen: 0,
            journal_lost: false,
        };
        // The agent is synced once its first (sync) frame is in.
        match rig.frames_rx.recv_timeout(PATIENCE) {
            Ok(rec) => rig.take(rec),
            Err(_) => return Err(std::io::Error::other("agent never synced")),
        }
        Ok(rig)
    }

    fn take(&mut self, rec: FrameRec) {
        match self.attrib.on_frame(rec.tags) {
            Ok(range) => {
                let n = range.len();
                for _ in range {
                    self.recv_of.push(rec.recv);
                    self.frame_size_of.push(n);
                }
            }
            Err(_) => self.bad_frames += 1,
        }
        if !rec.ok {
            self.bad_frames += 1;
        }
        self.frames.push(rec);
    }

    fn send(&mut self, stream: &Stream) -> Instant {
        self.peer
            .send(&stream.update(self.sent))
            .expect("BGP session stays up while the daemon runs");
        self.sent += 1;
        Instant::now()
    }

    /// Waits until the first `n` updates of the stream are attributed.
    fn await_updates(&mut self, n: usize) -> bool {
        let deadline = Instant::now() + PATIENCE;
        while self.attrib.attributed() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.frames_rx.recv_timeout(left) {
                Ok(rec) => self.take(rec),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return false,
            }
        }
        true
    }

    /// Folds re-optimizations journaled since the last call into
    /// `reopt_ns`. The journal is a ring, so entries are read by sequence
    /// number; one evicted before it was read sets `journal_lost`, which
    /// fails a gate instead of skewing the counts.
    fn poll_journal(&mut self) {
        let journal = self.reg.journal();
        if journal.len() as u64 + journal.dropped() == self.journal_seen {
            return;
        }
        let entries = journal.entries();
        if entries.first().is_some_and(|e| e.seq > self.journal_seen) {
            self.journal_lost = true;
        }
        let seen = self.journal_seen;
        for e in entries.into_iter().filter(|e| e.seq >= seen) {
            self.journal_seen = e.seq + 1;
            if let Event::ReoptimizeCompleted { latency_ns, .. } = e.event {
                self.reopt_ns.push(latency_ns);
            }
        }
    }

    /// Waits until `n` re-optimizations have completed.
    fn await_reopts(&mut self, n: usize) -> bool {
        let deadline = Instant::now() + PATIENCE;
        loop {
            self.poll_journal();
            if self.reopt_ns.len() >= n {
                break;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        while let Ok(rec) = self.frames_rx.try_recv() {
            self.take(rec);
        }
        true
    }

    /// Issues a re-optimization and waits for it to complete.
    fn reoptimize_and_wait(&mut self) -> bool {
        self.poll_journal();
        let before = self.reopt_ns.len();
        self.handle.reoptimize();
        self.await_reopts(before + 1)
    }

    /// Stops the daemon and returns its final table and the agent's.
    fn tear_down(mut self) -> (Stopped, Vec<FrameRec>) {
        let report = self.handle.stop();
        drop(self.peer);
        let agent_fabric = self.agent.join().expect("agent thread");
        while let Ok(rec) = self.frames_rx.try_recv() {
            self.frames.push(rec);
        }
        let same = agent_fabric.switch.table() == report.fabric.switch.table();
        (
            Stopped {
                tables_equal: same,
                rules: report.fabric.switch.table().len(),
            },
            self.frames,
        )
    }
}

/// What a rig leaves after shutdown.
struct Stopped {
    tables_equal: bool,
    rules: usize,
}

/// Sleeps until `t`. No spinning: on a small machine a spinning
/// generator would take a core from the daemon; its lateness is reported
/// instead.
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    ms(b.saturating_duration_since(a))
}

/// Registry readings taken around the open-loop segments.
#[derive(Clone, Copy, Default)]
struct Readings {
    decision: Hist,
    fp_update: Hist,
    fp_apply: Hist,
    fp_total: Hist,
    updates: u64,
    compiles: u64,
}

impl Readings {
    fn now(reg: &SharedRegistry) -> Readings {
        Readings {
            decision: hist(reg, "rs.decision"),
            fp_update: hist(reg, "fastpath.update"),
            fp_apply: hist(reg, "fastpath.apply"),
            fp_total: hist(reg, "fastpath.total"),
            updates: counter(reg, "daemon.updates.count"),
            compiles: counter(reg, "daemon.compiles.count"),
        }
    }

    /// Adds the work done between `before` and `after`.
    fn add(&mut self, before: &Readings, after: &Readings) {
        let plus = |acc: &mut Hist, b: Hist, a: Hist| {
            let d = a.since(b);
            acc.sum += d.sum;
            acc.count += d.count;
        };
        plus(&mut self.decision, before.decision, after.decision);
        plus(&mut self.fp_update, before.fp_update, after.fp_update);
        plus(&mut self.fp_apply, before.fp_apply, after.fp_apply);
        plus(&mut self.fp_total, before.fp_total, after.fp_total);
        self.updates += after.updates - before.updates;
        self.compiles += after.compiles - before.compiles;
    }
}

fn per_op_us(h: Hist) -> f64 {
    ratio(h.sum as f64 / 1e3, h.count as f64)
}

/// One open-loop update as measured.
struct Sample {
    /// Stream index.
    index: usize,
    due: Instant,
    sent: Instant,
}

/// Runs the workload: `cycles` repetitions of an open-loop segment and
/// `BLASTS` (three) blasts, so both figures sample the whole run.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let wb = crate::ixp50();
    let stream = choose_stream(&wb, seed);

    // Set up several times; keep the last rig.
    let mut setups = Vec::new();
    let mut rig = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let r = Rig::set_up(&wb, &stream).expect("sdxd set-up over loopback");
        setups.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            r.tear_down();
        } else {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("at least one set-up");

    // Warm-up: announce the whole pool once, then fold it into the base.
    for _ in 0..POOL {
        rig.send(&stream);
    }
    out.gate(rig.await_updates(POOL), "warm-up pool attributed");
    out.gate(
        rig.reoptimize_and_wait(),
        "warm-up re-optimization completes",
    );

    let cycles = (seconds as f64 / CYCLE.as_secs_f64()).round().max(1.0) as usize;
    let segment = CYCLE - BLAST_SHARE;
    let per_segment = (RATE * segment.as_secs_f64()).round().max(1.0) as usize;
    let period = Duration::from_secs_f64(1.0 / RATE);
    let mut samples: Vec<Sample> = Vec::new();
    let mut reopt_issued: Vec<Instant> = Vec::new();
    let mut reopt_lat: Vec<f64> = Vec::new();
    let mut open_frames: Vec<std::ops::Range<usize>> = Vec::new();
    let mut readings = Readings::default();
    let (mut blasted, mut blast_time) = (0usize, Duration::ZERO);
    for _ in 0..cycles {
        // ---- Open loop at RATE, a re-optimization every REOPT_EVERY of
        // schedule (offset by half a period from the segment's start).
        let frames0 = rig.frames.len();
        rig.poll_journal();
        let lat0 = rig.reopt_ns.len();
        let before = Readings::now(&rig.reg);
        let start = Instant::now() + Duration::from_millis(5);
        let mut next_reopt = start + REOPT_EVERY / 2;
        let mut issued = 0;
        for j in 0..per_segment {
            let due = start + period * j as u32;
            while next_reopt <= due {
                sleep_until(next_reopt);
                rig.handle.reoptimize();
                reopt_issued.push(Instant::now());
                issued += 1;
                next_reopt += REOPT_EVERY;
            }
            sleep_until(due);
            let index = rig.sent;
            let sent = rig.send(&stream);
            samples.push(Sample { index, due, sent });
        }
        out.gate(rig.await_updates(rig.sent), "open-loop updates attributed");
        let done = rig.await_reopts(lat0 + issued);
        out.gate(done, "open-loop re-optimizations complete");
        readings.add(&before, &Readings::now(&rig.reg));
        open_frames.push(frames0..rig.frames.len());
        reopt_lat.extend(rig.reopt_ns[lat0..].iter().map(|&ns| ns as f64 / 1e6));

        // ---- Blasts, each on a freshly re-optimized table.
        for _ in 0..BLASTS {
            out.gate(
                rig.reoptimize_and_wait(),
                "pre-blast re-optimization completes",
            );
            let from = rig.sent;
            let t0 = Instant::now();
            for _ in 0..BLAST {
                rig.send(&stream);
            }
            if !rig.await_updates(from + BLAST) {
                out.gate(false, "blast attributed");
                break;
            }
            let last = rig.recv_of[from + BLAST - 1];
            blast_time += last.saturating_duration_since(t0);
            blasted += BLAST;
        }
        out.gate(
            rig.reoptimize_and_wait(),
            "post-blast re-optimization completes",
        );
    }

    // ---- Final re-optimization, then the agent must equal the daemon.
    rig.handle.reoptimize();
    let reg = rig.reg.clone();
    let sent = rig.sent;
    let attributed = rig.attrib.attributed();
    let bad_frames = rig.bad_frames;
    let journal_lost = rig.journal_lost;
    let recv_of = rig.recv_of.clone();
    let frame_size_of = rig.frame_size_of.clone();
    let (end, frames) = rig.tear_down();
    out.gate(end.tables_equal, "agent table equals the daemon's");
    out.gate(
        attributed == sent,
        format!("{attributed}/{sent} updates attributed"),
    );
    out.gate(
        bad_frames == 0,
        format!("{bad_frames} frames broke attribution or were rejected"),
    );
    for key in [
        "daemon.fastpath_failed.count",
        "daemon.reoptimize_failed.count",
        "daemon.channel_lost.count",
    ] {
        let n = counter(&reg, key);
        out.gate(n == 0, format!("{key} = {n}"));
    }
    out.gate(
        !journal_lost,
        "journal ring kept every entry until it was read",
    );
    out.gate(
        reopt_lat.len() == reopt_issued.len(),
        "one completion per open-loop re-optimization",
    );

    let recv = |s: &Sample| recv_of.get(s.index).copied().unwrap_or(s.due);
    let lat: Vec<f64> = samples.iter().map(|s| ms_between(s.due, recv(s))).collect();
    let lateness: Vec<f64> = samples.iter().map(|s| ms_between(s.due, s.sent)).collect();
    let n = lat.len();

    // Open-loop hygiene: no growing backlog across the run.
    let third = (n / 3).max(1);
    let early = median(&lat[..third]);
    let late = median(&lat[n - third..]);
    let backlog_ratio = ratio(late, early);
    out.gate(
        late <= 2.0 * early + 2.0,
        format!("open-loop backlog: late p50 {late:.3} ms vs early {early:.3} ms"),
    );

    out.attempted = sent as u64;
    out.failed += (sent - attributed.min(sent)) as u64;

    let lat_sorted = sorted(&lat);
    let p50 = quantile(&lat_sorted, 0.5);
    let p99 = quantile(&lat_sorted, 0.99);
    // Delivered rate pooled over every blast of the run.
    let saturation = ratio(blasted as f64, blast_time.as_secs_f64());
    let setup_s = median(&setups);
    let rss = peak_rss_mb();
    out.e2e.insert("latency_ms_p50", p50);
    out.e2e.insert("latency_ms_tail", p99);
    out.e2e.insert("throughput_per_s", saturation);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("peak_rss_mb", rss);

    let late_sorted = sorted(&lateness);
    out.detail("update_latency_ms_p50", p50, "ms");
    out.detail("update_latency_ms_p99", p99, "ms");
    out.detail("update_latency_samples", n as f64, "count");
    out.detail(
        "update_latency_beyond_p99",
        beyond(&lat_sorted, 0.99) as f64,
        "count",
    );
    out.detail("saturation_upd_s", saturation, "1/s");
    out.detail("saturation_blasts", (blasted / BLAST) as f64, "count");
    out.detail("setup_s", setup_s, "s");
    out.detail("peak_rss_mb", rss, "MB");
    out.detail(
        "generator_lateness_ms_p50",
        quantile(&late_sorted, 0.5),
        "ms",
    );
    out.detail(
        "generator_lateness_ms_p99",
        quantile(&late_sorted, 0.99),
        "ms",
    );
    out.detail("open_loop_backlog_ratio", backlog_ratio, "ratio");
    out.detail(
        "open_loop_rate_over_saturation",
        ratio(RATE, saturation),
        "ratio",
    );
    out.detail("reoptimize_ms_p50", median(&reopt_lat), "ms");
    out.detail("fresh_tags_per_update", stream.per_update as f64, "count");
    out.detail("announcer", f64::from(stream.cfg.id.0), "id");
    out.detail("final_rules", end.rules as f64, "count");

    // ---- Per-layer figures for the open-loop segments, from outside.
    let decision_ms = ratio(readings.decision.ms(), readings.decision.count as f64);
    let fp_total_ms = ratio(readings.fp_total.ms(), readings.fp_total.count as f64);
    // Queueing behind a re-optimization: an update due inside the
    // window [issued, issued + latency] waits until the window closes.
    let windows: Vec<(Instant, Instant)> = reopt_issued
        .iter()
        .zip(&reopt_lat)
        .map(|(&t, &l)| (t, t + Duration::from_secs_f64(l / 1e3)))
        .collect();
    let t_trace = Instant::now();
    let mut waits = Vec::with_capacity(n);
    let mut residuals = Vec::with_capacity(n);
    for (s, &e2e) in samples.iter().zip(&lat) {
        let r = recv(s);
        let wait = windows
            .iter()
            .find(|(a, b)| s.due < *b && r >= *a)
            .map_or(0.0, |&(a, b)| ms_between(s.due.max(a), b.min(r)));
        let k = frame_size_of.get(s.index).copied().unwrap_or(1) as f64;
        let lateness = ms_between(s.due, s.sent);
        let parts = [lateness, wait, decision_ms * k, fp_total_ms];
        residuals.push(crate::trace::residual(e2e, &parts));
        waits.push(wait);
        if tracer.enabled() {
            let ev = s.index as u64;
            let root = tracer.record(ev, "update", None, s.due, r);
            tracer.record(ev, "gen.lateness", root, s.due, s.sent);
            if wait > 0.0 {
                let w = Duration::from_secs_f64(wait / 1e3);
                tracer.record(ev, "daemon.reoptimize_wait", root, r - w, r);
            }
        }
    }
    let open: Vec<&FrameRec> = open_frames
        .iter()
        .flat_map(|range| &frames[range.start.min(frames.len())..range.end.min(frames.len())])
        .collect();
    if tracer.enabled() {
        for (i, f) in open.iter().enumerate() {
            let ev = (1 << 32) + i as u64;
            let (decoded, applied) = (f.recv + f.decode, f.recv + f.decode + f.apply);
            let root = tracer.record(ev, "agent.frame", None, f.recv, applied);
            tracer.record(ev, "agent.decode", root, f.recv, decoded);
            tracer.record(ev, "agent.apply", root, decoded, applied);
        }
    }
    let trace_work = t_trace.elapsed();
    let frame_mean =
        |pick: fn(&FrameRec) -> f64| mean(&open.iter().map(|f| pick(f)).collect::<Vec<_>>());
    let l = &mut out.layers;
    l.insert("gen.lateness_ms", mean(&lateness));
    l.insert("rs.decision_us", decision_ms * 1e3);
    l.insert("fastpath.update_us", per_op_us(readings.fp_update));
    l.insert("fastpath.apply_us", per_op_us(readings.fp_apply));
    l.insert("fastpath.total_us", fp_total_ms * 1e3);
    l.insert(
        "daemon.updates_per_compile",
        ratio(readings.updates as f64, readings.compiles as f64),
    );
    l.insert("daemon.reoptimize_ms", mean(&reopt_lat));
    l.insert("daemon.reoptimize_wait_ms", mean(&waits));
    l.insert("channel.frame_bytes", frame_mean(|f| f.bytes as f64));
    l.insert(
        "agent.decode_us",
        frame_mean(|f| f.decode.as_secs_f64() * 1e6),
    );
    l.insert(
        "agent.apply_us",
        frame_mean(|f| f.apply.as_secs_f64() * 1e6),
    );
    l.insert("open_loop.rate_over_saturation", ratio(RATE, saturation));
    l.insert("open_loop.backlog_ratio", backlog_ratio);
    l.insert("residual_ms", mean(&residuals));
    l.insert(
        "tracing_overhead",
        if tracer.enabled() {
            ratio(trace_work.as_secs_f64(), seconds as f64)
        } else {
            0.0
        },
    );
    out
}
