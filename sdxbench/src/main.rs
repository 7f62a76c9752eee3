//! `sdxbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! sdxbench --workload <bgp_stream|churn_replay|forwarding> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, sets the system up several
//! times (reporting the median set-up time), measures for `--seconds`,
//! checks the program's outputs, and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around every call into the program and
//! reports the per-layer metrics instead, writing the spans to
//! `.bench_trace/<workload>-<seed>.jsonl`. See README.md.

mod attribution;
mod bgp_stream;
mod churn;
mod forwarding;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{detail_line, result_line, Outcome};
use trace::Tracer;

/// Topology seed of the measured exchanges. The exchanges are fixed
/// fixtures; `--seed` varies what is offered to them (update order and
/// paths, burst traces and push order, probe samples).
pub const EXCHANGE_SEED: u64 = 17;

/// The 50-participant exchange every workload runs on: 3000 prefixes,
/// the §6.1 policy mix over 800 of them.
pub fn ixp50() -> sdx_bench::Workbench {
    sdx_bench::Workbench::new(50, 3000, 800, EXCHANGE_SEED)
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut outcome: Outcome = match args.workload.as_str() {
        "bgp_stream" => bgp_stream::run(args.seed, args.seconds, &mut tracer),
        "churn_replay" => churn::run(args.seed, args.seconds, &mut tracer),
        "forwarding" => forwarding::run(args.seed, args.seconds, &mut tracer),
        other => {
            eprintln!("sdxbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for g in &outcome.gate_failures {
        eprintln!("sdxbench: correctness gate failed: {g}");
    }
    if tracer.enabled() {
        // Mean self time per span, by layer boundary.
        for (name, (self_ns, count)) in tracer.self_times() {
            outcome.detail(
                format!("self_ms.{name}"),
                self_ns as f64 / 1e6 / count as f64,
                "ms",
            );
        }
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("sdxbench: writing {}: {e}", path.display());
        }
    }
    println!("{}", detail_line(&args.workload, &outcome));
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
