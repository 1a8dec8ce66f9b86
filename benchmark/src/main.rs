//! One measured run of the arrayflow benchmark.
//!
//! ```text
//! bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.sh` builds the `serve` binary and this program, then runs it
//! with `--serve-bin`. The workloads, and the reason for each, are
//! listed in `BENCHMARK.json`: `cold_batch` (engine batches that miss
//! every cache), `edit_session` (edit chains over open engine sessions),
//! `serve_mix` (a fixed request mix from four clients against one `serve`
//! node) and `serve_routed` (the same mix through a router in front of
//! three nodes). Every client runs a closed loop: its next operation
//! starts when the previous one has returned. The programs come from the
//! corpus EXPERIMENTS.md documents (see `corpus`) and derive from
//! `--seed` alone. A uniform sample of outputs is checked once the clock
//! stops (see `reference`).
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones: latency quantiles, throughput and set-up time,
//! each scaled to the reference core (see [`stats::REFERENCE_US`]). With
//! `--trace 1` the run ends with the per-layer ledger (see `ledger`) and
//! reports its metrics instead: unscaled layer times, the window's
//! unscaled median latency, and the calibration kernel's median time in
//! the window and before the workload started.

mod corpus;
mod ledger;
mod mix;
mod reference;
mod serve;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stats::Metric;

/// The command line of one run.
pub struct Args {
    /// Workload name, as listed in `BENCHMARK.json`.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Report the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// The `serve` executable the serving workloads start.
    pub serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: invalid number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(Duration::from_secs(number(&value)?)),
            "--trace" => trace = Some(number(&value)? != 0),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or_else(|| missing("--serve-bin"))?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    // Before any `serve` process starts: the host's own speed, to set
    // against the window's calibrations.
    let idle_kernel_us = stats::kernel_median(15);
    let run = match args.workload.as_str() {
        "cold_batch" => workloads::cold_batch(args)?,
        "edit_session" => workloads::edit_session(args)?,
        "serve_mix" => mix::serve(args, false)?,
        "serve_routed" => mix::serve(args, true)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let raw = run.window.raw_latencies();
    eprintln!(
        "afbench: unscaled: p50 {:.1} us, p90 {:.1} us, {:.2}/s; kernel {:.1} us in the window, {idle_kernel_us:.1} us before",
        stats::quantile(&raw, 0.5),
        stats::quantile(&raw, 0.9),
        run.window.raw_throughput(),
        run.window.kernel_median(),
    );
    let mut correct = run.correct;
    let metrics = if args.trace {
        let ledger = ledger::measure(&args.serve_bin, args.seed)?;
        correct &= ledger.correct;
        let mut metrics = ledger.metrics;
        // The in-process workloads have no serving queue of their own:
        // they report the ledger's sequential requests' wait.
        let queue_wait_us = run.queue_wait_us.unwrap_or_else(|| {
            metrics
                .iter()
                .find(|m| m.name == "queue_wait_us")
                .map_or(f64::NAN, |m| m.value)
        });
        metrics.extend([
            Metric::new("window_queue_wait_us", queue_wait_us, "us"),
            Metric::new("cache_hit_ratio", run.cache_hit_ratio, "ratio"),
            Metric::new("latency_p50_raw_us", stats::median(&raw), "us"),
            Metric::new("calibration_us", run.window.kernel_median(), "us"),
            Metric::new("calibration_idle_us", idle_kernel_us, "us"),
        ]);
        metrics
    } else {
        run.end_to_end()?
    };
    stats::result_line(correct, run.window.attempted, run.window.failed, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("afbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("afbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
