//! The repository benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rt-read|rt-write|sim-ycsb-c|sim-ycsb-f> --seed N --seconds S --trace <0|1>
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --all --seed N
//! ```
//!
//! Each run prints every metric it measured as `metric <name> <value>
//! <unit>` lines, then one JSON object as its last line: the gated
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed correctness check prints `correct: false` and
//! exits nonzero. `--all` runs every workload, each in its own process,
//! and writes their results to `.bench_work/results.json`. See
//! `perfbench/README.md` for the workload and metric catalogue.

mod common;
mod rt;
mod sim;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use stats::Outcome;

/// Workloads, in the order `--all` runs them. `BENCHMARK.json` gates
/// all but `sim-ycsb-f`, whose wall cost swings with each instance's
/// contention (see README.md).
const WORKLOADS: [&str; 4] = ["rt-read", "rt-write", "sim-ycsb-c", "sim-ycsb-f"];

/// End-to-end metrics gated on every workload (the last line with
/// `--trace 0`).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (the last line with `--trace 1`). A layer a
/// workload does not run reads 0 there.
const PER_LAYER: [(&str, &str); 29] = [
    ("rt.timer_overshoot_us_p50", "us"),
    ("rt.timer_overshoot_us_p99", "us"),
    ("rt.timers_per_op", "count"),
    ("rt.cpu_defers_per_op", "count"),
    ("rt.callbacks_per_op", "count"),
    ("rt.server_busy_frac", "ratio"),
    ("rt.client_busy_frac", "ratio"),
    ("codec.encode_ns_p50", "ns"),
    ("codec.decode_ns_p50", "ns"),
    ("codec.frames_per_op", "count"),
    ("codec.bytes_per_op", "bytes"),
    ("io.send_us_p50", "us"),
    ("server.self_us_per_op", "us"),
    ("engine.lock_to_commit_ms_p50", "ms"),
    ("wal.syncs_per_put", "count"),
    ("wal.appends_per_put", "count"),
    ("wal.fsync_us_p50", "us"),
    ("client.retries_per_op", "count"),
    ("client.failed.not_found", "count"),
    ("client.failed.put_rejected", "count"),
    ("client.failed.timeout", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.model_s", "s"),
    ("sim.op_cost_growth", "ratio"),
    ("engine.abort_ratio", "ratio"),
    ("engine.deadline_aborts_per_put", "count"),
    ("client.retry_wait_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25,
        trace: false,
        all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--all" {
            args.all = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.all && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Scratch space for WAL files and `--all` results, inside the checkout.
const WORK_DIR: &str = ".bench_work";

fn run_one(args: &Args) -> Outcome {
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let out = match args.workload.as_str() {
        "rt-read" => rt::run(rt::Mix::Read, args.seed, args.seconds, args.trace, &dir),
        "rt-write" => rt::run(rt::Mix::Write, args.seed, args.seconds, args.trace, &dir),
        "sim-ycsb-c" => sim::run(sim::Mix::C, args.seed, args.seconds, args.trace),
        _ => sim::run(sim::Mix::F, args.seed, args.seconds, args.trace),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR); // only if no other run uses it
    out
}

fn print(out: &Outcome, trace: bool) {
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "{}",
        out.json_line(if trace { &PER_LAYER } else { &END_TO_END })
    );
}

/// Every workload in its own process, untraced then traced; the last
/// lines of each are collected into one results file.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut rows = Vec::new();
    let mut ok = true;
    for wl in WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", wl, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()
                .expect("spawn workload process");
            let text = String::from_utf8_lossy(&output.stdout);
            println!("== {wl} --trace {trace}");
            print!("{text}");
            ok &= output.status.success();
            let last = text.lines().last().unwrap_or("{}");
            rows.push(format!(
                "  {{\"workload\": \"{wl}\", \"trace\": {trace}, \"result\": {last}}}"
            ));
        }
    }
    let doc = format!("[\n{}\n]\n", rows.join(",\n"));
    let path = Path::new(WORK_DIR).join("results.json");
    if std::fs::create_dir_all(WORK_DIR).is_ok() && std::fs::write(&path, doc).is_ok() {
        println!("# results written to {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let out = run_one(&args);
    print(&out, args.trace);
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
