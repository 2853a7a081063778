//! `sim-ycsb-c` / `sim-ycsb-f`: NICE (2PC + in-switch get load
//! balancing) on the packet simulator, in the paper's Figure 12
//! deployment — 15 storage nodes, R=3, 10 clients, 1000 zipf records of
//! 1 KiB.
//!
//! A run repeats one fixed-size repetition (cluster build, preload,
//! barrier, measured ops) until `--seconds` have passed. Repetition `k`
//! is seeded from `(seed, k)`, so a run samples several independent
//! instances of the workload. `ops_per_s` and `events_per_s` are totals
//! over every repetition's measured phase and `setup_s` is the median
//! set-up. On a host whose speed swings by a third within seconds, the
//! total spread about as little across seeds as any estimator tried, and
//! less than the median of per-repetition rates (see README.md). The simulated (`model_*`) figures and
//! `failed_frac` come from repetition 0's client records and repeat
//! exactly for a seed.

use std::time::{Duration, Instant};

use kv_core::{ClientOp, MetricsRegistry, Value};
use nice_kv::{ClientApp, ClusterCfg, NiceCluster, PutMode};
use nice_sim::Time;
use nice_workload::{OpKind, Workload, WorkloadRun, XorShiftRng};

use crate::common::{report_engine_client, OpSummary, Parity};
use crate::stats::{median, peak_rss_mb, Outcome};

const SERVERS: usize = 15;
const REPLICATION: usize = 3;
const CLIENTS: usize = 10;
const RECORDS: u64 = 1000;
/// The simulator is stepped in windows of this much simulated time, the
/// same step `NiceCluster::run_until_done` takes.
const STEP: Time = Time::from_ms(10);
/// Simulated-time budget for one phase to drain.
const DRAIN_LIMIT: Time = Time::from_secs(3600);

/// Which YCSB mix the measured ops follow.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Read-only.
    C,
    /// Read-modify-write.
    F,
}

impl Mix {
    /// Measured ops per client per repetition.
    fn ops_per_client(self) -> usize {
        match self {
            Mix::C => 1000,
            Mix::F => 500,
        }
    }

    fn workload(self) -> Workload {
        match self {
            Mix::C => Workload::c(RECORDS),
            Mix::F => Workload::f(RECORDS),
        }
    }
}

/// One repetition's measurements.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    events: u64,
    summary: OpSummary,
    parity: Parity,
    before: MetricsRegistry,
    after: MetricsRegistry,
    /// Traced repetitions: per step, wall nanoseconds and measured ops
    /// completed by its end.
    steps: Vec<(u64, u64)>,
}

/// The seeded measured ops of client `j`.
fn client_ops(mix: Mix, seed: u64, j: usize) -> Vec<ClientOp> {
    let wl = mix.workload();
    let n = mix.ops_per_client();
    let mut rng = XorShiftRng::seed_from_u64(seed ^ (0x5EED_0000 + j as u64));
    let mut gen = WorkloadRun::new(wl.clone());
    let mut ops = Vec::with_capacity(n + 1);
    while ops.len() < n {
        for op in gen.next_ops(&mut rng) {
            ops.push(match op.kind {
                OpKind::Get => ClientOp::Get { key: op.key },
                OpKind::Put => ClientOp::Put {
                    key: op.key,
                    value: Value::synthetic(op.size),
                },
            });
        }
    }
    ops
}

fn done_ops(c: &NiceCluster, base: &[usize]) -> u64 {
    (0..CLIENTS)
        .map(|j| (c.client(j).records.len() - base[j]) as u64)
        .sum()
}

/// Build, preload and measure once. `traced` times every simulator step
/// from outside; otherwise the phase runs through `run_until_done`.
fn rep(mix: Mix, seed: u64, traced: bool, out: &mut Outcome) -> Rep {
    let wl = mix.workload();
    let t0 = Instant::now();
    let mut preload: Vec<Vec<ClientOp>> = vec![Vec::new(); CLIENTS];
    for i in 0..RECORDS {
        preload[(i % CLIENTS as u64) as usize].push(ClientOp::Put {
            key: wl.key(i),
            value: Value::synthetic(wl.object_size),
        });
    }
    let mut cfg = ClusterCfg::new(SERVERS, REPLICATION, preload);
    cfg.spec.seed = seed;
    cfg.kv.put_mode = PutMode::TwoPc;
    cfg.kv.load_balancing = true;
    let mut c = NiceCluster::build(cfg);
    let limit = c.sim.now() + DRAIN_LIMIT;
    out.check(c.run_until_done(limit), || {
        "sim preload did not drain".into()
    });
    let setup_s = t0.elapsed().as_secs_f64();

    // Barrier passed: every client drained its preload.
    let before = c.metrics();
    let base: Vec<usize> = (0..CLIENTS).map(|j| c.client(j).records.len()).collect();
    for j in 0..CLIENTS {
        let ops = client_ops(mix, seed, j);
        let host = c.clients[j];
        c.sim.app_mut::<ClientApp>(host).push_ops(ops);
    }
    let limit = c.sim.now() + DRAIN_LIMIT;
    let ev0 = c.sim.events_processed();
    let mut steps = Vec::new();
    let mut wall = Duration::ZERO;
    if traced {
        loop {
            if (0..CLIENTS).all(|j| c.client(j).done_at.is_some()) {
                break;
            }
            if c.sim.now() >= limit {
                out.problems.push("sim measured ops did not drain".into());
                break;
            }
            let step = STEP.min(limit - c.sim.now());
            let w0 = Instant::now();
            c.sim.run_for(step);
            let dt = w0.elapsed();
            wall += dt;
            steps.push((dt.as_nanos() as u64, done_ops(&c, &base)));
        }
    } else {
        let w0 = Instant::now();
        let drained = c.run_until_done(limit);
        wall = w0.elapsed();
        out.check(drained, || "sim measured ops did not drain".into());
    }
    let events = c.sim.events_processed() - ev0;
    let after = c.metrics();

    let records: Vec<_> = (0..CLIENTS)
        .flat_map(|j| c.client(j).records[base[j]..].to_vec())
        .collect();
    let summary = OpSummary::of(&records);
    check_replicas(&c, &wl, out);
    let parity = Parity::of(summary.ops, &before, &after);
    Rep {
        setup_s,
        wall_s: wall.as_secs_f64(),
        events,
        summary,
        parity,
        before,
        after,
        steps,
    }
}

/// Every record is held by at least `REPLICATION` servers, and every
/// serving member of its partition's current view that holds it has the
/// same committed timestamp. Members may lack a record: under contention
/// the metadata service can mark nodes failed and add handoffs, which
/// receive only later writes.
fn check_replicas(c: &NiceCluster, wl: &Workload, out: &mut Outcome) {
    let meta = c.meta_app();
    for i in 0..RECORDS {
        let key = wl.key(i);
        let Some(view) = meta.view(c.partition_of_key(&key)) else {
            out.problems
                .push(format!("key {key}: partition has no view"));
            return;
        };
        let holders = (0..SERVERS)
            .filter(|&s| c.server(s).store().get(&key).is_some())
            .count();
        let held: Vec<_> = view
            .members
            .iter()
            .filter(|(n, _)| !view.syncing.contains(n))
            .filter_map(|(n, _)| {
                c.server(n.0 as usize)
                    .store()
                    .get(&key)
                    .map(|v| (n.0, v.ts))
            })
            .collect();
        let agree = !held.is_empty() && held.iter().all(|(_, ts)| *ts == held[0].1);
        out.check(agree && holders >= REPLICATION, || {
            format!("key {key}: {holders} holders; view members hold {held:?}")
        });
        if !out.problems.is_empty() {
            return;
        }
    }
}

/// The seed of repetition `k`.
fn rep_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64
}

fn ops_per_s(r: &Rep) -> f64 {
    r.summary.ops as f64 / r.wall_s.max(1e-9)
}

/// Measured ops of every repetition over their summed wall time.
fn total_ops_per_s(reps: &[Rep]) -> f64 {
    let ops: u64 = reps.iter().map(|r| r.summary.ops).sum();
    let wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    ops as f64 / wall.max(1e-9)
}

/// Wall µs per op over the last tenth of the measured ops ÷ the first
/// tenth, from a traced repetition's steps.
fn op_cost_growth(steps: &[(u64, u64)]) -> f64 {
    let Some(&(_, total)) = steps.last() else {
        return 0.0;
    };
    let tenth = (total / 10).max(1);
    let cost = |lo: u64, hi: u64| {
        // Steps whose completions fall in (lo, hi]: their wall time and
        // the ops they finished.
        let (mut ns, mut ops, mut prev) = (0u64, 0u64, 0u64);
        for &(dt, done) in steps {
            if done > lo && prev < hi {
                ns += dt;
                ops += done.min(hi) - prev.max(lo);
            }
            prev = done;
        }
        ns as f64 / ops.max(1) as f64
    };
    cost(total - tenth, total) / cost(0, tenth).max(1.0)
}

pub fn run(mix: Mix, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut rss_mb = 0.0;
    // Untraced runs take at least three repetitions, so each median has
    // a middle, unless a few contention-heavy ones already took four
    // times the budget.
    let min_reps = if trace { 1 } else { 3 };
    while start.elapsed() < budget || (plain.len() < min_reps && start.elapsed() < 4 * budget) {
        let k_seed = rep_seed(seed, plain.len());
        plain.push(rep(mix, k_seed, false, &mut out));
        if plain.len() == 1 {
            // Memory over a fixed amount of work: repetition 0.
            rss_mb = peak_rss_mb();
        }
        if trace {
            let t = rep(mix, k_seed, true, &mut out);
            let p = plain.last().expect("just pushed");
            out.check(t.summary == p.summary && t.parity == p.parity, || {
                format!(
                    "traced repetition diverged: {:?} vs {:?}",
                    t.parity, p.parity
                )
            });
            traced.push(t);
        }
        if !out.problems.is_empty() {
            break;
        }
    }

    let first = &plain[0];
    let s = &first.summary;
    out.attempted = plain.iter().map(|r| r.summary.ops).sum();
    out.failed = plain.iter().map(|r| r.summary.failed).sum();
    out.notes.push(format!(
        "{} repetitions; repetition 0: {} measured ops ({} puts), {} events",
        plain.len(),
        s.ops,
        s.puts,
        first.events
    ));

    let tputs: Vec<f64> = plain.iter().map(ops_per_s).collect();
    let plain_tput = total_ops_per_s(&plain);
    let listed: Vec<String> = tputs.iter().map(|t| format!("{t:.0}")).collect();
    out.notes
        .push(format!("per-repetition ops/s: {}", listed.join(" ")));
    out.put(
        "setup_s",
        median(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        "s",
    );
    out.put("ops_per_s", plain_tput, "1/s");
    out.put("peak_rss_mb", rss_mb, "MiB");
    out.put(
        "failed_frac",
        s.failed as f64 / s.ops.max(1) as f64,
        "ratio",
    );
    let wall: f64 = plain.iter().map(|r| r.wall_s).sum();
    let events: u64 = plain.iter().map(|r| r.events).sum();
    out.put("events_per_s", events as f64 / wall.max(1e-9), "1/s");
    out.put("model_ops_per_s", s.ops_per_s(), "1/s");
    s.report_latency(&mut out, "model_get", false, "us");
    s.report_latency(&mut out, "model_put", true, "us");

    if trace {
        let t = &traced[0];
        let wall: f64 = traced.iter().map(|r| r.wall_s).sum();
        let events: u64 = traced.iter().map(|r| r.events).sum();
        out.put("sim.ns_per_event", wall * 1e9 / events.max(1) as f64, "ns");
        out.put(
            "sim.events_per_op",
            t.events as f64 / s.ops.max(1) as f64,
            "count",
        );
        out.put("sim.model_s", s.window_ns as f64 / 1e9, "s");
        out.put(
            "sim.op_cost_growth",
            median(
                &traced
                    .iter()
                    .map(|r| op_cost_growth(&r.steps))
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        );
        let traced_tput = total_ops_per_s(&traced);
        out.put(
            "trace.overhead_frac",
            1.0 - traced_tput / plain_tput,
            "ratio",
        );
        report_engine_client(&mut out, s, &t.before, &t.after);
    }
    out
}
