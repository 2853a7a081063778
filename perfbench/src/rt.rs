//! `rt-read` / `rt-write`: NOOB on the loopback UDP runtime — 3 servers,
//! R=3, 2PC, direct replica-aware clients with gets balanced over
//! replicas (Figure 12's NOOB-2PC row), an fsync'd `FileWal` per server,
//! and 2 closed-loop clients over 200 uniform keys with 1 KiB values.
//!
//! Set-up (cluster boot, WAL open, 200-put preload) ends at a barrier:
//! every client has drained its preload. Measured ops are then queued in
//! chunks that keep each client's queue non-empty until `--seconds` have
//! passed; the window runs from the first measured op's start to the
//! last one's end on the client clock.
//!
//! The untraced run boots the cluster through `RealNoobCluster::build`.
//! The traced run assembles the same cluster from the same public
//! constructors, with every node's app, host calls and the frame codec
//! wrapped by [`crate::trace`], and must reproduce the untraced run's
//! exact counts on the same seed and op lists.

use std::any::Any;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kv_core::{
    DurableLog, FileWal, History, KvClient as _, MetricsRegistry, OpRecord, Outcome as HistOutcome,
    RetryPolicy, Telemetry, Timestamp, Value, WalRecord, MAX_OPS_PER_KEY,
};
use nice_noob::real::{client_ip, server_ip};
use nice_noob::{
    ClientRoute, NoobClientApp, NoobCodec, NoobMode, NoobRing, NoobServerApp, RealNoobCfg,
    RealNoobCluster, RealOp,
};
use nice_ring::{NodeIdx, PhysicalRing};
use nice_transport::TpCodec;
use nice_workload::{Rng, XorShiftRng};
use node_rt::{Ipv4, NodeSpec, RuntimeCfg, Time, UdpRuntime};

use crate::common::{report_engine_client, OpSummary, Parity};
use crate::stats::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::{NodeTrace, Traced, TracedCodec};

const SERVERS: usize = 3;
const REPLICATION: usize = 3;
const CLIENTS: usize = 2;
const KEYS: u64 = 200;
const VALUE_BYTES: usize = 1024;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A client's queue is topped up by `CHUNK` ops whenever fewer than
/// `LOW` of its ops are outstanding.
const LOW: usize = 16;
const CHUNK: usize = 32;
/// Longest the clients may go without completing an op before the run
/// counts as stuck.
const STALL_LIMIT: Duration = Duration::from_secs(60);
/// `peak_rss_mb` is read once this many measured ops are done, so it
/// covers a fixed amount of work however fast the system runs.
const RSS_AT_OPS: usize = 1000;
/// fsync probes behind `wal.fsync_us_p50`.
const FSYNC_PROBES: usize = 200;

/// Which op mix the measured ops follow.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// 95% get / 5% put.
    Read,
    /// 90% put / 10% get.
    Write,
}

impl Mix {
    fn put_frac(self) -> f64 {
        match self {
            Mix::Read => 0.05,
            Mix::Write => 0.90,
        }
    }
}

/// Client `j`'s seeded op stream. Every put writes bytes no other put
/// writes, so the history checker can tell which put a get observed.
struct Gen {
    rng: XorShiftRng,
    put_frac: f64,
    client: usize,
    puts: u64,
}

impl Gen {
    fn new(mix: Mix, seed: u64, client: usize) -> Gen {
        Gen {
            rng: XorShiftRng::seed_from_u64(seed ^ (0xB0B0_0000 + client as u64)),
            put_frac: mix.put_frac(),
            client,
            puts: 0,
        }
    }

    fn put(&mut self, key: String) -> RealOp {
        self.puts += 1;
        let mut bytes = format!("c{}-p{};", self.client, self.puts).into_bytes();
        bytes.resize(VALUE_BYTES, 0xA5);
        RealOp::Put { key, bytes }
    }

    /// This client's share of the preload: every `CLIENTS`-th key.
    fn preload(&mut self) -> Vec<RealOp> {
        let client = self.client;
        (0..KEYS)
            .filter(|k| *k as usize % CLIENTS == client)
            .map(|k| self.put(format!("k{k}")))
            .collect()
    }

    fn next(&mut self) -> RealOp {
        let key = format!("k{}", self.rng.random_range(0..KEYS));
        if self.rng.random_f64() < self.put_frac {
            self.put(key)
        } else {
            RealOp::Get { key }
        }
    }
}

/// What the measurement loop needs from a running cluster, traced or not.
trait Cluster {
    fn push(&self, j: usize, ops: Vec<RealOp>);
    fn completed(&self, j: usize) -> usize;
    fn records(&self, j: usize) -> Vec<OpRecord>;
    fn history(&self) -> History;
    fn metrics(&self) -> MetricsRegistry;
}

impl Cluster for RealNoobCluster {
    fn push(&self, j: usize, ops: Vec<RealOp>) {
        self.push_client_ops(j, ops);
    }
    fn completed(&self, j: usize) -> usize {
        self.client_completed(j)
    }
    fn records(&self, j: usize) -> Vec<OpRecord> {
        self.client_records(j)
    }
    fn history(&self) -> History {
        RealNoobCluster::history(self)
    }
    fn metrics(&self) -> MetricsRegistry {
        RealNoobCluster::metrics(self)
    }
}

fn cfg(seed: u64, wal_root: &Path) -> RealNoobCfg {
    let mut cfg = RealNoobCfg::new(SERVERS, REPLICATION, vec![Vec::new(); CLIENTS]);
    cfg.spec.seed = seed;
    cfg.mode = NoobMode::TwoPc;
    cfg.gateway = None;
    cfg.lb_gets = true;
    cfg.host.wal_root = Some(wal_root.to_path_buf());
    cfg
}

/// The traced twin of `RealNoobCluster::build` for [`cfg`]'s shape.
struct TracedCluster {
    runtime: UdpRuntime,
    active: Arc<AtomicBool>,
    codec: Arc<TracedCodec<TpCodec<NoobCodec>>>,
    servers: Vec<Arc<Mutex<NodeTrace>>>,
    clients: Vec<Arc<Mutex<NodeTrace>>>,
}

impl TracedCluster {
    fn build(cfg: RealNoobCfg) -> TracedCluster {
        let spec = cfg.spec;
        let server_ips: Vec<Ipv4> = (0..spec.nodes).map(server_ip).collect();
        let ring = NoobRing {
            ring: PhysicalRing::new(
                spec.partition_count(),
                (0..spec.nodes as u32).map(NodeIdx).collect(),
                spec.replication,
            ),
            addrs: server_ips.clone(),
            port: 9000,
        };
        let active = Arc::new(AtomicBool::new(false));
        let codec = Arc::new(TracedCodec::new(
            TpCodec::new(NoobCodec),
            Arc::clone(&active),
        ));
        let mut rt_cfg = RuntimeCfg::new(spec.seed, codec.clone());
        rt_cfg.host = cfg.host.clone();
        let wal_root = cfg
            .host
            .wal_root
            .clone()
            .expect("benchmark servers have a WAL");
        let (mut specs, mut servers, mut clients) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &ip) in server_ips.iter().enumerate() {
            let (ring, root) = (ring.clone(), wal_root.clone());
            let (mode, storage, telemetry) = (cfg.mode, spec.storage, spec.telemetry);
            let trace = Arc::new(Mutex::new(NodeTrace::default()));
            let (t, on) = (Arc::clone(&trace), Arc::clone(&active));
            specs.push(NodeSpec::new(ip, move || {
                let app = NoobServerApp::with_wal(
                    ring.clone(),
                    NodeIdx(i as u32),
                    mode,
                    storage,
                    telemetry,
                    &root,
                );
                Box::new(Traced::new(app, Arc::clone(&t), Arc::clone(&on)))
            }));
            servers.push(trace);
        }
        let route = ClientRoute::Direct {
            lb_gets: cfg.lb_gets,
        };
        let retry = spec
            .retry
            .unwrap_or_else(|| RetryPolicy::fixed(Time::from_ms(500)));
        for j in 0..cfg.client_ops.len() {
            let ring = ring.clone();
            let (op_deadline, telemetry) = (spec.op_deadline, spec.telemetry);
            let trace = Arc::new(Mutex::new(NodeTrace::default()));
            let (t, on) = (Arc::clone(&trace), Arc::clone(&active));
            specs.push(NodeSpec::new(client_ip(j), move || {
                let mut app = NoobClientApp::new(ring.clone(), route, Vec::new(), Time::from_ms(5));
                app.retry = retry;
                app.op_deadline = op_deadline;
                app.tel = Telemetry::new(&telemetry);
                Box::new(Traced::new(app, Arc::clone(&t), Arc::clone(&on)))
            }));
            clients.push(trace);
        }
        TracedCluster {
            runtime: UdpRuntime::spawn(rt_cfg, specs),
            active,
            codec,
            servers,
            clients,
        }
    }

    fn with_client<R: Send + 'static>(
        &self,
        j: usize,
        f: impl FnOnce(&mut NoobClientApp) -> R + Send + 'static,
    ) -> R {
        self.runtime.with(client_ip(j), move |app| {
            let any: &mut dyn Any = app;
            let t = any
                .downcast_mut::<Traced<NoobClientApp>>()
                .expect("node hosts a traced NoobClientApp");
            f(&mut t.app)
        })
    }
}

impl Cluster for TracedCluster {
    fn push(&self, j: usize, ops: Vec<RealOp>) {
        self.with_client(j, move |c| {
            c.core_mut().push_ops(ops.into_iter().map(|op| match op {
                RealOp::Put { key, bytes } => kv_core::ClientOp::Put {
                    key,
                    value: Value::from_bytes(bytes),
                },
                RealOp::Get { key } => kv_core::ClientOp::Get { key },
            }));
        });
    }
    fn completed(&self, j: usize) -> usize {
        self.with_client(j, |c| c.completed())
    }
    fn records(&self, j: usize) -> Vec<OpRecord> {
        self.with_client(j, |c| c.records.clone())
    }
    fn history(&self) -> History {
        let mut history = History::new();
        for j in 0..CLIENTS {
            let ip = client_ip(j);
            history.merge(self.with_client(j, move |c| {
                let mut h = History::new();
                h.record_client(ip, c.core());
                h
            }));
        }
        history
    }
    fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for i in 0..SERVERS {
            m.merge(&self.runtime.with(server_ip(i), |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<Traced<NoobServerApp>>()
                    .expect("node hosts a traced NoobServerApp")
                    .app
                    .metrics()
            }));
        }
        for j in 0..CLIENTS {
            m.merge(&self.with_client(j, |c| c.metrics()));
        }
        m
    }
}

/// A cluster past its preload barrier.
struct Ready<C> {
    cluster: C,
    gens: Vec<Gen>,
    /// Records per client at the barrier (the preload).
    base: Vec<usize>,
    setup_s: f64,
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create WAL directory");
}

/// Boot, preload, and wait for every client to drain its preload.
fn setup<C: Cluster>(
    mix: Mix,
    seed: u64,
    dir: &Path,
    boot: impl FnOnce(RealNoobCfg) -> C,
    out: &mut Outcome,
) -> Ready<C> {
    let t0 = Instant::now();
    fresh_dir(dir);
    let cluster = boot(cfg(seed, dir));
    let mut gens: Vec<Gen> = (0..CLIENTS).map(|j| Gen::new(mix, seed, j)).collect();
    let mut want = Vec::new();
    for (j, g) in gens.iter_mut().enumerate() {
        let ops = g.preload();
        want.push(ops.len());
        cluster.push(j, ops);
    }
    let deadline = Instant::now() + STALL_LIMIT;
    let mut base = vec![0; CLIENTS];
    loop {
        for (j, b) in base.iter_mut().enumerate() {
            *b = cluster.completed(j);
        }
        if base.iter().zip(&want).all(|(b, w)| b >= w) {
            break;
        }
        if Instant::now() > deadline {
            out.problems.push("rt preload did not drain".into());
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ready {
        cluster,
        gens,
        base,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// When the measured pushes stop.
enum Stop {
    /// After this long (then every client's outstanding work is evened
    /// out so they finish together).
    After(Duration),
    /// At exactly these per-client op counts.
    Counts(Vec<usize>),
}

/// Queue measured ops until `stop`, wait for them to drain, and return
/// how many each client ran and the peak memory after `RSS_AT_OPS` ops.
fn drive<C: Cluster>(r: &mut Ready<C>, stop: &Stop, out: &mut Outcome) -> (Vec<usize>, f64) {
    let start = Instant::now();
    let mut rss = None;
    let mut pushed = vec![0usize; CLIENTS];
    let mut caps: Option<Vec<usize>> = match stop {
        Stop::After(_) => None,
        Stop::Counts(v) => Some(v.clone()),
    };
    let (mut progress, mut last_total) = (Instant::now(), 0);
    loop {
        let done: Vec<usize> = (0..CLIENTS)
            .map(|j| r.cluster.completed(j) - r.base[j])
            .collect();
        let total: usize = done.iter().sum();
        if total > last_total {
            (progress, last_total) = (Instant::now(), total);
        } else if progress.elapsed() > STALL_LIMIT {
            out.problems.push("rt measured ops stalled".into());
            break;
        }
        if rss.is_none() && total >= RSS_AT_OPS {
            rss = Some(peak_rss_mb());
        }
        if caps.is_none() && matches!(stop, Stop::After(d) if start.elapsed() >= *d) {
            // Even out the outstanding work so no client runs alone at
            // the end of the window.
            let most = (0..CLIENTS).map(|j| pushed[j] - done[j]).max().unwrap_or(0);
            caps = Some((0..CLIENTS).map(|j| done[j] + most).collect());
        }
        if caps
            .as_ref()
            .is_some_and(|c| (0..CLIENTS).all(|j| done[j] >= c[j]))
        {
            break;
        }
        for j in 0..CLIENTS {
            let cap = caps.as_ref().map_or(usize::MAX, |c| c[j]);
            let n = if caps.is_some() {
                cap - pushed[j]
            } else if pushed[j] - done[j] < LOW {
                CHUNK
            } else {
                0
            };
            if n > 0 {
                let ops = (0..n).map(|_| r.gens[j].next()).collect();
                r.cluster.push(j, ops);
                pushed[j] += n;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    (pushed, rss.unwrap_or_else(peak_rss_mb))
}

/// Ops invoked before the first point where some key would carry more
/// ops than the checker's cap. Ops still open at that point become
/// indeterminate puts or are dropped (gets), which only relaxes the
/// check, so a linearizable history always passes.
fn checkable_prefix(mut h: History) -> History {
    h.ops.sort_by_key(|o| (o.invoke, o.client.0, o.seq));
    let mut per_key: BTreeMap<String, usize> = BTreeMap::new();
    let cut = h.ops.iter().find_map(|o| {
        let n = per_key.entry(o.key.clone()).or_default();
        *n += 1;
        (*n > MAX_OPS_PER_KEY).then_some(o.invoke)
    });
    if let Some(t) = cut {
        h.ops
            .retain(|o| o.invoke < t && (o.is_put || o.complete.is_some_and(|c| c <= t)));
        for o in &mut h.ops {
            if o.complete.is_none_or(|c| c > t) {
                o.complete = None;
                o.outcome = HistOutcome::Maybe;
            }
        }
    }
    h
}

/// One measured pass: the records of its measured ops, registry
/// snapshots at the barrier and at the end, and the correctness checks.
struct Pass {
    summary: OpSummary,
    pushed: Vec<usize>,
    rss_mb: f64,
    before: MetricsRegistry,
    after: MetricsRegistry,
    wall: Duration,
}

fn measure<C: Cluster>(
    r: &mut Ready<C>,
    stop: &Stop,
    activate: impl Fn(bool),
    out: &mut Outcome,
) -> Pass {
    let before = r.cluster.metrics();
    activate(true);
    let t0 = Instant::now();
    let (pushed, rss_mb) = drive(r, stop, out);
    let wall = t0.elapsed();
    activate(false);
    let after = r.cluster.metrics();

    let mut measured = Vec::new();
    for j in 0..CLIENTS {
        let recs = r.cluster.records(j);
        let failed = recs.iter().filter(|x| !x.ok()).count();
        out.check(failed == 0, || format!("client {j}: {failed} failed ops"));
        measured.extend(recs.into_iter().skip(r.base[j]));
    }
    let t_check = Instant::now();
    let history = checkable_prefix(r.cluster.history());
    let violations = history.check();
    let check_s = t_check.elapsed().as_secs_f64();
    out.check(violations.is_empty(), || {
        format!("linearizability: {}", violations[0])
    });
    let checked = history.ops.len();
    out.notes.push(format!(
        "measured pass {:.3} s; linearizability checked over {checked} ops \
         (cap {MAX_OPS_PER_KEY} per key) in {check_s:.3} s",
        wall.as_secs_f64()
    ));
    Pass {
        summary: OpSummary::of(&measured),
        pushed,
        rss_mb,
        before,
        after,
        wall,
    }
}

fn report_e2e(out: &mut Outcome, pass: &Pass, setups: &[f64]) {
    let s = &pass.summary;
    out.put("setup_s", median(setups), "s");
    out.put("ops_per_s", s.ops_per_s(), "1/s");
    out.put("peak_rss_mb", pass.rss_mb, "MiB");
    out.put(
        "failed_frac",
        s.failed as f64 / s.ops.max(1) as f64,
        "ratio",
    );
    s.report_latency(out, "get", false, "ms");
    s.report_latency(out, "put", true, "ms");
}

/// Median wall time of `sync` after appending one workload-sized record
/// to a fresh `FileWal` in the WAL root's filesystem.
fn fsync_us_p50(dir: &Path) -> f64 {
    let root = dir.join("fsync-probe");
    fresh_dir(&root);
    let (mut wal, _) = FileWal::open(&root.join("probe.wal")).expect("open probe WAL");
    let client = Ipv4::new(10, 0, 1, 1);
    let mut samples = Vec::with_capacity(FSYNC_PROBES);
    for n in 0..FSYNC_PROBES as u64 {
        wal.append(&WalRecord::Apply {
            key: format!("k{}", n % KEYS),
            value: Value::from_bytes(vec![0xA5; VALUE_BYTES]),
            ts: Timestamp {
                primary_seq: n,
                primary: server_ip(0),
                client_seq: n,
                client,
            },
        });
        let t0 = Instant::now();
        assert!(wal.sync(), "probe WAL sync failed");
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    quantile(&samples, 1, 2) as f64 / 1e3
}

pub fn run(mix: Mix, seed: u64, seconds: u64, trace: bool, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let window = Stop::After(Duration::from_secs(seconds));
    let boot = |cfg: RealNoobCfg| RealNoobCluster::build(cfg);

    if !trace {
        let mut setups = Vec::new();
        let mut ready = None;
        for _ in 0..SETUPS {
            drop(ready.take()); // shut the previous cluster down first
            let r = setup(mix, seed, dir, boot, &mut out);
            setups.push(r.setup_s);
            ready = Some(r);
        }
        let listed: Vec<String> = setups.iter().map(|t| format!("{t:.3}")).collect();
        out.notes.push(format!("set-ups (s): {}", listed.join(" ")));
        let mut r = ready.expect("at least one set-up");
        let pass = measure(&mut r, &window, |_| {}, &mut out);
        drop(r);
        out.attempted = pass.summary.ops;
        out.failed = pass.summary.failed;
        report_e2e(&mut out, &pass, &setups);
        return out;
    }

    // Untraced pass, then the traced assembly over the same op lists.
    let mut r = setup(mix, seed, dir, boot, &mut out);
    let plain = measure(&mut r, &window, |_| {}, &mut out);
    drop(r);
    let mut r = setup(mix, seed, dir, TracedCluster::build, &mut out);
    let active = Arc::clone(&r.cluster.active);
    let counts = Stop::Counts(plain.pushed.clone());
    let traced = measure(
        &mut r,
        &counts,
        |on| active.store(on, Ordering::Relaxed),
        &mut out,
    );
    out.attempted = traced.summary.ops;
    out.failed = traced.summary.failed;
    report_e2e(&mut out, &plain, &[r.setup_s]);

    let p0 = Parity::of(plain.summary.ops, &plain.before, &plain.after);
    let p1 = Parity::of(traced.summary.ops, &traced.before, &traced.after);
    out.check(p0 == p1, || {
        format!("traced run diverged from untraced: {p1:?} vs {p0:?}")
    });
    out.notes.push(format!("exact counts (both runs): {p0:?}"));

    let s = &traced.summary;
    let ops = s.ops.max(1) as f64;
    let sum = |ts: &[Arc<Mutex<NodeTrace>>], f: &dyn Fn(&NodeTrace) -> u64| -> u64 {
        ts.iter().map(|t| f(&t.lock().expect("trace lock"))).sum()
    };
    let all: Vec<_> = r
        .cluster
        .servers
        .iter()
        .chain(&r.cluster.clients)
        .cloned()
        .collect();
    let samples = |f: &dyn Fn(&NodeTrace) -> &Vec<u64>| -> Vec<u64> {
        all.iter()
            .flat_map(|t| f(&t.lock().expect("trace lock")).clone())
            .collect()
    };
    let overshoot = samples(&|t| &t.overshoot_ns);
    out.put(
        "rt.timer_overshoot_us_p50",
        quantile(&overshoot, 1, 2) as f64 / 1e3,
        "us",
    );
    out.put(
        "rt.timer_overshoot_us_p99",
        quantile(&overshoot, 99, 100) as f64 / 1e3,
        "us",
    );
    out.put(
        "rt.timers_per_op",
        sum(&all, &|t| t.timers) as f64 / ops,
        "count",
    );
    out.put(
        "rt.cpu_defers_per_op",
        sum(&all, &|t| t.cpu_defers) as f64 / ops,
        "count",
    );
    out.put(
        "rt.callbacks_per_op",
        sum(&all, &|t| t.callbacks) as f64 / ops,
        "count",
    );
    let span_ns = traced.wall.as_nanos() as f64;
    let server_busy = sum(&r.cluster.servers, &|t| t.busy_ns);
    out.put(
        "rt.server_busy_frac",
        server_busy as f64 / (SERVERS as f64 * span_ns),
        "ratio",
    );
    out.put(
        "rt.client_busy_frac",
        sum(&r.cluster.clients, &|t| t.busy_ns) as f64 / (CLIENTS as f64 * span_ns),
        "ratio",
    );
    {
        let c = r.cluster.codec.trace.lock().expect("codec trace lock");
        out.put(
            "codec.encode_ns_p50",
            quantile(&c.encode_ns, 1, 2) as f64,
            "ns",
        );
        out.put(
            "codec.decode_ns_p50",
            quantile(&c.decode_ns, 1, 2) as f64,
            "ns",
        );
        out.put(
            "codec.frames_per_op",
            c.encode_ns.len() as f64 / ops,
            "count",
        );
        out.put("codec.bytes_per_op", c.bytes as f64 / ops, "bytes");
    }
    out.put(
        "io.send_us_p50",
        quantile(&samples(&|t| &t.send_ns), 1, 2) as f64 / 1e3,
        "us",
    );
    let server_send = sum(&r.cluster.servers, &|t| t.send_total_ns);
    out.put(
        "server.self_us_per_op",
        server_busy.saturating_sub(server_send) as f64 / 1e3 / ops,
        "us",
    );
    report_engine_client(&mut out, s, &traced.before, &traced.after);
    out.put("wal.fsync_us_p50", fsync_us_p50(dir), "us");
    let traced_tput = s.ops_per_s();
    out.put(
        "trace.overhead_frac",
        1.0 - traced_tput / plain.summary.ops_per_s(),
        "ratio",
    );
    out
}
