//! Pieces both hosts share: failure classification, op-record summaries
//! and counter deltas.

use std::collections::BTreeMap;

use kv_core::{KvError, MetricsRegistry, OpRecord};

use crate::stats::{beyond, quantile, Outcome};

/// The `KvError` kinds a client can end an op with, always reported as
/// `client.failed.<kind>`. Any other kind is reported when it occurs.
pub const CLIENT_ERROR_KINDS: [&str; 3] = ["not_found", "put_rejected", "timeout"];

/// The `client.failed.<kind>` suffix of an error. The match is
/// exhaustive, so a new variant fails to compile here instead of going
/// uncounted.
pub fn kind(e: &KvError) -> &'static str {
    match e {
        KvError::CoordinatorMissing { .. } => "coordinator_missing",
        KvError::InflightMissing { .. } => "inflight_missing",
        KvError::NotFound { .. } => "not_found",
        KvError::PutRejected { .. } => "put_rejected",
        KvError::Timeout { .. } => "timeout",
        KvError::ViewMissing { .. } => "view_missing",
        KvError::NoEligibleNode { .. } => "no_eligible_node",
        KvError::UnknownNode { .. } => "unknown_node",
        KvError::NoBackend => "no_backend",
        KvError::WalFailed { .. } => "wal_failed",
    }
}

/// What the clients saw over the measured ops, on the client clock (wall
/// nanoseconds on the UDP host, simulated nanoseconds on the simulator).
/// Same-seed simulator runs must produce equal summaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpSummary {
    pub ops: u64,
    pub puts: u64,
    pub failed: u64,
    pub failed_by_kind: BTreeMap<&'static str, u64>,
    /// First measured op's start to last op's end.
    pub window_ns: u64,
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
}

impl OpSummary {
    pub fn of<'a>(records: impl IntoIterator<Item = &'a OpRecord>) -> OpSummary {
        let mut s = OpSummary::default();
        let (mut first, mut last) = (u64::MAX, 0u64);
        for r in records {
            s.ops += 1;
            s.puts += u64::from(r.is_put);
            first = first.min(r.start.as_ns());
            last = last.max(r.end.as_ns());
            match &r.result {
                Ok(()) => {
                    let lat = r.end.as_ns().saturating_sub(r.start.as_ns());
                    if r.is_put {
                        s.put_ns.push(lat);
                    } else {
                        s.get_ns.push(lat);
                    }
                }
                Err(e) => {
                    s.failed += 1;
                    *s.failed_by_kind.entry(kind(e)).or_default() += 1;
                }
            }
        }
        s.window_ns = last.saturating_sub(first);
        s
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.window_ns.max(1) as f64 / 1e9)
    }

    /// Report p50 and, where at least ten samples lie beyond it, p99 of
    /// one latency class as `<prefix>_p50_<unit>` / `<prefix>_p99_<unit>`,
    /// with `unit` either `"ms"` or `"us"`.
    pub fn report_latency(&self, out: &mut Outcome, prefix: &str, puts: bool, unit: &'static str) {
        let samples = if puts { &self.put_ns } else { &self.get_ns };
        let per_unit_ns = if unit == "ms" { 1e6 } else { 1e3 };
        if samples.is_empty() {
            return;
        }
        out.put(
            &format!("{prefix}_p50_{unit}"),
            quantile(samples, 1, 2) as f64 / per_unit_ns,
            unit,
        );
        let tail = beyond(samples.len(), 99, 100);
        if tail >= 10 {
            out.put(
                &format!("{prefix}_p99_{unit}"),
                quantile(samples, 99, 100) as f64 / per_unit_ns,
                unit,
            );
        }
        out.notes.push(format!(
            "{prefix}: {} samples, {tail} beyond p99{}",
            samples.len(),
            if tail >= 10 {
                ""
            } else {
                " (p99 not reported)"
            }
        ));
    }
}

/// Counter growth between two registry snapshots.
pub fn delta(before: &MetricsRegistry, after: &MetricsRegistry, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// Exact counts the traced and untraced runs of one seed must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parity {
    pub ops: u64,
    pub wal_syncs: u64,
    pub wal_appends: u64,
    pub puts_committed: u64,
}

impl Parity {
    pub fn of(ops: u64, before: &MetricsRegistry, after: &MetricsRegistry) -> Parity {
        Parity {
            ops,
            wal_syncs: delta(before, after, "wal.syncs"),
            wal_appends: delta(before, after, "wal.appends"),
            puts_committed: delta(before, after, "engine.puts_committed"),
        }
    }
}

/// Engine and client layer metrics every workload reports from the
/// cluster's own registry: counter deltas over the measured window, and
/// histogram quantiles on the host's clock (preload included).
pub fn report_engine_client(
    out: &mut Outcome,
    s: &OpSummary,
    before: &MetricsRegistry,
    after: &MetricsRegistry,
) {
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let committed = delta(before, after, "engine.puts_committed");
    let aborted = delta(before, after, "engine.puts_aborted");
    out.put(
        "engine.abort_ratio",
        per(aborted, committed + aborted),
        "ratio",
    );
    out.put(
        "engine.deadline_aborts_per_put",
        per(delta(before, after, "engine.deadline_aborts"), s.puts),
        "count",
    );
    let hist_ms = |name: &str, num: u64, den: u64| {
        after
            .hist(name)
            .filter(|h| h.count() > 0)
            .map_or(0.0, |h| h.quantile(num, den).as_ns() as f64 / 1e6)
    };
    out.put(
        "engine.lock_to_commit_ms_p50",
        hist_ms("engine.lock_to_commit", 1, 2),
        "ms",
    );
    out.put(
        "client.retry_wait_ms_p99",
        hist_ms("client.retry_wait", 99, 100),
        "ms",
    );
    out.put(
        "client.retries_per_op",
        per(delta(before, after, "client.retries"), s.ops),
        "count",
    );
    let mut kinds: BTreeMap<&str, u64> = CLIENT_ERROR_KINDS.iter().map(|k| (*k, 0)).collect();
    kinds.extend(s.failed_by_kind.iter().map(|(k, n)| (*k, *n)));
    for (k, n) in kinds {
        out.put(&format!("client.failed.{k}"), n as f64, "count");
    }
    out.put(
        "wal.syncs_per_put",
        per(delta(before, after, "wal.syncs"), s.puts),
        "count",
    );
    out.put(
        "wal.appends_per_put",
        per(delta(before, after, "wal.appends"), s.puts),
        "count",
    );
}
