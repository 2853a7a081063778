//! Spans recorded around the calls into the UDP host's layers, from the
//! benchmark's side of the public `NodeApp` / `NodeIo` / `WireCodec`
//! boundaries: each node's app is wrapped so every callback, send, timer
//! and CPU deferral it makes is timed or counted, and the frame codec is
//! wrapped so every encode and decode is.
//!
//! Recording happens only while the shared `active` flag is set (the
//! measured window), so preload traffic stays out of the per-op ratios.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use node_rt::{Ipv4, Mac, NodeApp, NodeIo, Packet, Payload, Time, WireCodec, XorShiftRng};

/// What one node did while tracing was active.
#[derive(Debug, Default)]
pub struct NodeTrace {
    pub callbacks: u64,
    /// Wall time inside the app's callbacks.
    pub busy_ns: u64,
    /// Part of `busy_ns` spent inside `NodeIo::send`.
    pub send_total_ns: u64,
    pub send_ns: Vec<u64>,
    pub timers: u64,
    pub cpu_defers: u64,
    /// Timer arrival minus its deadline.
    pub overshoot_ns: Vec<u64>,
    /// Armed deadlines per token, earliest first.
    pending: BTreeMap<u64, Vec<Instant>>,
}

impl NodeTrace {
    fn arm(&mut self, delay: Time, token: u64) {
        let due = Instant::now() + Duration::from_nanos(delay.as_ns());
        let v = self.pending.entry(token).or_default();
        let at = v.partition_point(|d| *d <= due);
        v.insert(at, due);
    }

    /// The earliest deadline armed under `token`.
    fn fire(&mut self, token: u64) -> Option<Instant> {
        let v = self.pending.get_mut(&token)?;
        let due = (!v.is_empty()).then(|| v.remove(0));
        if v.is_empty() {
            self.pending.remove(&token);
        }
        due
    }
}

/// `NodeIo` seen through the trace: forwards every call to the host.
struct TracedIo<'a> {
    io: &'a mut dyn NodeIo,
    t: &'a mut NodeTrace,
    on: bool,
}

impl NodeIo for TracedIo<'_> {
    fn now(&self) -> Time {
        self.io.now()
    }
    fn ip(&self) -> Ipv4 {
        self.io.ip()
    }
    fn mac(&self) -> Mac {
        self.io.mac()
    }
    fn send(&mut self, pkt: Packet) {
        let t0 = Instant::now();
        self.io.send(pkt);
        if self.on {
            let ns = t0.elapsed().as_nanos() as u64;
            self.t.send_total_ns += ns;
            self.t.send_ns.push(ns);
        }
    }
    fn set_timer(&mut self, delay: Time, token: u64) {
        self.t.timers += u64::from(self.on);
        self.t.arm(delay, token);
        self.io.set_timer(delay, token);
    }
    fn cpu_work(&mut self, amount: Time) {
        self.io.cpu_work(amount);
    }
    fn cpu_defer(&mut self, amount: Time, token: u64) {
        self.t.cpu_defers += u64::from(self.on);
        self.t.arm(amount, token);
        self.io.cpu_defer(amount, token);
    }
    fn rng(&mut self) -> &mut XorShiftRng {
        self.io.rng()
    }
}

/// A node app with every host callback timed.
pub struct Traced<A> {
    pub app: A,
    trace: Arc<Mutex<NodeTrace>>,
    active: Arc<AtomicBool>,
}

impl<A: NodeApp> Traced<A> {
    pub fn new(app: A, trace: Arc<Mutex<NodeTrace>>, active: Arc<AtomicBool>) -> Traced<A> {
        Traced { app, trace, active }
    }

    fn call(&mut self, io: &mut dyn NodeIo, f: impl FnOnce(&mut A, &mut dyn NodeIo)) {
        let on = self.active.load(Ordering::Relaxed);
        let mut t = self.trace.lock().expect("trace lock: no holder panics");
        let t0 = Instant::now();
        f(&mut self.app, &mut TracedIo { io, t: &mut t, on });
        if on {
            t.callbacks += 1;
            t.busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

impl<A: NodeApp> NodeApp for Traced<A> {
    fn on_start(&mut self, io: &mut dyn NodeIo) {
        self.call(io, |a, io| a.on_start(io));
    }
    fn on_packet(&mut self, pkt: Packet, io: &mut dyn NodeIo) {
        self.call(io, |a, io| a.on_packet(pkt, io));
    }
    fn on_timer(&mut self, token: u64, io: &mut dyn NodeIo) {
        let arrived = Instant::now();
        {
            let mut t = self.trace.lock().expect("trace lock: no holder panics");
            let due = t.fire(token);
            if let (Some(due), true) = (due, self.active.load(Ordering::Relaxed)) {
                let late = arrived.saturating_duration_since(due).as_nanos() as u64;
                t.overshoot_ns.push(late);
            }
        }
        self.call(io, |a, io| a.on_timer(token, io));
    }
    fn on_crash(&mut self) {
        self.app.on_crash();
    }
    fn on_restart(&mut self, io: &mut dyn NodeIo) {
        self.call(io, |a, io| a.on_restart(io));
    }
}

/// Frame-codec work while tracing was active.
#[derive(Debug, Default)]
pub struct CodecTrace {
    pub encode_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    pub bytes: u64,
}

/// A `WireCodec` with every encode and decode timed.
pub struct TracedCodec<C> {
    inner: C,
    pub trace: Mutex<CodecTrace>,
    active: Arc<AtomicBool>,
}

impl<C> TracedCodec<C> {
    pub fn new(inner: C, active: Arc<AtomicBool>) -> TracedCodec<C> {
        TracedCodec {
            inner,
            trace: Mutex::default(),
            active,
        }
    }
}

impl<C: WireCodec> WireCodec for TracedCodec<C> {
    fn encode(&self, payload: &dyn Any) -> Option<Vec<u8>> {
        let t0 = Instant::now();
        let out = self.inner.encode(payload);
        if self.active.load(Ordering::Relaxed) {
            let ns = t0.elapsed().as_nanos() as u64;
            let mut t = self.trace.lock().expect("codec trace lock");
            t.encode_ns.push(ns);
            t.bytes += out.as_ref().map_or(0, |b| b.len() as u64);
        }
        out
    }
    fn decode(&self, bytes: &[u8]) -> Option<Payload> {
        let t0 = Instant::now();
        let out = self.inner.decode(bytes);
        if self.active.load(Ordering::Relaxed) {
            let ns = t0.elapsed().as_nanos() as u64;
            self.trace
                .lock()
                .expect("codec trace lock")
                .decode_ns
                .push(ns);
        }
        out
    }
}
