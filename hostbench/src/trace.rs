//! Layer spans for the traced run: a span accumulator and a timing
//! [`Client`] wrapper.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a workspace crate; nothing inside the program is instrumented. An
//! untraced run uses a disabled [`Tracer`] (no clock reads) and unwrapped
//! clients, so its wall time is the program's alone.

use std::collections::BTreeMap;
use std::time::Instant;

use rio_core::{Client, Core, EndTraceDecision, FaultKind};
use rio_ia32::InstrList;

/// Accumulated per-layer seconds and counts of one pass.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    /// Seconds per span name.
    secs: BTreeMap<String, f64>,
    /// Event counts per name (hook calls, decoded instructions, ...).
    counts: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span: `None` (and no clock read) when tracing is off.
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes a span opened by [`Tracer::start`], adding its length to `name`.
    pub fn stop(&mut self, name: &str, start: Option<Instant>) {
        if let Some(t) = start {
            self.add_secs(name, t.elapsed().as_secs_f64());
        }
    }

    pub fn add_secs(&mut self, name: &str, secs: f64) {
        add(&mut self.secs, name, secs);
    }

    pub fn count(&mut self, name: &str, n: u64) {
        add(&mut self.counts, name, n);
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Adds `v` to the entry for `name`, allocating the key only on first use.
fn add<T: std::ops::AddAssign>(map: &mut BTreeMap<String, T>, name: &str, v: T) {
    match map.get_mut(name) {
        Some(total) => *total += v,
        None => {
            map.insert(name.to_string(), v);
        }
    }
}

/// The client hooks whose host time the traced run attributes to
/// `rio-clients`.
pub const HOOKS: [&str; 5] = [
    "basic_block",
    "trace",
    "end_trace",
    "clean_call",
    "fragment_deleted",
];

/// A delegating [`Client`] that times the five build/run-time hooks of the
/// client it wraps. Every other method is forwarded untimed; `name` and
/// `wants_full_decode` must be forwarded too, or the engine would take the
/// full-decode path for clients (such as `NullClient`) that decline it.
pub struct Timed<C> {
    inner: C,
    secs: [f64; 5],
    calls: [u64; 5],
}

impl<C: Client> Timed<C> {
    pub fn new(inner: C) -> Timed<C> {
        Timed {
            inner,
            secs: [0.0; 5],
            calls: [0; 5],
        }
    }

    fn timed<T>(&mut self, hook: usize, f: impl FnOnce(&mut C) -> T) -> T {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.secs[hook] += t.elapsed().as_secs_f64();
        self.calls[hook] += 1;
        r
    }

    /// Adds this client's hook times and call counts to `tr`.
    pub fn report(&self, tr: &mut Tracer) {
        for (i, hook) in HOOKS.iter().enumerate() {
            tr.add_secs(&format!("clients.{hook}_s"), self.secs[i]);
            tr.count(&format!("clients.{hook}_calls"), self.calls[i]);
        }
    }
}

impl<C: Client> Client for Timed<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn wants_full_decode(&self) -> bool {
        self.inner.wants_full_decode()
    }

    fn init(&mut self, core: &mut Core) {
        self.inner.init(core)
    }

    fn on_exit(&mut self, core: &mut Core) {
        self.inner.on_exit(core)
    }

    fn thread_init(&mut self, core: &mut Core) {
        self.inner.thread_init(core)
    }

    fn thread_exit(&mut self, core: &mut Core) {
        self.inner.thread_exit(core)
    }

    fn basic_block(&mut self, core: &mut Core, tag: u32, bb: &mut InstrList) {
        self.timed(0, |c| c.basic_block(core, tag, bb))
    }

    fn trace(&mut self, core: &mut Core, tag: u32, trace: &mut InstrList) {
        self.timed(1, |c| c.trace(core, tag, trace))
    }

    fn end_trace(&mut self, core: &mut Core, trace_tag: u32, next_tag: u32) -> EndTraceDecision {
        self.timed(2, |c| c.end_trace(core, trace_tag, next_tag))
    }

    fn clean_call(&mut self, core: &mut Core, arg: u64) {
        self.timed(3, |c| c.clean_call(core, arg))
    }

    fn fragment_deleted(&mut self, core: &mut Core, tag: u32) {
        self.timed(4, |c| c.fragment_deleted(core, tag))
    }

    fn fault_event(
        &mut self,
        core: &mut Core,
        kind: FaultKind,
        cache_eip: u32,
        app_pc: Option<u32>,
    ) {
        self.inner.fault_event(core, kind, cache_eip, app_pc)
    }

    fn sideline_optimize(&mut self, core: &mut Core, tag: u32, arg: u64) {
        self.inner.sideline_optimize(core, tag, arg)
    }
}
