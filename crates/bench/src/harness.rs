//! Shared measurement harness for the experiment binaries.
//!
//! Besides the single-run helpers, this module provides the worker-pool
//! [`run_parallel`] runner every experiment binary is built on: the engine
//! is `Send`, simulated cycle counts are independent of host scheduling,
//! and results are returned in item order — so any `--jobs N` produces
//! byte-identical tables, just faster.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rio_clients::{CTrace, Combined, IbDispatch, Inc2Add, Rlr};
use rio_core::{NullClient, Options, Rio, RioRunResult, Stats};
use rio_sim::{run_native, Counters, CpuKind, Image};

/// Which client to couple with the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    /// Base RIO, no client transformation.
    Null,
    /// Redundant load removal (§4.1).
    Rlr,
    /// Strength reduction (§4.2).
    Inc2Add,
    /// Adaptive indirect branch dispatch (§4.3).
    IbDispatch,
    /// Custom call-inlining traces (§4.4).
    CTrace,
    /// All four in combination.
    Combined,
}

impl ClientKind {
    /// Display label matching Figure 5's legend.
    pub fn label(self) -> &'static str {
        match self {
            ClientKind::Null => "base",
            ClientKind::Rlr => "rlr",
            ClientKind::Inc2Add => "inc2add",
            ClientKind::IbDispatch => "ibdispatch",
            ClientKind::CTrace => "ctraces",
            ClientKind::Combined => "combined",
        }
    }

    /// All six Figure 5 bars, in order.
    pub const FIGURE5: [ClientKind; 6] = [
        ClientKind::Null,
        ClientKind::Rlr,
        ClientKind::Inc2Add,
        ClientKind::IbDispatch,
        ClientKind::CTrace,
        ClientKind::Combined,
    ];
}

/// Result of one engine run.
#[derive(Clone, Debug)]
pub struct ConfigResult {
    /// Machine counters: simulated cycles, application instructions
    /// executed in cache/emulation, predictor and memory counts.
    pub counters: Counters,
    /// Engine statistics.
    pub stats: Stats,
    /// Exit code (for output validation).
    pub exit_code: i32,
    /// Application output (for validation).
    pub output: String,
    /// Unhandled guest fault that ended the run, if any (the exit code is
    /// then `128 + fault kind`). Suites report these as failures rather
    /// than aborting the whole table.
    pub fault: Option<String>,
}

impl From<RioRunResult> for ConfigResult {
    fn from(r: RioRunResult) -> ConfigResult {
        ConfigResult {
            counters: r.counters,
            stats: r.stats,
            exit_code: r.exit_code,
            output: r.app_output,
            fault: r.fault.map(|f| f.message),
        }
    }
}

/// Simulated cycles of a native run.
pub fn native_cycles(image: &Image, kind: CpuKind) -> (u64, i32, String) {
    let r = run_native(image, kind);
    (r.counters.cycles, r.exit_code, r.output)
}

/// Run an image under the engine with the given options and client.
pub fn run_config(
    image: &Image,
    options: Options,
    kind: CpuKind,
    client: ClientKind,
) -> ConfigResult {
    match client {
        ClientKind::Null => Rio::new(image, options, kind, NullClient).run().into(),
        ClientKind::Rlr => Rio::new(image, options, kind, Rlr::new()).run().into(),
        ClientKind::Inc2Add => Rio::new(image, options, kind, Inc2Add::new()).run().into(),
        ClientKind::IbDispatch => Rio::new(image, options, kind, IbDispatch::new())
            .run()
            .into(),
        ClientKind::CTrace => Rio::new(image, options, kind, CTrace::new()).run().into(),
        ClientKind::Combined => Rio::new(image, options, kind, Combined::new()).run().into(),
    }
}

/// Convenience: cycles of a full-system run with a client.
pub fn rio_cycles(image: &Image, kind: CpuKind, client: ClientKind) -> u64 {
    run_config(image, Options::full(), kind, client)
        .counters
        .cycles
}

// ----- parallel suite runner ----------------------------------------------

/// Worker count for the experiment binaries: an explicit `--jobs N`
/// (also `-j N` / `--jobs=N`) on the command line wins, then the
/// `RIO_JOBS` environment variable, then the host's available parallelism.
pub fn jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--jobs" || a == "-j" {
            if let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(rest) = a.strip_prefix("--jobs=") {
            if let Ok(n) = rest.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    if let Some(n) = std::env::var("RIO_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f` to every item on a pool of `jobs` worker threads and return
/// the results **in item order**.
///
/// Work is distributed by atomic index-stealing, so idle workers pick up
/// the next unclaimed item regardless of how long earlier items take. The
/// output ordering (and therefore every table printed from it) is
/// independent of the job count and of host scheduling; only wall-clock
/// time changes. Simulated measurements are unaffected by parallelism
/// because each run owns its whole engine.
///
/// # Panics
///
/// Propagates a panic from any worker (via `std::thread::scope`).
pub fn run_parallel<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding a result slot")
                .expect("every item was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        let reference: Vec<usize> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = run_parallel(&items, jobs, |idx, &n| {
                // Vary per-item latency so completion order differs from
                // item order under real parallelism.
                if idx % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                n * n
            });
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = run_parallel(&[] as &[u32], 4, |_, &n| n);
        assert!(got.is_empty());
    }
}
