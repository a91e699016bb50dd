//! `rio` — command-line front end for the RIO dynamic code modification
//! system.
//!
//! ```text
//! rio run <prog.dyna | bench:NAME> [options]   run a program under RIO
//! rio native <prog.dyna | bench:NAME>          run natively (baseline)
//! rio disasm <prog.dyna | bench:NAME>          disassemble the compiled image
//! rio fragments <prog.dyna | bench:NAME> [options]  run, then dump the code cache
//! rio suite [--client NAME] [--jobs N]         run the whole benchmark suite
//! rio faults [--cpu p3|p4] [--jobs N]          fault-injection robustness suite
//! rio smc [--cpu p3|p4] [--jobs N]             self-modifying-code consistency suite
//! rio verify [--cpu p3|p4] [--jobs N]          run everything under the cache verifier
//! rio fuzz [--seeds N] [--seed-base HEX] [--cpu p3|p4] [--jobs N]
//!          [--corpus DIR] [--replay]           differential conformance fuzzing
//! rio bench-list                               list the benchmark suite
//!
//! run options:
//!   --client NAME     null (default) | rlr | inc2add | ibdispatch |
//!                     ctrace | combined | shepherd | inscount | opstats
//!   --cpu p3|p4       processor model (default p4)
//!   --emulate         Table 1 row 1 configuration
//!   --no-links        disable direct-branch linking
//!   --no-ib-links     disable indirect-branch in-cache lookup
//!   --no-traces       disable trace building
//!   --threshold N     trace-head threshold (default 50)
//!   --cache-limit N   per-sub-cache capacity in bytes (FIFO eviction;
//!                     also honors the RIO_CACHE_LIMIT env var)
//!   --max-instructions N  stop after N application instructions (exit 124)
//!   --timeout-cycles N    stop after N simulated cycles (exit 124)
//!   --verify          re-verify affected fragments at every safe point
//!                     (also honors RIO_VERIFY=1; never charged to the run)
//!   --stats           print engine statistics
//!
//! suite options: --client as above (the six measured kinds), --cpu,
//! --jobs N (worker threads; also honors RIO_JOBS, defaults to the
//! host's available parallelism).
//!
//! fuzz options: --seeds N generated programs (default 64), starting at
//! --seed-base HEX (default 0x5eed0000); every program runs natively and
//! through the full engine-configuration matrix, any divergence is
//! minimized and saved into --corpus DIR (default tests/corpus).
//! --replay instead re-runs every saved corpus entry through the matrix.
//! Campaign output is byte-identical for any --jobs value.
//!
//! exit codes: the program's own status; 124 when a --max-instructions /
//! --timeout-cycles budget runs out; on an unhandled guest fault,
//! 128 + fault kind (129 divide error, 130 invalid opcode, 131 memory
//! fault, 128 engine-level failure) with a one-line report on stderr —
//! the same convention the simulated OS uses for native runs.
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use rio_bench::{
    native_cycles, parse_suite_args, parse_suite_args_with, print_suite_rows, run_config,
    run_parallel, ClientKind, SuiteArgs,
};
use rio_clients::{CTrace, Combined, IbDispatch, Inc2Add, InsCount, OpStats, Rlr, Shepherd};
use rio_core::{
    Client, Fault, FaultInjector, FaultKind, InjectionPlan, NullClient, Options, Rio, RioRunResult,
    Stats, StepBudget, StepOutcome,
};
use rio_sim::{run_native, run_native_guarded, CpuKind, Image};
use rio_workloads::{benchmark, compile, compiled_suite, faulting, smc, suite};

/// Exit code when a `--max-instructions` / `--timeout-cycles` budget runs
/// out before the program exits (matches the `timeout(1)` convention).
const EXIT_BUDGET_EXHAUSTED: u8 = 124;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rio <run|native|disasm|fragments|suite|faults|smc|verify|fuzz|bench-list> [args]  (see --help in source header)"
    );
    ExitCode::from(2)
}

fn load_image(spec: &str) -> Result<Image, String> {
    let source = if let Some(name) = spec.strip_prefix("bench:") {
        benchmark(name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `rio bench-list`)"))?
            .source
    } else {
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?
    };
    compile(&source).map_err(|e| format!("compile error: {e}"))
}

struct RunArgs {
    spec: String,
    client: String,
    cpu: CpuKind,
    options: Options,
    stats: bool,
    max_instructions: Option<u64>,
    timeout_cycles: Option<u64>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        spec: String::new(),
        client: "null".into(),
        cpu: CpuKind::Pentium4,
        options: Options::default(),
        stats: false,
        max_instructions: None,
        timeout_cycles: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--client" => {
                out.client = it.next().ok_or("--client needs a value")?.clone();
            }
            "--cpu" => {
                out.cpu = match it.next().ok_or("--cpu needs a value")?.as_str() {
                    "p3" => CpuKind::Pentium3,
                    "p4" => CpuKind::Pentium4,
                    other => return Err(format!("unknown cpu `{other}` (p3|p4)")),
                };
            }
            "--emulate" => out.options = Options::emulation(),
            "--no-links" => {
                out.options.link_direct = false;
                out.options.link_indirect = false;
                out.options.enable_traces = false;
            }
            "--no-ib-links" => {
                out.options.link_indirect = false;
                out.options.enable_traces = false;
            }
            "--no-traces" => out.options.enable_traces = false,
            "--threshold" => {
                out.options.trace_threshold = it
                    .next()
                    .ok_or("--threshold needs a value")?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
            }
            "--cache-limit" => {
                out.options.cache_limit = Some(
                    it.next()
                        .ok_or("--cache-limit needs a value")?
                        .parse()
                        .map_err(|e| format!("bad cache limit: {e}"))?,
                );
            }
            "--max-instructions" => {
                out.max_instructions = Some(
                    it.next()
                        .ok_or("--max-instructions needs a value")?
                        .parse()
                        .map_err(|e| format!("bad instruction budget: {e}"))?,
                );
            }
            "--timeout-cycles" => {
                out.timeout_cycles = Some(
                    it.next()
                        .ok_or("--timeout-cycles needs a value")?
                        .parse()
                        .map_err(|e| format!("bad cycle budget: {e}"))?,
                );
            }
            "--stats" => out.stats = true,
            "--verify" => out.options.verify = true,
            other if !other.starts_with('-') && out.spec.is_empty() => {
                out.spec = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.spec.is_empty() {
        return Err("missing program (a .dyna file or bench:NAME)".into());
    }
    // `--cache-limit` wins; otherwise honor the environment.
    apply_cache_limit_env(&mut out.options)?;
    apply_verify_env(&mut out.options);
    Ok(out)
}

/// Turn on incremental verification when `RIO_VERIFY=1` is set (unless the
/// explicit `--verify` flag already did).
fn apply_verify_env(options: &mut Options) {
    if !options.verify {
        options.verify = verify_env();
    }
}

/// Whether `RIO_VERIFY` asks for verification (any value except `0`/empty).
fn verify_env() -> bool {
    std::env::var("RIO_VERIFY").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Fill `Options::cache_limit` from `RIO_CACHE_LIMIT` when no explicit
/// `--cache-limit` was given.
fn apply_cache_limit_env(options: &mut Options) -> Result<(), String> {
    if options.cache_limit.is_none() {
        if let Ok(v) = std::env::var("RIO_CACHE_LIMIT") {
            options.cache_limit = Some(
                v.parse()
                    .map_err(|e| format!("bad RIO_CACHE_LIMIT `{v}`: {e}"))?,
            );
        }
    }
    Ok(())
}

/// Outcome of a budgeted CLI run.
struct DrivenRun {
    result: RioRunResult,
    /// Set when a `--max-instructions` / `--timeout-cycles` budget ran out
    /// before the program exited.
    exhausted: Option<&'static str>,
}

fn run_with_client(image: &Image, a: &RunArgs) -> Result<DrivenRun, String> {
    fn go<C: Client>(image: &Image, a: &RunArgs, client: C) -> Result<DrivenRun, String> {
        let mut rio = Rio::new(image, a.options, a.cpu, client);
        if a.max_instructions.is_none() && a.timeout_cycles.is_none() {
            return Ok(DrivenRun {
                result: rio.run(),
                exhausted: None,
            });
        }
        // A budgeted session: take a single step carrying the whole budget
        // and report exhaustion instead of running to completion.
        let budget = StepBudget {
            max_instructions: a.max_instructions,
            max_cycles: a.timeout_cycles,
            timeout: None,
        };
        match rio.step(budget) {
            StepOutcome::Exited(code) => Ok(DrivenRun {
                result: rio.result_snapshot(code),
                exhausted: None,
            }),
            StepOutcome::Running(reason) => Ok(DrivenRun {
                result: rio.result_snapshot(i32::from(EXIT_BUDGET_EXHAUSTED)),
                exhausted: Some(match reason {
                    rio_core::StopReason::InstructionBudget => "instruction budget",
                    rio_core::StopReason::CycleBudget => "cycle budget",
                    rio_core::StopReason::Timeout => "timeout",
                }),
            }),
            StepOutcome::Faulted(f) => {
                let mut result = rio.result_snapshot(f.exit_code());
                result.fault = Some(f);
                Ok(DrivenRun {
                    result,
                    exhausted: None,
                })
            }
        }
    }
    match a.client.as_str() {
        "null" => go(image, a, NullClient),
        "rlr" => go(image, a, Rlr::new()),
        "inc2add" => go(image, a, Inc2Add::new()),
        "ibdispatch" => go(image, a, IbDispatch::new()),
        "ctrace" => go(image, a, CTrace::new()),
        "combined" => go(image, a, Combined::new()),
        "shepherd" => go(image, a, Shepherd::new()),
        "inscount" => go(image, a, InsCount::new()),
        "opstats" => go(image, a, OpStats::new()),
        other => Err(format!("unknown client `{other}`")),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let image = load_image(&a.spec)?;
    let native = run_native(&image, a.cpu);
    let run = run_with_client(&image, &a)?;
    let r = &run.result;
    print!("{}", r.app_output);
    if let Some(f) = &r.fault {
        // One faithful line carrying both address spaces; the exit status
        // below follows the 128+kind convention documented in the header.
        eprintln!("rio: {}", f.message);
    }
    if run.exhausted.is_none() && (r.app_output != native.output || r.exit_code != native.exit_code)
    {
        eprintln!(
            "!! DIVERGENCE from native execution (native exit {})",
            native.exit_code
        );
    }
    if !r.client_output.is_empty() {
        eprintln!("--- client output ---");
        eprint!("{}", r.client_output);
    }
    eprintln!(
        "--- {} instrs, {} cycles, {:.3}x native, {} evictions, {} code writes, {} checks ({} violations) ---",
        r.counters.instructions,
        r.counters.cycles,
        r.counters.cycles as f64 / native.counters.cycles as f64,
        r.stats.evictions,
        r.stats.code_writes,
        r.stats.checks_run,
        r.stats.violations
    );
    if a.stats {
        eprintln!("{}", r.stats);
        if r.sideline_cycles > 0 {
            eprintln!("sideline cycles: {}", r.sideline_cycles);
        }
    }
    if let Some(what) = run.exhausted {
        eprintln!(
            "rio: {what} exhausted after {} instructions / {} cycles; program did not finish",
            r.counters.instructions, r.counters.cycles
        );
        return Ok(ExitCode::from(EXIT_BUDGET_EXHAUSTED));
    }
    Ok(ExitCode::from((r.exit_code & 0xFF) as u8))
}

fn cmd_fragments(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let image = load_image(&a.spec)?;
    // Run with the null client (or the requested one) and dump the cache.
    fn go<C: rio_core::Client>(image: &Image, a: &RunArgs, client: C) -> Rio<C> {
        let mut rio = Rio::new(image, a.options, a.cpu, client);
        rio.run();
        rio
    }
    // Fragment dumps only need the engine state; use the null client to
    // keep the cache contents canonical unless another client was asked
    // for explicitly.
    if a.client != "null" {
        let r = run_with_client(&image, &a)?;
        let _ = r;
        eprintln!("note: per-client fragment dumps use the null client's run");
    }
    let rio = go(&image, &a, NullClient);
    print!("{}", rio.core.fragment_report());
    // Also disassemble the hottest-looking fragment (the entry).
    if let Some(disasm) = rio.core.disassemble_fragment(Image::CODE_BASE) {
        println!("--- entry fragment ---");
        print!("{disasm}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_native(args: &[String]) -> Result<ExitCode, String> {
    let spec = args.first().ok_or("missing program")?;
    let image = load_image(spec)?;
    let r = run_native(&image, CpuKind::Pentium4);
    print!("{}", r.output);
    eprintln!("--- {} ---", r.counters);
    Ok(ExitCode::from((r.exit_code & 0xFF) as u8))
}

fn cmd_disasm(args: &[String]) -> Result<ExitCode, String> {
    let spec = args.first().ok_or("missing program")?;
    let image = load_image(spec)?;
    let lines = rio_ia32::disasm::disassemble(&image.code, Image::CODE_BASE)
        .map_err(|e| format!("disassembly failed: {e}"))?;
    for l in lines {
        println!("{:08x}  {:24}  {:<40} {}", l.pc, l.raw, l.text, l.eflags);
    }
    Ok(ExitCode::SUCCESS)
}

/// `rio suite`: run every benchmark in the suite under the engine on the
/// worker pool, validate each against native execution, and print the
/// normalized-time table plus aggregate statistics.
fn cmd_suite(args: &[String]) -> Result<ExitCode, String> {
    let mut client = ClientKind::Null;
    let mut cpu = CpuKind::Pentium4;
    let mut njobs = rio_bench::jobs();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--client" => {
                client = match it.next().ok_or("--client needs a value")?.as_str() {
                    "null" | "base" => ClientKind::Null,
                    "rlr" => ClientKind::Rlr,
                    "inc2add" => ClientKind::Inc2Add,
                    "ibdispatch" => ClientKind::IbDispatch,
                    "ctrace" | "ctraces" => ClientKind::CTrace,
                    "combined" => ClientKind::Combined,
                    other => {
                        return Err(format!(
                            "unknown suite client `{other}` (null|rlr|inc2add|ibdispatch|ctrace|combined)"
                        ))
                    }
                };
            }
            "--cpu" => {
                cpu = match it.next().ok_or("--cpu needs a value")?.as_str() {
                    "p3" => CpuKind::Pentium3,
                    "p4" => CpuKind::Pentium4,
                    other => return Err(format!("unknown cpu `{other}` (p3|p4)")),
                };
            }
            "--jobs" | "-j" => {
                njobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad job count: {e}"))?
                    .max(1);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let mut opts = Options::full();
    apply_cache_limit_env(&mut opts)?;
    apply_verify_env(&mut opts);
    let benches = compiled_suite();
    let rows = run_parallel(&benches, njobs, |_, (b, image)| {
        let (native, exit, out) = native_cycles(image, cpu);
        let r = run_config(image, opts, cpu, client);
        let diverged = (r.exit_code, r.output.as_str()) != (exit, out.as_str());
        (b.name, native, r, diverged)
    });

    println!(
        "suite under client `{}` ({njobs} worker{})",
        client.label(),
        if njobs == 1 { "" } else { "s" }
    );
    println!(
        "{:<10} {:>12} {:>12} {:>8}",
        "benchmark", "native cyc", "rio cyc", "norm"
    );
    let mut failed = 0usize;
    for (name, native, r, diverged) in &rows {
        // A benchmark that faulted is recorded as a failed row (with the
        // faithful fault report) rather than aborting the whole table.
        let marker = match (&r.fault, diverged) {
            (Some(msg), _) => format!("  !! FAULTED: {msg}"),
            (None, true) => "  !! DIVERGED".to_string(),
            (None, false) => String::new(),
        };
        println!(
            "{:<10} {:>12} {:>12} {:>8.3}{}",
            name,
            native,
            r.counters.cycles,
            r.counters.cycles as f64 / *native as f64,
            marker
        );
        failed += usize::from(*diverged || r.fault.is_some());
    }
    let total = Stats::aggregate(rows.iter().map(|(_, _, r, _)| &r.stats));
    println!();
    println!("aggregate: {total}");
    if failed > 0 {
        return Err(format!(
            "{failed} benchmark(s) faulted or diverged from native execution"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

// ----- fault-injection robustness suite -----------------------------------

/// A fixed, fault-free workload the injection scenarios perturb.
const INJECT_SOURCE: &str = "fn main() {
    var i = 0;
    var s = 0;
    while (i < 4000) { s = s + i * 3 % 97; i++; }
    return s % 100;
}";

/// One scenario of the `rio faults` matrix.
#[derive(Clone, Copy, Debug)]
enum FaultScenario {
    /// Inject an architectural fault at a fixed instruction count into a
    /// fault-free workload; expect exactly one `Faulted` outcome of that
    /// kind, then a resumed run identical to native.
    Inject { kind: FaultKind, emulate: bool },
    /// Corrupt every warm fragment's cache copy; expect invalid-opcode
    /// faults, eviction, quarantine emulation, and a self-healed run
    /// identical to native.
    CorruptAll,
    /// Genuine divide-by-zero in a hot loop, recovered by a guest handler.
    DivRecover { emulate: bool },
    /// Genuine wild load into a guarded region, recovered by a handler.
    WildLoad { emulate: bool },
    /// Unhandled divide error: exit 129 in every mode.
    DivUnhandled { emulate: bool },
    /// Unhandled memory fault: exit 131 in every mode.
    WildUnhandled { emulate: bool },
}

impl FaultScenario {
    fn name(self) -> String {
        let mode = |e: bool| if e { "emulate" } else { "cache" };
        match self {
            FaultScenario::Inject { kind, emulate } => {
                format!("inject-{kind}-{}", mode(emulate)).replace(' ', "-")
            }
            FaultScenario::CorruptAll => "corrupt-cache-copies".into(),
            FaultScenario::DivRecover { emulate } => format!("div-recover-{}", mode(emulate)),
            FaultScenario::WildLoad { emulate } => format!("wild-load-{}", mode(emulate)),
            FaultScenario::DivUnhandled { emulate } => format!("div-unhandled-{}", mode(emulate)),
            FaultScenario::WildUnhandled { emulate } => {
                format!("wild-unhandled-{}", mode(emulate))
            }
        }
    }

    const ALL: [FaultScenario; 15] = [
        FaultScenario::Inject {
            kind: FaultKind::DivideError,
            emulate: false,
        },
        FaultScenario::Inject {
            kind: FaultKind::DivideError,
            emulate: true,
        },
        FaultScenario::Inject {
            kind: FaultKind::InvalidOpcode,
            emulate: false,
        },
        FaultScenario::Inject {
            kind: FaultKind::InvalidOpcode,
            emulate: true,
        },
        FaultScenario::Inject {
            kind: FaultKind::MemFault,
            emulate: false,
        },
        FaultScenario::Inject {
            kind: FaultKind::MemFault,
            emulate: true,
        },
        FaultScenario::CorruptAll,
        FaultScenario::DivRecover { emulate: false },
        FaultScenario::DivRecover { emulate: true },
        FaultScenario::WildLoad { emulate: false },
        FaultScenario::WildLoad { emulate: true },
        FaultScenario::DivUnhandled { emulate: false },
        FaultScenario::DivUnhandled { emulate: true },
        FaultScenario::WildUnhandled { emulate: false },
        FaultScenario::WildUnhandled { emulate: true },
    ];
}

/// Step a session in small budget slices (so injection plans get applied
/// mid-run and fault delivery interleaves with suspension), collecting
/// every `Faulted` outcome. Stops after `max_faults` terminal faults —
/// sessions stay resumable after a fault, so a genuinely faulting program
/// would otherwise re-report forever.
fn drive_faulty<C: Client>(
    mut rio: Rio<C>,
    mut injector: Option<FaultInjector>,
    max_faults: usize,
) -> (RioRunResult, Vec<Fault>) {
    let mut faults: Vec<Fault> = Vec::new();
    loop {
        if let Some(inj) = injector.as_mut() {
            inj.poll(&mut rio);
        }
        match rio.step(StepBudget::instructions(200)) {
            StepOutcome::Running(_) => {}
            StepOutcome::Exited(code) => return (rio.result_snapshot(code), faults),
            StepOutcome::Faulted(f) => {
                let done = faults.len() + 1 >= max_faults;
                faults.push(f);
                if done {
                    let last = faults.last().expect("just pushed").clone();
                    let mut r = rio.result_snapshot(last.exit_code());
                    r.fault = Some(last);
                    return (r, faults);
                }
            }
        }
    }
}

fn scenario_options(emulate: bool, verify: bool) -> Options {
    let mut opts = if emulate {
        Options::emulation()
    } else {
        Options::full()
    };
    opts.verify = verify;
    opts
}

/// Suffix a scenario report line with the verification tally, and enforce
/// zero violations, when the matrix runs under `RIO_VERIFY`.
fn verify_suffix(verify: bool, stats: &Stats) -> Result<String, String> {
    if !verify {
        return Ok(String::new());
    }
    if stats.violations != 0 {
        return Err(format!(
            "{} verifier violation(s) across {} checks",
            stats.violations, stats.checks_run
        ));
    }
    Ok(format!(", {} checks verified", stats.checks_run))
}

/// Run one scenario; `Ok` is the deterministic report line.
fn run_fault_scenario(s: FaultScenario, cpu: CpuKind, verify: bool) -> Result<String, String> {
    let name = s.name();
    let fail = |why: String| Err(format!("{name}: {why}"));
    match s {
        FaultScenario::Inject { kind, emulate } => {
            let image = compile(INJECT_SOURCE).map_err(|e| format!("{name}: {e}"))?;
            let native = run_native(&image, cpu);
            let rio = Rio::new(&image, scenario_options(emulate, verify), cpu, NullClient);
            let injector = FaultInjector::new(InjectionPlan::AtInstruction { at: 400, kind });
            let (r, faults) = drive_faulty(rio, Some(injector), 8);
            if faults.len() != 1 || faults[0].kind != Some(kind) {
                return fail(format!(
                    "expected exactly one injected {kind}, got {:?}",
                    faults.iter().map(|f| f.kind).collect::<Vec<_>>()
                ));
            }
            if r.exit_code != native.exit_code || r.app_output != native.output {
                return fail(format!(
                    "resumed run diverged from native (exit {} vs {})",
                    r.exit_code, native.exit_code
                ));
            }
            let suffix = verify_suffix(verify, &r.stats).map_err(|e| format!("{name}: {e}"))?;
            Ok(format!(
                "ok {name}: faulted at eip {:#x} (app pc {:?}), resumed to native-identical exit {}{suffix}",
                faults[0].cache_eip,
                faults[0].app_pc.map(|p| format!("{p:#x}")),
                r.exit_code
            ))
        }
        FaultScenario::CorruptAll => {
            let image = compile(INJECT_SOURCE).map_err(|e| format!("{name}: {e}"))?;
            let native = run_native(&image, cpu);
            let rio = Rio::new(&image, scenario_options(false, verify), cpu, NullClient);
            let injector = FaultInjector::new(InjectionPlan::CorruptAll { min_frags: 4 });
            let (r, faults) = drive_faulty(rio, Some(injector), 64);
            if faults.is_empty() {
                return fail("corruption never raised a fault".into());
            }
            if let Some(bad) = faults
                .iter()
                .find(|f| f.kind != Some(FaultKind::InvalidOpcode))
            {
                return fail(format!("unexpected fault kind: {}", bad.message));
            }
            if r.exit_code != native.exit_code || r.app_output != native.output {
                return fail(format!(
                    "self-healed run diverged from native (exit {} vs {})",
                    r.exit_code, native.exit_code
                ));
            }
            if r.stats.fault_evictions == 0 {
                return fail("no fragment was evicted".into());
            }
            // This scenario deliberately corrupts cache bytes, so the
            // verifier reporting violations here is detection, not a bug —
            // the report carries the tally instead of enforcing zero.
            let suffix = if verify {
                format!(
                    ", verifier flagged {} violation(s) across {} checks",
                    r.stats.violations, r.stats.checks_run
                )
            } else {
                String::new()
            };
            Ok(format!(
                "ok {name}: {} faults, {} evictions, self-healed to native-identical exit {}{suffix}",
                faults.len(),
                r.stats.fault_evictions,
                r.exit_code
            ))
        }
        FaultScenario::DivRecover { emulate } => {
            let image = compile(&faulting::div_recover()).map_err(|e| format!("{name}: {e}"))?;
            let native = run_native(&image, cpu);
            let rio = Rio::new(&image, scenario_options(emulate, verify), cpu, NullClient);
            let (r, faults) = drive_faulty(rio, None, 1);
            if !faults.is_empty() {
                return fail(format!("unexpected terminal fault: {}", faults[0].message));
            }
            if r.exit_code != 0 || native.exit_code != 0 || r.app_output != native.output {
                return fail(format!(
                    "diverged from native (exit {} vs {})",
                    r.exit_code, native.exit_code
                ));
            }
            if r.stats.faults_delivered != faulting::DIV_RECOVER_FAULTS as u64 {
                return fail(format!(
                    "expected {} deliveries, got {}",
                    faulting::DIV_RECOVER_FAULTS,
                    r.stats.faults_delivered
                ));
            }
            let suffix = verify_suffix(verify, &r.stats).map_err(|e| format!("{name}: {e}"))?;
            Ok(format!(
                "ok {name}: {} faults delivered in a hot loop, output native-identical{suffix}",
                r.stats.faults_delivered
            ))
        }
        FaultScenario::WildLoad { emulate } => {
            let image = compile(&faulting::wild_load()).map_err(|e| format!("{name}: {e}"))?;
            let native = run_native_guarded(&image, cpu, faulting::guard_regions());
            let mut rio = Rio::new(&image, scenario_options(emulate, verify), cpu, NullClient);
            rio.core
                .machine
                .set_guard_regions(faulting::guard_regions());
            let (r, faults) = drive_faulty(rio, None, 1);
            if !faults.is_empty() {
                return fail(format!("unexpected terminal fault: {}", faults[0].message));
            }
            if r.exit_code != 0 || native.exit_code != 0 || r.app_output != native.output {
                return fail(format!(
                    "diverged from native (exit {} vs {})",
                    r.exit_code, native.exit_code
                ));
            }
            let suffix = verify_suffix(verify, &r.stats).map_err(|e| format!("{name}: {e}"))?;
            Ok(format!(
                "ok {name}: guarded load delivered and recovered, output native-identical{suffix}"
            ))
        }
        FaultScenario::DivUnhandled { emulate } => {
            let image = compile(&faulting::div_unhandled()).map_err(|e| format!("{name}: {e}"))?;
            let native = run_native(&image, cpu);
            let rio = Rio::new(&image, scenario_options(emulate, verify), cpu, NullClient);
            let (r, faults) = drive_faulty(rio, None, 1);
            if faults.len() != 1 || faults[0].kind != Some(FaultKind::DivideError) {
                return fail("expected one unhandled divide error".into());
            }
            if r.exit_code != 129 || native.exit_code != 129 {
                return fail(format!(
                    "expected exit 129 everywhere, got rio {} native {}",
                    r.exit_code, native.exit_code
                ));
            }
            let suffix = verify_suffix(verify, &r.stats).map_err(|e| format!("{name}: {e}"))?;
            Ok(format!(
                "ok {name}: unhandled divide error, exit 129 in every mode{suffix}"
            ))
        }
        FaultScenario::WildUnhandled { emulate } => {
            let image = compile(&faulting::wild_unhandled()).map_err(|e| format!("{name}: {e}"))?;
            let native = run_native_guarded(&image, cpu, faulting::guard_regions());
            let mut rio = Rio::new(&image, scenario_options(emulate, verify), cpu, NullClient);
            rio.core
                .machine
                .set_guard_regions(faulting::guard_regions());
            let (r, faults) = drive_faulty(rio, None, 1);
            if faults.len() != 1 || faults[0].kind != Some(FaultKind::MemFault) {
                return fail("expected one unhandled memory fault".into());
            }
            if r.exit_code != 131 || native.exit_code != 131 {
                return fail(format!(
                    "expected exit 131 everywhere, got rio {} native {}",
                    r.exit_code, native.exit_code
                ));
            }
            let suffix = verify_suffix(verify, &r.stats).map_err(|e| format!("{name}: {e}"))?;
            Ok(format!(
                "ok {name}: unhandled memory fault, exit 131 in every mode{suffix}"
            ))
        }
    }
}

/// `rio faults`: the deterministic fault-injection robustness matrix —
/// three fault kinds across cache and emulation modes, cache-copy
/// corruption with self-healing, and the genuine faulting workloads, all
/// driven through budgeted (suspendable) sessions. Output is byte-identical
/// for any `--jobs` value.
fn cmd_faults(args: &[String]) -> Result<ExitCode, String> {
    let SuiteArgs { cpu, jobs: njobs } = parse_suite_args(args)?;
    let verify = verify_env();
    let rows = run_parallel(&FaultScenario::ALL, njobs, |_, &s| {
        run_fault_scenario(s, cpu, verify)
    });
    print_suite_rows(&rows, "fault")
}

// ----- self-modifying-code consistency suite ------------------------------

/// One scenario of the `rio smc` matrix: a self-modifying workload crossed
/// with an execution mode.
#[derive(Clone, Copy, Debug)]
struct SmcScenario {
    workload: SmcWorkload,
    mode: SmcMode,
}

#[derive(Clone, Copy, Debug)]
enum SmcWorkload {
    /// A fragment stores into its *own* source range (forward-progress probe).
    SelfWrite,
    /// Repeatedly re-patches a callee, invalidating it 16 times.
    PatchLoop,
    /// Writes fresh code, then jumps to it through an indirect call.
    WriteThenIcall,
}

#[derive(Clone, Copy, Debug)]
enum SmcMode {
    /// Pure emulation: consistency comes from the interpreter's own
    /// decode-cache invalidation; no engine watches are installed.
    Emulate,
    /// Code cache with write monitoring and precise invalidation.
    Cache,
    /// Code cache bounded to a tiny capacity, forcing FIFO eviction to
    /// interleave with invalidation on nearly every dispatch.
    Bounded,
}

impl SmcScenario {
    fn name(self) -> String {
        let w = match self.workload {
            SmcWorkload::SelfWrite => "self-write",
            SmcWorkload::PatchLoop => "patch-loop",
            SmcWorkload::WriteThenIcall => "write-then-icall",
        };
        let m = match self.mode {
            SmcMode::Emulate => "emulate",
            SmcMode::Cache => "cache",
            SmcMode::Bounded => "bounded",
        };
        format!("{w}-{m}")
    }

    const ALL: [SmcScenario; 9] = {
        const W: [SmcWorkload; 3] = [
            SmcWorkload::SelfWrite,
            SmcWorkload::PatchLoop,
            SmcWorkload::WriteThenIcall,
        ];
        [
            SmcScenario {
                workload: W[0],
                mode: SmcMode::Emulate,
            },
            SmcScenario {
                workload: W[0],
                mode: SmcMode::Cache,
            },
            SmcScenario {
                workload: W[0],
                mode: SmcMode::Bounded,
            },
            SmcScenario {
                workload: W[1],
                mode: SmcMode::Emulate,
            },
            SmcScenario {
                workload: W[1],
                mode: SmcMode::Cache,
            },
            SmcScenario {
                workload: W[1],
                mode: SmcMode::Bounded,
            },
            SmcScenario {
                workload: W[2],
                mode: SmcMode::Emulate,
            },
            SmcScenario {
                workload: W[2],
                mode: SmcMode::Cache,
            },
            SmcScenario {
                workload: W[2],
                mode: SmcMode::Bounded,
            },
        ]
    };
}

/// Run one SMC scenario; `Ok` is the deterministic report line. Every run
/// is differential against native execution, driven through budgeted
/// (suspendable) steps, with decode verification on so any stale copy that
/// executes is counted.
fn run_smc_scenario(s: SmcScenario, cpu: CpuKind, verify: bool) -> Result<String, String> {
    let name = s.name();
    let fail = |why: String| Err(format!("{name}: {why}"));
    let src = match s.workload {
        SmcWorkload::SelfWrite => smc::self_write(),
        SmcWorkload::PatchLoop => smc::patch_loop(),
        SmcWorkload::WriteThenIcall => smc::write_then_icall(),
    };
    let image = compile(&src).map_err(|e| format!("{name}: {e}"))?;
    let native = run_native(&image, cpu);
    let mut opts = match s.mode {
        SmcMode::Emulate => Options::emulation(),
        SmcMode::Cache | SmcMode::Bounded => Options::full(),
    };
    opts.verify = verify;
    if matches!(s.mode, SmcMode::Bounded) {
        opts.cache_limit = Some(64);
    }
    let mut rio = Rio::new(&image, opts, cpu, NullClient);
    rio.core.machine.set_verify_decodes(true);
    let r = loop {
        match rio.step(StepBudget::instructions(200)) {
            StepOutcome::Running(_) => {}
            StepOutcome::Exited(code) => break rio.result_snapshot(code),
            StepOutcome::Faulted(f) => return fail(format!("unexpected fault: {}", f.message)),
        }
    };
    if r.exit_code != native.exit_code || r.app_output != native.output {
        return fail(format!(
            "diverged from native (exit {} vs {})",
            r.exit_code, native.exit_code
        ));
    }
    let stale = rio.core.machine.stale_decode_hits();
    if stale != 0 {
        return fail(format!("{stale} stale decode(s) executed"));
    }
    match s.mode {
        SmcMode::Emulate => {
            if r.stats.code_writes != 0 {
                return fail("code-write watches active under emulation".into());
            }
        }
        SmcMode::Cache | SmcMode::Bounded => {
            if r.stats.code_writes == 0 {
                return fail("no code write observed".into());
            }
            // Under a tiny bound the written fragment may already be
            // FIFO-evicted when the store lands, so only the unbounded
            // cache is guaranteed a precise invalidation.
            if matches!(s.mode, SmcMode::Cache) && r.stats.invalidations == 0 {
                return fail("nothing invalidated".into());
            }
        }
    }
    if matches!(s.mode, SmcMode::Bounded) {
        if r.stats.evictions == 0 {
            return fail("tiny cache limit never forced an eviction".into());
        }
        if r.stats.cache_flushes != 0 {
            return fail(format!(
                "{} whole-sub-cache flushes under capacity pressure",
                r.stats.cache_flushes
            ));
        }
    }
    let suffix = verify_suffix(verify, &r.stats).map_err(|e| format!("{name}: {e}"))?;
    Ok(format!(
        "ok {name}: output native-identical, {} code writes, {} invalidations, {} evictions, 0 stale decodes{suffix}",
        r.stats.code_writes, r.stats.invalidations, r.stats.evictions
    ))
}

/// `rio smc`: the self-modifying-code consistency matrix — three SMC
/// workloads across emulation, unbounded cache, and a tiny bounded cache,
/// all differential against native and driven through budgeted sessions
/// with decode verification. Output is byte-identical for any `--jobs`
/// value.
fn cmd_smc(args: &[String]) -> Result<ExitCode, String> {
    let SuiteArgs { cpu, jobs: njobs } = parse_suite_args(args)?;
    let verify = verify_env();
    let rows = run_parallel(&SmcScenario::ALL, njobs, |_, &s| {
        run_smc_scenario(s, cpu, verify)
    });
    print_suite_rows(&rows, "smc")
}

// ----- whole-system verification ------------------------------------------

/// Run one suite benchmark under a given client with incremental
/// verification at every safe point, then a final whole-cache sweep.
/// `Ok` carries the report line plus the (checks, violations) tally.
fn run_verified_bench(
    image: &Image,
    cpu: CpuKind,
    bench: &str,
    client: &str,
) -> Result<(String, u64, u64), String> {
    fn go<C: Client>(image: &Image, cpu: CpuKind, client: C) -> (RioRunResult, Stats, Vec<String>) {
        let mut opts = Options::full();
        opts.verify = true;
        let mut rio = Rio::new(image, opts, cpu, client);
        let r = rio.run();
        let sweep = rio.core.verify_cache();
        let details: Vec<String> = rio
            .core
            .verify_findings()
            .iter()
            .map(|v| v.to_string())
            .chain(sweep.iter().map(|v| v.to_string()))
            .take(5)
            .collect();
        let stats = rio.core.stats;
        (r, stats, details)
    }
    let name = format!("{bench}/{client}");
    let (r, stats, details) = match client {
        "null" => go(image, cpu, NullClient),
        "combined" => go(image, cpu, Combined::new()),
        "shepherd" => go(image, cpu, Shepherd::new()),
        other => return Err(format!("{name}: unknown verify client `{other}`")),
    };
    if let Some(f) = &r.fault {
        return Err(format!("{name}: faulted: {}", f.message));
    }
    if stats.violations != 0 {
        return Err(format!(
            "{name}: {} violation(s) across {} checks: {}",
            stats.violations,
            stats.checks_run,
            details.join("; ")
        ));
    }
    Ok((
        format!("ok {name}: {} checks, 0 violations", stats.checks_run),
        stats.checks_run,
        stats.violations,
    ))
}

/// `rio verify`: the full verification gauntlet — every suite benchmark
/// under the null, combined, and shepherd clients with incremental
/// verification plus a final whole-cache sweep, then the fault and SMC
/// matrices re-run under verification. Fails (exit 1) on any violation
/// outside the deliberate cache-corruption scenario, where verifier
/// findings are detection rather than defects. Output is byte-identical
/// for any `--jobs` value.
fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let SuiteArgs { cpu, jobs: njobs } = parse_suite_args(args)?;
    let benches = compiled_suite();
    const CLIENTS: [&str; 3] = ["null", "combined", "shepherd"];
    let mut items = Vec::new();
    for (b, image) in &benches {
        for client in CLIENTS {
            items.push((b.name, image, client));
        }
    }
    let rows = run_parallel(&items, njobs, |_, &(bench, image, client)| {
        run_verified_bench(image, cpu, bench, client)
    });
    let mut failures = 0usize;
    let (mut checks, mut violations) = (0u64, 0u64);
    for row in &rows {
        match row {
            Ok((line, c, v)) => {
                println!("{line}");
                checks += c;
                violations += v;
            }
            Err(line) => {
                println!("FAIL {line}");
                failures += 1;
            }
        }
    }
    println!();
    let fault_rows = run_parallel(&FaultScenario::ALL, njobs, |_, &s| {
        run_fault_scenario(s, cpu, true)
    });
    let faults_ok = print_suite_rows(&fault_rows, "fault");
    println!();
    let smc_rows = run_parallel(&SmcScenario::ALL, njobs, |_, &s| {
        run_smc_scenario(s, cpu, true)
    });
    let smc_ok = print_suite_rows(&smc_rows, "smc");
    println!();
    println!(
        "verify: {checks} checks ({violations} violations) across {} suite runs, plus {} fault and {} smc scenarios under verification",
        rows.len(),
        fault_rows.len(),
        smc_rows.len()
    );
    let mut problems = Vec::new();
    if failures > 0 {
        problems.push(format!("{failures} verified suite run(s) failed"));
    }
    if let Err(e) = faults_ok {
        problems.push(e);
    }
    if let Err(e) = smc_ok {
        problems.push(e);
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(ExitCode::SUCCESS)
}

// ----- differential conformance fuzzing -----------------------------------

/// `rio fuzz`: differential conformance fuzzing. Generates deterministic
/// programs from sequential seeds and checks that every engine
/// configuration (emulation, cache, traces, bounded cache, stepping,
/// verifier; each × null/combined clients) agrees with native execution
/// on output, exit code, and final app-visible state. Divergences are
/// delta-debugged to a minimal program and the simplest failing
/// configuration, then persisted into the corpus as regression tests.
/// With `--replay`, re-runs every corpus entry through the whole matrix
/// instead. Output is byte-identical for any `--jobs` value.
fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let mut seeds: u64 = 64;
    let mut base_seed = rio_fuzz::DEFAULT_BASE_SEED;
    let mut corpus = std::path::PathBuf::from("tests/corpus");
    let mut replay = false;
    let suite = parse_suite_args_with(args, |flag, it| match flag {
        "--seeds" => {
            seeds = it
                .next()
                .ok_or("--seeds needs a value")?
                .parse()
                .map_err(|e| format!("bad seed count: {e}"))?;
            Ok(true)
        }
        "--seed-base" => {
            let v = it.next().ok_or("--seed-base needs a value")?;
            base_seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                .map_err(|e| format!("bad seed base `{v}`: {e}"))?;
            Ok(true)
        }
        "--corpus" => {
            corpus = it.next().ok_or("--corpus needs a value")?.into();
            Ok(true)
        }
        "--replay" => {
            replay = true;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    if replay {
        let entries = rio_fuzz::load_dir(&corpus)?;
        if entries.is_empty() {
            println!("corpus {} is empty; nothing to replay", corpus.display());
            return Ok(ExitCode::SUCCESS);
        }
        let rows = run_parallel(&entries, suite.jobs, |_, (path, entry)| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            rio_fuzz::replay_entry(&name, entry, suite.cpu)
        });
        return print_suite_rows(&rows, "corpus");
    }
    let opts = rio_fuzz::CampaignOptions {
        seeds,
        base_seed,
        cpu: suite.cpu,
        jobs: suite.jobs,
        corpus_dir: Some(corpus),
    };
    let rows = rio_fuzz::run_campaign(&opts);
    print_suite_rows(&rows, "fuzz")
}

fn cmd_bench_list() -> ExitCode {
    println!("{:<10} {:<4} character", "name", "cat");
    for b in suite() {
        println!(
            "{:<10} {:<4} {}",
            b.name,
            match b.category {
                rio_workloads::Category::Int => "int",
                rio_workloads::Category::Fp => "fp",
            },
            b.character
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "native" => cmd_native(rest),
        "fragments" => cmd_fragments(rest),
        "disasm" => cmd_disasm(rest),
        "suite" => cmd_suite(rest),
        "faults" => cmd_faults(rest),
        "smc" => cmd_smc(rest),
        "verify" => cmd_verify(rest),
        "fuzz" => cmd_fuzz(rest),
        "bench-list" => Ok(cmd_bench_list()),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rio: {e}");
            ExitCode::from(2)
        }
    }
}
