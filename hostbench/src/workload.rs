//! The three workloads: their set-up, one measured pass, and the
//! correctness gate every engine run passes through.

use std::hint::black_box;
use std::time::Instant;

use rio_clients::Combined;
use rio_core::{Client, Core, FragmentId, FragmentKind, NullClient, Options, Rio, RioRunResult};
use rio_core::{StepBudget, StepOutcome};
use rio_fuzz::oracle::compare;
use rio_fuzz::{ClientChoice, EngineConfig, FuzzConfig, Outcome, Program, Rng};
use rio_ia32::encode::encode_list;
use rio_ia32::{InstrList, Level};
use rio_sim::{run_native, Counters, CpuKind, Image};
use rio_workloads::compile;

use crate::trace::{Timed, Tracer};

const CPU: CpuKind = CpuKind::Pentium4;

/// Generated programs per `fuzz` pass. Large enough that the total work of
/// a pass varies little from one base seed to another.
const FUZZ_PROGRAMS: u64 = 1024;

/// Iteration scale of the `gcc` benchmark under `churn`. Every block of it
/// is evicted and rebuilt at any scale; at the suite's default (10) one
/// engine run takes about 28 s, too long to measure more than once per run.
const CHURN_SCALE: i32 = 4;

/// Sub-cache byte limit under `churn` (the CI's bounded-suite value).
const CHURN_CACHE_LIMIT: u32 = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Fuzz,
    Churn,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "steady" => Some(Workload::Steady),
            "fuzz" => Some(Workload::Fuzz),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }
}

/// One program of a workload. Suite programs are compiled during set-up;
/// generated fuzz programs are compiled inside each pass, as a fuzz
/// campaign does.
struct Prog {
    name: String,
    source: String,
    image: Option<Image>,
}

/// One engine configuration a pass runs every program under.
struct RunCfg {
    /// The oracle matrix point (for `churn`, `Full` with a bounded cache).
    point: FuzzConfig,
    opts: Options,
    /// Span name of the whole matrix point (`fuzz` only).
    span: Option<String>,
}

/// A workload's inputs, built by [`setup`].
pub struct Inputs {
    progs: Vec<Prog>,
    cfgs: Vec<RunCfg>,
}

/// Engine options of an oracle matrix point, set as `rio_fuzz::run_engine`
/// sets them. [`cross_check`] compares the outcomes of the two.
fn matrix_options(engine: EngineConfig) -> Options {
    let mut opts = match engine {
        EngineConfig::Emulate => Options::emulation(),
        EngineConfig::CacheNoTraces => Options::with_indirect_links(),
        EngineConfig::Full
        | EngineConfig::Bounded
        | EngineConfig::Stepped
        | EngineConfig::Verified => Options::full(),
    };
    if engine == EngineConfig::Bounded {
        opts.cache_limit = Some(2048);
    }
    opts.verify = engine == EngineConfig::Verified;
    opts
}

fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

fn compile_prog(name: &str, source: &str, tr: &mut Tracer) -> Result<Image, String> {
    let t = tr.start();
    let image = compile(source).map_err(|e| format!("{name}: compile failed: {e}"));
    tr.stop("workloads.compile_s", t);
    image
}

/// Builds the workload's inputs. For `fuzz` the seed is the first program
/// seed; for `steady` and `churn` it sets the order of programs and
/// configurations.
pub fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    if w == Workload::Fuzz {
        let t = tr.start();
        let progs = (seed..seed + FUZZ_PROGRAMS)
            .map(|s| Prog {
                name: format!("seed {s}"),
                source: Program::generate(s).source(),
                image: None,
            })
            .collect();
        tr.stop("fuzz.gen_s", t);
        let cfgs = FuzzConfig::matrix()
            .into_iter()
            .map(|point| RunCfg {
                point,
                opts: matrix_options(point.engine),
                span: Some(format!(
                    "oracle.{}.{}_s",
                    point.engine.label(),
                    point.client.label()
                )),
            })
            .collect();
        return Ok(Inputs { progs, cfgs });
    }
    let (benches, limit) = match w {
        Workload::Churn => (
            rio_workloads::suite_scaled(CHURN_SCALE)
                .into_iter()
                .filter(|b| b.name == "gcc")
                .collect(),
            Some(CHURN_CACHE_LIMIT),
        ),
        _ => (rio_workloads::suite(), None),
    };
    let mut progs = benches
        .into_iter()
        .map(|b| {
            let image = compile_prog(b.name, &b.source, tr)?;
            Ok(Prog {
                name: b.name.to_string(),
                source: b.source,
                image: Some(image),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut cfgs: Vec<RunCfg> = ClientChoice::ALL
        .into_iter()
        .map(|client| RunCfg {
            point: FuzzConfig {
                engine: EngineConfig::Full,
                client,
            },
            opts: Options {
                cache_limit: limit,
                ..Options::full()
            },
            span: None,
        })
        .collect();
    shuffle(&mut progs, &mut rng);
    shuffle(&mut cfgs, &mut rng);
    Ok(Inputs { progs, cfgs })
}

/// The simulated (deterministic) results of a pass. Traced and untraced
/// passes over the same inputs must produce equal values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    pub native_instrs: u64,
    pub engine: Counters,
    pub stats: rio_core::Stats,
    /// Fragment records in the final caches (deleted ones included).
    pub records: u64,
    /// Live fragments in the final caches.
    pub live: u64,
    /// Engine cycles / native cycles, one per (program, configuration).
    pub norms: Vec<f64>,
}

impl Sim {
    /// Geometric mean of [`Sim::norms`], summed in sorted order so that
    /// program order does not change the last digits.
    pub fn norm_geomean(&self) -> f64 {
        let mut lns: Vec<f64> = self.norms.iter().map(|x| x.ln()).collect();
        lns.sort_by(f64::total_cmp);
        (lns.iter().sum::<f64>() / lns.len().max(1) as f64).exp()
    }
}

pub struct Pass {
    pub wall_s: f64,
    pub sim: Sim,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Runs every program natively and under every configuration, checking
/// each engine run against the native run.
pub fn pass(inputs: &Inputs, tr: &mut Tracer) -> Pass {
    let start = Instant::now();
    let mut out = Pass {
        wall_s: 0.0,
        sim: Sim::default(),
        attempted: 0,
        failures: Vec::new(),
    };
    for prog in &inputs.progs {
        let compiled;
        let image = match &prog.image {
            Some(image) => image,
            None => match compile_prog(&prog.name, &prog.source, tr) {
                Ok(image) => {
                    compiled = image;
                    &compiled
                }
                Err(e) => {
                    out.attempted += 1;
                    out.failures.push(e);
                    continue;
                }
            },
        };
        let t = tr.start();
        let native = run_native(image, CPU);
        tr.stop("sim.native_s", t);
        out.sim.native_instrs += native.counters.instructions;
        let expected = Outcome {
            exit_code: native.exit_code,
            output: native.output,
            state_digest: native.state_digest,
            violations: 0,
            fault: None,
        };
        for cfg in &inputs.cfgs {
            let t = tr.start();
            let run = engine_run(image, cfg, tr, &mut out.sim);
            if let Some(span) = &cfg.span {
                tr.stop(span, t);
            }
            if tr.enabled() {
                inspect(image, &run.core, tr);
            }
            out.attempted += 1;
            if let Err(m) = compare(cfg.point, &expected, &run.outcome) {
                out.failures.push(format!("{}: {m}", prog.name));
            }
            if run.cycles > 0 && native.counters.cycles > 0 {
                out.sim
                    .norms
                    .push(run.cycles as f64 / native.counters.cycles as f64);
            }
        }
    }
    // The inspection is work of the traced run only, not of the program.
    out.wall_s = start.elapsed().as_secs_f64() - tr.secs("inspect_s");
    out
}

/// A finished engine run.
struct Finished {
    /// What the oracle compares against the native run.
    outcome: Outcome,
    cycles: u64,
    core: Core,
}

/// Runs one configuration under its client.
fn engine_run(image: &Image, cfg: &RunCfg, tr: &mut Tracer, sim: &mut Sim) -> Finished {
    match cfg.point.client {
        ClientChoice::Null => with_client(image, cfg, NullClient, tr, sim),
        ClientChoice::Combined => with_client(image, cfg, Combined::new(), tr, sim),
    }
}

fn with_client<C: Client>(
    image: &Image,
    cfg: &RunCfg,
    client: C,
    tr: &mut Tracer,
    sim: &mut Sim,
) -> Finished {
    if tr.enabled() {
        let (rio, result) = drive(image, cfg, Timed::new(client), tr);
        rio.client.report(tr);
        settle(image, cfg, rio.core, result, sim)
    } else {
        let (rio, result) = drive(image, cfg, client, tr);
        settle(image, cfg, rio.core, result, sim)
    }
}

fn drive<C: Client>(
    image: &Image,
    cfg: &RunCfg,
    client: C,
    tr: &mut Tracer,
) -> (Rio<C>, RioRunResult) {
    let t = tr.start();
    let mut rio = Rio::new(image, cfg.opts, CPU, client);
    tr.stop("core.new_s", t);
    let t = tr.start();
    let result = if cfg.point.engine == EngineConfig::Stepped {
        loop {
            match rio.step(StepBudget::instructions(1)) {
                StepOutcome::Running(_) => {}
                StepOutcome::Exited(code) => break rio.result_snapshot(code),
                StepOutcome::Faulted(f) => {
                    let mut r = rio.result_snapshot(f.exit_code());
                    r.fault = Some(f);
                    break r;
                }
            }
        }
    } else {
        rio.run()
    };
    tr.stop("core.run_s", t);
    (rio, result)
}

/// Folds a finished run into the pass totals and builds its oracle outcome.
fn settle(
    image: &Image,
    cfg: &RunCfg,
    mut core: Core,
    result: RioRunResult,
    sim: &mut Sim,
) -> Finished {
    let mut violations = result.stats.violations;
    if cfg.point.engine == EngineConfig::Verified {
        violations += core.verify_cache().len() as u64;
    }
    let c = &result.counters;
    let e = &mut sim.engine;
    e.instructions += c.instructions;
    e.cycles += c.cycles;
    e.charged_overhead += c.charged_overhead;
    e.ind_mispredicts += c.ind_mispredicts;
    sim.stats.merge(&result.stats);
    for tid in 0..core.thread_count() {
        let cache = core.thread_cache(tid);
        sim.records += cache.len() as u64;
        sim.live += cache.iter().filter(|f| !f.deleted).count() as u64;
    }
    Finished {
        outcome: Outcome {
            exit_code: result.exit_code,
            output: result.app_output,
            state_digest: core.machine.app_state_digest(image),
            violations,
            fault: result.fault.map(|f| f.message),
        },
        cycles: c.cycles,
        core,
    }
}

/// Times the `rio-core` cache and `rio-ia32` layers on a finished run's
/// caches: one FIFO-victim search from the first record, and a re-decode
/// and re-encode of the application bytes of every basic block built.
fn inspect(image: &Image, core: &Core, tr: &mut Tracer) {
    let t = tr.start();
    for tid in 0..core.thread_count() {
        let cache = core.thread_cache(tid);
        let s = tr.start();
        black_box(cache.oldest_live(FragmentKind::BasicBlock, FragmentId(0)));
        tr.stop("cache.oldest_live_s", s);
        tr.count("cache.oldest_live_calls", 1);
        recode_blocks(image, cache.iter(), tr);
    }
    tr.stop("inspect_s", t);
}

fn recode_blocks<'a>(
    image: &Image,
    frags: impl Iterator<Item = &'a rio_core::Fragment>,
    tr: &mut Tracer,
) {
    let code_end = Image::CODE_BASE as usize + image.code.len();
    for f in frags.filter(|f| f.kind == FragmentKind::BasicBlock) {
        for &(s, e) in &f.src_ranges {
            let (s, e) = (s as usize, e as usize);
            if s < Image::CODE_BASE as usize || e > code_end || s >= e {
                continue;
            }
            let bytes = &image.code[s - Image::CODE_BASE as usize..e - Image::CODE_BASE as usize];
            let t = tr.start();
            let il = InstrList::decode_block(bytes, s as u32, Level::L3);
            tr.stop("ia32.decode_s", t);
            // Ranges of blocks built from patched code need not decode from
            // the original image bytes; those are skipped.
            let Ok(il) = il else { continue };
            tr.count("ia32.instrs", il.len() as u64);
            let t = tr.start();
            black_box(encode_list(&il, s as u32).ok());
            tr.stop("ia32.encode_s", t);
        }
    }
}

/// Checks this benchmark's engine runs against the oracle's own
/// (`rio_fuzz::run_native_baseline` and `rio_fuzz::run_engine`) on the
/// first program: both must give identical outcomes at every matrix point.
/// Returns the number of points compared and the failures.
pub fn cross_check(inputs: &Inputs) -> (u64, Vec<String>) {
    let attempted = inputs.cfgs.len() as u64;
    let Some(prog) = inputs.progs.first() else {
        return (1, vec!["no programs".into()]);
    };
    let mut tr = Tracer::new(false);
    let image = match compile_prog(&prog.name, &prog.source, &mut tr) {
        Ok(image) => image,
        Err(e) => return (attempted, vec![e]),
    };
    let native = rio_fuzz::run_native_baseline(&image, CPU);
    let mut failures = Vec::new();
    for cfg in &inputs.cfgs {
        let ours = engine_run(&image, cfg, &mut tr, &mut Sim::default()).outcome;
        let theirs = rio_fuzz::run_engine(&image, cfg.point, CPU);
        if ours != theirs || compare(cfg.point, &native, &theirs).is_err() {
            failures.push(format!(
                "{}: benchmark and rio_fuzz::run_engine outcomes differ under {}",
                prog.name, cfg.point
            ));
        }
    }
    (attempted, failures)
}
