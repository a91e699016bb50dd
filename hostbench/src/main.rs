//! Host wall-clock benchmark of the RIO reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <steady|fuzz|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced passes; `--trace
//! 1` prints the per-layer metrics of traced passes, after checking that
//! they simulate exactly what untraced passes do. The last line of standard
//! output is one JSON object; the exit code is nonzero on any failure.
//! `hostbench/README.md` defines every metric.

mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use trace::{Tracer, HOOKS};
use workload::{cross_check, pass, setup, Inputs, Pass, Workload};

/// A run repeats its set-up at least this many times and for at least
/// `SETUP_MIN_S` seconds; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 11;
const SETUP_MIN_S: f64 = 0.5;

/// Seed that no tuning of this benchmark used; a claimed gain must also
/// hold on it.
const HELD_OUT_SEED: u64 = 9_000_001;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload <steady|fuzz|churn>")?,
        seed: seed.ok_or("missing --seed <n>")?,
        seconds: seconds.ok_or("missing --seconds <s>")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs passes until the next one would end past `budget_s` (at least one).
/// Also returns the peak RSS after the first pass: later passes add only
/// allocator fragmentation, which depends on how many of them fit.
fn measure(
    inputs: &Inputs,
    budget_s: f64,
    traced: bool,
) -> Result<(Vec<(Pass, Tracer)>, f64), String> {
    let start = Instant::now();
    let mut passes: Vec<(Pass, Tracer)> = Vec::new();
    let mut rss = 0.0;
    loop {
        let mut tr = Tracer::new(traced);
        let p = pass(inputs, &mut tr);
        let last = p.wall_s;
        eprintln!("pass {}: {last:.4} s", passes.len() + 1);
        passes.push((p, tr));
        if passes.len() == 1 {
            rss = peak_rss_mb()?;
        }
        if start.elapsed().as_secs_f64() + last > budget_s {
            return Ok((passes, rss));
        }
    }
}

type Metric = (String, f64, &'static str);

fn median_wall(passes: &[(Pass, Tracer)]) -> f64 {
    median(&passes.iter().map(|(p, _)| p.wall_s).collect::<Vec<_>>())
}

fn end_to_end(passes: &[(Pass, Tracer)], setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let wall = median_wall(passes);
    let sim = &passes[0].0.sim;
    let instrs = (sim.native_instrs + sim.engine.instructions) as f64;
    [
        ("wall_s", wall, "s"),
        ("guest_mips", ratio(instrs, wall) / 1e6, "Minstr/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss_mb, "MB"),
        ("sim_cycles", sim.engine.cycles as f64, "cycles"),
        ("norm_time_geomean", sim.norm_geomean(), "ratio"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name.to_string(), value, unit))
    .collect()
}

/// Per-layer metrics of one traced pass; `setup` holds the set-up spans.
fn layer_metrics(p: &Pass, tr: &Tracer, setup: &Tracer) -> Vec<Metric> {
    let (s, st) = (&p.sim, &p.sim.stats);
    let mut m = Vec::new();
    let mut add = |name: &str, value: f64, unit| m.push((name.to_string(), value, unit));
    let native_s = tr.secs("sim.native_s");
    let run_s = tr.secs("core.run_s");
    let instrs = s.engine.instructions as f64;
    let count = |n: u64| n as f64;

    add("sim.native_s", native_s, "s");
    add(
        "sim.native_mips",
        ratio(s.native_instrs as f64, native_s) / 1e6,
        "Minstr/s",
    );
    add("sim.instructions", instrs, "count");
    add("sim.cycles", count(s.engine.cycles), "cycles");
    let overhead = ratio(s.engine.charged_overhead as f64, s.engine.cycles as f64);
    add("sim.charged_overhead_frac", overhead, "ratio");
    add(
        "sim.ind_mispredicts",
        count(s.engine.ind_mispredicts),
        "count",
    );

    add("core.new_s", tr.secs("core.new_s"), "s");
    add("core.run_s", run_s, "s");
    add("core.engine_mips", ratio(instrs, run_s) / 1e6, "Minstr/s");
    add(
        "core.us_per_bb_built",
        ratio(run_s * 1e6, count(st.bbs_built)),
        "us",
    );
    add("core.bbs_built", count(st.bbs_built), "count");
    add("core.traces_built", count(st.traces_built), "count");
    add("core.dispatches", count(st.dispatches), "count");
    add("core.context_switches", count(st.context_switches), "count");
    add("core.ib_lookups", count(st.ib_lookups), "count");
    let hit_ratio = ratio(count(st.ib_lookup_hits), count(st.ib_lookups));
    add("core.ib_hit_ratio", hit_ratio, "ratio");
    add("core.links", count(st.links), "count");
    add("core.unlinks", count(st.unlinks), "count");
    add("core.evictions", count(st.evictions), "count");
    add("core.checks_run", count(st.checks_run), "count");

    add("cache.records", count(s.records), "count");
    add("cache.live", count(s.live), "count");
    add(
        "cache.live_ratio",
        ratio(count(s.live), count(s.records)),
        "ratio",
    );
    let calls = count(tr.counted("cache.oldest_live_calls"));
    let oldest_us = ratio(tr.secs("cache.oldest_live_s") * 1e6, calls);
    add("cache.oldest_live_us", oldest_us, "us");

    for hook in HOOKS {
        let secs = format!("clients.{hook}_s");
        let calls = format!("clients.{hook}_calls");
        add(&secs, tr.secs(&secs), "s");
        add(&calls, count(tr.counted(&calls)), "count");
    }

    add("fuzz.gen_s", setup.secs("fuzz.gen_s"), "s");
    for point in rio_fuzz::FuzzConfig::matrix() {
        let name = format!("oracle.{}.{}_s", point.engine.label(), point.client.label());
        add(&name, tr.secs(&name), "s");
    }
    let compile_s = setup.secs("workloads.compile_s") + tr.secs("workloads.compile_s");
    add("workloads.compile_s", compile_s, "s");

    let decoded = count(tr.counted("ia32.instrs"));
    let decode_ns = ratio(tr.secs("ia32.decode_s") * 1e9, decoded);
    let encode_ns = ratio(tr.secs("ia32.encode_s") * 1e9, decoded);
    add("ia32.decode_ns_per_instr", decode_ns, "ns");
    add("ia32.encode_ns_per_instr", encode_ns, "ns");
    m
}

/// Per-metric medians over the traced passes, plus the tracing overhead.
fn per_layer(
    untraced: &[(Pass, Tracer)],
    traced: &[(Pass, Tracer)],
    setup: &Tracer,
) -> Vec<Metric> {
    let each: Vec<Vec<Metric>> = traced
        .iter()
        .map(|(p, tr)| layer_metrics(p, tr, setup))
        .collect();
    let mut m: Vec<Metric> = each[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values: Vec<f64> = each.iter().map(|ms| ms[i].1).collect();
            (name.clone(), median(&values), *unit)
        })
        .collect();
    let overhead = ratio(median_wall(traced), median_wall(untraced)) - 1.0;
    m.push(("trace_overhead_frac".into(), overhead, "ratio"));
    m
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let mut setups: Vec<(f64, Tracer)> = Vec::new();
    let inputs = loop {
        let mut tr = Tracer::new(args.trace);
        let t = Instant::now();
        let inputs = setup(args.workload, args.seed, &mut tr)?;
        setups.push((t.elapsed().as_secs_f64(), tr));
        if setups.len() >= SETUP_MIN_REPEATS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break inputs;
        }
    };
    // The middle set-up by length: its time is `setup_s` (an odd count
    // is its median) and its spans are the set-up's per-layer figures.
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (setup_s, setup_spans) = &setups[setups.len() / 2];

    let ((untraced, rss_mb), traced) = if args.trace {
        let untraced = measure(&inputs, args.seconds / 2.0, false)?;
        (untraced, measure(&inputs, args.seconds / 2.0, true)?.0)
    } else {
        (measure(&inputs, args.seconds, false)?, Vec::new())
    };

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    let reference = &untraced[0].0.sim;
    for (p, _) in untraced.iter().chain(&traced) {
        attempted += p.attempted;
        failures.extend(p.failures.iter().cloned());
        if p.sim != *reference {
            failures.push("simulated results differ between passes (traced or not)".into());
        }
    }
    if args.workload == Workload::Fuzz {
        let (n, cross) = cross_check(&inputs);
        attempted += n;
        failures.extend(cross);
    }

    let metrics = if args.trace {
        per_layer(&untraced, &traced, setup_spans)
    } else {
        end_to_end(&untraced, *setup_s, rss_mb)
    };
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err("non-finite metric".into());
    }

    for f in failures.iter().take(20) {
        println!("FAIL {f}");
    }
    let failed = failures.len() as u64;
    println!(
        "workload {:?}, seed {}, {} untraced + {} traced passes, failed_frac {} ({failed}/{attempted}); held-out seed {HELD_OUT_SEED}",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        ratio(failed as f64, attempted as f64),
    );
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>20.6} {unit}");
    }
    let correct = failed == 0;
    println!("{}", json(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
