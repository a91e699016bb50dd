//! The correctness capstone: every benchmark in the suite, executed under
//! every client and every engine configuration, must produce *exactly* the
//! exit code and output of native execution.
//!
//! Every run also pins its simulated results: the native run's `Counters`,
//! and the engine run's `Counters` and `Stats`, must equal the rows of
//! `golden/suite_equivalence.txt`. A host-side change (interpreter, cache
//! structures, build path) must leave all of them unchanged.

use rio_bench::{run_config, ClientKind};
use rio_core::{Options, Stats};
use rio_sim::{run_native, Counters, CpuKind};
use rio_workloads::{suite_scaled, Benchmark};

const GOLDEN: &str = include_str!("golden/suite_equivalence.txt");

/// The field values of a `#[derive(Debug)]` struct of integers, in
/// declaration order: `S { a: 1, b: 2 }` → `1 2`.
fn values(debug: &str) -> String {
    debug
        .split(": ")
        .skip(1)
        .map(|v| v.split([',', ' ']).next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The field names of a `#[derive(Debug)]` struct: `S { a: 1, b: 2 }` →
/// `a b`.
fn names(debug: &str) -> String {
    let parts: Vec<&str> = debug.split(": ").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|p| p.rsplit(' ').next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The rows one test produced, checked against its section of the golden
/// table when the test ends.
struct Table {
    test: &'static str,
    rows: Vec<String>,
}

impl Table {
    fn new(test: &'static str) -> Table {
        Table {
            test,
            rows: Vec::new(),
        }
    }

    fn check(&mut self, b: &Benchmark, label: &str, options: Options, client: ClientKind) {
        self.check_on(CpuKind::Pentium4, b, label, options, client);
    }

    fn check_on(
        &mut self,
        cpu: CpuKind,
        b: &Benchmark,
        label: &str,
        options: Options,
        client: ClientKind,
    ) {
        let image = rio_workloads::compile(&b.source)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", b.name));
        let native = run_native(&image, cpu);
        let r = run_config(&image, options, cpu, client);
        assert_eq!(
            r.exit_code, native.exit_code,
            "{} exit code diverged under {client:?} / {options:?}",
            b.name
        );
        assert_eq!(
            r.output, native.output,
            "{} output diverged under {client:?} / {options:?}",
            b.name
        );
        self.rows.push(format!(
            "{} {label}/{client:?} | {} | {} | {}",
            b.name,
            values(&format!("{:?}", native.counters)),
            values(&format!("{:?}", r.counters)),
            values(&format!("{:?}", r.stats)),
        ));
    }

    /// Compare the rows against the golden section `[test]`; on a mismatch
    /// print the whole actual section, ready to replace the old one.
    fn finish(self) {
        let header = format!("[{}]", self.test);
        let golden: Vec<&str> = GOLDEN
            .lines()
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty())
            .collect();
        let mismatch = (0..golden.len().max(self.rows.len()))
            .find(|&i| golden.get(i).copied() != self.rows.get(i).map(String::as_str));
        if let Some(i) = mismatch {
            println!("{header}");
            for row in &self.rows {
                println!("{row}");
            }
            panic!(
                "simulated results differ from golden/suite_equivalence.txt \
                 at row {i} of {header}:\n  golden: {:?}\n  actual: {:?}\n\
                 (the actual section is printed above)",
                golden.get(i),
                self.rows.get(i)
            );
        }
    }
}

#[test]
fn golden_table_columns_match_the_structs() {
    let columns = format!(
        "# bench config/client | native: {} | run: {} | stats: {}",
        names(&format!("{:?}", Counters::default())),
        names(&format!("{:?}", Counters::default())),
        names(&format!("{:?}", Stats::default())),
    );
    assert_eq!(GOLDEN.lines().next(), Some(columns.as_str()));
}

#[test]
fn all_benchmarks_match_native_under_every_client() {
    let mut t = Table::new("all_benchmarks_match_native_under_every_client");
    for b in suite_scaled(1) {
        for client in ClientKind::FIGURE5 {
            t.check(&b, "full", Options::full(), client);
        }
    }
    t.finish();
}

#[test]
fn all_benchmarks_match_native_under_every_engine_configuration() {
    let mut t = Table::new("all_benchmarks_match_native_under_every_engine_configuration");
    for b in suite_scaled(1) {
        for (label, options) in [
            ("cache_only", Options::cache_only()),
            ("direct_links", Options::with_direct_links()),
            ("indirect_links", Options::with_indirect_links()),
            ("full", Options::full()),
        ] {
            t.check(&b, label, options, ClientKind::Null);
        }
    }
    t.finish();
}

#[test]
fn emulation_matches_native_on_representative_benchmarks() {
    // Emulation is slow on the host too; spot-check the Table 1 pair.
    let mut t = Table::new("emulation_matches_native_on_representative_benchmarks");
    for name in ["crafty", "vpr"] {
        let b = rio_workloads::benchmark(name).unwrap();
        let small = rio_workloads::suite_scaled(1)
            .into_iter()
            .find(|x| x.name == b.name)
            .unwrap();
        t.check(&small, "emulation", Options::emulation(), ClientKind::Null);
    }
    t.finish();
}

#[test]
fn trace_threshold_extremes_preserve_correctness() {
    let mut t = Table::new("trace_threshold_extremes_preserve_correctness");
    for b in suite_scaled(1).into_iter().take(4) {
        for threshold in [1, 2, 1_000_000] {
            let mut opts = Options::full();
            opts.trace_threshold = threshold;
            let label = format!("full,trace_threshold={threshold}");
            t.check(&b, &label, opts, ClientKind::Combined);
        }
    }
    t.finish();
}

#[test]
fn tiny_trace_capacity_preserves_correctness() {
    let mut t = Table::new("tiny_trace_capacity_preserves_correctness");
    for b in suite_scaled(1).into_iter().take(4) {
        let mut opts = Options::full();
        opts.max_trace_bbs = 2;
        t.check(&b, "full,max_trace_bbs=2", opts, ClientKind::Combined);
    }
    t.finish();
}

#[test]
fn pentium3_model_preserves_correctness() {
    let mut t = Table::new("pentium3_model_preserves_correctness");
    for b in suite_scaled(1).into_iter().take(6) {
        t.check_on(
            CpuKind::Pentium3,
            &b,
            "full,p3",
            Options::full(),
            ClientKind::Combined,
        );
    }
    t.finish();
}
