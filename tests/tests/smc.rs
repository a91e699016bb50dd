//! Cache-consistency tests: self-modifying code must be observationally
//! identical whether the application runs natively, under pure emulation,
//! or out of the code cache. Every guest store into application code must
//! surface as a code-write event, invalidate exactly the overlapping
//! fragments, and never let a stale copy execute — proven by the decode
//! verifier's stale-hit counter staying at zero.

use rio_core::{Client, Core, NullClient, Options, Rio, Stats, StepBudget, StepOutcome};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{compile, smc};

/// Records every `fragment_deleted` callback.
#[derive(Default)]
struct DeletionWatcher {
    deleted_tags: Vec<u32>,
}

impl Client for DeletionWatcher {
    fn fragment_deleted(&mut self, _core: &mut Core, tag: u32) {
        self.deleted_tags.push(tag);
    }
}

#[test]
fn smc_workloads_are_equivalent_in_every_mode() {
    for (name, src) in [
        ("self_write", smc::self_write()),
        ("patch_loop", smc::patch_loop()),
        ("write_then_icall", smc::write_then_icall()),
    ] {
        let image = compile(&src).unwrap();
        let native = run_native(&image, CpuKind::Pentium4);
        assert_eq!(native.exit_code, 0, "{name}");

        for (mode, opts) in [
            ("emulate", Options::emulation()),
            ("cache", Options::full()),
        ] {
            let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, NullClient);
            // Verification mode: every decode-cache hit is compared against
            // the live bytes; a nonzero counter means stale code executed.
            rio.core.machine.set_verify_decodes(true);
            let r = rio.run();
            assert_eq!(r.exit_code, native.exit_code, "{name} {mode}");
            assert_eq!(r.app_output, native.output, "{name} {mode}");
            assert_eq!(
                rio.core.machine.stale_decode_hits(),
                0,
                "{name} {mode}: stale decode executed"
            );
            if mode == "cache" {
                assert!(r.stats.code_writes > 0, "{name}: no code write observed");
                assert!(r.stats.invalidations > 0, "{name}: nothing invalidated");
            } else {
                assert_eq!(
                    r.stats.code_writes, 0,
                    "{name}: watches active in emulation"
                );
            }
        }
    }
}

#[test]
fn self_store_invalidated_fragment_makes_forward_progress() {
    // The `self_write` store overwrites the writer's *own* basic block, so
    // the engine invalidates the fragment it is currently executing. The
    // commit-then-exit semantics guarantee forward progress (no livelock):
    // the resume point is past the store, in a fresh rebuild.
    let image = compile(&smc::self_write()).unwrap();
    let mut rio = Rio::new(
        &image,
        Options::full(),
        CpuKind::Pentium4,
        DeletionWatcher::default(),
    );
    rio.core.machine.set_verify_decodes(true);
    let r = rio.run();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.app_output, format!("{}\n", smc::SELF_WRITE_SUM));
    assert_eq!(r.stats.code_writes, 1);
    assert_eq!(r.stats.invalidations, 1);
    assert_eq!(rio.core.machine.stale_decode_hits(), 0);
    assert!(
        !rio.client.deleted_tags.is_empty(),
        "invalidation must fire fragment_deleted"
    );
}

#[test]
fn patched_function_returns_fresh_values_through_repeated_invalidation() {
    let image = compile(&smc::patch_loop()).unwrap();
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    rio.core.machine.set_verify_decodes(true);
    let r = rio.run();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.app_output, format!("{}\n", smc::PATCH_LOOP_SUM));
    // Two stores per iteration; only the first still overlaps a live
    // fragment (the second lands in the already-invalidated span).
    assert_eq!(r.stats.code_writes, 32);
    assert!(r.stats.invalidations >= 16, "{}", r.stats);
    assert_eq!(rio.core.machine.stale_decode_hits(), 0);
}

#[test]
fn stepped_smc_runs_match_uninterrupted_runs() {
    // Suspending mid-run (including between a code write and its rebuild)
    // must be invisible: counters, stats, and output bit-identical.
    for src in [smc::patch_loop(), smc::write_then_icall()] {
        let image = compile(&src).unwrap();
        let uninterrupted = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient).run();
        let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
        let stepped = loop {
            match rio.step(StepBudget::instructions(97)) {
                StepOutcome::Running(_) => {}
                StepOutcome::Exited(code) => break rio.result_snapshot(code),
                StepOutcome::Faulted(f) => panic!("fault: {}", f.message),
            }
        };
        assert_eq!(stepped.exit_code, uninterrupted.exit_code);
        assert_eq!(stepped.counters, uninterrupted.counters);
        assert_eq!(stepped.stats, uninterrupted.stats);
        assert_eq!(stepped.app_output, uninterrupted.app_output);
    }
}

#[test]
fn tiny_cache_limit_output_is_byte_identical_to_unlimited() {
    // Differential: a bounded cache evicting FIFO on nearly every dispatch
    // must still produce byte-identical application output — capacity
    // management is pure policy, never semantics. SMC workloads make the
    // sharpest probe: an evicted-then-rebuilt fragment must pick up the
    // *current* application bytes.
    for (name, src) in [
        ("patch_loop", smc::patch_loop()),
        ("write_then_icall", smc::write_then_icall()),
    ] {
        let image = compile(&src).unwrap();
        let unlimited = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient).run();
        let mut opts = Options::full();
        opts.cache_limit = Some(64);
        let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, NullClient);
        rio.core.machine.set_verify_decodes(true);
        let bounded = rio.run();
        assert_eq!(bounded.exit_code, unlimited.exit_code, "{name}");
        assert_eq!(bounded.app_output, unlimited.app_output, "{name}");
        assert!(bounded.stats.evictions > 0, "{name}: {}", bounded.stats);
        // Capacity pressure evicts per-fragment; whole-sub-cache flushes
        // only happen on explicit request.
        assert_eq!(bounded.stats.cache_flushes, 0, "{name}");
        assert_eq!(rio.core.machine.stale_decode_hits(), 0, "{name}");
    }
}

#[test]
fn decode_verifier_sees_no_stale_hit_across_emission_linking_and_smc() {
    // The sim's decode cache creates its entries on first store; every
    // kind of code write the engine makes (fragment emission, link and
    // unlink patches, guest stores into application code) must still
    // invalidate them. Both block-build paths run: Level 0 bundles for
    // the null client, full decode for the combined client; a small cache
    // adds evictions, which unlink both ways.
    let mut total = Stats::default();
    for src in [smc::patch_loop(), smc::write_then_icall()] {
        let image = compile(&src).unwrap();
        let native = run_native(&image, CpuKind::Pentium4);
        for full_decode in [false, true] {
            for cache_limit in [None, Some(128)] {
                let mut opts = Options::full();
                opts.trace_threshold = 2;
                opts.cache_limit = cache_limit;
                let (r, stale) = if full_decode {
                    let client = rio_clients::Combined::new();
                    let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, client);
                    rio.core.machine.set_verify_decodes(true);
                    (rio.run(), rio.core.machine.stale_decode_hits())
                } else {
                    let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, NullClient);
                    rio.core.machine.set_verify_decodes(true);
                    (rio.run(), rio.core.machine.stale_decode_hits())
                };
                let what = format!("full decode {full_decode}, limit {cache_limit:?}");
                assert_eq!(r.app_output, native.output, "{what}");
                assert_eq!(stale, 0, "{what}: stale decode executed");
                total.merge(&r.stats);
            }
        }
    }
    for (what, n) in [
        ("links", total.links),
        ("traces", total.traces_built),
        ("evictions", total.evictions),
        ("code writes", total.code_writes),
        ("invalidations", total.invalidations),
    ] {
        assert!(n > 0, "no {what}: {total}");
    }
}
