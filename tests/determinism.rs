//! Determinism of the parallel experiment harness and the allocation-free
//! simulator hot loops, end to end.
//!
//! The harness contract: a grid of (workload × SchedConfig) cells run on N
//! worker threads produces *byte-identical* tables and CSV to a serial
//! run, because results are reassembled in submission order and each cell
//! simulates on its own `Gpu`. The hot-loop contract: reused scratch
//! buffers and completion sinks carry no state between cycles or runs, so
//! repeated runs of the same cell are bit-equal.

use bows_sim::prelude::*;
use experiments::{grid, SchedConfig};
use workloads::sync::Hashtable;

/// Serial (1 worker) vs parallel (2 and 8 workers) harness output for a
/// real figure (Fig. 9 perf/energy over the sync suite) and a real table
/// (Table III): byte-identical text and CSV.
///
/// All worker-count comparisons live in this ONE test because the worker
/// count is a process-global knob ([`grid::set_jobs`]); spreading them
/// over several #[test]s would race under the threaded test harness.
#[test]
fn parallel_grid_output_is_byte_identical_to_serial() {
    // Parametrized over both simulation engines: skip-engine cells must
    // reassemble identically to cycle-engine cells' schedule-invariant
    // output, and each engine must be thread-count invariant.
    for engine in [Engine::Cycle, Engine::Skip] {
        let mut cfg = GpuConfig::gtx480();
        cfg.engine = engine;
        grid::set_jobs(1);
        let fig9_serial = experiments::perf_energy_table(&cfg, Scale::Tiny);
        let table3_serial = experiments::table3_report(true);
        for workers in [2usize, 8] {
            grid::set_jobs(workers);
            let fig9 = experiments::perf_energy_table(&cfg, Scale::Tiny);
            assert_eq!(
                fig9.text(),
                fig9_serial.text(),
                "fig9 table drifted at {workers} workers ({engine:?})"
            );
            assert_eq!(
                fig9.csv(),
                fig9_serial.csv(),
                "fig9 CSV drifted at {workers} workers ({engine:?})"
            );
            assert_eq!(
                experiments::table3_report(true),
                table3_serial,
                "table3 drifted at {workers} workers ({engine:?})"
            );
        }
        grid::set_jobs(1);
    }
}

/// The big-machine probe: a contended cell on a full 15-SM GTX480 — CTA
/// refill, cross-SM lock traffic, BOWS back-off, and the adaptive window
/// all active. SMs are cycled in id order on the run's one thread, so the
/// observable result cannot depend on how many host threads exist; this
/// test pins that down by requiring repeated runs on each engine, and the
/// two engines against each other, to agree bit for bit on cycles,
/// statistics, and energy. (The 22-kernel corpus gets the engine
/// comparison on a 4-SM machine in `tests/engine_equivalence.rs`.)
#[test]
fn sm_thread_count_is_observationally_invariant() {
    let ht = Hashtable::with_params(256, 2, 8, 64);
    let sched = SchedConfig::bows_adaptive(BasePolicy::Gto);
    let mut cfg = GpuConfig::gtx480();
    cfg.engine = Engine::Cycle;
    let reference = experiments::run(&cfg, &ht, sched).expect("reference run");
    assert!(reference.verified.is_ok(), "reference run");
    for engine in [Engine::Cycle, Engine::Skip] {
        cfg.engine = engine;
        for rep in 0..2 {
            let run = experiments::run(&cfg, &ht, sched).expect("probe run");
            let at = format!("{engine:?} run {rep}");
            assert!(run.verified.is_ok(), "{at}");
            assert_eq!(run.cycles, reference.cycles, "{at}");
            assert_eq!(run.sim, reference.sim, "{at}");
            assert_eq!(run.mem, reference.mem, "{at}");
            assert_eq!(
                run.dynamic_j.to_bits(),
                reference.dynamic_j.to_bits(),
                "{at}"
            );
        }
    }
}

/// Regression guard for the scratch-buffer/completion-sink rework: two
/// fresh runs of the same contended cell (BOWS exercises the backed-off
/// queue, the hashtable exercises atomics and the L1/partition skip
/// paths) must agree on every observable statistic.
#[test]
fn repeated_runs_are_bit_equal() {
    for engine in [Engine::Cycle, Engine::Skip] {
        let mut cfg = GpuConfig::test_tiny();
        cfg.engine = engine;
        let ht = Hashtable::with_params(256, 2, 8, 64);
        let sched = SchedConfig::bows_adaptive(BasePolicy::Gto);
        let a = experiments::run(&cfg, &ht, sched).expect("first run");
        let b = experiments::run(&cfg, &ht, sched).expect("second run");
        assert!(a.verified.is_ok() && b.verified.is_ok(), "{engine:?}");
        assert_eq!(a.cycles, b.cycles, "{engine:?}");
        assert_eq!(a.sim, b.sim, "{engine:?}");
        assert_eq!(a.mem, b.mem, "{engine:?}");
        assert_eq!(a.dynamic_j.to_bits(), b.dynamic_j.to_bits(), "{engine:?}");
    }
}
