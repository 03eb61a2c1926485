//! Engine-equivalence suite: the event-horizon fast-forward engine
//! (`Engine::Skip`) must be observationally identical to the one-cycle-
//! at-a-time engine (`Engine::Cycle`) — byte-identical final memory and
//! bit-equal `SimStats`/`MemStats`/cycle counts — across the full
//! 22-kernel corpus under every scheduler, with and without BOWS, and
//! with and without seeded chaos. The skip engine is a pure simulation
//! of dead time; any divergence here is a bug in its horizon analysis.
//!
//! The matrix is split into one `#[test]` per (policy × suite) so the
//! harness parallelizes it across threads.

use bows::{AdaptiveConfig, DdosConfig, DelayMode};
use simt_core::{BasePolicy, Engine, GpuConfig, Gpu, HangClass, HangReport, LaunchSpec, SimError};
use simt_isa::asm::assemble;
use simt_isa::Kernel;
use simt_mem::ChaosConfig;
use workloads::{rodinia_suite, run_workload_captured, sync_suite, CapturedRun, Scale, Workload};

/// One scheduling/perturbation cell of the matrix.
#[derive(Clone, Copy)]
struct Cell {
    base: BasePolicy,
    bows: bool,
    chaos: Option<(u64, u8)>,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{}{}{}",
            self.base.name(),
            if self.bows { "+bows" } else { "" },
            match self.chaos {
                Some((s, l)) => format!("+chaos({s},{l})"),
                None => String::new(),
            }
        )
    }
}

/// Run one workload under one cell, mirroring `experiments::run`'s
/// factory wiring (BOWS gets a live DDOS, baselines the static oracle).
fn captured(cfg: &GpuConfig, w: &dyn Workload, cell: Cell) -> CapturedRun {
    let bows_mode = cell.bows.then(|| DelayMode::Adaptive(AdaptiveConfig::default()));
    let policy = bows::policy_factory(cell.base, bows_mode, cfg.gto_rotate_period);
    let res = if cell.bows {
        run_workload_captured(
            cfg,
            w,
            &policy,
            &bows::ddos_factory(DdosConfig::default(), cfg.warps_per_sm()),
        )
    } else {
        run_workload_captured(cfg, w, &policy, &|k: &Kernel| {
            if k.true_sibs.is_empty() {
                Box::new(simt_core::NullDetector)
            } else {
                Box::new(simt_core::StaticSibDetector::new(k.true_sibs.clone()))
            }
        })
    };
    res.unwrap_or_else(|e| panic!("{} under {}: {e:?}", w.name(), cell.label()))
}

/// Assert the skip-engine run of one cell is indistinguishable from the
/// cycle-engine run: same cycle count, bit-equal statistics,
/// byte-identical final memory.
fn check_cell(base_cfg: &GpuConfig, w: &dyn Workload, cell: Cell) {
    let mut cfg = base_cfg.clone();
    if let Some((seed, level)) = cell.chaos {
        cfg.mem.chaos = ChaosConfig::with_level(seed, level);
    }
    cfg.engine = Engine::Cycle;
    let reference = captured(&cfg, w, cell);
    cfg.engine = Engine::Skip;
    let run = captured(&cfg, w, cell);
    let at = format!("{} under {}", w.name(), cell.label());
    assert_eq!(run.result.cycles, reference.result.cycles, "cycles diverge: {at}");
    assert_eq!(run.result.sim, reference.result.sim, "SimStats diverge: {at}");
    assert_eq!(run.result.mem, reference.result.mem, "MemStats diverge: {at}");
    if let Some(addr) = reference.gmem.first_diff(&run.gmem) {
        panic!(
            "final memory diverges at {addr:#x}: {at} \
             (reference={:#x}, run={:#x})",
            reference.gmem.read_u32(addr),
            run.gmem.read_u32(addr)
        );
    }
    assert_eq!(reference.gmem.image(), run.gmem.image(), "memory image: {at}");
}

/// Sweep every workload of `suite` through {BOWS off, adaptive} ×
/// {chaos off, seeded} under one base policy. Four SMs (rather than
/// `test_tiny`'s one) so CTAs actually spread across SMs and the runs
/// exercise cross-SM request order and CTA refill.
fn sweep(base: BasePolicy, suite: &[Box<dyn Workload>]) {
    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 4;
    for w in suite {
        for bows in [false, true] {
            for chaos in [None, Some((42u64, 2u8))] {
                check_cell(&cfg, w.as_ref(), Cell { base, bows, chaos });
            }
        }
    }
}

#[test]
fn gto_sync_suite_engines_agree() {
    sweep(BasePolicy::Gto, &sync_suite(Scale::Tiny));
}

#[test]
fn gto_rodinia_suite_engines_agree() {
    sweep(BasePolicy::Gto, &rodinia_suite(Scale::Tiny));
}

#[test]
fn lrr_sync_suite_engines_agree() {
    sweep(BasePolicy::Lrr, &sync_suite(Scale::Tiny));
}

#[test]
fn lrr_rodinia_suite_engines_agree() {
    sweep(BasePolicy::Lrr, &rodinia_suite(Scale::Tiny));
}

#[test]
fn cawa_sync_suite_engines_agree() {
    sweep(BasePolicy::Cawa, &sync_suite(Scale::Tiny));
}

#[test]
fn cawa_rodinia_suite_engines_agree() {
    sweep(BasePolicy::Cawa, &rodinia_suite(Scale::Tiny));
}

// ---------------------------------------------------------------------
// Watchdog equivalence: hangs must be diagnosed with the same HangClass
// at the same cycle under both engines. The livelock fixture keeps the
// machine issuing (fast-forward never triggers, but the scan clamp must
// still land on every SCAN_PERIOD boundary); the deadlock fixture goes
// fully quiescent (the skip engine jumps straight to the watchdog
// deadline, exercising the `idle_since + watchdog_cycles` clamp).
// ---------------------------------------------------------------------

/// Run a hang fixture under one engine and return its diagnosis. Four
/// CTAs on four SMs: every SM hosts a stuck warp, so hang attribution is
/// contested and must resolve to the explicit lexicographically-least
/// `(sm, warp)` pair regardless of engine.
fn hang_under(
    engine: Engine,
    blocking_locks: bool,
    src: &str,
    flag_init: u32,
) -> (u64, HangReport) {
    let kernel = assemble(src).unwrap();
    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 4;
    cfg.engine = engine;
    cfg.blocking_locks = blocking_locks;
    cfg.watchdog_cycles = 5_000;
    cfg.max_cycles = 100_000;
    let mut gpu = Gpu::new(cfg);
    let flag = gpu.mem_mut().gmem_mut().alloc(1);
    gpu.mem_mut().gmem_mut().write_u32(flag, flag_init);
    let launch = LaunchSpec {
        grid_ctas: 4,
        threads_per_cta: 32,
        params: vec![flag as u32],
    };
    match gpu.run_baseline(&kernel, &launch, BasePolicy::Gto) {
        Err(SimError::Deadlock { cycle, report }) => (cycle, *report),
        other => panic!("expected a classified hang, got {other:?}"),
    }
}

/// Assert one hang fixture diagnoses identically — same class, same
/// cycle, bit-equal report (including the starving `(sm, warp)` winner
/// and the warp-snapshot order) — under both engines.
fn check_hang(blocking_locks: bool, src: &str, flag_init: u32, class: HangClass) {
    let (ref_at, ref_report) = hang_under(Engine::Cycle, blocking_locks, src, flag_init);
    assert_eq!(ref_report.class, class);
    let (at, report) = hang_under(Engine::Skip, blocking_locks, src, flag_init);
    assert_eq!(at, ref_at, "{class:?} diagnosed at different cycles (Skip)");
    assert_eq!(report, ref_report, "{class:?} reports diverge (Skip)");
}

#[test]
fn spin_livelock_diagnosed_identically() {
    // Every CTA's warp spins forever on a flag nobody sets.
    let src = r#"
        .kernel stuck
        .regs 8
        .params 1
            ld.param r1, [0]
        top:
            ld.global.volatile r2, [r1]
            setp.eq.s32 p1, r2, 0
        @p1 bra top
            exit
    "#;
    check_hang(false, src, 0, HangClass::SpinLivelock);
}

#[test]
fn global_deadlock_diagnosed_identically() {
    // Every lane tries to acquire a lock that is pre-held and never
    // released: under blocking locks every warp parks forever, the
    // memory system goes quiescent, and the idle watchdog must fire at
    // exactly `idle_since + watchdog_cycles` in both engines.
    let src = r#"
        .kernel dead
        .regs 8
        .params 1
            ld.param r1, [0]
            atom.global.cas r2, [r1], 0, 1 !acquire !sync
            exit
    "#;
    check_hang(true, src, 1, HangClass::GlobalDeadlock);
}
