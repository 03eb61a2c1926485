//! Engine-equivalence suite: the event-horizon fast-forward engine
//! (`Engine::Skip`) must be observationally identical to the one-cycle-
//! at-a-time engine (`Engine::Cycle`) — byte-identical final memory and
//! bit-equal `SimStats`/`MemStats`/cycle counts — across the full
//! 22-kernel corpus under every scheduler, with and without BOWS, and
//! with and without seeded chaos; GTO also runs at short age-rotation
//! periods, so dead spans cross rotation edges. The skip engine is a pure
//! simulation of dead time; any divergence here is a bug in its horizon
//! analysis.
//!
//! The matrix is split into one `#[test]` per (policy × suite) so the
//! harness parallelizes it across threads.

use bows::{AdaptiveConfig, DdosConfig, DelayMode};
use simt_core::{
    BasePolicy, CheckpointCtl, Engine, Gpu, GpuConfig, HangClass, HangReport, LaunchSpec,
    NullDetector, SimError,
};
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
    /// `gto_rotate_period` (only GTO reads it).
    rotate: u64,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{}{}{}/rotate {}",
            self.base.name(),
            if self.bows { "+bows" } else { "" },
            match self.chaos {
                Some((s, l)) => format!("+chaos({s},{l})"),
                None => String::new(),
            },
            self.rotate
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
    cfg.gto_rotate_period = cell.rotate;
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
/// {chaos off, seeded} × {the preset rotation period, `extra_rotations`}
/// under one base policy. Four SMs (rather than `test_tiny`'s one) so
/// CTAs actually spread across SMs and the runs exercise cross-SM request
/// order and CTA refill.
fn sweep(base: BasePolicy, suite: &[Box<dyn Workload>], extra_rotations: &[u64]) {
    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 4;
    let rotations: Vec<u64> = std::iter::once(cfg.gto_rotate_period)
        .chain(extra_rotations.iter().copied())
        .collect();
    for w in suite {
        for bows in [false, true] {
            for chaos in [None, Some((42u64, 2u8))] {
                for &rotate in &rotations {
                    let cell = Cell {
                        base,
                        bows,
                        chaos,
                        rotate,
                    };
                    check_cell(&cfg, w.as_ref(), cell);
                }
            }
        }
    }
}

/// Short GTO rotation periods (the preset's 50 000 outlasts most tiny
/// runs), so many dead spans cross a rotation edge. The Skip horizon has
/// no rotation term; these cells pin that GTO's lazily computed ranks
/// make one unnecessary. Only GTO reads the period.
const GTO_ROTATIONS: [u64; 2] = [97, 1_000];

#[test]
fn gto_sync_suite_engines_agree() {
    sweep(BasePolicy::Gto, &sync_suite(Scale::Tiny), &GTO_ROTATIONS);
}

#[test]
fn gto_rodinia_suite_engines_agree() {
    sweep(BasePolicy::Gto, &rodinia_suite(Scale::Tiny), &GTO_ROTATIONS);
}

#[test]
fn lrr_sync_suite_engines_agree() {
    sweep(BasePolicy::Lrr, &sync_suite(Scale::Tiny), &[]);
}

#[test]
fn lrr_rodinia_suite_engines_agree() {
    sweep(BasePolicy::Lrr, &rodinia_suite(Scale::Tiny), &[]);
}

#[test]
fn cawa_sync_suite_engines_agree() {
    sweep(BasePolicy::Cawa, &sync_suite(Scale::Tiny), &[]);
}

#[test]
fn cawa_rodinia_suite_engines_agree() {
    sweep(BasePolicy::Cawa, &rodinia_suite(Scale::Tiny), &[]);
}

// ---------------------------------------------------------------------
// Watchdog equivalence: hangs must be diagnosed with the same HangClass
// at the same cycle under both engines, and from any checkpoint. The
// livelock fixture keeps the machine issuing (fast-forward never
// triggers, but every SCAN_PERIOD boundary must still be scanned); the
// deadlock fixture goes fully quiescent (the skip engine jumps straight
// to the idle watchdog's `idle_since + watchdog_cycles` deadline).
// ---------------------------------------------------------------------

/// Every CTA's warp takes a lock once (only the first warp gets it, so
/// the lock count moves before the hang), then spins forever on a flag
/// nobody sets.
const SPIN_SRC: &str = r#"
    .kernel stuck
    .regs 8
    .params 1
        ld.param r1, [0]
        atom.global.cas r3, [r1+4], 0, 1 !acquire !sync
    top:
        ld.global.volatile r2, [r1]
        setp.eq.s32 p1, r2, 0
    @p1 bra top
        exit
"#;

/// Every lane tries to acquire a lock that is pre-held (flag 1) and never
/// released: under blocking locks every warp parks forever and the memory
/// system goes quiescent.
const DEADLOCK_SRC: &str = r#"
    .kernel dead
    .regs 8
    .params 1
        ld.param r1, [0]
        atom.global.cas r2, [r1], 0, 1 !acquire !sync
        exit
"#;

/// Run a hang fixture under one engine, optionally checkpointing or
/// resuming through `ctl`, and return its diagnosis. Four CTAs on four
/// SMs: every SM hosts a stuck warp, so hang attribution is contested and
/// must resolve to the least `(sm, warp)` pair regardless of engine.
fn hang_under(
    engine: Engine,
    blocking_locks: bool,
    src: &str,
    flag_init: u32,
    ctl: Option<CheckpointCtl<'_>>,
) -> (u64, HangReport) {
    let kernel = assemble(src).unwrap();
    // No SIBs are marked, so `Gpu::run_baseline` would also pick the
    // null detector.
    assert!(kernel.true_sibs.is_empty());
    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 4;
    cfg.engine = engine;
    cfg.blocking_locks = blocking_locks;
    cfg.watchdog_cycles = 5_000;
    cfg.max_cycles = 100_000;
    let rotate = cfg.gto_rotate_period;
    let mut gpu = Gpu::new(cfg);
    // Word 0 is the flag, word 1 the spin fixture's lock.
    let flag = gpu.mem_mut().gmem_mut().alloc(2);
    gpu.mem_mut().gmem_mut().write_u32(flag, flag_init);
    let launch = LaunchSpec {
        grid_ctas: 4,
        threads_per_cta: 32,
        params: vec![flag as u32],
    };
    match gpu.run_with_checkpoints(
        &kernel,
        &launch,
        &move || BasePolicy::Gto.build(rotate),
        &|_: &Kernel| Box::new(NullDetector),
        ctl,
    ) {
        Err(SimError::Deadlock { cycle, report }) => (cycle, *report),
        other => panic!("expected a classified hang, got {other:?}"),
    }
}

/// Assert one hang fixture diagnoses identically — same class, same
/// cycle, bit-equal report (including the starving `(sm, warp)` winner
/// and the warp-snapshot order) — under both engines.
fn check_hang(blocking_locks: bool, src: &str, flag_init: u32, class: HangClass) {
    let (ref_at, ref_report) = hang_under(Engine::Cycle, blocking_locks, src, flag_init, None);
    assert_eq!(ref_report.class, class);
    let (at, report) = hang_under(Engine::Skip, blocking_locks, src, flag_init, None);
    assert_eq!(at, ref_at, "{class:?} diagnosed at different cycles (Skip)");
    assert_eq!(report, ref_report, "{class:?} reports diverge (Skip)");
}

/// Under both engines, checkpoint a hang fixture every 4096 cycles (on
/// scan boundaries) and every 1000 (off them), then resume each snapshot
/// on a fresh GPU: the checkpointing run and every resumed run must hang
/// at the uninterrupted run's cycle with a bit-equal report. The hang
/// state the run loop carries across a snapshot (`idle_since`,
/// `livelock_since`, `locks_at_scan`) is what this pins.
fn check_hang_resume(blocking_locks: bool, src: &str, flag_init: u32) {
    for engine in [Engine::Cycle, Engine::Skip] {
        let reference = hang_under(engine, blocking_locks, src, flag_init, None);
        for every in [4096, 1000] {
            let at = format!("{:?} at {:?}, every {every}", reference.1.class, engine);
            let mut bodies: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut sink = |cycle: u64, body: &[u8]| bodies.push((cycle, body.to_vec()));
            let ctl = CheckpointCtl {
                every,
                sink: &mut sink,
                resume: None,
            };
            let run = hang_under(engine, blocking_locks, src, flag_init, Some(ctl));
            assert_eq!(run, reference, "checkpointing perturbed the hang: {at}");
            assert!(!bodies.is_empty(), "hang before the first checkpoint: {at}");
            for (cycle, body) in &bodies {
                let mut sink = |_: u64, _: &[u8]| {};
                let ctl = CheckpointCtl {
                    every: 0,
                    sink: &mut sink,
                    resume: Some(body),
                };
                let (hang_at, report) =
                    hang_under(engine, blocking_locks, src, flag_init, Some(ctl));
                assert_eq!(hang_at, reference.0, "resumed from {cycle}: {at}");
                assert_eq!(report, reference.1, "resumed from {cycle}: {at}");
            }
        }
    }
}

#[test]
fn spin_livelock_diagnosed_identically() {
    check_hang(false, SPIN_SRC, 0, HangClass::SpinLivelock);
}

#[test]
fn global_deadlock_diagnosed_identically() {
    // The idle watchdog must fire at exactly `idle_since +
    // watchdog_cycles` in both engines.
    check_hang(true, DEADLOCK_SRC, 1, HangClass::GlobalDeadlock);
}

#[test]
fn spin_livelock_resumes_identically() {
    check_hang_resume(false, SPIN_SRC, 0);
}

#[test]
fn global_deadlock_resumes_identically() {
    check_hang_resume(true, DEADLOCK_SRC, 1);
}
