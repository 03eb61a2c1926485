//! The differential correctness oracle.
//!
//! Runs every corpus workload through two independent engines — the
//! cycle-level simulator (`simt-core`) and the functional reference
//! interpreter (`simt-ref`) — and compares final architectural state:
//!
//! * **Exact** workloads (schedule-independent final memory) are compared
//!   bytewise on global memory; non-sync workloads additionally compare
//!   every thread's final registers, predicates and shared memory.
//! * **Racy** workloads declare [`workloads::Postcond`]s, which both
//!   engines' final memories must satisfy — the *chaos timing-equivalence
//!   invariant*: no legal timing (scheduler choice, BOWS back-off, chaos
//!   fault injection) may break an architectural postcondition.
//!
//! A mismatch produces a structured [`DivergenceReport`]: the first
//! differing address or register, the warp that last wrote it, and the
//! kernel source line of that write.
//!
//! [`check_engines`] checks one more invariant, inside the simulator: a
//! cell run under `Engine::Skip` and under `Engine::Cycle` must agree on
//! cycles, statistics, final memory, or the error.

use crate::{grid, SchedConfig};
use bows::HashKind;
use simt_core::{BasePolicy, Engine, GpuConfig, SimError};
use simt_isa::Kernel;
use simt_mem::ChaosConfig;
use simt_ref::{run_ref, RefCta, RefError, RefLaunch, Writer};
use std::collections::HashMap;
use std::fmt;
use workloads::{
    reference_plan, run_workload_captured, CapturedRun, Equivalence, Postcond, Stage, Workload,
};

/// Default reference-interpreter fuel (total instructions across warps).
/// Tiny-scale corpus workloads execute well under a million instructions;
/// this leaves two orders of magnitude of headroom before a livelock is
/// declared.
pub const DEFAULT_FUEL: u64 = 1 << 27;

/// One cell of the differential matrix: a scheduling configuration plus an
/// optional chaos `(seed, level)`.
#[derive(Debug, Clone, Copy)]
pub struct DifferCell {
    /// Scheduler/BOWS/DDOS configuration.
    pub sched: SchedConfig,
    /// Chaos fault injection, if any.
    pub chaos: Option<(u64, u8)>,
}

impl DifferCell {
    /// Human-readable cell label, e.g. `gto+bows(adaptive)/chaos(42,2)`.
    pub fn label(&self) -> String {
        let mut s = self.sched.label();
        if self.sched.force_ddos && matches!(self.sched.ddos.hash, HashKind::Modulo) {
            s.push_str("+ddos(mod)");
        }
        match self.chaos {
            None => s,
            Some((seed, level)) => format!("{s}/chaos({seed},{level})"),
        }
    }

    /// The GPU configuration for this cell: `base` with final-state capture
    /// on and this cell's chaos settings.
    pub fn gpu_config(&self, base: &GpuConfig) -> GpuConfig {
        let mut cfg = base.clone();
        cfg.capture_final_state = true;
        if let Some((seed, level)) = self.chaos {
            cfg.mem.chaos = ChaosConfig::with_level(seed, level);
        }
        cfg
    }
}

/// The chaos `(seed, level)` points the full matrix sweeps (the same seeds
/// as `tests/chaos.rs`, at escalating severity).
pub const CHAOS_POINTS: [(u64, u8); 3] = [(1, 1), (42, 2), (0xDEAD_BEEF, 3)];

/// The differential configuration matrix.
///
/// `full` is the CI acceptance matrix: {GTO, LRR, CAWA} × {BOWS off,
/// BOWS adaptive} × {chaos off, three chaos seed/level points}, plus
/// Modulo-hash DDOS cells — 27 cells. The small matrix is a 7-cell
/// subset for per-commit smoke use.
pub fn matrix(full: bool) -> Vec<DifferCell> {
    let bases = [BasePolicy::Gto, BasePolicy::Lrr, BasePolicy::Cawa];
    let mut cells = Vec::new();
    if full {
        for base in bases {
            for sched in [SchedConfig::baseline(base), SchedConfig::bows_adaptive(base)] {
                cells.push(DifferCell { sched, chaos: None });
                for chaos in CHAOS_POINTS {
                    cells.push(DifferCell {
                        sched,
                        chaos: Some(chaos),
                    });
                }
            }
        }
        // DDOS with the cheaper Modulo hash misclassifies more branches;
        // back-off decisions change, architectural results must not.
        for chaos in [None, Some(CHAOS_POINTS[0]), Some(CHAOS_POINTS[1])] {
            cells.push(DifferCell {
                sched: modulo_ddos(BasePolicy::Gto),
                chaos,
            });
        }
    } else {
        cells.push(DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Gto),
            chaos: None,
        });
        cells.push(DifferCell {
            sched: SchedConfig::bows_adaptive(BasePolicy::Gto),
            chaos: Some(CHAOS_POINTS[1]),
        });
        cells.push(DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Lrr),
            chaos: Some(CHAOS_POINTS[0]),
        });
        cells.push(DifferCell {
            sched: SchedConfig::bows_adaptive(BasePolicy::Cawa),
            chaos: None,
        });
        cells.push(DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Cawa),
            chaos: Some(CHAOS_POINTS[2]),
        });
        cells.push(DifferCell {
            sched: SchedConfig::bows_adaptive(BasePolicy::Lrr),
            chaos: Some(CHAOS_POINTS[2]),
        });
        cells.push(DifferCell {
            sched: modulo_ddos(BasePolicy::Gto),
            chaos: None,
        });
    }
    cells
}

fn modulo_ddos(base: BasePolicy) -> SchedConfig {
    let mut sched = SchedConfig::bows_adaptive(base);
    sched.ddos.hash = HashKind::Modulo;
    sched.force_ddos = true;
    sched
}

/// Which engine a side-specific finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The functional reference interpreter.
    Reference,
    /// The cycle-level simulator.
    Simulator,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Reference => "reference",
            Side::Simulator => "simulator",
        })
    }
}

/// The first observed disagreement between the two engines.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Final global memory differs at `addr` (lowest differing byte
    /// address). `writer` is the reference's last writer of that word.
    Memory {
        /// Byte address of the first differing word.
        addr: u64,
        /// The reference interpreter's value.
        ref_val: u32,
        /// The simulator's value.
        sim_val: u32,
        /// Stage index and warp that last wrote the word in the reference.
        writer: Option<(usize, Writer)>,
    },
    /// A thread's final register differs.
    Register {
        /// Stage (kernel) index within the workload.
        stage: usize,
        /// Global CTA id.
        cta: usize,
        /// Thread index within the CTA.
        thread: usize,
        /// Register index.
        reg: usize,
        /// The reference interpreter's value.
        ref_val: u32,
        /// The simulator's value.
        sim_val: u32,
    },
    /// A thread's final predicate bitmask differs.
    Predicate {
        /// Stage (kernel) index within the workload.
        stage: usize,
        /// Global CTA id.
        cta: usize,
        /// Thread index within the CTA.
        thread: usize,
        /// The reference interpreter's bitmask.
        ref_val: u8,
        /// The simulator's bitmask.
        sim_val: u8,
    },
    /// A CTA's final shared-memory word differs.
    Shared {
        /// Stage (kernel) index within the workload.
        stage: usize,
        /// Global CTA id.
        cta: usize,
        /// Shared-memory word index.
        word: usize,
        /// The reference interpreter's value.
        ref_val: u32,
        /// The simulator's value.
        sim_val: u32,
    },
    /// A declared postcondition failed on one engine's final memory.
    Postcondition {
        /// The postcondition's name.
        name: String,
        /// Which engine violated it.
        side: Side,
        /// The checker's error message.
        error: String,
    },
    /// The reference interpreter could not complete the workload
    /// (fuel exhaustion = livelock under fair scheduling, or an invariant
    /// violation such as an out-of-bounds access).
    RefFailed {
        /// The reference error, rendered.
        error: String,
    },
    /// The simulator could not complete the workload (watchdog hang,
    /// cycle limit, launch error).
    SimFailed {
        /// The simulator error, rendered.
        error: String,
    },
    /// The simulator's Skip and Cycle engines disagree on one cell.
    Engine {
        /// The first differing observable, rendered.
        what: String,
    },
}

impl Divergence {
    /// Short kind tag, used in tables and fixture expectations.
    pub fn kind(&self) -> &'static str {
        match self {
            Divergence::Memory { .. } => "memory",
            Divergence::Register { .. } => "register",
            Divergence::Predicate { .. } => "predicate",
            Divergence::Shared { .. } => "shared",
            Divergence::Postcondition { .. } => "postcondition",
            Divergence::RefFailed { .. } => "ref-failed",
            Divergence::SimFailed { .. } => "sim-failed",
            Divergence::Engine { .. } => "engine",
        }
    }
}

/// A structured mismatch report: what diverged, where, and who wrote it.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Workload (or fixture/fuzz kernel) name.
    pub workload: String,
    /// Matrix-cell label the simulator ran under.
    pub config: String,
    /// The disagreement itself.
    pub divergence: Divergence,
    /// Kernel name owning the divergence site, when attributable.
    pub kernel: Option<String>,
    /// Kernel source line of the last write, when attributable.
    pub line: Option<u32>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: ", self.workload, self.config)?;
        match &self.divergence {
            Divergence::Memory {
                addr,
                ref_val,
                sim_val,
                writer,
            } => {
                write!(
                    f,
                    "memory[{addr:#x}] ref={ref_val:#x} sim={sim_val:#x}"
                )?;
                if let Some((stage, w)) = writer {
                    write!(
                        f,
                        " (last ref writer: stage {stage} cta {} warp {} pc {})",
                        w.cta, w.warp, w.pc
                    )?;
                }
            }
            Divergence::Register {
                stage,
                cta,
                thread,
                reg,
                ref_val,
                sim_val,
            } => write!(
                f,
                "stage {stage} cta {cta} thread {thread} r{reg}: ref={ref_val:#x} sim={sim_val:#x}"
            )?,
            Divergence::Predicate {
                stage,
                cta,
                thread,
                ref_val,
                sim_val,
            } => write!(
                f,
                "stage {stage} cta {cta} thread {thread} preds: ref={ref_val:#x} sim={sim_val:#x}"
            )?,
            Divergence::Shared {
                stage,
                cta,
                word,
                ref_val,
                sim_val,
            } => write!(
                f,
                "stage {stage} cta {cta} shared[{word}]: ref={ref_val:#x} sim={sim_val:#x}"
            )?,
            Divergence::Postcondition { name, side, error } => {
                write!(f, "postcondition `{name}` failed on {side}: {error}")?
            }
            Divergence::RefFailed { error } => write!(f, "reference failed: {error}")?,
            Divergence::SimFailed { error } => write!(f, "simulator failed: {error}")?,
            Divergence::Engine { what } => write!(f, "engines disagree: {what}")?,
        }
        if let (Some(k), Some(l)) = (&self.kernel, self.line) {
            write!(f, " at {k}:{l}")?;
        }
        Ok(())
    }
}

/// A completed reference execution of a whole workload (all stages).
pub struct RefRun {
    /// Final global memory after the last stage.
    pub gmem: simt_mem::GlobalMem,
    /// Per-stage final CTA states.
    pub stage_states: Vec<Vec<RefCta>>,
    /// Last writer of each global word, with the stage that wrote it.
    pub writers: HashMap<u64, (usize, Writer)>,
    /// Comparison mode declared by the workload.
    pub equivalence: Equivalence,
    /// Kernel names per stage (for attribution).
    pub kernels: Vec<String>,
    /// Total reference instructions executed.
    pub steps: u64,
}

impl RefRun {
    /// Kernel name and source line of the last reference write to `addr`.
    fn attribution(&self, addr: u64) -> (Option<String>, Option<u32>) {
        match self.writers.get(&addr) {
            Some(&(stage, w)) => (Some(self.kernels[stage].clone()), Some(w.line)),
            None => (None, None),
        }
    }
}

/// Execute `workload`'s stages on the reference interpreter.
///
/// # Errors
///
/// Propagates the first stage's [`RefError`] (fuel exhaustion or invariant
/// violation); the equivalence mode is returned alongside so the caller
/// can still classify the failure.
pub fn run_reference(
    cfg: &GpuConfig,
    workload: &dyn Workload,
    fuel: u64,
) -> Result<RefRun, (RefError, Equivalence)> {
    let plan = reference_plan(cfg, workload);
    run_reference_stages(&plan.stages, plan.initial_gmem, plan.equivalence, fuel)
}

/// Reference-execute a pre-built stage list over an initial memory image.
///
/// # Errors
///
/// See [`run_reference`].
pub fn run_reference_stages(
    stages: &[Stage],
    initial_gmem: simt_mem::GlobalMem,
    equivalence: Equivalence,
    fuel: u64,
) -> Result<RefRun, (RefError, Equivalence)> {
    let mut gmem = initial_gmem;
    let mut stage_states = Vec::new();
    let mut writers: HashMap<u64, (usize, Writer)> = HashMap::new();
    let mut kernels = Vec::new();
    let mut steps = 0;
    for (i, stage) in stages.iter().enumerate() {
        let launch = RefLaunch {
            grid_ctas: stage.launch.grid_ctas,
            threads_per_cta: stage.launch.threads_per_cta,
            params: &stage.launch.params,
        };
        let out = match run_ref(&stage.kernel, &launch, gmem, fuel) {
            Ok(out) => out,
            Err(e) => return Err((e, equivalence)),
        };
        gmem = out.gmem;
        stage_states.push(out.ctas);
        for (addr, w) in out.writers {
            writers.insert(addr, (i, w));
        }
        kernels.push(stage.kernel.name.clone());
        steps += out.steps;
    }
    Ok(RefRun {
        gmem,
        stage_states,
        writers,
        equivalence,
        kernels,
        steps,
    })
}

/// Run one simulator cell of the matrix with final-state capture.
///
/// # Errors
///
/// Propagates [`SimError`] (hang, cycle limit, launch error).
pub fn run_sim_cell(
    base_cfg: &GpuConfig,
    workload: &dyn Workload,
    cell: &DifferCell,
) -> Result<CapturedRun, SimError> {
    let cfg = cell.gpu_config(base_cfg);
    let rotate = cfg.gto_rotate_period;
    let warps = cfg.warps_per_sm();
    let sched = cell.sched;
    let policy = bows::policy_factory(sched.base, sched.bows, rotate);
    if sched.bows.is_some() || sched.force_ddos {
        run_workload_captured(&cfg, workload, &policy, &bows::ddos_factory(sched.ddos, warps))
    } else {
        run_workload_captured(&cfg, workload, &policy, &|k: &Kernel| {
            if k.true_sibs.is_empty() {
                Box::new(simt_core::NullDetector)
            } else {
                Box::new(simt_core::StaticSibDetector::new(k.true_sibs.clone()))
            }
        })
    }
}

/// Compare a finished simulator run against the reference run.
///
/// `compare_regs` additionally compares per-thread registers, predicates
/// and shared memory (sound only for workloads whose per-thread state is
/// schedule-independent — the non-sync corpus and atomics-free fuzz
/// kernels; sync workloads carry schedule-dependent CAS results in
/// registers even when their memory is deterministic).
pub fn compare(
    workload: &str,
    config: &str,
    reference: &RefRun,
    sim: &CapturedRun,
    compare_regs: bool,
) -> Vec<DivergenceReport> {
    let mut reports = Vec::new();
    let report = |divergence: Divergence, kernel: Option<String>, line: Option<u32>| {
        DivergenceReport {
            workload: workload.to_string(),
            config: config.to_string(),
            divergence,
            kernel,
            line,
        }
    };
    match &reference.equivalence {
        Equivalence::Exact => {
            if let Some(addr) = reference.gmem.first_diff(&sim.gmem) {
                let (kernel, line) = reference.attribution(addr);
                reports.push(report(
                    Divergence::Memory {
                        addr,
                        ref_val: word_at(&reference.gmem, addr),
                        sim_val: word_at(&sim.gmem, addr),
                        writer: reference.writers.get(&addr).copied(),
                    },
                    kernel,
                    line,
                ));
            }
        }
        Equivalence::Postconditions(posts) => {
            check_postconds(posts, reference, sim, workload, config, &mut reports);
        }
    }
    if compare_regs {
        compare_states(reference, sim, workload, config, &mut reports);
    }
    reports
}

fn word_at(g: &simt_mem::GlobalMem, addr: u64) -> u32 {
    let idx = (addr / 4) as usize;
    g.image().get(idx).copied().unwrap_or(0)
}

fn check_postconds(
    posts: &[Postcond],
    reference: &RefRun,
    sim: &CapturedRun,
    workload: &str,
    config: &str,
    reports: &mut Vec<DivergenceReport>,
) {
    for p in posts {
        for (side, g) in [(Side::Reference, &reference.gmem), (Side::Simulator, &sim.gmem)] {
            if let Err(error) = (p.check)(g) {
                reports.push(DivergenceReport {
                    workload: workload.to_string(),
                    config: config.to_string(),
                    divergence: Divergence::Postcondition {
                        name: p.name.clone(),
                        side,
                        error,
                    },
                    kernel: None,
                    line: None,
                });
            }
        }
    }
}

fn compare_states(
    reference: &RefRun,
    sim: &CapturedRun,
    workload: &str,
    config: &str,
    reports: &mut Vec<DivergenceReport>,
) {
    for (stage, (ref_ctas, stage_res)) in reference
        .stage_states
        .iter()
        .zip(&sim.result.stages)
        .enumerate()
    {
        let Some(sim_ctas) = &stage_res.report.final_state else {
            continue; // capture was off for this run
        };
        for (rc, sc) in ref_ctas.iter().zip(sim_ctas) {
            debug_assert_eq!(rc.cta_id, sc.cta_id);
            let mk = |divergence| DivergenceReport {
                workload: workload.to_string(),
                config: config.to_string(),
                divergence,
                kernel: Some(reference.kernels[stage].clone()),
                line: None,
            };
            if rc.regs != sc.regs {
                let i = rc.regs.iter().zip(&sc.regs).position(|(a, b)| a != b).unwrap();
                reports.push(mk(Divergence::Register {
                    stage,
                    cta: rc.cta_id,
                    thread: i / rc.regs_per_thread,
                    reg: i % rc.regs_per_thread,
                    ref_val: rc.regs[i],
                    sim_val: sc.regs[i],
                }));
                return; // first divergence only; later state is noise
            }
            if rc.preds != sc.preds {
                let i = rc.preds.iter().zip(&sc.preds).position(|(a, b)| a != b).unwrap();
                reports.push(mk(Divergence::Predicate {
                    stage,
                    cta: rc.cta_id,
                    thread: i,
                    ref_val: rc.preds[i],
                    sim_val: sc.preds[i],
                }));
                return;
            }
            if rc.shared != sc.shared {
                let i = rc
                    .shared
                    .iter()
                    .zip(&sc.shared)
                    .position(|(a, b)| a != b)
                    .unwrap();
                reports.push(mk(Divergence::Shared {
                    stage,
                    cta: rc.cta_id,
                    word: i,
                    ref_val: rc.shared[i],
                    sim_val: sc.shared[i],
                }));
                return;
            }
        }
    }
}

/// Differentially check one workload under one matrix cell, given a
/// precomputed reference run (the reference is timing-free, so one run
/// serves every cell).
pub fn check_cell(
    base_cfg: &GpuConfig,
    workload: &dyn Workload,
    cell: &DifferCell,
    reference: &Result<RefRun, (RefError, Equivalence)>,
) -> Vec<DivergenceReport> {
    let config = cell.label();
    let name = workload.name();
    match reference {
        Err((e, _)) => vec![DivergenceReport {
            workload: name.to_string(),
            config,
            divergence: Divergence::RefFailed {
                error: e.to_string(),
            },
            kernel: None,
            line: None,
        }],
        Ok(r) => match run_sim_cell(base_cfg, workload, cell) {
            Err(e) => vec![DivergenceReport {
                workload: name.to_string(),
                config,
                divergence: Divergence::SimFailed {
                    error: e.to_string(),
                },
                kernel: None,
                line: None,
            }],
            Ok(sim) => compare(name, &config, r, &sim, !workload.is_sync()),
        },
    }
}

/// Check engine equivalence on one cell: run it under `Engine::Skip` and
/// `Engine::Cycle` and compare cycles, `SimStats`, `MemStats` and final
/// memory, or the two errors. `None` when the engines agree.
pub fn check_engines(
    base_cfg: &GpuConfig,
    workload: &dyn Workload,
    cell: &DifferCell,
) -> Option<DivergenceReport> {
    let run = |engine| {
        let mut cfg = base_cfg.clone();
        cfg.engine = engine;
        run_sim_cell(&cfg, workload, cell)
    };
    let what = match (run(Engine::Skip), run(Engine::Cycle)) {
        (Ok(skip), Ok(cycle)) => {
            let (s, c) = (&skip.result, &cycle.result);
            if s.cycles != c.cycles {
                format!("cycles: skip {} vs cycle {}", s.cycles, c.cycles)
            } else if s.sim != c.sim {
                format!("SimStats: skip {:?} vs cycle {:?}", s.sim, c.sim)
            } else if s.mem != c.mem {
                format!("MemStats: skip {:?} vs cycle {:?}", s.mem, c.mem)
            } else {
                let addr = skip.gmem.first_diff(&cycle.gmem)?;
                let (sv, cv) = (word_at(&skip.gmem, addr), word_at(&cycle.gmem, addr));
                format!("memory[{addr:#x}]: skip {sv:#x} vs cycle {cv:#x}")
            }
        }
        (Err(skip), Err(cycle)) if skip == cycle => return None,
        (skip, cycle) => {
            let show = |r: Result<CapturedRun, SimError>| match r {
                Ok(run) => format!("completed in {} cycles", run.result.cycles),
                Err(e) => e.to_string(),
            };
            format!("skip {} vs cycle {}", show(skip), show(cycle))
        }
    };
    Some(DivergenceReport {
        workload: workload.name().to_string(),
        config: cell.label(),
        divergence: Divergence::Engine { what },
        kernel: None,
        line: None,
    })
}

/// Differentially check a whole suite against a matrix: the reference runs
/// once per workload, every (workload × cell) simulator run goes through
/// the deterministic parallel grid. Returns all divergences, in
/// submission order.
pub fn check_suite(
    base_cfg: &GpuConfig,
    suite: &[Box<dyn Workload>],
    cells: &[DifferCell],
    fuel: u64,
) -> Vec<DivergenceReport> {
    // Reference runs are independent of the matrix; compute them in
    // parallel too (indexed, so order is deterministic).
    let idx: Vec<usize> = (0..suite.len()).collect();
    let refs = grid::parallel_map(&idx, |_, &w| run_reference(base_cfg, suite[w].as_ref(), fuel));
    let pairs: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|w| (0..cells.len()).map(move |c| (w, c)))
        .collect();
    let nested = grid::parallel_map(&pairs, |_, &(w, c)| {
        check_cell(base_cfg, suite[w].as_ref(), &cells[c], &refs[w])
    });
    nested.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    fn tiny() -> GpuConfig {
        GpuConfig::test_tiny()
    }

    #[test]
    fn exact_sync_workload_matches_bytewise() {
        // ST: deterministic final memory even though it synchronizes.
        let w = workloads::sync_suite(Scale::Tiny).remove(1);
        let r = run_reference(&tiny(), w.as_ref(), DEFAULT_FUEL).map_err(|(e, _)| e).unwrap();
        assert!(matches!(r.equivalence, Equivalence::Exact));
        let cell = DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Gto),
            chaos: None,
        };
        let sim = run_sim_cell(&tiny(), w.as_ref(), &cell).unwrap();
        let reports = compare(w.name(), &cell.label(), &r, &sim, false);
        assert!(reports.is_empty(), "{:?}", reports.first());
    }

    #[test]
    fn racy_workload_postconditions_hold_on_both_engines() {
        // HT: chain order is schedule-dependent; postconditions must hold.
        let w = workloads::sync_suite(Scale::Tiny).remove(4);
        let r = run_reference(&tiny(), w.as_ref(), DEFAULT_FUEL).map_err(|(e, _)| e).unwrap();
        assert!(r.equivalence.postconditions().is_some());
        let cell = DifferCell {
            sched: SchedConfig::bows_adaptive(BasePolicy::Gto),
            chaos: Some((42, 2)),
        };
        let reports = check_cell(&tiny(), w.as_ref(), &cell, &Ok(r));
        assert!(reports.is_empty(), "{:?}", reports.first());
    }

    #[test]
    fn rodinia_matches_registers_too() {
        let w = workloads::rodinia_suite(Scale::Tiny).remove(0);
        let cell = DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Lrr),
            chaos: Some((1, 1)),
        };
        let r = run_reference(&tiny(), w.as_ref(), DEFAULT_FUEL);
        assert!(r.is_ok());
        let reports = check_cell(&tiny(), w.as_ref(), &cell, &r);
        assert!(reports.is_empty(), "{:?}", reports.first());
    }

    #[test]
    fn matrix_sizes() {
        assert_eq!(matrix(true).len(), 27);
        assert_eq!(matrix(false).len(), 7);
        // Full matrix covers 3 schedulers × BOWS on/off × ≥3 chaos points.
        let full = matrix(true);
        let chaos_points: std::collections::HashSet<_> =
            full.iter().filter_map(|c| c.chaos).collect();
        assert!(chaos_points.len() >= 3);
    }

    #[test]
    fn divergence_report_renders_attribution() {
        let r = DivergenceReport {
            workload: "HT".into(),
            config: "gto".into(),
            divergence: Divergence::Memory {
                addr: 0x40,
                ref_val: 1,
                sim_val: 2,
                writer: Some((
                    0,
                    Writer {
                        cta: 3,
                        warp: 1,
                        pc: 9,
                        line: 12,
                    },
                )),
            },
            kernel: Some("ht_insert".into()),
            line: Some(12),
        };
        let s = r.to_string();
        assert!(s.contains("memory[0x40]"), "{s}");
        assert!(s.contains("ht_insert:12"), "{s}");
        assert!(s.contains("warp 1"), "{s}");
    }
}
