//! GPU top level: CTA dispatch, the main cycle loop, run reports.

use crate::cancel::{CancelCause, CancelToken};
use crate::detect::{BranchLog, NullDetector, SpinDetector, StaticSibDetector};
use crate::sched::{BasePolicy, SchedulerPolicy};
use crate::sm::{LaunchCtx, Sm, SnapLimits};
use crate::watchdog::{HangClass, HangReport, ProgressScan};
use crate::{EnergyBreakdown, EnergyModel, Engine, GpuConfig, SimStats};
use simt_isa::Kernel;
use simt_mem::{MemStats, MemorySystem};
use std::collections::VecDeque;
use std::fmt;

/// Cycles between forward-progress scans. A power of two well below any
/// sensible `watchdog_cycles`, so scan cost stays negligible while hang
/// detection latency stays within ~2x the watchdog window.
const SCAN_PERIOD: u64 = 2048;

/// Factory producing one scheduler-policy instance per scheduler unit.
pub type PolicyFactory<'a> = dyn Fn() -> Box<dyn SchedulerPolicy> + 'a;

/// Factory producing one spin detector per SM.
pub type DetectorFactory<'a> = dyn Fn(&Kernel) -> Box<dyn SpinDetector> + 'a;

/// Kernel launch geometry and parameters.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// CTAs in the grid.
    pub grid_ctas: usize,
    /// Threads per CTA (≤ 1024; the last warp may be partial).
    pub threads_per_cta: usize,
    /// 32-bit parameter slots, read by `ld.param`.
    pub params: Vec<u32>,
}

/// Checkpoint control for [`Gpu::run_with_checkpoints`].
///
/// The GPU produces and consumes raw snapshot *bodies*: framing them in the
/// `simt-snap` envelope, writing them atomically, and naming files is the
/// caller's concern (see `bows-run --checkpoint-every` / `--resume`).
/// Snapshot boundaries are the tops of run-loop iterations at cycles that
/// are multiples of `every`, where the machine is between cycles.
///
/// Snapshots are engine-specific only through the config fingerprint
/// (resuming under a different [`Engine`](crate::Engine) is rejected, not
/// silently wrong).
pub struct CheckpointCtl<'a> {
    /// Snapshot cadence in cycles; `0` disables periodic snapshots
    /// (resume-only use).
    pub every: u64,
    /// Receives each snapshot as `(cycle, body)`.
    pub sink: &'a mut dyn FnMut(u64, &[u8]),
    /// Snapshot body to restore instead of performing the initial CTA
    /// dispatch (bytes a previous `sink` call received).
    pub resume: Option<&'a [u8]>,
}

impl std::fmt::Debug for CheckpointCtl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointCtl")
            .field("every", &self.every)
            .field("resume", &self.resume.map(<[u8]>::len))
            .finish()
    }
}

/// Why a run stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The forward-progress watchdog declared a hang: a SIMT-induced
    /// deadlock, spin livelock, or warp starvation. The report classifies
    /// the hang and snapshots every live warp.
    Deadlock {
        /// Cycle at which the hang was declared.
        cycle: u64,
        /// Structured diagnosis.
        report: Box<HangReport>,
    },
    /// `max_cycles` exceeded without the watchdog seeing a hang pattern.
    CycleLimit {
        /// The cycle limit that was hit.
        cycle: u64,
        /// Warp snapshots at the limit (class [`HangClass::CycleLimit`]).
        report: Box<HangReport>,
    },
    /// Launch geometry the configuration can never satisfy.
    LaunchTooLarge {
        /// What did not fit.
        reason: String,
    },
    /// The [`GpuConfig`] itself is structurally invalid (zero SMs, zero
    /// scheduler units, zero warp size, ...). Reachable from a hostile
    /// `simt-serve` request config, so it surfaces as a typed error at
    /// run entry — never a panic deep inside the run loop.
    InvalidConfig {
        /// What is wrong with the configuration.
        what: String,
    },
    /// The simulator caught itself in a state that should be unreachable.
    /// Surfaced as an error (not a panic) so sweeps over many workloads can
    /// report and continue.
    InternalInvariant {
        /// The broken invariant.
        what: String,
    },
    /// A simulated kernel accessed device global memory outside every
    /// allocation (or unaligned) — a kernel/request bug, surfaced as a
    /// typed error so a malformed service request can never panic a
    /// worker thread.
    DeviceFault {
        /// SM that issued the faulting access.
        sm: usize,
        /// PC of the faulting instruction.
        pc: usize,
        /// The fault (address, kind, allocated extent).
        fault: simt_mem::MemFault,
    },
    /// The run's [`CancelToken`] fired (wall-clock deadline or an explicit
    /// cancel from a supervisor) before the grid completed.
    Cancelled {
        /// Simulated cycle at which cancellation was observed.
        cycle: u64,
        /// Why the token fired.
        cause: CancelCause,
    },
    /// A checkpoint snapshot could not be restored: corrupt bytes, or a
    /// snapshot taken under a different configuration, kernel, launch,
    /// scheduler, or detector than this run's.
    Snapshot {
        /// What failed.
        what: String,
    },
}

impl SimError {
    /// The hang diagnosis, when this error carries one.
    pub fn hang_report(&self) -> Option<&HangReport> {
        match self {
            SimError::Deadlock { report, .. } | SimError::CycleLimit { report, .. } => {
                Some(report)
            }
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, report } => {
                write!(f, "{} detected at cycle {cycle}", report.class)
            }
            SimError::CycleLimit { cycle, .. } => write!(f, "cycle limit reached at {cycle}"),
            SimError::LaunchTooLarge { reason } => write!(f, "launch too large: {reason}"),
            SimError::InvalidConfig { what } => {
                write!(f, "invalid GPU configuration: {what}")
            }
            SimError::InternalInvariant { what } => {
                write!(f, "internal invariant violated: {what}")
            }
            SimError::DeviceFault { sm, pc, fault } => {
                write!(f, "device memory fault at pc {pc} (sm {sm}): {fault}")
            }
            SimError::Cancelled { cycle, cause } => {
                write!(f, "run cancelled at cycle {cycle}: {cause}")
            }
            SimError::Snapshot { what } => write!(f, "snapshot error: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Wall-clock breakdown of where *host* time went during a run, collected
/// only when [`GpuConfig::profile`] is set. All figures are nanoseconds of
/// wall time on the run-loop thread; SM-side phases
/// (`fetch`/`issue`/`execute`) sum over SMs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Writeback wheel drain, CTA retirement, fence clearing, and per-warp
    /// eligibility (the front of every SM cycle).
    pub fetch_ns: u64,
    /// Scheduler-unit arbitration and end-of-cycle policy bookkeeping,
    /// excluding the nested execute time.
    pub issue_ns: u64,
    /// Instruction execution proper (decoded-dispatch, operand reads,
    /// register writes, global-memory accesses and request enqueues).
    pub execute_ns: u64,
    /// Memory-system cycling plus completion delivery to SMs.
    pub mem_cycle_ns: u64,
    /// Always 0: there is no merge phase. Kept only because the frozen
    /// `perfbench/` package reads it; goes with the next benchmark change.
    pub merge_ns: u64,
    /// Skip-engine horizon computation and bulk dead-span accrual.
    pub skip_horizon_ns: u64,
    /// The whole run loop, launch to grid completion.
    pub total_ns: u64,
}

impl ProfileReport {
    /// `(label, nanoseconds)` rows in display order — the five phases.
    pub fn phases(&self) -> [(&'static str, u64); 5] {
        [
            ("fetch", self.fetch_ns),
            ("issue", self.issue_ns),
            ("execute", self.execute_ns),
            ("mem-cycle", self.mem_cycle_ns),
            ("skip-horizon", self.skip_horizon_ns),
        ]
    }

    /// Run-loop wall time not attributed to any phase (watchdog scans,
    /// checkpoint serialization, dispatch refills, loop overhead).
    pub fn other_ns(&self) -> u64 {
        let attributed: u64 = self.phases().iter().map(|&(_, ns)| ns).sum();
        self.total_ns.saturating_sub(attributed)
    }

    /// Fold another report into this one (multi-kernel aggregation).
    pub fn add(&mut self, o: &ProfileReport) {
        self.fetch_ns += o.fetch_ns;
        self.issue_ns += o.issue_ns;
        self.execute_ns += o.execute_ns;
        self.mem_cycle_ns += o.mem_cycle_ns;
        self.skip_horizon_ns += o.skip_horizon_ns;
        self.total_ns += o.total_ns;
    }
}

/// Everything measured during one kernel run.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Cycles from launch to grid completion.
    pub cycles: u64,
    /// Core statistics.
    pub sim: SimStats,
    /// Memory statistics (delta over this kernel only).
    pub mem: MemStats,
    /// Energy model evaluation.
    pub energy: EnergyBreakdown,
    /// Detector-confirmed SIB PCs with confirmation cycles, merged over SMs
    /// (deduplicated to the earliest confirmation).
    pub confirmed_sibs: Vec<(usize, u64)>,
    /// Backward-branch encounter timelines merged over SMs.
    pub branch_log: BranchLog,
    /// Scheduler name (from unit 0 of SM 0).
    pub scheduler: String,
    /// Detector name.
    pub detector: String,
    /// Wall-clock milliseconds at the configured core clock.
    pub time_ms: f64,
    /// Per-CTA architectural state at retirement, sorted by CTA id. Only
    /// populated when [`GpuConfig::capture_final_state`] is set; `None`
    /// otherwise, so measurement runs carry no capture cost.
    pub final_state: Option<Vec<crate::warp::CtaState>>,
    /// Host wall-clock phase breakdown. Only populated when
    /// [`GpuConfig::profile`] is set; `None` otherwise, so measurement runs
    /// take no timestamps.
    pub profile: Option<ProfileReport>,
}

/// A simulated GPU: configuration plus device memory. SM state is created
/// per kernel launch, so one `Gpu` can run a sequence of kernels sharing
/// memory (as NW1/NW2 do).
#[derive(Debug)]
pub struct Gpu {
    /// The configuration (Table II preset or custom).
    pub cfg: GpuConfig,
    mem: MemorySystem,
    energy_model: EnergyModel,
    cancel: Option<CancelToken>,
}

impl Gpu {
    /// A GPU with fresh device memory.
    pub fn new(cfg: GpuConfig) -> Gpu {
        let mut mem = MemorySystem::new(cfg.mem.clone(), cfg.num_sms);
        mem.set_blocking_locks(cfg.blocking_locks);
        Gpu {
            cfg,
            mem,
            energy_model: EnergyModel::default(),
            cancel: None,
        }
    }

    /// Arm a cancellation token for subsequent runs. The token is polled
    /// at forward-progress-scan boundaries (every [`SCAN_PERIOD`] cycles),
    /// so a fired token stops the run within microseconds of real time
    /// while costing nothing on the per-cycle hot path.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Remove any armed cancellation token.
    pub fn clear_cancel_token(&mut self) {
        self.cancel = None;
    }

    /// Device memory (host-side setup: allocate buffers, write inputs).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Device memory, mutable.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Replace the energy model.
    pub fn set_energy_model(&mut self, m: EnergyModel) {
        self.energy_model = m;
    }

    /// Run a kernel with a baseline policy and the ground-truth (static)
    /// spin detector — the common case for baseline measurements.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`].
    pub fn run_baseline(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchSpec,
        policy: BasePolicy,
    ) -> Result<KernelReport, SimError> {
        let rotate = self.cfg.gto_rotate_period;
        self.run(
            kernel,
            launch,
            &move || policy.build(rotate),
            &|k: &Kernel| {
                if k.true_sibs.is_empty() {
                    Box::new(NullDetector)
                } else {
                    Box::new(StaticSibDetector::new(k.true_sibs.clone()))
                }
            },
        )
    }

    /// Run a kernel to completion on the calling thread. Each cycle the
    /// memory system delivers completions, then the SMs cycle in id order,
    /// each accessing global memory and enqueuing requests as it issues.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a structurally invalid
    /// [`GpuConfig`]; [`SimError::Deadlock`] (with a classified
    /// [`HangReport`]) when the watchdog declares a global deadlock, spin
    /// livelock, or warp starvation; [`SimError::CycleLimit`] past
    /// `cfg.max_cycles`; [`SimError::LaunchTooLarge`] when a single CTA
    /// cannot fit on an SM; and [`SimError::InternalInvariant`] if the
    /// simulator catches itself in an impossible state.
    pub fn run(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchSpec,
        policy_factory: &PolicyFactory<'_>,
        detector_factory: &DetectorFactory<'_>,
    ) -> Result<KernelReport, SimError> {
        self.run_with_checkpoints(kernel, launch, policy_factory, detector_factory, None)
    }

    /// [`Gpu::run`], with optional checkpoint/restore.
    ///
    /// With `ctl.every > 0`, the run-loop pauses at every cycle that is a
    /// multiple of `every` and hands a full-machine snapshot body to
    /// `ctl.sink`. With `ctl.resume`, the initial CTA dispatch is replaced
    /// by restoring that body, and the run continues to completion exactly
    /// as the uninterrupted run would have: final stats, memory image, and
    /// any hang report are bit-identical. Checkpointing itself is
    /// observation-free — a checkpointing run and a plain run of the same
    /// kernel produce identical reports (under the Skip engine, boundaries
    /// only add explicit dead cycles that the engine-equivalence invariant
    /// already guarantees change nothing).
    ///
    /// # Errors
    ///
    /// Everything [`Gpu::run`] returns, plus [`SimError::Snapshot`] when a
    /// resume body is corrupt or belongs to a different run (config,
    /// kernel, launch, scheduler, or detector mismatch). A failed resume
    /// leaves device memory untouched.
    pub fn run_with_checkpoints(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchSpec,
        policy_factory: &PolicyFactory<'_>,
        detector_factory: &DetectorFactory<'_>,
        mut ctl: Option<CheckpointCtl<'_>>,
    ) -> Result<KernelReport, SimError> {
        self.cfg
            .validate()
            .map_err(|what| SimError::InvalidConfig { what })?;
        kernel.validate().map_err(|e| SimError::InternalInvariant {
            what: format!("kernel failed validation at launch: {e}"),
        })?;
        // Lower the kernel into its pre-decoded micro-op stream once per
        // launch; the per-cycle hot path dispatches on this flat table.
        let decoded = simt_isa::DecodedKernel::decode(kernel);
        let lctx = LaunchCtx {
            kernel,
            decoded: &decoded,
            params: &launch.params,
            threads_per_cta: launch.threads_per_cta,
            grid_ctas: launch.grid_ctas,
        };
        if launch.threads_per_cta == 0 || launch.grid_ctas == 0 {
            return Err(SimError::LaunchTooLarge {
                reason: "empty grid".to_string(),
            });
        }
        if launch.threads_per_cta > self.cfg.max_threads_per_sm
            || launch.threads_per_cta * kernel.num_regs as usize > self.cfg.regs_per_sm
            || (kernel.shared_words as usize) > self.cfg.shared_words_per_sm
        {
            return Err(SimError::LaunchTooLarge {
                reason: format!(
                    "CTA of {} threads x {} regs does not fit on an SM",
                    launch.threads_per_cta, kernel.num_regs
                ),
            });
        }

        let num_sms = self.cfg.num_sms;
        let mut sms: Vec<Sm> = (0..num_sms)
            .map(|id| {
                let units = (0..self.cfg.schedulers_per_sm)
                    .map(|_| policy_factory())
                    .collect();
                Sm::new(id, &self.cfg, units, detector_factory(kernel))
            })
            .collect();
        let scheduler_name = sms[0].units()[0].name();
        let detector_name = sms[0].detector.name().to_string();

        // Snapshot identity: config + kernel + launch. Computed only when
        // checkpointing is in play.
        let fingerprint = if ctl.is_some() {
            snapshot_fingerprint(&self.cfg, kernel, launch)
        } else {
            0
        };

        let rs = if let Some(body) = ctl.as_ref().and_then(|c| c.resume) {
            // Resume replaces the initial dispatch wholesale: warp slots,
            // CTA residency, the pending-CTA queue, and every run-loop
            // local come from the snapshot. Device memory is restored last
            // and atomically, so a failed resume leaves the GPU usable.
            restore_snapshot(
                body,
                fingerprint,
                (scheduler_name.as_str(), detector_name.as_str()),
                &mut sms,
                &mut self.mem,
                kernel,
                launch,
            )
            .map_err(|e| SimError::Snapshot {
                what: e.to_string(),
            })?
        } else {
            // Initial CTA dispatch: round-robin over SMs while anything fits.
            let mut pending: VecDeque<usize> = (0..launch.grid_ctas).collect();
            let mut age_counter = 0u64;
            dispatch_pending(&mut sms, &mut pending, &lctx, &mut age_counter);
            if pending.len() == launch.grid_ctas {
                return Err(SimError::LaunchTooLarge {
                    reason: "no CTA could be dispatched".to_string(),
                });
            }
            let mem_before = *self.mem.stats();
            RunState {
                now: 0,
                pending,
                age_counter,
                // Run-level statistics; every SM accrues straight into them.
                stats: SimStats::default(),
                idle_since: 0,
                remaining: launch.grid_ctas,
                // Spin-livelock persistence: the first cycle at which every
                // live warp was spinning-or-blocked with zero lock progress,
                // or `None` while the machine is making progress.
                livelock_since: None,
                locks_at_scan: mem_before.lock_success,
                mem_before,
            }
        };
        let start_cycle = rs.now;
        let RunState {
            mut now,
            mut pending,
            mut age_counter,
            mut stats,
            mut idle_since,
            mut remaining,
            mut livelock_since,
            mut locks_at_scan,
            mem_before,
        } = rs;
        // Reusable completion sink: the cycle loop never allocates for the
        // common zero-or-few-completions case.
        let mut completions = Vec::new();
        let skip = self.cfg.engine == Engine::Skip;
        // Run-loop phase timers. `profile` is false by default and the
        // `.then(Instant::now)` pattern makes the off path a single untaken
        // branch per phase — no timestamps, no accumulation.
        let profile = self.cfg.profile;
        let run_start = profile.then(std::time::Instant::now);
        let mut prof_mem_ns = 0u64;
        let mut prof_skip_ns = 0u64;

        while remaining > 0 {
            // Checkpoint boundary: the machine is between cycles, so the
            // snapshot is simply "about to simulate cycle `now`".
            if let Some(c) = ctl.as_mut() {
                if c.every > 0 && now > start_cycle && now.is_multiple_of(c.every) {
                    let state = RunState {
                        now,
                        pending: pending.clone(),
                        age_counter,
                        stats: stats.clone(),
                        idle_since,
                        remaining,
                        livelock_since,
                        locks_at_scan,
                        mem_before,
                    };
                    let body = snapshot_body(
                        fingerprint,
                        (scheduler_name.as_str(), detector_name.as_str()),
                        &state,
                        &sms,
                        &self.mem,
                    );
                    (c.sink)(now, &body);
                }
            }
            // Memory completions first so unblocked warps can issue today.
            let t = profile.then(std::time::Instant::now);
            completions.clear();
            self.mem.cycle_into(now, &mut completions);
            for c in completions.drain(..) {
                let sm = c.sm;
                sms[sm].on_mem_complete(c)?;
            }
            if let Some(t) = t {
                prof_mem_ns += t.elapsed().as_nanos() as u64;
            }
            // Cycle the SMs in id order; each enqueues its global-memory
            // requests into the memory system as it issues them.
            let mut issued_any = false;
            let mut finished = 0u32;
            for sm in &mut sms {
                if sm.has_work() {
                    let r = sm.cycle(now, &lctx, &mut self.mem, &mut stats)?;
                    issued_any |= r.issued > 0;
                    finished += r.ctas_finished;
                }
            }
            if finished > 0 {
                remaining -= finished as usize;
                // Refill SMs that just freed resources.
                dispatch_pending(&mut sms, &mut pending, &lctx, &mut age_counter);
            }
            if issued_any {
                stats.busy_cycles += 1;
                idle_since = now + 1;
            } else if self.mem.quiescent() && now - idle_since >= self.cfg.watchdog_cycles {
                // Nothing can ever issue again: classic SIMT deadlock.
                return Err(hang_error(
                    &self.mem,
                    HangClass::GlobalDeadlock,
                    now,
                    &sms,
                    &scheduler_name,
                ));
            }

            // Cooperative cancellation, polled on the same cadence as the
            // forward-progress scan (Skip-engine horizons are clamped to
            // SCAN_PERIOD boundaries, so dead spans cannot outrun it).
            if now.is_multiple_of(SCAN_PERIOD) && now > 0 {
                if let Some(cause) = self.cancel.as_ref().and_then(CancelToken::fired) {
                    return Err(SimError::Cancelled { cycle: now, cause });
                }
            }

            // Periodic forward-progress scan: catches hangs where warps
            // keep issuing (spin livelock) or where one warp silently
            // starves while the rest of the machine stays busy.
            if now.is_multiple_of(SCAN_PERIOD) && now > 0 && remaining > 0 {
                let mut agg = ProgressScan::default();
                let mut starved: Option<(usize, usize)> = None;
                let mut backoff_starved: Option<(usize, usize)> = None;
                for (id, sm) in sms.iter().enumerate() {
                    let s = sm.scan_progress(
                        now,
                        self.cfg.watchdog_cycles,
                        self.cfg.backoff_starvation_cycles,
                    );
                    agg.live += s.live;
                    agg.spinning += s.spinning;
                    agg.spinning_or_blocked += s.spinning_or_blocked;
                    // The winner is the explicit lexicographic minimum
                    // `(sm, warp)` pair, so hang attribution cannot depend
                    // on the order SMs happened to be visited.
                    if let Some(w) = s.backoff_starved {
                        let cand = (id, w);
                        if backoff_starved.is_none_or(|b| cand < b) {
                            backoff_starved = Some(cand);
                        }
                    }
                    if let Some(w) = s.starved {
                        let cand = (id, w);
                        if starved.is_none_or(|b| cand < b) {
                            starved = Some(cand);
                        }
                    }
                }
                let locks_now = self.mem.stats().lock_success;
                let lock_delta = locks_now - locks_at_scan;
                locks_at_scan = locks_now;
                if let Some((sm, warp)) = backoff_starved {
                    let class = HangClass::BackoffStarvation { sm, warp };
                    return Err(hang_error(&self.mem, class, now, &sms, &scheduler_name));
                }
                if let Some((sm, warp)) = starved {
                    let class = HangClass::Starvation { sm, warp };
                    return Err(hang_error(&self.mem, class, now, &sms, &scheduler_name));
                }
                let stalled = agg.live > 0
                    && agg.spinning > 0
                    && agg.spinning_or_blocked == agg.live
                    && lock_delta == 0;
                if stalled {
                    let since = *livelock_since.get_or_insert(now);
                    if now - since >= self.cfg.watchdog_cycles {
                        let class = HangClass::SpinLivelock;
                        return Err(hang_error(&self.mem, class, now, &sms, &scheduler_name));
                    }
                } else {
                    livelock_since = None;
                }
            }

            // Event-horizon fast-forward. A cycle in which no unit issued
            // and no CTA retired leaves the whole machine in a state that
            // cannot change until (a) the memory system delivers or serves
            // something, or (b) an SM's own timers fire (writeback wheel,
            // BOWS back-off expiry, adaptive-window update). Jump straight
            // to that horizon, bulk-accruing the skipped cycles' stall
            // statistics. Clamps keep every externally observable
            // transition on its cycle-engine schedule: forward-progress
            // scans stay on SCAN_PERIOD boundaries, GTO age rotation is
            // observed at each rotation edge, the global-deadlock watchdog
            // fires at exactly `idle_since + watchdog_cycles`, and the
            // cycle limit trips at exactly `max_cycles`.
            let mut next = now + 1;
            if skip && !issued_any && finished == 0 {
                let t = profile.then(std::time::Instant::now);
                let mut horizon = u64::MAX;
                if let Some(t) = self.mem.next_event(now) {
                    horizon = horizon.min(t);
                }
                for sm in &sms {
                    if sm.has_work() {
                        if let Some(t) = sm.next_ready_cycle(now) {
                            horizon = horizon.min(t);
                        }
                    }
                }
                horizon = horizon.min((now / SCAN_PERIOD + 1) * SCAN_PERIOD);
                let rotate = self.cfg.gto_rotate_period.max(1);
                horizon = horizon.min((now / rotate + 1) * rotate);
                // Checkpoint boundaries are kept as explicit cycles. Safe
                // by the engine-equivalence invariant: a span is only
                // skippable when every cycle in it changes nothing, so
                // landing on the boundary and continuing is bit-identical
                // to jumping over it.
                if let Some(c) = &ctl {
                    // checked_div: None when checkpointing is off
                    // (every == 0), so no boundary clamps the horizon.
                    if let Some(q) = now.checked_div(c.every) {
                        horizon = horizon.min((q + 1) * c.every);
                    }
                }
                if self.mem.quiescent() {
                    // Quiescence cannot end inside a dead span, so the
                    // deadlock deadline is a hard horizon bound.
                    horizon = horizon.min(idle_since + self.cfg.watchdog_cycles);
                }
                if self.cfg.max_cycles > 0 {
                    horizon = horizon.min(self.cfg.max_cycles);
                }
                if horizon > next {
                    let span = horizon - next;
                    for sm in &mut sms {
                        if sm.has_work() {
                            sm.fast_forward(now, span, &mut stats);
                        }
                    }
                    next = horizon;
                }
                if let Some(t) = t {
                    prof_skip_ns += t.elapsed().as_nanos() as u64;
                }
            }
            now = next;
            if self.cfg.max_cycles > 0 && now >= self.cfg.max_cycles {
                return Err(hang_error(
                    &self.mem,
                    HangClass::CycleLimit,
                    now,
                    &sms,
                    &scheduler_name,
                ));
            }
        }

        stats.cycles = now;
        let mut mem_stats = *self.mem.stats();
        mem_stats = delta(&mem_stats, &mem_before);
        let energy =
            self.energy_model
                .evaluate(&stats, &mem_stats, self.cfg.num_sms, self.cfg.core_clock_mhz);
        let mut branch_log = BranchLog::default();
        let mut confirmed: Vec<(usize, u64)> = Vec::new();
        for sm in &sms {
            branch_log.merge(&sm.branch_log);
            for (pc, cycle) in sm.detector.confirmed_sibs() {
                match confirmed.iter_mut().find(|(p, _)| *p == pc) {
                    Some((_, c)) => *c = (*c).min(cycle),
                    None => confirmed.push((pc, cycle)),
                }
            }
        }
        confirmed.sort_unstable();
        let final_state = if self.cfg.capture_final_state {
            let mut ctas: Vec<crate::warp::CtaState> = sms
                .iter_mut()
                .flat_map(|sm| std::mem::take(&mut sm.captured))
                .collect();
            ctas.sort_by_key(|c| c.cta_id);
            Some(ctas)
        } else {
            None
        };
        let profile_report = run_start.map(|start| {
            let mut p = ProfileReport {
                mem_cycle_ns: prof_mem_ns,
                skip_horizon_ns: prof_skip_ns,
                total_ns: start.elapsed().as_nanos() as u64,
                ..ProfileReport::default()
            };
            let mut issue_incl = 0u64;
            for sm in &sms {
                p.fetch_ns += sm.prof.fetch_ns;
                issue_incl += sm.prof.issue_ns;
                p.execute_ns += sm.prof.execute_ns;
            }
            // The SM's issue timer brackets the whole scheduler loop;
            // carve the nested execute time out so phases don't overlap.
            p.issue_ns = issue_incl.saturating_sub(p.execute_ns);
            p
        });
        Ok(KernelReport {
            cycles: now,
            sim: stats,
            mem: mem_stats,
            energy,
            confirmed_sibs: confirmed,
            branch_log,
            scheduler: scheduler_name,
            detector: detector_name,
            time_ms: self.cfg.cycles_to_ms(now),
            final_state,
            profile: profile_report,
        })
    }
}

/// The run loop's own locals — everything outside the SMs and the memory
/// system that a checkpoint must carry. `now` is the cycle about to be
/// simulated.
struct RunState {
    now: u64,
    pending: VecDeque<usize>,
    age_counter: u64,
    stats: SimStats,
    idle_since: u64,
    remaining: usize,
    livelock_since: Option<u64>,
    locks_at_scan: u64,
    mem_before: MemStats,
}

/// Stable identity of (config, kernel, launch): a snapshot resumes only
/// into the run that produced it.
fn snapshot_fingerprint(cfg: &GpuConfig, kernel: &Kernel, launch: &LaunchSpec) -> u64 {
    let mut c = cfg.clone();
    // `sm_threads` is inert; zeroing it keeps whatever a caller leaves in
    // it out of the snapshot identity.
    c.sm_threads = 0;
    // Profiling is observational (wall-clock timers only), so a profiled
    // run and a plain run share a snapshot identity.
    c.profile = false;
    // The kernel must be encoded canonically — its `labels` map has
    // process- and instance-dependent iteration order, so `{kernel:?}`
    // would make the fingerprint differ between two assemblies of the
    // same source and spuriously reject cross-process resumes.
    let mut labels: Vec<(&str, usize)> =
        kernel.labels.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    labels.sort_unstable();
    simt_snap::fnv1a(
        format!(
            "{c:?}|{}|{:?}|{labels:?}|{}|{}|{}|{:?}|{:?}|{}|{}|{:?}",
            kernel.name,
            kernel.insts,
            kernel.num_regs,
            kernel.num_params,
            kernel.shared_words,
            kernel.reconv,
            kernel.true_sibs,
            launch.grid_ctas,
            launch.threads_per_cta,
            launch.params
        )
        .as_bytes(),
    )
}

/// Serialize the whole machine into a snapshot body: identity header,
/// run-loop locals, SMs in id order, memory system last.
fn snapshot_body(
    fingerprint: u64,
    names: (&str, &str),
    state: &RunState,
    sms: &[Sm],
    mem: &MemorySystem,
) -> Vec<u8> {
    let mut w = simt_snap::SnapWriter::new();
    w.u64(fingerprint);
    w.str(names.0);
    w.str(names.1);
    w.u64(state.now);
    w.usize(state.pending.len());
    for &cta in &state.pending {
        w.usize(cta);
    }
    w.u64(state.age_counter);
    state.stats.save_snap(&mut w);
    w.u64(state.idle_since);
    w.usize(state.remaining);
    match state.livelock_since {
        Some(c) => {
            w.bool(true);
            w.u64(c);
        }
        None => w.bool(false),
    }
    w.u64(state.locks_at_scan);
    state.mem_before.save_snap(&mut w);
    w.usize(sms.len());
    for sm in sms {
        sm.save_snap(&mut w);
    }
    mem.save_snap(&mut w);
    w.into_bytes()
}

/// Parse and restore a snapshot body into freshly constructed SMs and the
/// device memory system. Identity (fingerprint, scheduler, detector)
/// is checked before anything mutates; the memory system is restored last
/// and atomically, so on any error the GPU's device memory is untouched.
fn restore_snapshot(
    body: &[u8],
    fingerprint: u64,
    names: (&str, &str),
    sms: &mut [Sm],
    mem: &mut MemorySystem,
    kernel: &Kernel,
    launch: &LaunchSpec,
) -> Result<RunState, simt_snap::SnapshotError> {
    use simt_snap::SnapshotError;
    let num_sms = sms.len();
    let mut r = simt_snap::SnapReader::new(body);
    let fp = r.u64()?;
    if fp != fingerprint {
        return Err(SnapshotError::malformed(
            "fingerprint mismatch: snapshot was taken under a different \
             GPU config, kernel, or launch",
        ));
    }
    let sched = r.str()?;
    if sched != names.0 {
        return Err(SnapshotError::malformed(format!(
            "scheduler mismatch: snapshot has {sched:?}, this run has {:?}",
            names.0
        )));
    }
    let det = r.str()?;
    if det != names.1 {
        return Err(SnapshotError::malformed(format!(
            "detector mismatch: snapshot has {det:?}, this run has {:?}",
            names.1
        )));
    }
    let limits = SnapLimits {
        insts: kernel.insts.len(),
        regs_per_thread: kernel.num_regs as usize,
        threads_per_cta: launch.threads_per_cta,
        shared_words: kernel.shared_words as usize,
        grid_ctas: launch.grid_ctas,
    };
    let now = r.u64()?;
    let npending = r.len(8)?;
    if npending > launch.grid_ctas {
        return Err(SnapshotError::malformed(format!(
            "{npending} pending CTAs for a {}-CTA grid",
            launch.grid_ctas
        )));
    }
    let mut pending = VecDeque::with_capacity(npending);
    for _ in 0..npending {
        let cta = r.usize()?;
        if cta >= launch.grid_ctas {
            return Err(SnapshotError::malformed(format!(
                "pending CTA {cta} outside the {}-CTA grid",
                launch.grid_ctas
            )));
        }
        pending.push_back(cta);
    }
    let age_counter = r.u64()?;
    let stats = SimStats::load_snap(&mut r)?;
    let idle_since = r.u64()?;
    let remaining = r.usize()?;
    let livelock_since = if r.bool()? { Some(r.u64()?) } else { None };
    let locks_at_scan = r.u64()?;
    let mem_before = MemStats::load_snap(&mut r)?;
    let nsms = r.len(64)?;
    if nsms != num_sms {
        return Err(SnapshotError::malformed(format!(
            "snapshot has {nsms} SMs, this machine has {num_sms}"
        )));
    }
    for sm in sms.iter_mut() {
        sm.load_snap(&mut r, &limits)?;
    }
    mem.load_snap(&mut r)?;
    r.expect_exhausted()?;
    Ok(RunState {
        now,
        pending,
        age_counter,
        stats,
        idle_since,
        remaining,
        livelock_since,
        locks_at_scan,
        mem_before,
    })
}

/// Build a classified hang error with a full warp-state snapshot (warps
/// in SM-id order).
fn hang_error(
    mem: &MemorySystem,
    class: HangClass,
    cycle: u64,
    sms: &[Sm],
    scheduler: &str,
) -> SimError {
    let mstats = mem.stats();
    let report = Box::new(HangReport {
        class,
        cycle,
        scheduler: scheduler.to_string(),
        warps: sms.iter().flat_map(|sm| sm.snapshots(cycle)).collect(),
        mem_in_flight: mem.in_flight(),
        lock_success: mstats.lock_success,
        lock_fails: mstats.lock_intra_fail + mstats.lock_inter_fail,
    });
    match class {
        HangClass::CycleLimit => SimError::CycleLimit { cycle, report },
        _ => SimError::Deadlock { cycle, report },
    }
}

/// Round-robin CTA dispatch: repeatedly offer the oldest pending CTA to
/// each SM in turn (ascending SM id) until a full pass launches nothing
/// (used both for the initial dispatch and for refills after a CTA
/// retires).
fn dispatch_pending(
    sms: &mut [Sm],
    pending: &mut VecDeque<usize>,
    lctx: &LaunchCtx<'_>,
    age_counter: &mut u64,
) {
    let mut made_progress = true;
    while made_progress && !pending.is_empty() {
        made_progress = false;
        for sm in sms.iter_mut() {
            let Some(&cta) = pending.front() else { break };
            if sm.try_launch_cta(cta, lctx, age_counter) {
                pending.pop_front();
                made_progress = true;
            }
        }
    }
}

fn delta(after: &MemStats, before: &MemStats) -> MemStats {
    MemStats {
        l1_accesses: after.l1_accesses - before.l1_accesses,
        l1_hits: after.l1_hits - before.l1_hits,
        l1_misses: after.l1_misses - before.l1_misses,
        l2_accesses: after.l2_accesses - before.l2_accesses,
        l2_hits: after.l2_hits - before.l2_hits,
        l2_misses: after.l2_misses - before.l2_misses,
        dram_reads: after.dram_reads - before.dram_reads,
        dram_writes: after.dram_writes - before.dram_writes,
        atomic_transactions: after.atomic_transactions - before.atomic_transactions,
        atomic_lane_ops: after.atomic_lane_ops - before.atomic_lane_ops,
        total_transactions: after.total_transactions - before.total_transactions,
        sync_transactions: after.sync_transactions - before.sync_transactions,
        lock_success: after.lock_success - before.lock_success,
        lock_intra_fail: after.lock_intra_fail - before.lock_intra_fail,
        lock_inter_fail: after.lock_inter_fail - before.lock_inter_fail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::asm::assemble;

    fn vec_add_kernel() -> Kernel {
        assemble(
            r#"
            .kernel vec_add
            .regs 8
            .params 3
                ld.param r1, [0]      ; a
                ld.param r2, [4]      ; b
                ld.param r3, [8]      ; out
                mov r4, %gtid
                shl r5, r4, 2
                add r1, r1, r5
                add r2, r2, r5
                add r3, r3, r5
                ld.global r6, [r1]
                ld.global r7, [r2]
                add r6, r6, r7
                st.global [r3], r6
                exit
            "#,
        )
        .unwrap()
    }

    #[test]
    fn vector_add_end_to_end() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let n = 256u64;
        let a = gpu.mem_mut().gmem_mut().alloc(n);
        let b = gpu.mem_mut().gmem_mut().alloc(n);
        let out = gpu.mem_mut().gmem_mut().alloc(n);
        for i in 0..n {
            gpu.mem_mut().gmem_mut().write_u32(a + i * 4, i as u32);
            gpu.mem_mut().gmem_mut().write_u32(b + i * 4, 2 * i as u32);
        }
        let kernel = vec_add_kernel();
        let launch = LaunchSpec {
            grid_ctas: 2,
            threads_per_cta: 128,
            params: vec![a as u32, b as u32, out as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..n {
            assert_eq!(
                gpu.mem().gmem().read_u32(out + i * 4),
                3 * i as u32,
                "element {i}"
            );
        }
        assert!(report.cycles > 0);
        assert_eq!(report.sim.ctas_completed, 2);
        assert!(report.sim.issued_inst >= 13 * 8, "8 warps x 13 insts");
        assert!(report.mem.dram_reads > 0);
        assert_eq!(report.scheduler, "gto");
        // Full warps on a straight-line kernel: SIMD efficiency 1.0.
        assert!((report.sim.simd_efficiency() - 1.0).abs() < 1e-9);
    }

    /// A degenerate topology must come back as a structured error, not a
    /// panic: `run` used to index `sms[0].units()[0]` for the scheduler
    /// name before checking the machine actually has an SM or a scheduler.
    #[test]
    fn degenerate_topology_is_a_structured_error() {
        let kernel = vec_add_kernel();
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![0, 0, 0],
        };
        for break_cfg in [
            (|c: &mut GpuConfig| c.num_sms = 0) as fn(&mut GpuConfig),
            |c| c.schedulers_per_sm = 0,
            |c| c.warp_size = 0,
            |c| c.max_threads_per_sm = 0,
            |c| c.max_ctas_per_sm = 0,
        ] {
            let mut cfg = GpuConfig::test_tiny();
            break_cfg(&mut cfg);
            let mut gpu = Gpu::new(cfg);
            match gpu.run_baseline(&kernel, &launch, BasePolicy::Gto) {
                Err(SimError::InvalidConfig { what }) => {
                    assert!(!what.is_empty());
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_three_baselines_complete() {
        for policy in [BasePolicy::Lrr, BasePolicy::Gto, BasePolicy::Cawa] {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let n = 64u64;
            let a = gpu.mem_mut().gmem_mut().alloc(n);
            let b = gpu.mem_mut().gmem_mut().alloc(n);
            let out = gpu.mem_mut().gmem_mut().alloc(n);
            let kernel = vec_add_kernel();
            let launch = LaunchSpec {
                grid_ctas: 1,
                threads_per_cta: 64,
                params: vec![a as u32, b as u32, out as u32],
            };
            let report = gpu.run_baseline(&kernel, &launch, policy).unwrap();
            assert_eq!(report.scheduler, policy.name());
            assert_eq!(report.sim.ctas_completed, 1);
        }
    }

    #[test]
    fn divergent_kernel_reconverges() {
        // Odd threads add 10, even threads add 20; all store.
        let kernel = assemble(
            r#"
            .kernel diverge
            .regs 8
            .params 1
                ld.param r1, [0]
                mov r2, %tid
                and r3, r2, 1
                setp.eq.s32 p1, r3, 1
                mov r4, 20
            @p1 mov r4, 10
                shl r5, r2, 2
                add r1, r1, r5
                st.global [r1], r4
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(32);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![out as u32],
        };
        gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..32u64 {
            let expect = if i % 2 == 1 { 10 } else { 20 };
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), expect, "thread {i}");
        }
    }

    #[test]
    fn loop_kernel_counts_iterations() {
        // Each thread sums 0..10 and stores 45.
        let kernel = assemble(
            r#"
            .kernel looper
            .regs 8
            .params 1
                ld.param r1, [0]
                mov r2, %gtid
                shl r2, r2, 2
                add r1, r1, r2
                mov r3, 0          ; acc
                mov r4, 0          ; i
            top:
                add r3, r3, r4
                add r4, r4, 1
                setp.lt.s32 p1, r4, 10
            @p1 bra top
                st.global [r1], r3
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(64);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 64,
            params: vec![out as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Lrr).unwrap();
        for i in 0..64u64 {
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), 45);
        }
        // The backward branch executed 10 times per warp.
        let (pc, t) = report.branch_log.iter().next().unwrap();
        assert_eq!(kernel.insts[pc].op, simt_isa::Op::Bra);
        assert_eq!(t.count, 10 * 2, "10 iterations x 2 warps");
    }

    #[test]
    fn barrier_synchronizes_cta() {
        // Thread 0 writes shared[1]=99 before the barrier; all threads read
        // it after and store it to global.
        let kernel = assemble(
            r#"
            .kernel barrier
            .regs 8
            .params 1
            .shared 4
                mov r2, %tid
                setp.eq.s32 p1, r2, 0
                mov r3, 99
            @p1 st.shared [4], r3
                bar.sync
                ld.shared r4, [4]
                ld.param r1, [0]
                shl r5, r2, 2
                add r1, r1, r5
                st.global [r1], r4
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(64);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 64,
            params: vec![out as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..64u64 {
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), 99, "thread {i}");
        }
        assert!(report.sim.barriers >= 1);
    }

    #[test]
    fn launch_too_large_is_rejected() {
        let kernel = vec_add_kernel();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 4096,
            params: vec![0, 0, 0],
        };
        assert!(matches!(
            gpu.run_baseline(&kernel, &launch, BasePolicy::Gto),
            Err(SimError::LaunchTooLarge { .. })
        ));
    }

    #[test]
    fn cancel_token_stops_a_spin() {
        // Same endless spin as `deadlock_watchdog_fires`, but an
        // already-expired wall deadline stops it at the first progress
        // scan, long before the watchdog would classify it.
        let kernel = assemble(
            r#"
            .kernel stuck
            .regs 8
            .params 1
                ld.param r1, [0]
            top:
                ld.global.volatile r2, [r1]
                setp.eq.s32 p1, r2, 0
            @p1 bra top
                exit
            "#,
        )
        .unwrap();
        let mut cfg = GpuConfig::test_tiny();
        cfg.max_cycles = 10_000_000;
        let mut gpu = Gpu::new(cfg);
        let flag = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![flag as u32],
        };
        gpu.set_cancel_token(CancelToken::with_deadline(std::time::Duration::ZERO));
        match gpu.run_baseline(&kernel, &launch, BasePolicy::Gto) {
            Err(SimError::Cancelled { cycle, cause }) => {
                assert_eq!(cause, CancelCause::WallDeadline);
                assert!(cycle < 10_000, "stopped at the first scan, got {cycle}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn completed_run_ignores_pending_deadline() {
        // A run that finishes before any scan boundary is unaffected by an
        // armed token: cancellation is observational only.
        let kernel = vec_add_kernel();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let n = 64u64;
        let a = gpu.mem_mut().gmem_mut().alloc(n);
        let b = gpu.mem_mut().gmem_mut().alloc(n);
        let out = gpu.mem_mut().gmem_mut().alloc(n);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 64,
            params: vec![a as u32, b as u32, out as u32],
        };
        gpu.set_cancel_token(CancelToken::with_deadline(std::time::Duration::from_secs(
            3600,
        )));
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        assert_eq!(report.sim.ctas_completed, 1);
    }

    #[test]
    fn wild_global_access_is_a_device_fault() {
        // The kernel dereferences an unallocated address; the run must fail
        // with a typed DeviceFault, not a panic.
        let kernel = assemble(
            r#"
            .kernel wild
            .regs 8
            .params 1
                ld.param r1, [0]
                ld.global r2, [r1]
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![0x00ff_0000],
        };
        match gpu.run_baseline(&kernel, &launch, BasePolicy::Gto) {
            Err(SimError::DeviceFault { fault, .. }) => {
                assert!(!fault.unaligned, "out-of-bounds, not unaligned: {fault}");
            }
            other => panic!("expected DeviceFault, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_watchdog_fires() {
        // A kernel where thread 0 spins forever on a flag nobody sets.
        let kernel = assemble(
            r#"
            .kernel stuck
            .regs 8
            .params 1
                ld.param r1, [0]
            top:
                ld.global.volatile r2, [r1]
                setp.eq.s32 p1, r2, 0
            @p1 bra top
                exit
            "#,
        )
        .unwrap();
        let mut cfg = GpuConfig::test_tiny();
        cfg.watchdog_cycles = 5_000;
        cfg.max_cycles = 100_000;
        let mut gpu = Gpu::new(cfg);
        let flag = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![flag as u32],
        };
        let err = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto);
        // The spin loop keeps issuing, so the idle watchdog never trips;
        // the forward-progress scan classifies it as spin livelock instead.
        match err {
            Err(SimError::Deadlock { cycle, report }) => {
                assert_eq!(report.class, crate::HangClass::SpinLivelock);
                assert!(cycle < 100_000, "diagnosed before the cycle limit");
                assert!(report.spinning_warps().next().is_some());
            }
            other => panic!("expected a classified deadlock, got {other:?}"),
        }
    }

    #[test]
    fn atomic_counter_mutual_exclusion() {
        // Every thread atomically increments one counter.
        let kernel = assemble(
            r#"
            .kernel count
            .regs 8
            .params 1
                ld.param r1, [0]
                atom.global.add r2, [r1], 1
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let ctr = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 4,
            threads_per_cta: 128,
            params: vec![ctr as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Lrr).unwrap();
        assert_eq!(gpu.mem().gmem().read_u32(ctr), 512);
        assert_eq!(report.mem.atomic_lane_ops, 512);
    }

    #[test]
    fn partial_warp_launch() {
        let kernel = vec_add_kernel();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let n = 40u64; // 1 full warp + 8 lanes
        let a = gpu.mem_mut().gmem_mut().alloc(n);
        let b = gpu.mem_mut().gmem_mut().alloc(n);
        let out = gpu.mem_mut().gmem_mut().alloc(n);
        for i in 0..n {
            gpu.mem_mut().gmem_mut().write_u32(a + i * 4, 1);
            gpu.mem_mut().gmem_mut().write_u32(b + i * 4, i as u32);
        }
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 40,
            params: vec![a as u32, b as u32, out as u32],
        };
        gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..n {
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), 1 + i as u32);
        }
    }

    /// Checkpoint/restore oracle at unit scope: a run that snapshots
    /// periodically matches a plain run bit-for-bit, and resuming from any
    /// captured snapshot reproduces the plain run's report and memory.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let setup = |cfg: GpuConfig| {
            let mut gpu = Gpu::new(cfg);
            let n = 1024u64;
            let a = gpu.mem_mut().gmem_mut().alloc(n);
            let b = gpu.mem_mut().gmem_mut().alloc(n);
            let out = gpu.mem_mut().gmem_mut().alloc(n);
            for i in 0..n {
                gpu.mem_mut().gmem_mut().write_u32(a + i * 4, i as u32);
                gpu.mem_mut().gmem_mut().write_u32(b + i * 4, 2 * i as u32);
            }
            let params = vec![a as u32, b as u32, out as u32];
            (gpu, out, params)
        };
        let kernel = vec_add_kernel();
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 2;
        let (mut plain, out, params) = setup(cfg.clone());
        let launch = LaunchSpec {
            grid_ctas: 8,
            threads_per_cta: 128,
            params,
        };
        // Plain run (params match the allocation order in `setup`).
        let plain_report = plain
            .run_baseline(&kernel, &launch, BasePolicy::Gto)
            .unwrap();
        let plain_mem: Vec<u32> =
            (0..1024).map(|i| plain.mem().gmem().read_u32(out + i * 4)).collect();

        // Checkpointing run: capture every 64 cycles.
        let mut bodies: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut ck, _, _) = setup(cfg.clone());
        let mut sink = |cycle: u64, body: &[u8]| bodies.push((cycle, body.to_vec()));
        let rotate = cfg.gto_rotate_period;
        let ck_report = ck
            .run_with_checkpoints(
                &kernel,
                &launch,
                &move || BasePolicy::Gto.build(rotate),
                &|k: &Kernel| {
                    if k.true_sibs.is_empty() {
                        Box::new(NullDetector)
                    } else {
                        Box::new(StaticSibDetector::new(k.true_sibs.clone()))
                    }
                },
                Some(CheckpointCtl {
                    every: 64,
                    sink: &mut sink,
                    resume: None,
                }),
            )
            .unwrap();
        assert_eq!(ck_report.cycles, plain_report.cycles, "checkpointing perturbed the run");
        assert_eq!(ck_report.sim, plain_report.sim);
        assert_eq!(ck_report.mem, plain_report.mem);
        assert!(!bodies.is_empty(), "run too short to checkpoint");

        // Resume from a mid-run snapshot on a fresh GPU.
        let (cycle, body) = bodies[bodies.len() / 2].clone();
        assert!(cycle > 0 && cycle < plain_report.cycles);
        let (mut res, _, _) = setup(cfg.clone());
        let mut sink2 = |_: u64, _: &[u8]| {};
        let res_report = res
            .run_with_checkpoints(
                &kernel,
                &launch,
                &move || BasePolicy::Gto.build(rotate),
                &|k: &Kernel| {
                    if k.true_sibs.is_empty() {
                        Box::new(NullDetector)
                    } else {
                        Box::new(StaticSibDetector::new(k.true_sibs.clone()))
                    }
                },
                Some(CheckpointCtl {
                    every: 0,
                    sink: &mut sink2,
                    resume: Some(&body),
                }),
            )
            .unwrap();
        assert_eq!(res_report.cycles, plain_report.cycles, "resume diverged");
        assert_eq!(res_report.sim, plain_report.sim);
        assert_eq!(res_report.mem, plain_report.mem);
        let res_mem: Vec<u32> =
            (0..1024).map(|i| res.mem().gmem().read_u32(out + i * 4)).collect();
        assert_eq!(res_mem, plain_mem, "memory image diverged");

        // A snapshot from a different launch is rejected, memory untouched.
        let (mut other, _, _) = setup(cfg);
        let wrong = LaunchSpec {
            grid_ctas: 4,
            ..launch.clone()
        };
        let mut sink3 = |_: u64, _: &[u8]| {};
        match other.run_with_checkpoints(
            &kernel,
            &wrong,
            &move || BasePolicy::Gto.build(rotate),
            &|_: &Kernel| Box::new(NullDetector),
            Some(CheckpointCtl {
                every: 0,
                sink: &mut sink3,
                resume: Some(&body),
            }),
        ) {
            Err(SimError::Snapshot { what }) => {
                assert!(what.contains("mismatch"), "unhelpful message: {what}");
            }
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn clock_register_advances() {
        let kernel = assemble(
            r#"
            .kernel clk
            .regs 8
            .params 1
                ld.param r1, [0]
                clock r2
                clock r3
                sub r4, r3, r2
                st.global [r1], r4
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![out as u32],
        };
        gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        let dt = gpu.mem().gmem().read_u32(out);
        assert!(dt > 0, "second clock read is later");
    }
}
