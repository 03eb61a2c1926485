//! The streaming multiprocessor: issue, functional execution, divergence,
//! barriers, memory interfacing and scheduler-unit orchestration.

use crate::detect::{BranchLog, SpinDetector};
use crate::sched::{IssueInfo, SchedCtx, SchedulerPolicy, WarpMeta};
use crate::warp::{Cta, Warp};
use crate::watchdog::{ProgressScan, WarpProgress, WarpSnapshot};
use crate::{GpuConfig, SimError, SimStats};
use simt_isa::{DecodedInst, DecodedKernel, ExecClass, Kernel, OpClass, Operand, Reg, Special};
use simt_mem::{LaneAtomic, LockRole, MemCompletion, MemRequest, MemorySystem, ReqKind, TagSlab};

/// Writeback-wheel capacity; must exceed every ALU latency.
const WHEEL: usize = 64;

/// Shorthand for reporting a broken internal invariant instead of panicking.
fn invariant(what: String) -> SimError {
    SimError::InternalInvariant { what }
}

/// A kernel-driven wild access, surfaced as a typed error (never a panic).
fn device_fault(sm: usize, pc: usize, fault: simt_mem::MemFault) -> SimError {
    SimError::DeviceFault { sm, pc, fault }
}

/// Immutable launch context shared by all SMs during a kernel run.
#[derive(Debug)]
pub struct LaunchCtx<'a> {
    /// The kernel being executed.
    pub kernel: &'a Kernel,
    /// The kernel's pre-decoded micro-op stream (same indices as
    /// `kernel.insts`); the per-cycle issue/execute path reads only this.
    pub decoded: &'a DecodedKernel,
    /// Kernel parameters (32-bit slots; `ld.param [4*i]` reads slot *i*).
    pub params: &'a [u32],
    /// Threads per CTA.
    pub threads_per_cta: usize,
    /// CTAs in the grid.
    pub grid_ctas: usize,
}

#[derive(Debug, Clone, Copy)]
struct WbEntry {
    warp: usize,
    reg: Option<Reg>,
    pred: Option<simt_isa::Pred>,
    /// Clear the warp's fence wait if memory drained (unused for ALU).
    _pad: (),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendKind {
    Load { dst: Reg },
    Store,
    Atomic { dst: Reg },
}

#[derive(Debug, Clone, Copy)]
struct PendingMem {
    warp: usize,
    remaining: u32,
    kind: PendKind,
}

/// CTA-level event produced by executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtaEvent {
    /// All live warps arrived at the barrier: release them.
    BarrierFull(usize),
    /// A warp finished; the CTA may be complete.
    WarpDone(usize),
}

#[derive(Debug, Default)]
struct ExecOutcome {
    info: IssueInfo,
    sib_taken: bool,
    cta_event: Option<CtaEvent>,
}

/// Kernel/launch-derived bounds that every restored snapshot index is
/// validated against in [`Sm::load_snap`] before a single cycle runs.
pub struct SnapLimits {
    /// Instructions in the kernel (bounds every pc/rpc).
    pub insts: usize,
    /// Registers per thread (bounds every restored register index).
    pub regs_per_thread: usize,
    /// Threads per CTA in the launch.
    pub threads_per_cta: usize,
    /// Shared-memory words per CTA.
    pub shared_words: usize,
    /// CTAs in the grid (bounds every CTA id).
    pub grid_ctas: usize,
}

/// Wall-clock phase accumulators for one SM, populated only when
/// [`GpuConfig::profile`] is set. `issue_ns` brackets the whole scheduler
/// loop *including* nested execute time; the GPU-level aggregation carves
/// execute back out (see [`crate::ProfileReport`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct SmProf {
    /// Writeback drain + CTA retirement + fence/eligibility scan.
    pub fetch_ns: u64,
    /// Scheduler-unit issue loop + end-of-cycle bookkeeping (incl. execute).
    pub issue_ns: u64,
    /// Instruction execution proper.
    pub execute_ns: u64,
}

/// Result of one SM cycle.
#[derive(Debug, Default, Clone, Copy)]
pub struct SmCycle {
    /// Warp instructions issued this cycle.
    pub issued: u32,
    /// CTAs that completed this cycle.
    pub ctas_finished: u32,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// SM index.
    pub id: usize,
    num_units: usize,
    lat_int: u64,
    lat_fp: u64,
    lat_sfu: u64,
    lat_shared: u64,
    /// Warp slots.
    pub warps: Vec<Warp>,
    ctas: Vec<Option<Cta>>,
    units: Vec<Box<dyn SchedulerPolicy>>,
    /// The SM's spin detector (DDOS, static oracle, or none).
    pub detector: Box<dyn SpinDetector>,
    /// Backward-branch encounter timelines (Table I's DPR denominator).
    pub branch_log: BranchLog,
    pending: TagSlab<PendingMem>,
    wheel: Vec<Vec<WbEntry>>,
    /// Entries across all wheel slots, so empty-wheel cycles skip both the
    /// drain and the horizon scan.
    wheel_len: usize,
    /// Occupied CTA slots, so [`Sm::has_work`] is a compare instead of a
    /// per-call slot sweep.
    ctas_resident: usize,
    /// Forward-progress watchdog state, one entry per warp slot.
    progress: Vec<WarpProgress>,
    resident_version: u64,
    regs_in_use: usize,
    shared_in_use: usize,
    max_regs: usize,
    max_shared: usize,
    meta: Vec<WarpMeta>,
    /// Live (resident) warp slots in ascending order — the per-cycle scans
    /// iterate this instead of every slot, so their cost tracks occupancy
    /// rather than the SM's slot count. Rebuilt lazily by
    /// [`Sm::refresh_live`] whenever `resident_version` moves (CTA launch
    /// or retirement); a warp that merely finishes (`done`) stays listed
    /// until its CTA retires, guarded by the same `resident && !done`
    /// checks the full-slot scans used.
    live: Vec<usize>,
    /// Per-unit slice of `live` (ascending), passed to the scheduler
    /// policies in place of the full `unit_warps` list. Behavior-identical:
    /// every in-tree policy either ignores the list or filters it on
    /// `meta.resident && !meta.done`, which excludes exactly the slots the
    /// live list omits.
    unit_live: Vec<Vec<usize>>,
    /// `resident_version` value the live lists were built against;
    /// initialized out-of-sync to force a build on the first cycle.
    live_version: u64,
    /// Per-cycle scratch: the warp each unit issued (reused, never freed).
    issued_scratch: Vec<Option<usize>>,
    /// Per-unit scratch for the eligible-warp list (reused, never freed).
    eligible_scratch: Vec<usize>,
    /// Capture CTA architectural state at retirement (differential oracle).
    capture_state: bool,
    /// Snapshots of retired CTAs, in retirement order (drained by the GPU
    /// loop into [`crate::KernelReport::final_state`]).
    pub captured: Vec<crate::warp::CtaState>,
    /// Collect per-phase wall time into [`Sm::prof`] (observational only;
    /// never serialized, never consulted by simulation logic).
    profile: bool,
    /// Phase accumulators, all zero unless profiling is on.
    pub prof: SmProf,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("warps", &self.warps.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl Sm {
    /// Build an SM with one scheduler policy instance per unit.
    ///
    /// # Panics
    ///
    /// Panics if `units` does not match `cfg.schedulers_per_sm`.
    pub fn new(
        id: usize,
        cfg: &GpuConfig,
        units: Vec<Box<dyn SchedulerPolicy>>,
        detector: Box<dyn SpinDetector>,
    ) -> Sm {
        assert_eq!(units.len(), cfg.schedulers_per_sm, "one policy per unit");
        assert!(
            (cfg.lat.int_alu.max(cfg.lat.fp_alu).max(cfg.lat.sfu).max(cfg.lat.shared_mem)
                as usize)
                < WHEEL,
            "latency exceeds writeback wheel"
        );
        Sm {
            id,
            num_units: cfg.schedulers_per_sm,
            lat_int: cfg.lat.int_alu,
            lat_fp: cfg.lat.fp_alu,
            lat_sfu: cfg.lat.sfu,
            lat_shared: cfg.lat.shared_mem,
            warps: (0..cfg.warps_per_sm()).map(|_| Warp::vacant()).collect(),
            ctas: (0..cfg.max_ctas_per_sm).map(|_| None).collect(),
            units,
            detector,
            branch_log: BranchLog::default(),
            pending: TagSlab::new(),
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            ctas_resident: 0,
            progress: vec![WarpProgress::default(); cfg.warps_per_sm()],
            resident_version: 0,
            regs_in_use: 0,
            shared_in_use: 0,
            max_regs: cfg.regs_per_sm,
            max_shared: cfg.shared_words_per_sm,
            meta: vec![WarpMeta::default(); cfg.warps_per_sm()],
            live: Vec::with_capacity(cfg.warps_per_sm()),
            unit_live: (0..cfg.schedulers_per_sm)
                .map(|_| Vec::with_capacity(cfg.warps_per_sm().div_ceil(cfg.schedulers_per_sm)))
                .collect(),
            live_version: u64::MAX,
            issued_scratch: vec![None; cfg.schedulers_per_sm],
            eligible_scratch: Vec::with_capacity(cfg.warps_per_sm()),
            capture_state: cfg.capture_final_state,
            captured: Vec::new(),
            profile: cfg.profile,
            prof: SmProf::default(),
        }
    }

    /// Number of resident, unfinished warps.
    pub fn resident_warps(&self) -> usize {
        self.warps.iter().filter(|w| w.resident && !w.done).count()
    }

    /// Per-unit scheduler policies (instrumentation access).
    pub fn units(&self) -> &[Box<dyn SchedulerPolicy>] {
        &self.units
    }

    /// Try to launch CTA `cta_id`; returns false if resources are exhausted.
    pub fn try_launch_cta(
        &mut self,
        cta_id: usize,
        lctx: &LaunchCtx<'_>,
        age_counter: &mut u64,
    ) -> bool {
        let threads = lctx.threads_per_cta;
        let regs_needed = threads * lctx.kernel.num_regs as usize;
        let shared_needed = lctx.kernel.shared_words as usize;
        let num_warps = threads.div_ceil(32);
        let Some(slot) = self.ctas.iter().position(Option::is_none) else {
            return false;
        };
        if self.regs_in_use + regs_needed > self.max_regs
            || self.shared_in_use + shared_needed > self.max_shared
        {
            return false;
        }
        let free_slots: Vec<usize> = self
            .warps
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.resident)
            .map(|(i, _)| i)
            .take(num_warps)
            .collect();
        if free_slots.len() < num_warps {
            return false;
        }
        self.ctas[slot] = Some(Cta::new(
            cta_id,
            threads,
            lctx.kernel.num_regs as usize,
            shared_needed,
        ));
        self.regs_in_use += regs_needed;
        self.shared_in_use += shared_needed;
        self.ctas_resident += 1;
        // Age keys are assigned as one contiguous block per CTA (base + 1
        // + warp-in-cta), not by incrementing the counter once per warp:
        // the keys a CTA's warps receive depend only on the counter value
        // at launch, never on how the interleaving of per-warp increments
        // with other bookkeeping happens to be ordered. GTO age priorities
        // therefore come out identical however CTA retirements were
        // discovered.
        let base = *age_counter;
        for (wic, &ws) in free_slots.iter().enumerate() {
            let lanes = (threads - wic * 32).min(32);
            let mask = if lanes == 32 {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            self.warps[ws].launch(slot, wic, mask, base + 1 + wic as u64);
            self.progress[ws] = WarpProgress::default();
            self.units[ws % self.num_units].on_warp_launch(ws, lctx.kernel.static_len());
            self.detector.warp_reset(ws);
        }
        *age_counter = base + num_warps as u64;
        self.resident_version += 1;
        true
    }

    fn free_cta(&mut self, cta_slot: usize) {
        let cta = self.ctas[cta_slot].take().expect("freeing live CTA");
        self.ctas_resident -= 1;
        self.regs_in_use -= cta.threads * cta.regs_per_thread;
        self.shared_in_use -= cta.shared.len();
        for w in &mut self.warps {
            if w.resident && w.cta_slot == cta_slot {
                w.resident = false;
                w.done = false;
            }
        }
        self.resident_version += 1;
        if self.capture_state {
            // The CTA is already detached from the slot: move its register
            // file into the capture instead of cloning it.
            self.captured.push(cta.into_state());
        }
    }

    /// Handle a memory completion routed to this SM.
    ///
    /// # Errors
    ///
    /// [`SimError::InternalInvariant`] on a completion for an unknown tag
    /// or a retired CTA (simulator bugs surfaced as errors, not panics).
    pub fn on_mem_complete(&mut self, c: MemCompletion) -> Result<(), SimError> {
        let Some(entry) = self.pending.get_mut(c.tag) else {
            return Err(invariant(format!(
                "sm {}: memory completion for unknown tag {}",
                self.id, c.tag
            )));
        };
        let warp = entry.warp;
        let kind = entry.kind;
        entry.remaining -= 1;
        let finished = entry.remaining == 0;
        if finished {
            self.pending.remove(c.tag);
        }
        if let PendKind::Atomic { dst } = kind {
            let cta_slot = self.warps[warp].cta_slot;
            let warp_in_cta = self.warps[warp].warp_in_cta;
            let Some(cta) = self.ctas[cta_slot].as_mut() else {
                return Err(invariant(format!(
                    "sm {}: atomic completion for retired CTA slot {cta_slot}",
                    self.id
                )));
            };
            for (lane, old) in &c.atomic_results {
                cta.set_reg(warp_in_cta * 32 + *lane as usize, dst, *old);
            }
        }
        if finished {
            let w = &mut self.warps[warp];
            w.outstanding_mem -= 1;
            match kind {
                PendKind::Load { dst } | PendKind::Atomic { dst } => w.sb.release_reg(dst),
                PendKind::Store => {}
            }
        }
        Ok(())
    }

    /// Rebuild the live-warp lists if a CTA launched or retired since the
    /// last build. Slots are pushed in ascending order, so iterating a
    /// live list visits warps in exactly the order the full-slot scans
    /// did. The rebuild also re-freezes `meta` for every slot: slots
    /// leaving the lists keep the metadata a full scan would have kept
    /// recomputing for them (non-resident or done, never eligible), which
    /// the scheduler policies and the dead-span sampling rely on.
    fn refresh_live(&mut self) {
        if self.live_version == self.resident_version {
            return;
        }
        self.live_version = self.resident_version;
        self.live.clear();
        for ul in &mut self.unit_live {
            ul.clear();
        }
        for (i, w) in self.warps.iter().enumerate() {
            self.meta[i] = WarpMeta {
                resident: w.resident,
                done: w.done,
                age_key: w.age_key,
                eligible: false,
            };
            if w.resident && !w.done {
                self.live.push(i);
                self.unit_live[i % self.num_units].push(i);
            }
        }
    }

    /// Advance one cycle: writebacks, then one issue attempt per unit.
    ///
    /// Global-memory instructions take effect at issue: a load's reads, a
    /// store's writes and an atomic's address checks go straight to
    /// `mem`'s device memory, and their coalesced requests are enqueued
    /// into `mem` in issue order.
    ///
    /// # Errors
    ///
    /// [`SimError::InternalInvariant`] when execution hits a state the
    /// kernel should have made impossible (out-of-range parameter or
    /// shared-memory access, a store to param space, a retired CTA);
    /// [`SimError::DeviceFault`] on a wild global access, from the first
    /// faulting lane in issue order (earlier lanes of a faulting store
    /// are already written).
    pub fn cycle(
        &mut self,
        now: u64,
        lctx: &LaunchCtx<'_>,
        mem: &mut MemorySystem,
        stats: &mut SimStats,
    ) -> Result<SmCycle, SimError> {
        let mut result = SmCycle::default();
        // Phase timer: `profile` is off by default, making this a single
        // untaken branch — the hot path takes no timestamps.
        let t0 = self.profile.then(std::time::Instant::now);
        // Catch the live lists up with any launches since the last cycle.
        // (A retirement in step 2 below leaves them one cycle stale — a
        // harmless superset, since every consumer re-checks the warp's
        // resident/done flags.)
        self.refresh_live();
        // 1. Writebacks. The slot's vector is swapped out, drained and
        // swapped back so its capacity is reused every WHEEL cycles.
        let slot = (now as usize) % WHEEL;
        if !self.wheel[slot].is_empty() {
            let mut drained = std::mem::take(&mut self.wheel[slot]);
            self.wheel_len -= drained.len();
            for wb in drained.drain(..) {
                let w = &mut self.warps[wb.warp];
                if let Some(r) = wb.reg {
                    w.sb.release_reg(r);
                }
                if let Some(p) = wb.pred {
                    w.sb.release_pred(p);
                }
            }
            self.wheel[slot] = drained;
        }
        // 2. Retire CTAs whose warps have all exited and drained their
        // outstanding memory (stores may still be in flight at exit).
        for slot in 0..self.ctas.len() {
            let complete = matches!(&self.ctas[slot], Some(c) if c.warps_done == c.num_warps);
            if complete {
                let drained = self
                    .warps
                    .iter()
                    .all(|w| !(w.resident && w.cta_slot == slot) || w.outstanding_mem == 0);
                if drained {
                    self.free_cta(slot);
                    result.ctas_finished += 1;
                    stats.ctas_completed += 1;
                }
            }
        }
        // 3. Clear drained fences and compute per-warp eligibility. Only
        // live slots are scanned: every other slot's metadata was frozen
        // by the last `refresh_live` at exactly the values this loop
        // would recompute (non-resident or done warps never change state
        // without bumping `resident_version`).
        for idx in 0..self.live.len() {
            let i = self.live[idx];
            let w = &mut self.warps[i];
            if w.waiting_membar && w.outstanding_mem == 0 {
                w.waiting_membar = false;
            }
            let mut m = WarpMeta {
                resident: w.resident,
                done: w.done,
                age_key: w.age_key,
                eligible: false,
            };
            if w.resident && !w.done {
                self.progress[i].note_alive(now);
                if w.at_barrier {
                    stats.stall_barrier += 1;
                } else if w.waiting_membar {
                    stats.stall_membar += 1;
                } else if now >= w.next_issue && !w.stack.is_empty() {
                    let pc = w.stack.pc();
                    // A well-formed kernel ends in an unconditional `exit`,
                    // but a guarded exit on the last instruction (or a
                    // resumed snapshot that passed shape validation with a
                    // semantically twisted stack) can run a warp off the
                    // end of the program. Fail structured, not by index.
                    let Some(d) = lctx.decoded.insts.get(pc) else {
                        return Err(invariant(format!(
                            "sm {}: warp {i} pc {pc} past program end ({} insts)",
                            self.id,
                            lctx.decoded.insts.len()
                        )));
                    };
                    if w.sb.has_hazard_masks(&d.reg_mask, d.pred_mask) {
                        stats.stall_data += 1;
                    } else {
                        m.eligible = true;
                    }
                }
            }
            self.meta[i] = m;
        }
        // Phase boundary: everything above is "fetch", the rest "issue".
        let t_issue = t0.map(|t0| {
            let t = std::time::Instant::now();
            self.prof.fetch_ns += (t - t0).as_nanos() as u64;
            t
        });
        // 3. Issue per scheduler unit. The eligible list and the per-unit
        // issue record live in reusable scratch buffers — this loop runs
        // every cycle and must not allocate.
        for slot in &mut self.issued_scratch {
            *slot = None;
        }
        for u in 0..self.num_units {
            self.eligible_scratch.clear();
            for i in 0..self.unit_live[u].len() {
                let w = self.unit_live[u][i];
                if self.meta[w].eligible {
                    if self.units[u].can_issue(now, w) {
                        self.eligible_scratch.push(w);
                    } else {
                        stats.stall_backoff += 1;
                    }
                }
            }
            if self.eligible_scratch.is_empty() {
                continue;
            }
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            let Some(w) = self.units[u].pick(&ctx, &self.eligible_scratch) else {
                continue;
            };
            debug_assert!(
                self.eligible_scratch.contains(&w),
                "policy picked ineligible warp"
            );
            stats.issued_cycles += 1;
            stats.stall_arbitration += (self.eligible_scratch.len() - 1) as u64;
            let outcome = if self.profile {
                let t = std::time::Instant::now();
                let o = self.execute(w, now, lctx, mem, stats)?;
                self.prof.execute_ns += t.elapsed().as_nanos() as u64;
                o
            } else {
                self.execute(w, now, lctx, mem, stats)?
            };
            result.issued += 1;
            self.issued_scratch[u] = Some(w);
            self.progress[w].on_issue(now, &outcome.info);
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            // Issue bookkeeping first; a SIB pushes the warp into the
            // backed-off state only *after* the SIB itself has issued (the
            // next instruction is what leaves the state again).
            self.units[u].on_issue(&ctx, w, &outcome.info);
            if outcome.sib_taken {
                self.units[u].on_sib(&ctx, w);
            }
            match outcome.cta_event {
                Some(CtaEvent::BarrierFull(slot)) => {
                    let Some(cta) = self.ctas[slot].as_mut() else {
                        return Err(invariant(format!(
                            "sm {}: barrier release on retired CTA slot {slot}",
                            self.id
                        )));
                    };
                    cta.barrier_arrived = 0;
                    stats.barriers += 1;
                    for wp in &mut self.warps {
                        if wp.resident && wp.cta_slot == slot {
                            wp.at_barrier = false;
                        }
                    }
                }
                Some(CtaEvent::WarpDone(slot)) => {
                    let Some(cta) = self.ctas[slot].as_mut() else {
                        return Err(invariant(format!(
                            "sm {}: warp completion on retired CTA slot {slot}",
                            self.id
                        )));
                    };
                    // A warp exiting may also release the barrier.
                    if cta.live_warps() > 0 && cta.barrier_arrived >= cta.live_warps() {
                        cta.barrier_arrived = 0;
                        stats.barriers += 1;
                        for wp in &mut self.warps {
                            if wp.resident && wp.cta_slot == slot {
                                wp.at_barrier = false;
                            }
                        }
                    }
                }
                None => {}
            }
        }
        // 4. End-of-cycle policy bookkeeping + Figure 11 sampling.
        for u in 0..self.num_units {
            let issued = self.issued_scratch[u];
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            self.units[u].end_cycle(&ctx, &self.unit_live[u], issued);
            for &w in &self.unit_live[u] {
                if self.meta[w].resident && !self.meta[w].done {
                    stats.resident_warp_samples += 1;
                    if self.units[u].is_backed_off(w) {
                        stats.backed_off_warp_samples += 1;
                    }
                }
            }
        }
        if let Some(t) = t_issue {
            self.prof.issue_ns += t.elapsed().as_nanos() as u64;
        }
        Ok(result)
    }

    /// Earliest future cycle (strictly after `now`) at which this SM can
    /// change state *without external input*: a pending writeback drains
    /// (clearing a scoreboard hazard), a scheduler policy's internal timer
    /// fires (a BOWS back-off delay or adaptive-window update), or a warp's
    /// issue port frees. `None` when the SM can only be woken externally
    /// (memory completions — the GPU loop folds those in separately; a
    /// barrier or fence likewise releases only via issues or completions
    /// already counted by these candidates).
    ///
    /// Called by the fast-forward engine immediately after a `cycle(now)`
    /// in which no unit issued, so `self.meta` holds cycle `now`'s
    /// eligibility snapshot and stays valid for the whole dead span.
    pub fn next_ready_cycle(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| match next {
            Some(n) if n <= t => {}
            _ => next = Some(t),
        };
        // Writeback wheel: every entry lies within (now, now + WHEEL), and
        // slot `now % WHEEL` was drained this cycle, so the first non-empty
        // slot ahead of `now` is the earliest scoreboard release.
        if self.wheel_len > 0 {
            for off in 1..WHEEL as u64 {
                if !self.wheel[((now + off) as usize) % WHEEL].is_empty() {
                    fold(now + off);
                    break;
                }
            }
        }
        // The live lists are exact here: a dead cycle retires no CTA and
        // the GPU loop launches none before asking for a horizon, so
        // `resident_version` has not moved since this cycle's rebuild.
        for &i in &self.live {
            let w = &self.warps[i];
            if !w.resident || w.done {
                continue;
            }
            if w.next_issue > now {
                // Issue-port backpressure expires by itself. (Unreachable
                // after a dead cycle — `next_issue = issue cycle + 1` — but
                // cheap insurance against future pipeline models.)
                fold(w.next_issue);
            }
            if self.meta[i].eligible && self.units[i % self.num_units].can_issue(now, i) {
                // An issuable warp the policy nevertheless left idle. No
                // in-tree policy ever does this (their `pick` on a
                // non-empty set always issues), but a policy that idles by
                // choice must be re-consulted every cycle: refuse to skip.
                return Some(now + 1);
            }
        }
        for u in 0..self.num_units {
            if let Some(t) = self.units[u].next_wakeup(now) {
                if t > now {
                    fold(t);
                }
            }
        }
        next
    }

    /// Bulk-apply `span` dead cycles (`now+1 ..= now+span`, none of which
    /// can issue, complete memory, or drain a writeback), accruing exactly
    /// the per-cycle statistics [`Sm::cycle`] would have: every live warp's
    /// stall classification is frozen across the span, as is the Figure 11
    /// residency/back-off sampling. `self.meta` still holds cycle `now`'s
    /// snapshot — nothing that feeds it changes during a dead span.
    pub fn fast_forward(&mut self, now: u64, span: u64, stats: &mut SimStats) {
        // Same staleness argument as [`Sm::next_ready_cycle`]; crucially,
        // `refresh_live` must NOT run here — it would wipe the `eligible`
        // bits of cycle `now`'s metadata snapshot, which the stall
        // classification below and the policies' idle bookkeeping read.
        for &i in &self.live {
            let w = &self.warps[i];
            if !w.resident || w.done {
                continue;
            }
            if w.at_barrier {
                stats.stall_barrier += span;
            } else if w.waiting_membar {
                stats.stall_membar += span;
            } else if now >= w.next_issue && !w.stack.is_empty() {
                if self.meta[i].eligible {
                    // In a dead cycle every eligible warp was vetoed by
                    // `can_issue` (otherwise its unit would have issued),
                    // and the veto holds across the span: the back-off
                    // expiry is a `next_wakeup` candidate bounding it.
                    stats.stall_backoff += span;
                } else {
                    stats.stall_data += span;
                }
            }
        }
        for u in 0..self.num_units {
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            self.units[u].on_idle_span(&ctx, &self.unit_live[u], span);
            for &w in &self.unit_live[u] {
                if self.meta[w].resident && !self.meta[w].done {
                    stats.resident_warp_samples += span;
                    if self.units[u].is_backed_off(w) {
                        stats.backed_off_warp_samples += span;
                    }
                }
            }
        }
    }

    /// Functionally execute the instruction at the warp's PC, applying any
    /// global-memory effects to `mem` and enqueuing their requests.
    fn execute(
        &mut self,
        w_idx: usize,
        now: u64,
        lctx: &LaunchCtx<'_>,
        mem: &mut MemorySystem,
        stats: &mut SimStats,
    ) -> Result<ExecOutcome, SimError> {
        let (lat_int, lat_fp, lat_sfu, lat_shared) =
            (self.lat_int, self.lat_fp, self.lat_sfu, self.lat_shared);
        let latency = move |class: OpClass| match class {
            OpClass::IntAlu | OpClass::Control => lat_int,
            OpClass::FpAlu => lat_fp,
            OpClass::Sfu => lat_sfu,
            OpClass::SharedMem => lat_shared,
            OpClass::GlobalMem | OpClass::Atomic | OpClass::Sync => lat_int,
        };
        let warp = &mut self.warps[w_idx];
        let pc = warp.stack.pc();
        let Some(d) = lctx.decoded.insts.get(pc) else {
            return Err(invariant(format!(
                "sm {}: warp {w_idx} pc {pc} past program end ({} insts)",
                self.id,
                lctx.decoded.insts.len()
            )));
        };
        let active = warp.stack.active_mask();
        let cta_slot = warp.cta_slot;
        let sm_id = self.id;
        let Some(cta) = self.ctas[cta_slot].as_mut() else {
            return Err(invariant(format!(
                "sm {sm_id}: issuing warp {w_idx} belongs to retired CTA slot {cta_slot}"
            )));
        };

        // Guard evaluation.
        let mut exec = active;
        if let Some((p, want)) = d.guard {
            let mut m = 0u32;
            for lane in BitIter(active) {
                if cta.pred(warp.thread_of(lane), p) == want {
                    m |= 1 << lane;
                }
            }
            exec = m;
        }
        let lanes = exec.count_ones();
        stats.issued_inst += 1;
        stats.thread_inst += lanes as u64;
        if d.sync {
            stats.sync_thread_inst += lanes as u64;
        }
        warp.next_issue = now + 1;

        let mut outcome = ExecOutcome {
            info: IssueInfo {
                pc,
                active_lanes: lanes,
                ..IssueInfo::default()
            },
            ..ExecOutcome::default()
        };

        let sval = SpecialCtx {
            sm_id: self.id,
            cta_id: cta.id,
            threads_per_cta: lctx.threads_per_cta,
            grid_ctas: lctx.grid_ctas,
            now,
        };

        macro_rules! val {
            ($operand:expr, $lane:expr, $thread:expr) => {
                operand_value($operand, cta, $thread, $lane, &sval, lctx.params)
            };
        }

        // Decoding unwrapped every class-required operand (dst/pdst/
        // target/addr) relying on `simt_isa::check_operand_shape`, which
        // every kernel passes in `Kernel::validate`/`from_insts` before it
        // can be launched — a malformed request fails there with a typed
        // `KernelError`.
        match d.class {
            // ---- ALU ----
            ExecClass::Alu(alu) => {
                let dst = d.dst;
                if d.uniform {
                    // Warp-invariant sources: evaluate one lane, broadcast.
                    let a = val!(&d.srcs[0], 0, 0);
                    let b = val!(&d.srcs[1], 0, 0);
                    let c = val!(&d.srcs[2], 0, 0);
                    let v = alu(a, b, c);
                    for lane in BitIter(exec) {
                        cta.set_reg(warp.thread_of(lane), dst, v);
                    }
                } else {
                    for lane in BitIter(exec) {
                        let t = warp.thread_of(lane);
                        let a = val!(&d.srcs[0], lane, t);
                        let b = val!(&d.srcs[1], lane, t);
                        let c = val!(&d.srcs[2], lane, t);
                        cta.set_reg(t, dst, alu(a, b, c));
                    }
                }
                warp.sb.reserve_reg(dst);
                let lat = latency(d.op_class);
                self.wheel_len += 1;
                self.wheel[((now + lat) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                    _pad: (),
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::Selp => {
                let dst = d.dst;
                let p = d.psrc0;
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let a = val!(&d.srcs[0], lane, t);
                    let b = val!(&d.srcs[1], lane, t);
                    let v = if cta.pred(t, p) { a } else { b };
                    cta.set_reg(t, dst, v);
                }
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                    _pad: (),
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::Setp(cmp, ty) => {
                let pdst = d.pdst;
                let mut profiled: Option<[u32; 2]> = None;
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let a = val!(&d.srcs[0], lane, t);
                    let b = val!(&d.srcs[1], lane, t);
                    if profiled.is_none() {
                        profiled = Some([a, b]);
                    }
                    cta.set_pred(t, pdst, cmp.eval(ty, a, b));
                }
                warp.sb.reserve_pred(pdst);
                let lat = latency(d.op_class);
                self.wheel_len += 1;
                self.wheel[((now + lat) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: None,
                    pred: Some(pdst),
                    _pad: (),
                });
                if let Some(srcs) = profiled {
                    self.detector.on_setp(now, w_idx, pc, srcs);
                }
                warp.stack.advance(pc + 1);
            }
            ExecClass::PAnd | ExecClass::POr | ExecClass::PNot => {
                let pdst = d.pdst;
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let a = cta.pred(t, d.psrc0);
                    let v = match d.class {
                        ExecClass::PAnd => a && cta.pred(t, d.psrc1),
                        ExecClass::POr => a || cta.pred(t, d.psrc1),
                        _ => !a,
                    };
                    cta.set_pred(t, pdst, v);
                }
                warp.sb.reserve_pred(pdst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: None,
                    pred: Some(pdst),
                    _pad: (),
                });
                warp.stack.advance(pc + 1);
            }
            // ---- Control ----
            ExecClass::Bra => {
                let target = d.target;
                let taken = exec;
                let taken_any = taken != 0;
                let backward = d.backward;
                if backward {
                    self.branch_log.record(pc, now);
                }
                self.detector.on_branch(now, w_idx, pc, target, taken_any);
                let is_sib = self.detector.is_sib(pc);
                if is_sib {
                    stats.sib_inst += 1;
                }
                if d.wait {
                    stats.wait_exit_fail += taken.count_ones() as u64;
                    stats.wait_exit_success += (active & !taken).count_ones() as u64;
                }
                warp.stack.branch(taken, target, pc + 1, d.rpc);
                outcome.info.is_branch = true;
                outcome.info.taken_backward = backward && taken_any;
                outcome.info.branch_distance = d.branch_distance;
                outcome.info.is_sib = is_sib;
                outcome.sib_taken = is_sib && backward && taken_any;
            }
            ExecClass::Exit => {
                warp.stack.exit_threads(exec);
                if warp.stack.is_empty() {
                    warp.done = true;
                    cta.warps_done += 1;
                    outcome.cta_event = Some(CtaEvent::WarpDone(cta_slot));
                } else if warp.stack.pc() == pc {
                    // Guarded exit: surviving lanes fall through.
                    warp.stack.advance(pc + 1);
                }
            }
            ExecClass::Nop => warp.stack.advance(pc + 1),
            ExecClass::Clock => {
                let dst = d.dst;
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    cta.set_reg(t, dst, now as u32);
                }
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                    _pad: (),
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::Bar => {
                warp.at_barrier = true;
                warp.stack.advance(pc + 1);
                cta.barrier_arrived += 1;
                if cta.barrier_arrived >= cta.live_warps() {
                    outcome.cta_event = Some(CtaEvent::BarrierFull(cta_slot));
                }
            }
            ExecClass::Membar => {
                if warp.outstanding_mem > 0 {
                    warp.waiting_membar = true;
                }
                warp.stack.advance(pc + 1);
            }
            // ---- Memory ----
            ExecClass::LdParam => {
                let dst = d.dst;
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let addr = dec_addr(d, cta, t);
                    let slot = (addr / 4) as usize;
                    let Some(&v) = lctx.params.get(slot) else {
                        return Err(invariant(format!(
                            "sm {sm_id} pc {pc}: ld.param slot {slot} out of \
                             range ({} params passed)",
                            lctx.params.len()
                        )));
                    };
                    cta.set_reg(t, dst, v);
                }
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                    _pad: (),
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::LdShared => {
                let dst = d.dst;
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let addr = dec_addr(d, cta, t);
                    let Some(&v) = cta.shared.get((addr / 4) as usize) else {
                        return Err(invariant(format!(
                            "sm {sm_id} pc {pc}: ld.shared at byte {addr} past \
                             the CTA's {} shared words",
                            cta.shared.len()
                        )));
                    };
                    cta.set_reg(t, dst, v);
                }
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_shared) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                    _pad: (),
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::LdGlobal { bypass_l1 } => {
                let dst = d.dst;
                stats.load_inst += 1;
                let mut accesses = Vec::with_capacity(lanes as usize);
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let addr = dec_addr(d, cta, t);
                    let v = mem
                        .gmem()
                        .try_read_u32(addr)
                        .map_err(|fault| device_fault(sm_id, pc, fault))?;
                    cta.set_reg(t, dst, v);
                    accesses.push(simt_mem::LaneAccess {
                        lane: lane as u8,
                        addr,
                    });
                }
                if accesses.is_empty() {
                    warp.stack.advance(pc + 1);
                    return Ok(outcome);
                }
                warp.sb.reserve_reg(dst);
                let txs = simt_mem::Coalescer::coalesce(&accesses);
                let tag = self.pending.insert(PendingMem {
                    warp: w_idx,
                    remaining: txs.len() as u32,
                    kind: PendKind::Load { dst },
                });
                warp.outstanding_mem += 1;
                for tx in txs {
                    let mut req = MemRequest::new(ReqKind::Load { bypass_l1 }, tx.line, tag);
                    if d.sync {
                        req = req.sync();
                    }
                    mem.enqueue(sm_id, req, now);
                }
                warp.stack.advance(pc + 1);
            }
            ExecClass::StParam => {
                return Err(invariant(format!(
                    "sm {sm_id} pc {pc}: store to param space"
                )));
            }
            ExecClass::StShared => {
                outcome.info.writes_mem = true;
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let addr = dec_addr(d, cta, t);
                    let v = val!(&d.srcs[0], lane, t);
                    let words = cta.shared.len();
                    let Some(s) = cta.shared.get_mut((addr / 4) as usize) else {
                        return Err(invariant(format!(
                            "sm {sm_id} pc {pc}: st.shared at byte {addr} past \
                             the CTA's {words} shared words"
                        )));
                    };
                    *s = v;
                }
                // Shared stores complete in-pipeline; no scoreboard.
                warp.stack.advance(pc + 1);
            }
            ExecClass::StGlobal => {
                outcome.info.writes_mem = true;
                stats.store_inst += 1;
                let mut accesses = Vec::with_capacity(lanes as usize);
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let addr = dec_addr(d, cta, t);
                    let v = val!(&d.srcs[0], lane, t);
                    mem.gmem_mut()
                        .try_write_u32(addr, v)
                        .map_err(|fault| device_fault(sm_id, pc, fault))?;
                    accesses.push(simt_mem::LaneAccess {
                        lane: lane as u8,
                        addr,
                    });
                }
                if !accesses.is_empty() {
                    let txs = simt_mem::Coalescer::coalesce(&accesses);
                    let tag = self.pending.insert(PendingMem {
                        warp: w_idx,
                        remaining: txs.len() as u32,
                        kind: PendKind::Store,
                    });
                    warp.outstanding_mem += 1;
                    for tx in txs {
                        let mut req = MemRequest::new(ReqKind::Store, tx.line, tag);
                        if d.sync {
                            req = req.sync();
                        }
                        mem.enqueue(sm_id, req, now);
                    }
                }
                warp.stack.advance(pc + 1);
            }
            ExecClass::Atom(aop) => {
                stats.atomic_inst += 1;
                let dst = d.dst;
                let role = if d.acquire {
                    LockRole::Acquire
                } else if d.release {
                    LockRole::Release
                } else {
                    LockRole::None
                };
                let holder = ((self.id as u64) << 32) | w_idx as u64;
                // Group lane ops by line, preserving lane order. Addresses
                // are validated here: the lane ops are applied later inside
                // the partition's atomic unit, which has no error path back
                // to the warp.
                let mut groups: Vec<(u64, Vec<LaneAtomic>)> = Vec::new();
                for lane in BitIter(exec) {
                    let t = warp.thread_of(lane);
                    let addr = dec_addr(d, cta, t);
                    mem.gmem()
                        .check_addr(addr)
                        .map_err(|fault| device_fault(sm_id, pc, fault))?;
                    let a = val!(&d.srcs[0], lane, t);
                    let b = val!(&d.srcs[1], lane, t);
                    let op = LaneAtomic {
                        lane: lane as u8,
                        addr,
                        op: aop,
                        a,
                        b,
                        role,
                        holder,
                    };
                    let line = simt_mem::line_of(addr);
                    match groups.iter_mut().find(|(l, _)| *l == line) {
                        Some((_, v)) => v.push(op),
                        None => groups.push((line, vec![op])),
                    }
                }
                if !groups.is_empty() {
                    warp.sb.reserve_reg(dst);
                    let tag = self.pending.insert(PendingMem {
                        warp: w_idx,
                        remaining: groups.len() as u32,
                        kind: PendKind::Atomic { dst },
                    });
                    warp.outstanding_mem += 1;
                    let sole = groups.len() == 1;
                    for (line, ops) in groups {
                        let mut req = MemRequest::new(ReqKind::Atomic { ops }, line, tag);
                        req.sole = sole;
                        if d.sync {
                            req = req.sync();
                        }
                        mem.enqueue(sm_id, req, now);
                    }
                }
                warp.stack.advance(pc + 1);
            }
        }

        Ok(outcome)
    }

    /// True once every pending memory op and writeback has drained
    /// (watchdog support).
    pub fn quiescent(&self) -> bool {
        self.pending.is_empty() && self.wheel.iter().all(Vec::is_empty)
    }

    /// Aggregate forward-progress view for the periodic hang scan.
    /// `starvation_bound` is the no-issue age at which an unblocked warp
    /// counts as starved; `backoff_bound` (0 = disabled) is the same for
    /// warps in the scheduler's backed-off state.
    pub fn scan_progress(
        &self,
        now: u64,
        starvation_bound: u64,
        backoff_bound: u64,
    ) -> ProgressScan {
        let mut scan = ProgressScan::default();
        for (i, w) in self.warps.iter().enumerate() {
            if !w.resident || w.done {
                continue;
            }
            scan.live += 1;
            let p = &self.progress[i];
            let blocked = w.at_barrier || w.waiting_membar || w.outstanding_mem > 0;
            let spinning = p.spinning();
            if spinning {
                scan.spinning += 1;
            }
            if spinning || blocked {
                scan.spinning_or_blocked += 1;
            }
            let idle = p.idle_for(now);
            // The reported victim is the explicit minimum warp index (the
            // GPU-level scan then takes the lexicographic minimum over
            // `(sm, warp)`), so attribution is a property of the machine
            // state, not of traversal order.
            if backoff_bound > 0
                && idle >= backoff_bound
                && self.units[i % self.num_units].is_backed_off(i)
                && scan.backoff_starved.is_none_or(|b| i < b)
            {
                scan.backoff_starved = Some(i);
            }
            if !blocked && idle >= starvation_bound && scan.starved.is_none_or(|b| i < b) {
                scan.starved = Some(i);
            }
        }
        scan
    }

    /// Snapshot every live warp for a [`crate::HangReport`].
    pub fn snapshots(&self, now: u64) -> Vec<WarpSnapshot> {
        let mut out = Vec::new();
        for (i, w) in self.warps.iter().enumerate() {
            if !w.resident || w.done {
                continue;
            }
            let p = &self.progress[i];
            let unit = &self.units[i % self.num_units];
            let pc_stuck = if p.last_pc_change == u64::MAX {
                0
            } else {
                now.saturating_sub(p.last_pc_change)
            };
            out.push(WarpSnapshot {
                sm: self.id,
                warp: i,
                pc: if w.stack.is_empty() { 0 } else { w.stack.pc() },
                stack_depth: w.stack.depth(),
                active_lanes: w.stack.active_mask().count_ones(),
                outstanding_mem: w.outstanding_mem,
                at_barrier: w.at_barrier,
                waiting_membar: w.waiting_membar,
                backed_off: unit.is_backed_off(i),
                backoff_queue_position: unit.backoff_queue_position(i),
                spin_iters: p.spin_iters,
                idle_cycles: p.idle_for(now),
                pc_stuck_cycles: pc_stuck,
                pending_regs: w.sb.pending_regs(),
            });
        }
        out
    }

    /// Resident-version counter (bumped on CTA launch/retire).
    pub fn resident_version(&self) -> u64 {
        self.resident_version
    }

    /// Any CTA slots occupied?
    pub fn has_work(&self) -> bool {
        self.ctas_resident > 0
    }

    /// Serialize the SM's full dynamic state at a checkpoint boundary (top
    /// of a run-loop iteration, before any cycle work).
    ///
    /// Construction-derived members (latencies, capacities, `unit_warps`
    /// striding, scratch buffers) are rebuilt from the config on restore and
    /// not written.
    pub fn save_snap(&self, w: &mut simt_snap::SnapWriter) {
        w.usize(self.warps.len());
        for warp in &self.warps {
            warp.save_snap(w);
        }
        w.usize(self.ctas.len());
        for cta in &self.ctas {
            match cta {
                Some(c) => {
                    w.bool(true);
                    c.save_snap(w);
                }
                None => w.bool(false),
            }
        }
        // Policy/detector state goes in nested length-prefixed blobs so a
        // unit that misreads its own encoding cannot desynchronize the rest
        // of the snapshot.
        w.usize(self.units.len());
        for unit in &self.units {
            let mut inner = simt_snap::SnapWriter::new();
            unit.save_state(&mut inner);
            w.bytes(&inner.into_bytes());
        }
        {
            let mut inner = simt_snap::SnapWriter::new();
            self.detector.save_state(&mut inner);
            w.bytes(&inner.into_bytes());
        }
        self.branch_log.save_snap(w);
        // The slab serializes its slot layout verbatim (generations and
        // free-list order included): iteration is deterministic by
        // construction, so there is no sort-before-write pass, and resumed
        // runs assign future tags bit-identically.
        self.pending.save_snap(w, |w, p| {
            w.usize(p.warp);
            w.u32(p.remaining);
            match p.kind {
                PendKind::Load { dst } => {
                    w.u8(0);
                    w.u8(dst.0);
                }
                PendKind::Store => w.u8(1),
                PendKind::Atomic { dst } => {
                    w.u8(2);
                    w.u8(dst.0);
                }
            }
        });
        w.usize(self.wheel.len());
        for slot in &self.wheel {
            w.usize(slot.len());
            for e in slot {
                w.usize(e.warp);
                match e.reg {
                    Some(r) => {
                        w.bool(true);
                        w.u8(r.0);
                    }
                    None => w.bool(false),
                }
                match e.pred {
                    Some(p) => {
                        w.bool(true);
                        w.u8(p.0);
                    }
                    None => w.bool(false),
                }
            }
        }
        w.usize(self.progress.len());
        for p in &self.progress {
            p.save_snap(w);
        }
        w.u64(self.resident_version);
        w.usize(self.regs_in_use);
        w.usize(self.shared_in_use);
        w.usize(self.meta.len());
        for m in &self.meta {
            w.bool(m.resident);
            w.bool(m.done);
            w.u64(m.age_key);
            w.bool(m.eligible);
        }
        w.usize(self.captured.len());
        for c in &self.captured {
            w.usize(c.cta_id);
            w.usize(c.threads);
            w.usize(c.regs_per_thread);
            w.usize(c.regs.len());
            for &v in &c.regs {
                w.u32(v);
            }
            w.usize(c.preds.len());
            for &v in &c.preds {
                w.u8(v);
            }
            w.usize(c.shared.len());
            for &v in &c.shared {
                w.u32(v);
            }
        }
    }

    /// Restore state written by [`Sm::save_snap`] into this freshly
    /// constructed SM (same config, same policy/detector kinds).
    ///
    /// Validates every structural count against this SM's construction and
    /// every restored index against `limits` before mutating, and restores
    /// member-by-member; on error the SM must be discarded (the caller
    /// rebuilds the whole chunk set).
    pub fn load_snap(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
        limits: &SnapLimits,
    ) -> Result<(), simt_snap::SnapshotError> {
        use simt_snap::SnapshotError;
        let nwarps = r.len(12)?;
        if nwarps != self.warps.len() {
            return Err(SnapshotError::malformed(format!(
                "sm {}: snapshot has {nwarps} warp slots, config has {}",
                self.id,
                self.warps.len()
            )));
        }
        let mut warps = Vec::with_capacity(nwarps);
        for _ in 0..nwarps {
            warps.push(Warp::load_snap(r)?);
        }
        let nctas = r.len(1)?;
        if nctas != self.ctas.len() {
            return Err(SnapshotError::malformed(format!(
                "sm {}: snapshot has {nctas} CTA slots, config has {}",
                self.id,
                self.ctas.len()
            )));
        }
        let mut ctas = Vec::with_capacity(nctas);
        for _ in 0..nctas {
            ctas.push(if r.bool()? {
                Some(Cta::load_snap(r)?)
            } else {
                None
            });
        }
        let nunits = r.len(8)?;
        if nunits != self.units.len() {
            return Err(SnapshotError::malformed(format!(
                "sm {}: snapshot has {nunits} scheduler units, config has {}",
                self.id,
                self.units.len()
            )));
        }
        let mut unit_blobs = Vec::with_capacity(nunits);
        for _ in 0..nunits {
            unit_blobs.push(r.bytes()?.to_vec());
        }
        let detector_blob = r.bytes()?.to_vec();
        let branch_log = BranchLog::load_snap(r)?;
        let sm_id = self.id;
        let pending = TagSlab::load_snap(r, |r| {
            let warp = r.usize()?;
            if warp >= nwarps {
                return Err(SnapshotError::malformed(format!(
                    "sm {sm_id}: pending entry names warp {warp} of {nwarps}"
                )));
            }
            let remaining = r.u32()?;
            let kind = match r.u8()? {
                0 => PendKind::Load { dst: Reg(r.u8()?) },
                1 => PendKind::Store,
                2 => PendKind::Atomic { dst: Reg(r.u8()?) },
                k => {
                    return Err(SnapshotError::malformed(format!(
                        "sm {sm_id}: unknown pending-mem kind {k}"
                    )))
                }
            };
            if let PendKind::Load { dst } | PendKind::Atomic { dst } = kind {
                if dst.index() >= limits.regs_per_thread {
                    return Err(SnapshotError::malformed(format!(
                        "sm {sm_id}: pending entry writes r{} of {} kernel registers",
                        dst.0, limits.regs_per_thread
                    )));
                }
            }
            Ok(PendingMem {
                warp,
                remaining,
                kind,
            })
        })?;
        let nwheel = r.len(8)?;
        if nwheel != WHEEL {
            return Err(SnapshotError::malformed(format!(
                "sm {}: snapshot wheel has {nwheel} slots, expected {WHEEL}",
                self.id
            )));
        }
        let mut wheel: Vec<Vec<WbEntry>> = Vec::with_capacity(WHEEL);
        for _ in 0..WHEEL {
            let n = r.len(4)?;
            let mut slot = Vec::with_capacity(n);
            for _ in 0..n {
                let warp = r.usize()?;
                if warp >= nwarps {
                    return Err(SnapshotError::malformed(format!(
                        "sm {}: writeback entry names warp {warp} of {nwarps}",
                        self.id
                    )));
                }
                let reg = if r.bool()? { Some(Reg(r.u8()?)) } else { None };
                if reg.is_some_and(|rg| rg.index() >= limits.regs_per_thread) {
                    return Err(SnapshotError::malformed(format!(
                        "sm {}: writeback register out of kernel range",
                        self.id
                    )));
                }
                let pred = if r.bool()? {
                    Some(simt_isa::Pred(r.u8()?))
                } else {
                    None
                };
                if pred.is_some_and(|p| p.0 >= 8) {
                    return Err(SnapshotError::malformed(format!(
                        "sm {}: writeback predicate p{} out of range",
                        self.id,
                        pred.unwrap().0
                    )));
                }
                slot.push(WbEntry {
                    warp,
                    reg,
                    pred,
                    _pad: (),
                });
            }
            wheel.push(slot);
        }
        let nprogress = r.len(48)?;
        if nprogress != nwarps {
            return Err(SnapshotError::malformed(format!(
                "sm {}: {nprogress} progress entries for {nwarps} warps",
                self.id
            )));
        }
        let mut progress = Vec::with_capacity(nprogress);
        for _ in 0..nprogress {
            progress.push(WarpProgress::load_snap(r)?);
        }
        let resident_version = r.u64()?;
        let regs_in_use = r.usize()?;
        let shared_in_use = r.usize()?;
        let nmeta = r.len(11)?;
        if nmeta != nwarps {
            return Err(SnapshotError::malformed(format!(
                "sm {}: {nmeta} meta entries for {nwarps} warps",
                self.id
            )));
        }
        let mut meta = Vec::with_capacity(nmeta);
        for _ in 0..nmeta {
            meta.push(WarpMeta {
                resident: r.bool()?,
                done: r.bool()?,
                age_key: r.u64()?,
                eligible: r.bool()?,
            });
        }
        let ncaptured = r.len(28)?;
        let mut captured = Vec::with_capacity(ncaptured);
        for _ in 0..ncaptured {
            let cta_id = r.usize()?;
            let threads = r.usize()?;
            let regs_per_thread = r.usize()?;
            let nregs = r.len(4)?;
            let mut regs = Vec::with_capacity(nregs);
            for _ in 0..nregs {
                regs.push(r.u32()?);
            }
            let npreds = r.len(1)?;
            let mut preds = Vec::with_capacity(npreds);
            for _ in 0..npreds {
                preds.push(r.u8()?);
            }
            let nshared = r.len(4)?;
            let mut shared = Vec::with_capacity(nshared);
            for _ in 0..nshared {
                shared.push(r.u32()?);
            }
            captured.push(crate::warp::CtaState {
                cta_id,
                threads,
                regs_per_thread,
                regs,
                preds,
                shared,
            });
        }
        // Semantic bounds. Parsing proved the bytes are well-formed; these
        // checks prove the *values* can run: every index the cycle loop
        // will touch — program counters, CTA slots, lane→thread mappings —
        // is validated against the kernel and launch before anything
        // mutates. A snapshot that reaches the machine with a damaged body
        // (its envelope checksum bypassed or its bytes flipped in memory)
        // must die here with a structured error, not panic mid-cycle.
        for (i, warp) in warps.iter().enumerate() {
            for e in warp.stack.entries() {
                if e.pc >= limits.insts
                    || (e.rpc != simt_isa::RECONV_EXIT && e.rpc >= limits.insts)
                {
                    return Err(SnapshotError::malformed(format!(
                        "sm {}: warp {i} stack pc {} / rpc {} outside the \
                         kernel's {} instructions",
                        self.id, e.pc, e.rpc, limits.insts
                    )));
                }
            }
            if warp.resident {
                let Some(Some(cta)) = ctas.get(warp.cta_slot) else {
                    return Err(SnapshotError::malformed(format!(
                        "sm {}: resident warp {i} names empty CTA slot {}",
                        self.id, warp.cta_slot
                    )));
                };
                if warp.warp_in_cta >= cta.num_warps {
                    return Err(SnapshotError::malformed(format!(
                        "sm {}: warp {i} is warp {} of a {}-warp CTA",
                        self.id, warp.warp_in_cta, cta.num_warps
                    )));
                }
                for e in warp.stack.entries() {
                    let top_lane = (31 - e.mask.leading_zeros()) as usize;
                    if e.mask != 0 && warp.thread_of(top_lane) >= cta.threads {
                        return Err(SnapshotError::malformed(format!(
                            "sm {}: warp {i} mask {:#010x} activates a lane \
                             past the CTA's {} threads",
                            self.id, e.mask, cta.threads
                        )));
                    }
                }
            }
        }
        for cta in ctas.iter().flatten() {
            if cta.id >= limits.grid_ctas
                || cta.threads != limits.threads_per_cta
                || cta.regs_per_thread != limits.regs_per_thread
                || cta.shared.len() != limits.shared_words
            {
                return Err(SnapshotError::malformed(format!(
                    "sm {}: CTA {} geometry does not match the launch",
                    self.id, cta.id
                )));
            }
        }
        // All bytes parsed and bounded; now restore. The per-unit and
        // detector blobs go last so their own load errors still leave
        // counts consistent — the caller discards the SM on any error
        // either way.
        self.warps = warps;
        self.ctas = ctas;
        self.ctas_resident = self.ctas.iter().filter(|c| c.is_some()).count();
        self.branch_log = branch_log;
        self.pending = pending;
        self.wheel = wheel;
        self.wheel_len = self.wheel.iter().map(Vec::len).sum();
        self.progress = progress;
        self.resident_version = resident_version;
        // The live lists are a derived cache, never serialized; force the
        // first post-restore cycle to rebuild them from the restored warps.
        self.live_version = resident_version.wrapping_add(1);
        self.regs_in_use = regs_in_use;
        self.shared_in_use = shared_in_use;
        self.meta = meta;
        self.captured = captured;
        for (unit, blob) in self.units.iter_mut().zip(&unit_blobs) {
            let mut ir = simt_snap::SnapReader::new(blob);
            unit.load_state(&mut ir)?;
            ir.expect_exhausted()?;
        }
        let mut ir = simt_snap::SnapReader::new(&detector_blob);
        self.detector.load_state(&mut ir)?;
        ir.expect_exhausted()?;
        Ok(())
    }
}

/// Values needed to evaluate special registers.
struct SpecialCtx {
    sm_id: usize,
    cta_id: usize,
    threads_per_cta: usize,
    grid_ctas: usize,
    now: u64,
}

fn special_value(s: Special, thread: usize, lane: usize, ctx: &SpecialCtx) -> u32 {
    match s {
        Special::TidX => thread as u32,
        Special::CtaIdX => ctx.cta_id as u32,
        Special::NTidX => ctx.threads_per_cta as u32,
        Special::NCtaIdX => ctx.grid_ctas as u32,
        Special::LaneId => lane as u32,
        Special::WarpId => (thread / 32) as u32,
        Special::GlobalTid => (ctx.cta_id * ctx.threads_per_cta + thread) as u32,
        Special::Clock => ctx.now as u32,
        Special::SmId => ctx.sm_id as u32,
    }
}

fn operand_value(
    op: &Operand,
    cta: &Cta,
    thread: usize,
    lane: usize,
    ctx: &SpecialCtx,
    _params: &[u32],
) -> u32 {
    match op {
        Operand::Reg(r) => cta.reg(thread, *r),
        Operand::Imm(v) => *v,
        Operand::Special(s) => special_value(*s, thread, lane, ctx),
    }
}

/// Effective byte address of a decoded memory operand for `thread`.
#[inline]
fn dec_addr(d: &DecodedInst, cta: &Cta, thread: usize) -> u64 {
    let base = d.addr_base.map(|r| cta.reg(thread, r)).unwrap_or(0) as i64;
    (base + d.addr_off as i64) as u64
}

/// Iterator over set bits of a u32 (lane indices).
struct BitIter(u32);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{alu_fn, Op, Ty};

    #[test]
    fn bit_iter_yields_lanes() {
        let v: Vec<usize> = BitIter(0b1010_0001).collect();
        assert_eq!(v, vec![0, 5, 7]);
        assert_eq!(BitIter(0).count(), 0);
        assert_eq!(BitIter(u32::MAX).count(), 32);
    }

    // The executor's ALU semantics now come from `simt_isa::alu_fn`; these
    // stay as regression coverage at the point of use.
    fn alu_eval(op: Op, a: u32, b: u32, c: u32) -> u32 {
        alu_fn(op)(a, b, c)
    }

    #[test]
    fn alu_eval_int() {
        assert_eq!(alu_eval(Op::Add(Ty::S32), 2, 3, 0), 5);
        assert_eq!(alu_eval(Op::Sub(Ty::S32), 2, 3, 0), (-1i32) as u32);
        assert_eq!(alu_eval(Op::Mad(Ty::S32), 2, 3, 4), 10);
        assert_eq!(alu_eval(Op::Div(Ty::S32), 7, 2, 0), 3);
        assert_eq!(alu_eval(Op::Div(Ty::S32), 7, 0, 0), u32::MAX);
        assert_eq!(alu_eval(Op::Rem(Ty::S32), 7, 3, 0), 1);
        assert_eq!(alu_eval(Op::Shl, 1, 5, 0), 32);
        assert_eq!(alu_eval(Op::Sra, (-8i32) as u32, 1, 0), (-4i32) as u32);
        assert_eq!(alu_eval(Op::Min(Ty::S32), (-1i32) as u32, 1, 0), (-1i32) as u32);
        assert_eq!(alu_eval(Op::Min(Ty::U32), u32::MAX, 1, 0), 1);
    }

    #[test]
    fn alu_eval_float() {
        let b = |x: f32| x.to_bits();
        assert_eq!(alu_eval(Op::Add(Ty::F32), b(1.5), b(2.0), 0), b(3.5));
        assert_eq!(alu_eval(Op::Sqrt, b(9.0), 0, 0), b(3.0));
        assert_eq!(alu_eval(Op::CvtI2F, 3, 0, 0), b(3.0));
        assert_eq!(alu_eval(Op::CvtF2I, b(3.7), 0, 0), 3);
    }

    #[test]
    fn special_values() {
        let ctx = SpecialCtx {
            sm_id: 2,
            cta_id: 5,
            threads_per_cta: 128,
            grid_ctas: 10,
            now: 42,
        };
        assert_eq!(special_value(Special::TidX, 37, 5, &ctx), 37);
        assert_eq!(special_value(Special::LaneId, 37, 5, &ctx), 5);
        assert_eq!(special_value(Special::WarpId, 37, 5, &ctx), 1);
        assert_eq!(special_value(Special::GlobalTid, 37, 5, &ctx), 677);
        assert_eq!(special_value(Special::Clock, 37, 5, &ctx), 42);
        assert_eq!(special_value(Special::NCtaIdX, 0, 0, &ctx), 10);
        assert_eq!(special_value(Special::SmId, 0, 0, &ctx), 2);
    }
}
