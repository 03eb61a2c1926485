//! Warp-scheduler framework and the paper's three baseline policies.
//!
//! Each SM has `schedulers_per_sm` *units*; warp `w` belongs to unit
//! `w % units`. Every cycle each unit picks at most one eligible warp to
//! issue. Policies implement [`SchedulerPolicy`]; the BOWS wrapper in the
//! `bows` crate composes over any of them.


/// Per-warp metadata visible to schedulers.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarpMeta {
    /// Warp slot holds live threads.
    pub resident: bool,
    /// All threads exited.
    pub done: bool,
    /// Monotonic launch order: smaller = older ("older warps are those with
    /// lower thread IDs").
    pub age_key: u64,
    /// SM-computed readiness this cycle (scoreboard clear, not at barrier,
    /// not draining a fence, issue port free).
    pub eligible: bool,
}

/// What a scheduler learns about the instruction its warp just issued.
#[derive(Debug, Clone, Copy, Default)]
pub struct IssueInfo {
    /// Instruction index.
    pub pc: usize,
    /// This was a control-flow instruction.
    pub is_branch: bool,
    /// A backward branch taken by at least one lane.
    pub taken_backward: bool,
    /// For taken backward branches, `pc - target` (a loop-size estimate
    /// CAWA's criticality predictor uses).
    pub branch_distance: usize,
    /// The detector currently classifies this PC as a spin-inducing branch.
    pub is_sib: bool,
    /// Number of lanes that executed.
    pub active_lanes: u32,
    /// The instruction wrote memory (global or shared store) — externally
    /// visible progress, used by the forward-progress watchdog to exempt
    /// producer loops from spin classification.
    pub writes_mem: bool,
}

/// Scheduling context for one cycle.
#[derive(Debug)]
pub struct SchedCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// Metadata for every warp slot on the SM (indexed by warp slot).
    pub meta: &'a [WarpMeta],
    /// Bumped whenever warp residency changes; lets policies cache derived
    /// orderings.
    pub resident_version: u64,
}

/// A warp-scheduling policy for one scheduler unit.
///
/// Implementations are single-unit: they only ever see warp slots belonging
/// to their unit in `eligible`/`unit_warps`.
pub trait SchedulerPolicy {
    /// Policy name for reports (e.g. `"gto"`, `"bows(gto)"`).
    fn name(&self) -> String;

    /// A warp slot was (re)assigned to a fresh warp with `static_inst`
    /// static instructions (CAWA seeds its remaining-instruction estimate).
    fn on_warp_launch(&mut self, _warp: usize, _static_inst: usize) {}

    /// Choose one of `eligible` to issue (never empty). `None` idles.
    fn pick(&mut self, ctx: &SchedCtx<'_>, eligible: &[usize]) -> Option<usize>;

    /// The chosen warp issued `info`.
    fn on_issue(&mut self, _ctx: &SchedCtx<'_>, _warp: usize, _info: &IssueInfo) {}

    /// The warp executed (took) a spin-inducing branch: BOWS's trigger.
    fn on_sib(&mut self, _ctx: &SchedCtx<'_>, _warp: usize) {}

    /// End of cycle bookkeeping. `unit_warps` are this unit's warp slots;
    /// `issued` is the warp that issued this cycle, if any.
    fn end_cycle(&mut self, _ctx: &SchedCtx<'_>, _unit_warps: &[usize], _issued: Option<usize>) {}

    /// Extra per-warp issue veto (BOWS's pending back-off delay). Checked by
    /// the SM when building the eligible set.
    fn can_issue(&self, _now: u64, _warp: usize) -> bool {
        true
    }

    /// Is the warp currently in the backed-off state? (Figure 11.)
    fn is_backed_off(&self, _warp: usize) -> bool {
        false
    }

    /// Current back-off delay limit (Figure 10 instrumentation); 0 for
    /// non-BOWS policies.
    fn current_delay_limit(&self) -> u64 {
        0
    }

    /// Position of `warp` in the policy's back-off FIFO (0 = next to
    /// issue), for hang diagnostics. `None` for policies without one or
    /// warps not queued.
    fn backoff_queue_position(&self, _warp: usize) -> Option<usize> {
        None
    }

    /// Earliest future cycle (strictly after `now`) at which this unit's
    /// internal state can change *on its own* — e.g. a BOWS back-off delay
    /// expiring or an adaptive-window update firing. `None` when the policy
    /// has no self-scheduled state changes (the baselines). Used by the
    /// fast-forward engine; returning too-early cycles only costs speed,
    /// returning too-late ones breaks cycle-engine equivalence.
    fn next_wakeup(&self, _now: u64) -> Option<u64> {
        None
    }

    /// Bulk-apply `span` consecutive issue-free end-of-cycle updates, as if
    /// [`SchedulerPolicy::end_cycle`] ran with `issued = None` at cycles
    /// `now+1 ..= now+span` (with `ctx` frozen at `now`, which is exact for
    /// dead cycles: warp metadata cannot change while nothing issues).
    /// The default literally loops `end_cycle`, which is always correct;
    /// policies whose idle update is closed-form override it.
    fn on_idle_span(&mut self, ctx: &SchedCtx<'_>, unit_warps: &[usize], span: u64) {
        for _ in 0..span {
            self.end_cycle(ctx, unit_warps, None);
        }
    }

    /// Serialize the unit's dynamic state into a checkpoint. A policy whose
    /// next decision depends on anything beyond the per-cycle `SchedCtx`
    /// (LRR's last-issued slot, CAWA's criticality counters, BOWS's queue
    /// and delay state) must write it all; a resumed run must pick the same
    /// warps the uninterrupted run would have.
    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        let _ = w;
    }

    /// Restore state written by [`SchedulerPolicy::save_state`] into a
    /// freshly constructed unit of the same policy.
    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// Which baseline policy to build (convenience for experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasePolicy {
    /// Loose round-robin.
    Lrr,
    /// Greedy-then-oldest with periodic age rotation.
    Gto,
    /// Criticality-aware warp acceleration.
    Cawa,
}

impl BasePolicy {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BasePolicy::Lrr => "lrr",
            BasePolicy::Gto => "gto",
            BasePolicy::Cawa => "cawa",
        }
    }

    /// Instantiate one scheduler unit of this policy.
    pub fn build(self, gto_rotate_period: u64) -> Box<dyn SchedulerPolicy> {
        match self {
            BasePolicy::Lrr => Box::new(Lrr::new()),
            BasePolicy::Gto => Box::new(Gto::new(gto_rotate_period)),
            BasePolicy::Cawa => Box::new(Cawa::new()),
        }
    }
}

/// Loose round-robin: cycle through warp slots, starting after the slot that
/// issued most recently.
#[derive(Debug, Clone)]
pub struct Lrr {
    last: usize,
}

impl Default for Lrr {
    fn default() -> Lrr {
        Lrr::new()
    }
}

impl Lrr {
    const MOD: usize = 1 << 16;

    pub fn new() -> Lrr {
        Lrr {
            last: Lrr::MOD - 1,
        }
    }
}

impl SchedulerPolicy for Lrr {
    fn name(&self) -> String {
        "lrr".to_string()
    }

    fn pick(&mut self, _ctx: &SchedCtx<'_>, eligible: &[usize]) -> Option<usize> {
        let w = eligible
            .iter()
            .copied()
            .min_by_key(|&w| (w + Lrr::MOD - self.last - 1) % Lrr::MOD)?;
        self.last = w;
        Some(w)
    }

    // Idle cycles touch no LRR state.
    fn on_idle_span(&mut self, _ctx: &SchedCtx<'_>, _unit_warps: &[usize], _span: u64) {}

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        w.usize(self.last);
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        self.last = r.usize()?;
        Ok(())
    }
}

/// Greedy-then-oldest. Strict GTO can livelock under busy-wait
/// synchronization (the paper observed this on HT and ATM), so age priority
/// rotates every `rotate_period` cycles.
#[derive(Debug, Clone)]
pub struct Gto {
    rotate_period: u64,
    last_issued: Option<usize>,
    /// Cached (resident_version, rotation) → per-slot rank.
    cache_key: (u64, u64),
    ranks: Vec<u64>,
}

impl Gto {
    pub fn new(rotate_period: u64) -> Gto {
        Gto {
            rotate_period: rotate_period.max(1),
            last_issued: None,
            cache_key: (u64::MAX, u64::MAX),
            ranks: Vec::new(),
        }
    }

    fn refresh(&mut self, ctx: &SchedCtx<'_>) {
        let rot = ctx.now / self.rotate_period;
        let key = (ctx.resident_version, rot);
        if self.cache_key == key && self.ranks.len() == ctx.meta.len() {
            return;
        }
        self.cache_key = key;
        // Rank resident warps by age, then rotate the order.
        let mut resident: Vec<(u64, usize)> = ctx
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.resident && !m.done)
            .map(|(w, m)| (m.age_key, w))
            .collect();
        resident.sort_unstable();
        let n = resident.len().max(1) as u64;
        self.ranks = vec![u64::MAX; ctx.meta.len()];
        for (pos, &(_, w)) in resident.iter().enumerate() {
            self.ranks[w] = (pos as u64 + rot) % n;
        }
    }
}

impl SchedulerPolicy for Gto {
    fn name(&self) -> String {
        "gto".to_string()
    }

    fn pick(&mut self, ctx: &SchedCtx<'_>, eligible: &[usize]) -> Option<usize> {
        // Greedy: stick with the last issued warp while it stays eligible.
        if let Some(last) = self.last_issued {
            if eligible.contains(&last) {
                return Some(last);
            }
        }
        self.refresh(ctx);
        let w = eligible.iter().copied().min_by_key(|&w| self.ranks[w])?;
        self.last_issued = Some(w);
        Some(w)
    }

    // Idle cycles touch no GTO state (the rank cache refreshes lazily in
    // `pick`, and the fast-forward engine never skips past a rotation
    // boundary).
    fn on_idle_span(&mut self, _ctx: &SchedCtx<'_>, _unit_warps: &[usize], _span: u64) {}

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        // The rank cache is a pure function of (resident_version, now) and
        // refreshes lazily, so only the greedy pointer persists.
        match self.last_issued {
            Some(warp) => {
                w.bool(true);
                w.usize(warp);
            }
            None => w.bool(false),
        }
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        self.last_issued = if r.bool()? { Some(r.usize()?) } else { None };
        self.cache_key = (u64::MAX, u64::MAX);
        self.ranks.clear();
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct CawaWarp {
    /// Remaining-instruction estimate (`nInst`).
    n_inst: f64,
    /// Instructions issued.
    issued: u64,
    /// Cycles since launch (denominator of CPI).
    cycles: u64,
    /// Cycles the warp was resident but did not issue (`nStall`).
    stalls: u64,
}

/// Criticality-Aware Warp Acceleration (Lee et al., ISCA 2015), as the paper
/// models it: criticality = `nInst × CPIavg + nStall`; the most critical
/// eligible warp issues.
///
/// `nInst` grows by the loop length whenever the warp takes a backward
/// branch — which is exactly why CAWA pathologically *prioritizes spinning
/// warps*: every failed lock-acquire iteration inflates the spinner's
/// criticality (paper Sections I–II).
#[derive(Debug, Clone, Default)]
pub struct Cawa {
    warps: Vec<CawaWarp>,
}

impl Cawa {
    pub fn new() -> Cawa {
        Cawa::default()
    }

    fn ensure(&mut self, warp: usize) {
        if self.warps.len() <= warp {
            self.warps.resize(warp + 1, CawaWarp::default());
        }
    }

    fn criticality(&self, warp: usize) -> f64 {
        let Some(w) = self.warps.get(warp) else {
            return 0.0;
        };
        let cpi = if w.issued == 0 {
            1.0
        } else {
            w.cycles as f64 / w.issued as f64
        };
        w.n_inst * cpi + w.stalls as f64
    }
}

impl SchedulerPolicy for Cawa {
    fn name(&self) -> String {
        "cawa".to_string()
    }

    fn on_warp_launch(&mut self, warp: usize, static_inst: usize) {
        self.ensure(warp);
        self.warps[warp] = CawaWarp {
            n_inst: static_inst as f64,
            ..CawaWarp::default()
        };
    }

    fn pick(&mut self, _ctx: &SchedCtx<'_>, eligible: &[usize]) -> Option<usize> {
        eligible
            .iter()
            .copied()
            .max_by(|&a, &b| {
                self.criticality(a)
                    .partial_cmp(&self.criticality(b))
                    .expect("criticality is finite")
            })
    }

    fn on_issue(&mut self, _ctx: &SchedCtx<'_>, warp: usize, info: &IssueInfo) {
        self.ensure(warp);
        let w = &mut self.warps[warp];
        w.issued += 1;
        w.n_inst = (w.n_inst - 1.0).max(1.0);
        if info.taken_backward {
            w.n_inst += info.branch_distance as f64;
        }
    }

    fn end_cycle(&mut self, ctx: &SchedCtx<'_>, unit_warps: &[usize], issued: Option<usize>) {
        for &w in unit_warps {
            self.ensure(w);
            let m = ctx.meta[w];
            if m.resident && !m.done {
                self.warps[w].cycles += 1;
                if issued != Some(w) {
                    self.warps[w].stalls += 1;
                }
            }
        }
    }

    // `span` issue-free end_cycles in closed form: every resident live warp
    // ages and stalls once per skipped cycle.
    fn on_idle_span(&mut self, ctx: &SchedCtx<'_>, unit_warps: &[usize], span: u64) {
        for &w in unit_warps {
            self.ensure(w);
            let m = ctx.meta[w];
            if m.resident && !m.done {
                self.warps[w].cycles += span;
                self.warps[w].stalls += span;
            }
        }
    }

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        w.usize(self.warps.len());
        for cw in &self.warps {
            w.f64(cw.n_inst);
            w.u64(cw.issued);
            w.u64(cw.cycles);
            w.u64(cw.stalls);
        }
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        let n = r.len(32)?;
        let mut warps = Vec::with_capacity(n);
        for _ in 0..n {
            warps.push(CawaWarp {
                n_inst: r.f64()?,
                issued: r.u64()?,
                cycles: r.u64()?,
                stalls: r.u64()?,
            });
        }
        self.warps = warps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(n: usize) -> Vec<WarpMeta> {
        (0..n)
            .map(|i| WarpMeta {
                resident: true,
                done: false,
                age_key: i as u64,
                eligible: true,
            })
            .collect()
    }

    fn ctx<'a>(now: u64, meta: &'a [WarpMeta]) -> SchedCtx<'a> {
        SchedCtx {
            now,
            meta,
            resident_version: 1,
        }
    }

    #[test]
    fn lrr_round_robins() {
        let m = meta(6);
        let c = ctx(0, &m);
        let mut lrr = Lrr::new();
        let eligible = [0, 2, 4];
        assert_eq!(lrr.pick(&c, &eligible), Some(0));
        assert_eq!(lrr.pick(&c, &eligible), Some(2));
        assert_eq!(lrr.pick(&c, &eligible), Some(4));
        assert_eq!(lrr.pick(&c, &eligible), Some(0), "wraps");
    }

    #[test]
    fn gto_is_greedy_then_oldest() {
        let m = meta(6);
        let c = ctx(0, &m);
        let mut gto = Gto::new(50_000);
        // Oldest (lowest age) among eligible first.
        assert_eq!(gto.pick(&c, &[4, 2]), Some(2));
        // Greedy: keeps picking 2 while eligible.
        assert_eq!(gto.pick(&c, &[0, 2, 4]), Some(2));
        // 2 stalls: falls back to oldest = 0.
        assert_eq!(gto.pick(&c, &[0, 4]), Some(0));
    }

    #[test]
    fn gto_rotation_changes_oldest() {
        let m = meta(4);
        let mut gto = Gto::new(100);
        let c0 = ctx(0, &m);
        assert_eq!(gto.pick(&c0, &[0, 1, 2, 3]), Some(0));
        // After one rotation period, warp 0's rank is 1; the "oldest" rank 0
        // belongs to warp 3 ((3 + 1) % 4 == 0).
        let mut gto2 = Gto::new(100);
        let c1 = ctx(100, &m);
        assert_eq!(gto2.pick(&c1, &[0, 1, 2, 3]), Some(3));
    }

    #[test]
    fn cawa_prioritizes_spinning_warp() {
        // Two warps; warp 1 keeps taking a backward branch (spinning):
        // its criticality balloons, so CAWA keeps prioritizing it — the
        // pathology the paper describes.
        let m = meta(2);
        let c = ctx(0, &m);
        let mut cawa = Cawa::new();
        cawa.on_warp_launch(0, 100);
        cawa.on_warp_launch(1, 100);
        for _ in 0..10 {
            cawa.on_issue(
                &c,
                1,
                &IssueInfo {
                    is_branch: true,
                    taken_backward: true,
                    branch_distance: 8,
                    ..IssueInfo::default()
                },
            );
            cawa.end_cycle(&c, &[0, 1], Some(1));
        }
        assert_eq!(cawa.pick(&c, &[0, 1]), Some(1));
    }

    #[test]
    fn cawa_stall_accounting_raises_criticality() {
        let m = meta(2);
        let c = ctx(0, &m);
        let mut cawa = Cawa::new();
        cawa.on_warp_launch(0, 10);
        cawa.on_warp_launch(1, 10);
        // Warp 1 stalls for 100 cycles while warp 0 issues.
        for _ in 0..100 {
            cawa.end_cycle(&c, &[0, 1], Some(0));
        }
        assert!(cawa.criticality(1) > cawa.criticality(0));
        assert_eq!(cawa.pick(&c, &[0, 1]), Some(1));
    }

    #[test]
    fn base_policy_builders() {
        for p in [BasePolicy::Lrr, BasePolicy::Gto, BasePolicy::Cawa] {
            let unit = p.build(50_000);
            assert_eq!(unit.name(), p.name());
            assert!(unit.can_issue(0, 0));
            assert!(!unit.is_backed_off(0));
            assert_eq!(unit.current_delay_limit(), 0);
        }
    }
}
