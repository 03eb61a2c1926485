//! The cycle-level memory system: per-SM L1s, banked L2 partitions with
//! atomic units, and DRAM channels.

use crate::{
    line_of, Addr, AccessOutcome, Cache, ChaosEngine, ChaosStats, GlobalMem, MemConfig, MemStats,
    Mshr, ProbeMap, LINE_BYTES,
};
use simt_isa::AtomOp;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Lock-protocol role of an atomic lane operation, for the exact
/// lock-outcome classification the paper's Figures 2 and 12 report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LockRole {
    /// Not part of a lock protocol.
    #[default]
    None,
    /// A lock-acquire attempt (CAS whose compare operand is the "free"
    /// value); success is `old == compare`.
    Acquire,
    /// A lock release (the owner is cleared).
    Release,
}

/// One lane's atomic operation within a warp-level atomic request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAtomic {
    /// Lane index (0..32).
    pub lane: u8,
    /// Word address the lane operates on.
    pub addr: Addr,
    /// The read-modify-write operation.
    pub op: AtomOp,
    /// First operand (CAS compare value / add amount / exchange value...).
    pub a: u32,
    /// Second operand (CAS new value; unused otherwise).
    pub b: u32,
    /// Lock-protocol role, for outcome statistics.
    pub role: LockRole,
    /// Identity of the issuing warp (`sm << 32 | warp`), used to classify
    /// failed acquires as intra- vs inter-warp.
    pub holder: u64,
}

impl LaneAtomic {
    /// A plain atomic lane op with no lock-protocol role.
    pub fn new(lane: u8, addr: Addr, op: AtomOp, a: u32, b: u32) -> LaneAtomic {
        LaneAtomic {
            lane,
            addr,
            op,
            a,
            b,
            role: LockRole::None,
            holder: 0,
        }
    }
}

/// Kind of a coalesced memory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqKind {
    /// A read of one line. `bypass_l1` models `ld.volatile`, which skips the
    /// (incoherent) L1 and is serviced at the L2 partition.
    Load { bypass_l1: bool },
    /// A write-through of (part of) one line.
    Store,
    /// A warp-level atomic: bypasses L1; the lane operations are applied to
    /// functional memory in lane order at the instant the request is
    /// serviced by the partition's atomic unit. That service instant is the
    /// global serialization point that makes inter-warp lock races behave
    /// as on hardware.
    Atomic { ops: Vec<LaneAtomic> },
}

/// A coalesced (single-line) memory request from an SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRequest {
    /// Request kind.
    pub kind: ReqKind,
    /// Line-aligned address.
    pub line: Addr,
    /// Opaque tag returned in the matching [`MemCompletion`].
    pub tag: u64,
    /// Statistic annotation: this request is synchronization traffic.
    pub sync: bool,
    /// True when this is the *only* request its instruction generated.
    /// Queue-lock parking is restricted to sole requests: a warp must never
    /// block on one line while holding locks acquired through a sibling
    /// request of the same instruction (hold-and-wait would deadlock).
    pub sole: bool,
}

impl MemRequest {
    /// Build a request; `addr` may be any address within the line.
    pub fn new(kind: ReqKind, addr: Addr, tag: u64) -> MemRequest {
        MemRequest {
            kind,
            line: line_of(addr),
            tag,
            sync: false,
            sole: true,
        }
    }

    /// Mark as synchronization traffic (for overhead accounting).
    pub fn sync(mut self) -> MemRequest {
        self.sync = true;
        self
    }
}

/// Completion of a [`MemRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemCompletion {
    /// SM that issued the request.
    pub sm: usize,
    /// The request's tag.
    pub tag: u64,
    /// For atomics: `(lane, old value)` per lane op, in lane-op order.
    pub atomic_results: Vec<(u8, u32)>,
}

#[derive(Debug)]
enum Event {
    /// A line fill arrives at an SM's L1.
    L1Fill { sm: usize, line: Addr },
    /// A request completes back at its SM.
    Complete(MemCompletion),
}

#[derive(Debug)]
struct L1 {
    cache: Cache,
    mshr: Mshr,
    inq: VecDeque<(u64, MemRequest)>,
}

#[derive(Debug)]
struct PartReq {
    sm: usize,
    req: MemRequest,
    /// True when this is an L1 miss fill (completion goes via L1Fill).
    l1_fill: bool,
    /// Times the chaos engine has NACKed this request (bounds its backoff).
    retries: u32,
}

#[derive(Debug)]
struct Partition {
    cache: Cache,
    inq: VecDeque<(u64, PartReq)>,
    /// DRAM-bound work: `(earliest_start, Option<request>)`; `None` is a
    /// fire-and-forget write that only consumes bandwidth.
    dramq: VecDeque<(u64, Option<PartReq>)>,
    dram_next_free: u64,
    /// The atomic unit applies one lane operation per cycle, so a k-lane
    /// atomic occupies the partition port for k cycles. This is the
    /// serialization that lets spinning warps' failed CAS traffic delay
    /// lock holders — the paper's central contention mechanism.
    port_free: u64,
}

/// The device memory system shared by all SMs.
///
/// Drive it by calling [`MemorySystem::enqueue`] when warps issue memory
/// instructions and [`MemorySystem::cycle`] once per core cycle.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    gmem: GlobalMem,
    l1s: Vec<L1>,
    parts: Vec<Partition>,
    events: BinaryHeap<Reverse<(u64, u64)>>,
    event_bodies: Vec<Option<Event>>,
    free_slots: Vec<usize>,
    seq: u64,
    stats: MemStats,
    lock_owners: ProbeMap<u64>,
    /// Idealized queue-based blocking locks (the HQL-style mechanism of
    /// Yilmazer & Kaeli that the paper compares against, without its cache
    /// constraints): when enabled, a lock-acquire whose lock is held by
    /// *another* warp — and whose request has acquired nothing yet — parks
    /// at the partition instead of failing; the matching release wakes the
    /// oldest parked request. Deadlock-free as long as programs acquire
    /// multiple locks in a global order (all bundled workloads do).
    blocking_locks: bool,
    parked: ProbeMap<VecDeque<PartReq>>,
    chaos: ChaosEngine,
}

impl MemorySystem {
    /// A memory system serving `num_sms` SMs.
    pub fn new(cfg: MemConfig, num_sms: usize) -> MemorySystem {
        let l1s = (0..num_sms)
            .map(|_| L1 {
                cache: Cache::new(cfg.l1_bytes, cfg.l1_ways),
                mshr: Mshr::new(cfg.l1_mshrs),
                inq: VecDeque::new(),
            })
            .collect();
        let parts = (0..cfg.l2_partitions)
            .map(|_| Partition {
                cache: Cache::new(cfg.l2_bytes_per_partition, cfg.l2_ways),
                inq: VecDeque::new(),
                dramq: VecDeque::new(),
                dram_next_free: 0,
                port_free: 0,
            })
            .collect();
        let chaos = ChaosEngine::new(cfg.chaos.clone());
        MemorySystem {
            cfg,
            chaos,
            gmem: GlobalMem::new(),
            l1s,
            parts,
            events: BinaryHeap::new(),
            event_bodies: Vec::new(),
            free_slots: Vec::new(),
            seq: 0,
            stats: MemStats::default(),
            lock_owners: ProbeMap::new(),
            blocking_locks: false,
            parked: ProbeMap::new(),
        }
    }

    /// Enable idealized queue-based blocking locks (see the field docs).
    pub fn set_blocking_locks(&mut self, on: bool) {
        self.blocking_locks = on;
    }

    /// Parked (blocked) acquire requests currently queued at locks.
    pub fn parked_requests(&self) -> usize {
        self.parked.values().map(VecDeque::len).sum()
    }

    /// Requests currently in flight anywhere in the hierarchy (queues,
    /// MSHRs, DRAM, response events) — hang-diagnostics support.
    pub fn in_flight(&self) -> usize {
        self.events.len()
            + self
                .l1s
                .iter()
                .map(|l| l.inq.len() + l.mshr.in_flight())
                .sum::<usize>()
            + self
                .parts
                .iter()
                .map(|p| p.inq.len() + p.dramq.len())
                .sum::<usize>()
    }

    /// Fault-injection counters (all zero when chaos is off).
    pub fn chaos_stats(&self) -> &ChaosStats {
        self.chaos.stats()
    }

    /// Functional global memory.
    pub fn gmem(&self) -> &GlobalMem {
        &self.gmem
    }

    /// Functional global memory, mutable (host-side setup and the SM's
    /// at-issue load/store semantics).
    pub fn gmem_mut(&mut self) -> &mut GlobalMem {
        &mut self.gmem
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// True when no request is in flight anywhere (watchdog support).
    pub fn quiescent(&self) -> bool {
        self.events.is_empty()
            && self.l1s.iter().all(|l| l.inq.is_empty() && l.mshr.in_flight() == 0)
            && self
                .parts
                .iter()
                .all(|p| p.inq.is_empty() && p.dramq.is_empty())
    }

    /// Earliest future cycle (strictly after `now`) at which this memory
    /// system can change state on its own: deliver a scheduled event,
    /// serve an L1 or partition queue head, or start a DRAM access.
    /// `None` when nothing is in flight. Parked blocking-lock requests
    /// contribute nothing: they wake only via a release, which is itself
    /// an in-flight atomic already counted here.
    ///
    /// Called by the fast-forward engine after `cycle_into(now)` has run:
    /// anything servable at `now` was already served (or lost port
    /// arbitration and retries next cycle), so every candidate is clamped
    /// to at least `now + 1`. All queues are head-blocking, so only each
    /// queue's front matters.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| match next {
            Some(n) if n <= t => {}
            _ => next = Some(t),
        };
        if let Some(&Reverse((at, _))) = self.events.peek() {
            fold(at.max(now + 1));
        }
        // MSHR-squeeze chaos rolls the RNG on *every* cycle in which an L1
        // has queued work; skipping any such cycle would desynchronize the
        // deterministic chaos stream, so refuse to skip at all.
        if self.chaos.squeeze_possible() && self.l1s.iter().any(|l| !l.inq.is_empty()) {
            return Some(now + 1);
        }
        for l1 in &self.l1s {
            let Some((ready, req)) = l1.inq.front() else {
                continue;
            };
            if matches!(req.kind, ReqKind::Load { .. })
                && l1.cache.peek(req.line) == AccessOutcome::Miss
                && !l1.mshr.pending(req.line)
                && !l1.mshr.has_space()
            {
                // MSHR-blocked head: it unblocks only through an L1 fill,
                // which the event heap above already covers.
                continue;
            }
            fold((*ready).max(now + 1));
        }
        for p in &self.parts {
            if let Some(&(ready, _)) = p.inq.front() {
                fold(ready.max(p.port_free).max(now + 1));
            }
            if let Some(&(earliest, _)) = p.dramq.front() {
                fold(earliest.max(p.dram_next_free).max(now + 1));
            }
        }
        next
    }

    fn partition_of(&self, line: Addr) -> usize {
        ((line / LINE_BYTES) % self.parts.len() as u64) as usize
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.event_bodies[s] = Some(ev);
                s
            }
            None => {
                self.event_bodies.push(Some(ev));
                self.event_bodies.len() - 1
            }
        };
        self.seq += 1;
        self.events.push(Reverse((at, (self.seq << 32) | slot as u64)));
    }

    /// Submit a coalesced request from `sm` at `cycle`.
    ///
    /// Atomics and volatile loads route directly to the owning L2 partition;
    /// everything else enters the SM's L1 queue.
    pub fn enqueue(&mut self, sm: usize, req: MemRequest, cycle: u64) {
        self.stats.total_transactions += 1;
        if req.sync {
            self.stats.sync_transactions += 1;
        }
        // Chaos: charge extra interconnect/queueing latency up front (0
        // when disabled — the draw itself is skipped).
        let cycle = cycle + self.chaos.extra_request_latency();
        match &req.kind {
            ReqKind::Atomic { ops } => {
                self.stats.atomic_transactions += 1;
                self.stats.atomic_lane_ops += ops.len() as u64;
                let part = self.partition_of(req.line);
                let at = cycle + self.cfg.icnt_latency;
                self.parts[part].inq.push_back((
                    at,
                    PartReq {
                        sm,
                        req,
                        l1_fill: false,
                        retries: 0,
                    },
                ));
            }
            ReqKind::Load { bypass_l1: true } => {
                let part = self.partition_of(req.line);
                let at = cycle + self.cfg.icnt_latency;
                self.parts[part].inq.push_back((
                    at,
                    PartReq {
                        sm,
                        req,
                        l1_fill: false,
                        retries: 0,
                    },
                ));
            }
            _ => {
                self.l1s[sm].inq.push_back((cycle, req));
            }
        }
    }

    /// Advance one cycle; returns completions that fire this cycle.
    ///
    /// Convenience wrapper over [`MemorySystem::cycle_into`] that allocates
    /// a fresh vector per call; cycle-loop callers should hold a reusable
    /// sink and call `cycle_into` instead.
    pub fn cycle(&mut self, now: u64) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        self.cycle_into(now, &mut out);
        out
    }

    /// Advance one cycle, appending completions that fire this cycle to
    /// `out` (which is *not* cleared — the caller owns and recycles it).
    ///
    /// Quiescent stages are skipped outright: an L1 bank or L2 partition
    /// with nothing queued costs one branch, so idle cycles of a mostly
    /// compute-bound kernel do not pay for the memory hierarchy.
    pub fn cycle_into(&mut self, now: u64, out: &mut Vec<MemCompletion>) {
        if self.l1s.iter().any(|l| !l.inq.is_empty()) {
            self.step_l1s(now);
        }
        if self
            .parts
            .iter()
            .any(|p| !p.inq.is_empty() || !p.dramq.is_empty())
        {
            self.step_partitions(now);
        }
        self.drain_events(now, out);
    }

    fn step_l1s(&mut self, now: u64) {
        for sm in 0..self.l1s.len() {
            // Chaos: transient MSHR-full back-pressure — this L1 serves
            // nothing this cycle (drawn only when work is pending).
            if !self.l1s[sm].inq.is_empty() && self.chaos.mshr_squeeze() {
                continue;
            }
            let mut served = 0;
            while served < self.cfg.l1_ports {
                let Some((ready, req)) = self.l1s[sm].inq.front() else {
                    break;
                };
                if *ready > now {
                    break;
                }
                // MSHR-full loads stall the queue head (models backpressure).
                if matches!(req.kind, ReqKind::Load { .. }) {
                    let line = req.line;
                    let l1 = &self.l1s[sm];
                    if l1.cache.peek(line) == AccessOutcome::Miss
                        && !l1.mshr.pending(line)
                        && !l1.mshr.has_space()
                    {
                        break;
                    }
                }
                let Some((_, req)) = self.l1s[sm].inq.pop_front() else {
                    break;
                };
                self.service_l1(sm, req, now);
                served += 1;
            }
        }
    }

    fn service_l1(&mut self, sm: usize, req: MemRequest, now: u64) {
        self.stats.l1_accesses += 1;
        let line = req.line;
        match req.kind {
            ReqKind::Load { .. } => {
                let l1 = &mut self.l1s[sm];
                if l1.cache.access(line) == AccessOutcome::Hit {
                    self.stats.l1_hits += 1;
                    let done = now + self.cfg.l1_hit_latency;
                    self.schedule(
                        done,
                        Event::Complete(MemCompletion {
                            sm,
                            tag: req.tag,
                            atomic_results: Vec::new(),
                        }),
                    );
                } else {
                    self.stats.l1_misses += 1;
                    let allocated = l1.mshr.record(line, req.tag);
                    if allocated {
                        let part = self.partition_of(line);
                        let at = now + self.cfg.icnt_latency;
                        self.parts[part].inq.push_back((
                            at,
                            PartReq {
                                sm,
                                req,
                                l1_fill: true,
                                retries: 0,
                            },
                        ));
                    }
                }
            }
            ReqKind::Store => {
                // Write-through, no write-allocate: probe for stats, always
                // forward to the partition; completion happens there.
                let l1 = &mut self.l1s[sm];
                if l1.cache.access(line) == AccessOutcome::Hit {
                    self.stats.l1_hits += 1;
                } else {
                    self.stats.l1_misses += 1;
                }
                let part = self.partition_of(line);
                let at = now + self.cfg.icnt_latency;
                self.parts[part].inq.push_back((
                    at,
                    PartReq {
                        sm,
                        req,
                        l1_fill: false,
                        retries: 0,
                    },
                ));
            }
            // Atomics bypass the L1 at enqueue; if one ever lands here,
            // recover by routing it to its partition rather than aborting.
            ReqKind::Atomic { .. } => {
                debug_assert!(false, "atomics bypass L1");
                let part = self.partition_of(line);
                let at = now + self.cfg.icnt_latency;
                self.parts[part].inq.push_back((
                    at,
                    PartReq {
                        sm,
                        req,
                        l1_fill: false,
                        retries: 0,
                    },
                ));
            }
        }
    }

    fn step_partitions(&mut self, now: u64) {
        for p in 0..self.parts.len() {
            // DRAM channel: start at most one service per `dram_interval`.
            while let Some(&(earliest, _)) = self.parts[p].dramq.front() {
                let part = &mut self.parts[p];
                if earliest > now || part.dram_next_free > now {
                    break;
                }
                part.dram_next_free = now + self.cfg.dram_interval;
                let Some((_, body)) = part.dramq.pop_front() else {
                    break;
                };
                if let Some(preq) = body {
                    let done = now + self.cfg.dram_latency;
                    self.finish_at_partition(p, preq, done);
                } else {
                    self.stats.dram_writes += 1;
                }
            }
            // L2 service ports; the atomic unit may still be draining a
            // previous multi-lane atomic.
            let mut served = 0;
            while served < self.cfg.l2_ports {
                if self.parts[p].port_free > now {
                    break;
                }
                let Some(&(ready, _)) = self.parts[p].inq.front() else {
                    break;
                };
                if ready > now {
                    break;
                }
                let Some((_, mut preq)) = self.parts[p].inq.pop_front() else {
                    break;
                };
                // Chaos: NACK the request back into the queue with an
                // exponential backoff (consumes the port slot, models a
                // rejected interconnect packet). Decided *before* any cache
                // or atomic side effect, so a retried request replays
                // nothing.
                if let Some(delay) = self.chaos.nack_delay(preq.retries) {
                    preq.retries += 1;
                    self.parts[p].inq.push_back((now + delay, preq));
                    served += 1;
                    continue;
                }
                if let ReqKind::Atomic { ops } = &preq.req.kind {
                    self.parts[p].port_free = now + ops.len() as u64;
                }
                self.service_partition(p, preq, now);
                served += 1;
            }
        }
    }

    fn service_partition(&mut self, p: usize, preq: PartReq, now: u64) {
        self.stats.l2_accesses += 1;
        let line = preq.req.line;
        let hit = self.parts[p].cache.access(line) == AccessOutcome::Hit;
        if hit {
            self.stats.l2_hits += 1;
        } else {
            self.stats.l2_misses += 1;
        }
        match preq.req.kind {
            ReqKind::Store => {
                // Write-through to DRAM (bandwidth only), complete now+L2 lat.
                let done = now + self.cfg.l2_hit_latency;
                self.schedule(
                    done,
                    Event::Complete(MemCompletion {
                        sm: preq.sm,
                        tag: preq.req.tag,
                        atomic_results: Vec::new(),
                    }),
                );
                self.parts[p].dramq.push_back((now, None));
            }
            ReqKind::Load { .. } | ReqKind::Atomic { .. } => {
                if hit {
                    let done = now + self.cfg.l2_hit_latency;
                    self.finish_at_partition(p, preq, done);
                } else {
                    self.stats.dram_reads += 1;
                    self.parts[p].cache.fill(line);
                    self.parts[p].dramq.push_back((now, Some(preq)));
                }
            }
        }
    }

    /// A load/atomic finished its L2/DRAM access at `done`; apply side
    /// effects and send the response toward the SM.
    fn finish_at_partition(&mut self, _p: usize, preq: PartReq, done: u64) {
        let back = done + self.cfg.icnt_latency;
        match preq.req.kind {
            ReqKind::Load { .. } => {
                if preq.l1_fill {
                    self.schedule(
                        back,
                        Event::L1Fill {
                            sm: preq.sm,
                            line: preq.req.line,
                        },
                    );
                } else {
                    self.schedule(
                        back,
                        Event::Complete(MemCompletion {
                            sm: preq.sm,
                            tag: preq.req.tag,
                            atomic_results: Vec::new(),
                        }),
                    );
                }
            }
            ReqKind::Atomic { ref ops } => {
                // Idealized blocking locks: a pure-acquire request that
                // would succeed on no lane — and whose locks are all held
                // by *other* warps — parks until a release wakes it.
                // Requests park only while holding nothing, so there is no
                // hold-and-wait and no deadlock.
                if self.blocking_locks
                    && preq.req.sole
                    && ops.iter().all(|o| o.role == LockRole::Acquire)
                {
                    let would_succeed = ops
                        .iter()
                        .any(|o| self.gmem.read_u32(o.addr) == o.a);
                    let intra = ops
                        .iter()
                        .any(|o| self.lock_owners.get(o.addr) == Some(&o.holder));
                    if !would_succeed && !intra {
                        let park_on = ops[0].addr;
                        self.parked
                            .get_or_insert_with(park_on, VecDeque::new)
                            .push_back(preq);
                        return;
                    }
                }
                let ReqKind::Atomic { ops } = preq.req.kind else {
                    unreachable!()
                };
                // Serialization point: apply lane ops in order against
                // functional memory, capturing old values.
                let mut results = Vec::with_capacity(ops.len());
                let mut released: Vec<Addr> = Vec::new();
                for op in &ops {
                    let old = self.gmem.read_u32(op.addr);
                    let new = op.op.apply(old, op.a, op.b);
                    self.gmem.write_u32(op.addr, new);
                    match op.role {
                        LockRole::Acquire => {
                            if old == op.a {
                                self.stats.lock_success += 1;
                                self.lock_owners.insert(op.addr, op.holder);
                            } else if self.lock_owners.get(op.addr) == Some(&op.holder) {
                                self.stats.lock_intra_fail += 1;
                            } else {
                                self.stats.lock_inter_fail += 1;
                            }
                        }
                        LockRole::Release => {
                            self.lock_owners.remove(op.addr);
                            released.push(op.addr);
                        }
                        LockRole::None => {}
                    }
                    results.push((op.lane, old));
                }
                // Releases wake the oldest parked acquirer (it re-enters
                // the partition queue and re-arbitrates for the port).
                for addr in released {
                    let waiter = match self.parked.get_mut(addr) {
                        Some(q) => {
                            let w = q.pop_front();
                            if q.is_empty() {
                                self.parked.remove(addr);
                            }
                            w
                        }
                        None => None,
                    };
                    if let Some(waiter) = waiter {
                        let part = self.partition_of(waiter.req.line);
                        self.parts[part].inq.push_back((done, waiter));
                    }
                }
                // Chaos: delay the *response* only — the lane ops above
                // already applied at the serialization point, so timing
                // chaos can never alter architectural results.
                let back = back + self.chaos.atomic_delay();
                self.schedule(
                    back,
                    Event::Complete(MemCompletion {
                        sm: preq.sm,
                        tag: preq.req.tag,
                        atomic_results: results,
                    }),
                );
            }
            // Stores complete at service; a store reaching here is a
            // bookkeeping bug but is harmless to complete normally.
            ReqKind::Store => {
                debug_assert!(false, "stores complete at service");
                self.schedule(
                    back,
                    Event::Complete(MemCompletion {
                        sm: preq.sm,
                        tag: preq.req.tag,
                        atomic_results: Vec::new(),
                    }),
                );
            }
        }
    }

    fn drain_events(&mut self, now: u64, out: &mut Vec<MemCompletion>) {
        while let Some(&Reverse((at, key))) = self.events.peek() {
            if at > now {
                break;
            }
            self.events.pop();
            let slot = (key & 0xffff_ffff) as usize;
            // A dead slot would mean double-scheduling; skip rather than
            // abort (debug builds still flag it).
            let Some(ev) = self.event_bodies.get_mut(slot).and_then(Option::take) else {
                debug_assert!(false, "event slot {slot} not live");
                continue;
            };
            self.free_slots.push(slot);
            match ev {
                Event::Complete(c) => out.push(c),
                Event::L1Fill { sm, line } => {
                    let l1 = &mut self.l1s[sm];
                    l1.cache.fill(line);
                    for tag in l1.mshr.fill(line) {
                        out.push(MemCompletion {
                            sm,
                            tag,
                            atomic_results: Vec::new(),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint serialization.
//
// Everything below encodes the memory system's complete dynamic state —
// functional memory, cache directories, MSHRs, every queued request, the
// event heap, lock/parking bookkeeping, stats, and the chaos RNG stream —
// so a restored system is bit-indistinguishable from one that never
// stopped. Hash maps are written in sorted-key order; queue contents keep
// their order verbatim; the event heap is written as sorted (time, key)
// pairs plus the slot-addressed bodies and the free-slot stack (LIFO order
// matters: slot reuse feeds the `seq`-keyed heap ordering).
// ---------------------------------------------------------------------------

use simt_snap::{SnapReader, SnapWriter, SnapshotError};

fn save_req(w: &mut SnapWriter, req: &MemRequest) {
    match &req.kind {
        ReqKind::Load { bypass_l1 } => {
            w.u8(0);
            w.bool(*bypass_l1);
        }
        ReqKind::Store => w.u8(1),
        ReqKind::Atomic { ops } => {
            w.u8(2);
            w.usize(ops.len());
            for op in ops {
                w.u8(op.lane);
                w.u64(op.addr);
                w.u8(match op.op {
                    AtomOp::Cas => 0,
                    AtomOp::Exch => 1,
                    AtomOp::Add => 2,
                    AtomOp::Max => 3,
                    AtomOp::Min => 4,
                    AtomOp::And => 5,
                    AtomOp::Or => 6,
                });
                w.u32(op.a);
                w.u32(op.b);
                w.u8(match op.role {
                    LockRole::None => 0,
                    LockRole::Acquire => 1,
                    LockRole::Release => 2,
                });
                w.u64(op.holder);
            }
        }
    }
    w.u64(req.line);
    w.u64(req.tag);
    w.bool(req.sync);
    w.bool(req.sole);
}

fn load_req(
    r: &mut SnapReader<'_>,
    gmem: &crate::GlobalMem,
) -> Result<MemRequest, SnapshotError> {
    let kind = match r.u8()? {
        0 => ReqKind::Load { bypass_l1: r.bool()? },
        1 => ReqKind::Store,
        2 => {
            let n = r.len(24)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let lane = r.u8()?;
                let addr = r.u64()?;
                let op = match r.u8()? {
                    0 => AtomOp::Cas,
                    1 => AtomOp::Exch,
                    2 => AtomOp::Add,
                    3 => AtomOp::Max,
                    4 => AtomOp::Min,
                    5 => AtomOp::And,
                    6 => AtomOp::Or,
                    b => return Err(SnapshotError::malformed(format!("atomic op byte {b}"))),
                };
                let a = r.u32()?;
                let b = r.u32()?;
                let role = match r.u8()? {
                    0 => LockRole::None,
                    1 => LockRole::Acquire,
                    2 => LockRole::Release,
                    b => return Err(SnapshotError::malformed(format!("lock role byte {b}"))),
                };
                let holder = r.u64()?;
                // Atomics execute against global memory with unchecked
                // accesses (a live run can only produce valid addresses),
                // so a restored address must be re-validated here or a
                // corrupted snapshot would panic mid-simulation later.
                if gmem.check_addr(addr).is_err() {
                    return Err(SnapshotError::malformed(format!(
                        "atomic address {addr:#x} outside restored memory"
                    )));
                }
                ops.push(LaneAtomic { lane, addr, op, a, b, role, holder });
            }
            ReqKind::Atomic { ops }
        }
        b => return Err(SnapshotError::malformed(format!("request kind byte {b}"))),
    };
    Ok(MemRequest {
        kind,
        line: r.u64()?,
        tag: r.u64()?,
        sync: r.bool()?,
        sole: r.bool()?,
    })
}

fn save_partreq(w: &mut SnapWriter, p: &PartReq) {
    w.usize(p.sm);
    save_req(w, &p.req);
    w.bool(p.l1_fill);
    w.u32(p.retries);
}

fn load_partreq(
    r: &mut SnapReader<'_>,
    num_sms: usize,
    gmem: &crate::GlobalMem,
) -> Result<PartReq, SnapshotError> {
    let sm = r.usize()?;
    if sm >= num_sms {
        return Err(SnapshotError::malformed(format!("partition request sm {sm}")));
    }
    let req = load_req(r, gmem)?;
    Ok(PartReq { sm, req, l1_fill: r.bool()?, retries: r.u32()? })
}

impl MemorySystem {
    /// Serialize complete dynamic state for a checkpoint.
    pub fn save_snap(&self, w: &mut SnapWriter) {
        self.gmem.save_snap(w);
        w.usize(self.l1s.len());
        for l1 in &self.l1s {
            l1.cache.save_snap(w);
            l1.mshr.save_snap(w);
            w.usize(l1.inq.len());
            for (at, req) in &l1.inq {
                w.u64(*at);
                save_req(w, req);
            }
        }
        w.usize(self.parts.len());
        for p in &self.parts {
            p.cache.save_snap(w);
            w.usize(p.inq.len());
            for (at, preq) in &p.inq {
                w.u64(*at);
                save_partreq(w, preq);
            }
            w.usize(p.dramq.len());
            for (at, opt) in &p.dramq {
                w.u64(*at);
                match opt {
                    Some(preq) => {
                        w.bool(true);
                        save_partreq(w, preq);
                    }
                    None => w.bool(false),
                }
            }
            w.u64(p.dram_next_free);
            w.u64(p.port_free);
        }
        // Event heap: unique (time, seq|slot) keys make pop order a pure
        // function of the key set, so a sorted encoding restores exactly.
        let mut keys: Vec<(u64, u64)> = self.events.iter().map(|&Reverse(k)| k).collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for (at, key) in keys {
            w.u64(at);
            w.u64(key);
        }
        w.usize(self.event_bodies.len());
        for body in &self.event_bodies {
            match body {
                None => w.u8(0),
                Some(Event::L1Fill { sm, line }) => {
                    w.u8(1);
                    w.usize(*sm);
                    w.u64(*line);
                }
                Some(Event::Complete(c)) => {
                    w.u8(2);
                    w.usize(c.sm);
                    w.u64(c.tag);
                    w.usize(c.atomic_results.len());
                    for (lane, old) in &c.atomic_results {
                        w.u8(*lane);
                        w.u32(*old);
                    }
                }
            }
        }
        w.usize(self.free_slots.len());
        for &slot in &self.free_slots {
            w.usize(slot);
        }
        w.u64(self.seq);
        self.stats.save_snap(w);
        // Probe tables serialize their layout verbatim (slot order is the
        // iteration order), so no sort-before-write pass is needed and a
        // restored table is bit-identical to the saved one.
        self.lock_owners.save_snap(w, |w, &owner| w.u64(owner));
        self.parked.save_snap(w, |w, q| {
            w.usize(q.len());
            for preq in q {
                save_partreq(w, preq);
            }
        });
        w.bool(self.blocking_locks);
        self.chaos.save_snap(w);
    }

    /// Restore state written by [`MemorySystem::save_snap`].
    ///
    /// Decodes into a freshly constructed system (same config, same SM
    /// count) and replaces `self` only on success, so a malformed body can
    /// never leave partially mutated state behind.
    pub fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let num_sms = self.l1s.len();
        let mut fresh = MemorySystem::new(self.cfg.clone(), num_sms);
        fresh.blocking_locks = self.blocking_locks;
        fresh.gmem.load_snap(r)?;
        let nl1 = r.len(1)?;
        if nl1 != num_sms {
            return Err(SnapshotError::malformed(format!(
                "snapshot has {nl1} L1s, config has {num_sms}"
            )));
        }
        let gmem = &fresh.gmem;
        for l1 in &mut fresh.l1s {
            l1.cache.load_snap(r)?;
            l1.mshr.load_snap(r)?;
            let n = r.len(8)?;
            for _ in 0..n {
                let at = r.u64()?;
                l1.inq.push_back((at, load_req(r, gmem)?));
            }
        }
        let nparts = r.len(1)?;
        if nparts != fresh.parts.len() {
            return Err(SnapshotError::malformed(format!(
                "snapshot has {nparts} partitions, config has {}",
                fresh.parts.len()
            )));
        }
        for p in &mut fresh.parts {
            p.cache.load_snap(r)?;
            let n = r.len(8)?;
            for _ in 0..n {
                let at = r.u64()?;
                p.inq.push_back((at, load_partreq(r, num_sms, gmem)?));
            }
            let n = r.len(8)?;
            for _ in 0..n {
                let at = r.u64()?;
                let preq =
                    if r.bool()? { Some(load_partreq(r, num_sms, gmem)?) } else { None };
                p.dramq.push_back((at, preq));
            }
            p.dram_next_free = r.u64()?;
            p.port_free = r.u64()?;
        }
        let nev = r.len(16)?;
        let mut keys = Vec::with_capacity(nev);
        for _ in 0..nev {
            let at = r.u64()?;
            let key = r.u64()?;
            keys.push((at, key));
        }
        let nbodies = r.len(1)?;
        for _ in 0..nbodies {
            fresh.event_bodies.push(match r.u8()? {
                0 => None,
                1 => {
                    let sm = r.usize()?;
                    if sm >= num_sms {
                        return Err(SnapshotError::malformed(format!("fill event sm {sm}")));
                    }
                    Some(Event::L1Fill { sm, line: r.u64()? })
                }
                2 => {
                    let sm = r.usize()?;
                    if sm >= num_sms {
                        return Err(SnapshotError::malformed(format!("completion sm {sm}")));
                    }
                    let tag = r.u64()?;
                    let n = r.len(5)?;
                    let mut atomic_results = Vec::with_capacity(n);
                    for _ in 0..n {
                        let lane = r.u8()?;
                        atomic_results.push((lane, r.u32()?));
                    }
                    Some(Event::Complete(MemCompletion { sm, tag, atomic_results }))
                }
                b => return Err(SnapshotError::malformed(format!("event body byte {b}"))),
            });
        }
        for &(at, key) in &keys {
            let slot = (key & 0xffff_ffff) as usize;
            if !fresh.event_bodies.get(slot).is_some_and(Option::is_some) {
                return Err(SnapshotError::malformed(format!(
                    "event key {key:#x} (slot {slot}) has no live body"
                )));
            }
            fresh.events.push(Reverse((at, key)));
        }
        let nfree = r.len(8)?;
        for _ in 0..nfree {
            let slot = r.usize()?;
            if slot >= fresh.event_bodies.len() || fresh.event_bodies[slot].is_some() {
                return Err(SnapshotError::malformed(format!("free slot {slot} is live")));
            }
            fresh.free_slots.push(slot);
        }
        fresh.seq = r.u64()?;
        fresh.stats = MemStats::load_snap(r)?;
        fresh.lock_owners = ProbeMap::load_snap(r, |r| r.u64())?;
        fresh.parked = ProbeMap::load_snap(r, |r| {
            let n = r.len(8)?;
            let mut q = VecDeque::with_capacity(n);
            for _ in 0..n {
                q.push_back(load_partreq(r, num_sms, &fresh.gmem)?);
            }
            Ok(q)
        })?;
        fresh.blocking_locks = r.bool()?;
        fresh.chaos.load_snap(r)?;
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until(mem: &mut MemorySystem, mut now: u64, horizon: u64) -> (u64, Vec<MemCompletion>) {
        let mut all = Vec::new();
        while now < horizon {
            let done = mem.cycle(now);
            if !done.is_empty() {
                return (now, done);
            }
            all.extend(done);
            now += 1;
        }
        (now, all)
    }

    fn new_mem() -> MemorySystem {
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        let base = mem.gmem_mut().alloc(1024);
        assert_eq!(base, 0);
        mem
    }

    #[test]
    fn cold_load_miss_then_hit() {
        let mut mem = new_mem();
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        let (t_miss, done) = run_until(&mut mem, 0, 100_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        let cfg = MemConfig::default();
        // Miss path: icnt + L2 (miss→DRAM) + icnt at least.
        assert!(t_miss >= cfg.icnt_latency + cfg.dram_latency);

        // Second load to the same line: L1 hit, much faster.
        let start = t_miss + 1;
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 4, 2),
            start,
        );
        let (t_hit, done) = run_until(&mut mem, start, start + 100_000);
        assert_eq!(done[0].tag, 2);
        assert_eq!(t_hit - start, cfg.l1_hit_latency);
        assert!(t_hit - start < t_miss);
        assert_eq!(mem.stats().l1_hits, 1);
        assert_eq!(mem.stats().l1_misses, 1);
    }

    /// `cycle` and `cycle_into` (the allocation-free path with quiescence
    /// skips) must produce identical completion streams, and `cycle_into`
    /// must append to — never clear — the caller's sink.
    #[test]
    fn cycle_into_matches_cycle_and_appends() {
        let mut a = new_mem();
        let mut b = new_mem();
        for mem in [&mut a, &mut b] {
            for (i, addr) in [0u64, 8, 256, 512].iter().enumerate() {
                mem.enqueue(
                    i % 2,
                    MemRequest::new(ReqKind::Load { bypass_l1: false }, *addr, i as u64 + 1),
                    0,
                );
            }
        }
        let mut via_cycle = Vec::new();
        let mut via_into = vec![(
            MemCompletion {
                sm: 9,
                tag: 999,
                atomic_results: Vec::new(),
            },
            0u64,
        )];
        let mut sink = Vec::new();
        for now in 0..100_000u64 {
            via_cycle.extend(a.cycle(now).into_iter().map(|c| ((c.sm, c.tag), now)));
            b.cycle_into(now, &mut sink);
            via_into.extend(sink.drain(..).map(|c| (c, now)));
            if via_cycle.len() == 4 && via_into.len() == 5 {
                break;
            }
        }
        assert_eq!(via_into[0].0.tag, 999, "sink contents are appended to, not cleared");
        let into_stream: Vec<((usize, u64), u64)> = via_into[1..]
            .iter()
            .map(|(c, now)| ((c.sm, c.tag), *now))
            .collect();
        assert_eq!(via_cycle, into_stream);
        assert_eq!(via_cycle.len(), 4, "all requests completed");
        assert!(a.quiescent() && b.quiescent());
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut mem = new_mem();
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 8, 2),
            0,
        );
        let mut now = 0;
        let mut tags = Vec::new();
        while tags.len() < 2 && now < 100_000 {
            tags.extend(mem.cycle(now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(tags, vec![1, 2], "both complete on the single fill");
        assert_eq!(mem.stats().dram_reads, 1, "only one DRAM read");
    }

    #[test]
    fn volatile_load_bypasses_l1() {
        let mut mem = new_mem();
        // Warm the L1.
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        let (t1, _) = run_until(&mut mem, 0, 100_000);
        let l1_accesses = mem.stats().l1_accesses;
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: true }, 0, 2),
            t1 + 1,
        );
        let (_, done) = run_until(&mut mem, t1 + 1, t1 + 100_000);
        assert_eq!(done[0].tag, 2);
        assert_eq!(mem.stats().l1_accesses, l1_accesses, "L1 untouched");
        assert!(mem.stats().l2_accesses >= 2);
    }

    #[test]
    fn atomic_applies_at_service_in_lane_order() {
        let mut mem = new_mem();
        mem.gmem_mut().write_u32(0, 0);
        // Two lanes CAS the same mutex: exactly one wins.
        let ops = vec![
            LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1),
            LaneAtomic::new(1, 0, AtomOp::Cas, 0, 1),
        ];
        mem.enqueue(0, MemRequest::new(ReqKind::Atomic { ops }, 0, 9), 0);
        let (_, done) = run_until(&mut mem, 0, 100_000);
        assert_eq!(done[0].atomic_results, vec![(0, 0), (1, 1)]);
        assert_eq!(mem.gmem().read_u32(0), 1);
        assert_eq!(mem.stats().atomic_transactions, 1);
        assert_eq!(mem.stats().atomic_lane_ops, 2);
    }

    #[test]
    fn two_warps_cas_serialize_by_queue_order() {
        let mut mem = new_mem();
        // SM0 and SM1 both try to take the lock at cycle 0.
        for (sm, tag) in [(0usize, 10u64), (1, 11)] {
            let ops = vec![LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1)];
            mem.enqueue(sm, MemRequest::new(ReqKind::Atomic { ops }, 0, tag), 0);
        }
        let mut now = 0;
        let mut got = Vec::new();
        while got.len() < 2 && now < 100_000 {
            got.extend(mem.cycle(now));
            now += 1;
        }
        let winners: Vec<_> = got
            .iter()
            .filter(|c| c.atomic_results[0].1 == 0)
            .collect();
        assert_eq!(winners.len(), 1, "exactly one CAS wins the inter-SM race");
        assert_eq!(mem.gmem().read_u32(0), 1);
    }

    #[test]
    fn store_completes_and_consumes_dram_bandwidth() {
        let mut mem = new_mem();
        mem.enqueue(0, MemRequest::new(ReqKind::Store, 0, 5), 0);
        let (_, done) = run_until(&mut mem, 0, 100_000);
        assert_eq!(done[0].tag, 5);
        // Drain the fire-and-forget DRAM write.
        let mut now = 0;
        while !mem.quiescent() && now < 100_000 {
            mem.cycle(now);
            now += 1;
        }
        assert_eq!(mem.stats().dram_writes, 1);
    }

    #[test]
    fn dram_bandwidth_limits_throughput() {
        let cfg = MemConfig {
            l2_partitions: 1,
            ..MemConfig::default()
        };
        let interval = cfg.dram_interval;
        let mut mem = MemorySystem::new(cfg, 1);
        mem.gmem_mut().alloc(100_000);
        // 16 loads to distinct lines, all missing L2, same partition.
        for i in 0..16u64 {
            mem.enqueue(
                0,
                MemRequest::new(ReqKind::Load { bypass_l1: true }, i * LINE_BYTES, i),
                0,
            );
        }
        let mut now = 0;
        let mut times = Vec::new();
        while times.len() < 16 && now < 1_000_000 {
            for c in mem.cycle(now) {
                times.push((now, c.tag));
            }
            now += 1;
        }
        assert_eq!(times.len(), 16);
        // Completions must be spaced by at least the DRAM interval.
        for w in times.windows(2) {
            assert!(w[1].0 - w[0].0 >= interval, "{:?}", times);
        }
    }

    #[test]
    fn sync_transactions_counted() {
        let mut mem = new_mem();
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1).sync(),
            0,
        );
        mem.enqueue(0, MemRequest::new(ReqKind::Store, 256, 2), 0);
        assert_eq!(mem.stats().total_transactions, 2);
        assert_eq!(mem.stats().sync_transactions, 1);
    }

    #[test]
    fn lock_outcome_classification() {
        let mut mem = new_mem();
        let acquire = |holder: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1);
            op.role = LockRole::Acquire;
            op.holder = holder;
            op
        };
        let release = |holder: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Exch, 0, 0);
            op.role = LockRole::Release;
            op.holder = holder;
            op
        };
        let run = |mem: &mut MemorySystem, start: u64| -> u64 {
            let mut now = start;
            while now < start + 100_000 {
                if !mem.cycle(now).is_empty() {
                    return now + 1;
                }
                now += 1;
            }
            panic!("no completion");
        };
        // Warp A acquires (success).
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Atomic { ops: vec![acquire(1)] }, 0, 1),
            0,
        );
        let t = run(&mut mem, 0);
        // Warp A retries (intra-warp fail), warp B tries (inter-warp fail).
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Atomic { ops: vec![acquire(1)] }, 0, 2),
            t,
        );
        let t = run(&mut mem, t);
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Atomic { ops: vec![acquire(2)] }, 0, 3),
            t,
        );
        let t = run(&mut mem, t);
        // A releases; B acquires (success).
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Atomic { ops: vec![release(1)] }, 0, 4),
            t,
        );
        let t = run(&mut mem, t);
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Atomic { ops: vec![acquire(2)] }, 0, 5),
            t,
        );
        run(&mut mem, t);
        let s = mem.stats();
        assert_eq!(s.lock_success, 2);
        assert_eq!(s.lock_intra_fail, 1);
        assert_eq!(s.lock_inter_fail, 1);
    }

    #[test]
    fn blocking_locks_park_and_wake_in_order() {
        let mut mem = new_mem();
        mem.set_blocking_locks(true);
        let acquire = |holder: u64, tag: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1);
            op.role = LockRole::Acquire;
            op.holder = holder;
            MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 0, tag)
        };
        let release = |holder: u64, tag: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Exch, 0, 0);
            op.role = LockRole::Release;
            op.holder = holder;
            MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 0, tag)
        };
        // Warp 1 takes the lock; warps 2 and 3 park (in that order).
        mem.enqueue(0, acquire(1, 10), 0);
        mem.enqueue(0, acquire(2, 20), 1);
        mem.enqueue(0, acquire(3, 30), 2);
        let mut done: Vec<u64> = Vec::new();
        let mut now = 0;
        while done.is_empty() && now < 100_000 {
            done.extend(mem.cycle(now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(done, vec![10], "only the winner completes");
        assert_eq!(mem.parked_requests(), 2, "the losers are parked, not spinning");
        // Release: warp 2 wakes and completes with the lock.
        mem.enqueue(0, release(1, 11), now);
        while done.len() < 3 && now < 100_000 {
            done.extend(mem.cycle(now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(done, vec![10, 11, 20], "FIFO hand-off to warp 2");
        assert_eq!(mem.parked_requests(), 1);
        assert_eq!(mem.stats().lock_inter_fail, 0, "no spin failures at all");
        // Warp 2 releases; warp 3 gets it.
        mem.enqueue(0, release(2, 21), now);
        while done.len() < 5 && now < 200_000 {
            done.extend(mem.cycle(now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(done, vec![10, 11, 20, 21, 30]);
        assert_eq!(mem.parked_requests(), 0);
        assert_eq!(mem.stats().lock_success, 3);
    }

    #[test]
    fn blocking_locks_nack_non_sole_requests() {
        let mut mem = new_mem();
        mem.set_blocking_locks(true);
        // Take the lock.
        let mut op = LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1);
        op.role = LockRole::Acquire;
        op.holder = 1;
        mem.enqueue(0, MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 0, 1), 0);
        let mut now = 0;
        while mem.cycle(now).is_empty() && now < 100_000 {
            now += 1;
        }
        // A second acquire marked non-sole must fail normally (spin), not park.
        let mut op2 = op;
        op2.holder = 2;
        let mut req = MemRequest::new(ReqKind::Atomic { ops: vec![op2] }, 0, 2);
        req.sole = false;
        mem.enqueue(0, req, now);
        let mut got = Vec::new();
        while got.is_empty() && now < 200_000 {
            got.extend(mem.cycle(now));
            now += 1;
        }
        assert_eq!(got[0].tag, 2, "non-sole request completes with a failure");
        assert_eq!(got[0].atomic_results[0].1, 1, "CAS observed the held lock");
        assert_eq!(mem.parked_requests(), 0);
        assert_eq!(mem.stats().lock_inter_fail, 1);
    }

    #[test]
    fn chaos_conserves_requests_and_results() {
        use crate::ChaosConfig;
        // Same request mix, chaos off vs. aggressive chaos: every request
        // still completes exactly once and the final memory state (the
        // serialized atomic counter) is identical.
        let run = |chaos: ChaosConfig| -> (Vec<u64>, u32, u64) {
            let cfg = MemConfig {
                chaos,
                ..MemConfig::default()
            };
            let mut mem = MemorySystem::new(cfg, 2);
            mem.gmem_mut().alloc(1024);
            let mut tags = Vec::new();
            for i in 0..40u64 {
                let addr = (i % 8) * LINE_BYTES;
                let kind = match i % 3 {
                    0 => ReqKind::Load { bypass_l1: false },
                    1 => ReqKind::Store,
                    _ => ReqKind::Atomic {
                        ops: vec![LaneAtomic::new(0, 0, AtomOp::Add, 1, 0)],
                    },
                };
                mem.enqueue((i % 2) as usize, MemRequest::new(kind, addr, i), i);
                tags.push(i);
            }
            let mut done = Vec::new();
            let mut now = 0;
            while (!mem.quiescent() || done.len() < tags.len()) && now < 500_000 {
                done.extend(mem.cycle(now).into_iter().map(|c| c.tag));
                now += 1;
            }
            done.sort_unstable();
            (done, mem.gmem().read_u32(0), now)
        };
        let (base_done, base_ctr, base_cycles) = run(ChaosConfig::off());
        let (chaos_done, chaos_ctr, chaos_cycles) = run(ChaosConfig::with_level(99, 3));
        assert_eq!(base_done, (0..40).collect::<Vec<u64>>());
        assert_eq!(chaos_done, base_done, "chaos loses/duplicates nothing");
        assert_eq!(chaos_ctr, base_ctr, "architectural state unchanged");
        assert!(chaos_cycles >= base_cycles, "chaos only slows things down");
    }

    #[test]
    fn chaos_runs_are_seed_deterministic() {
        use crate::ChaosConfig;
        let run = |seed: u64| -> (u64, ChaosStats) {
            let cfg = MemConfig {
                chaos: ChaosConfig::with_level(seed, 3),
                ..MemConfig::default()
            };
            let mut mem = MemorySystem::new(cfg, 1);
            mem.gmem_mut().alloc(1024);
            for i in 0..60u64 {
                let kind = if i % 2 == 0 {
                    ReqKind::Load { bypass_l1: i % 4 == 0 }
                } else {
                    ReqKind::Atomic {
                        ops: vec![LaneAtomic::new(0, 4, AtomOp::Add, 1, 0)],
                    }
                };
                mem.enqueue(0, MemRequest::new(kind, (i % 6) * LINE_BYTES, i), i * 3);
            }
            let mut last = 0;
            let mut now = 0;
            let mut ndone = 0;
            while ndone < 60 && now < 500_000 {
                for c in mem.cycle(now) {
                    ndone += 1;
                    let _ = c;
                    last = now;
                }
                now += 1;
            }
            (last, *mem.chaos_stats())
        };
        let a = run(1234);
        let b = run(1234);
        let c = run(5678);
        assert_eq!(a, b, "same seed => bit-identical timing and stats");
        // Different seeds virtually always perturb differently; we only
        // require that chaos actually fired.
        assert!(c.1.latency_injections + c.1.nacks + c.1.atomic_delays > 0);
    }

    #[test]
    fn quiescent_reflects_inflight_work() {
        let mut mem = new_mem();
        assert!(mem.quiescent());
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        assert!(!mem.quiescent());
        let mut now = 0;
        while !mem.quiescent() && now < 100_000 {
            mem.cycle(now);
            now += 1;
        }
        assert!(mem.quiescent());
    }

    /// Snapshot a system with requests in flight (queues, MSHRs, events,
    /// parked locks, chaos stream all live), restore it into a fresh
    /// instance, and run both to quiescence: every observable — completion
    /// stream, stats, chaos counters, memory image — must be identical.
    #[test]
    fn mid_flight_snapshot_round_trips_bit_exact() {
        let build = || {
            let cfg = MemConfig {
                chaos: crate::ChaosConfig::with_level(42, 2),
                ..MemConfig::default()
            };
            let mut mem = MemorySystem::new(cfg, 2);
            mem.set_blocking_locks(true);
            mem.gmem_mut().alloc(1024);
            mem
        };
        let drive = |mem: &mut MemorySystem, upto: u64| {
            let mut done = Vec::new();
            for now in 0..upto {
                if now % 7 == 0 {
                    let tag = 100 + now;
                    mem.enqueue(
                        (now % 2) as usize,
                        MemRequest::new(ReqKind::Load { bypass_l1: now % 3 == 0 }, now * 8, tag),
                        now,
                    );
                }
                if now % 11 == 0 {
                    let mut op = LaneAtomic::new(0, 512, AtomOp::Cas, 0, 1);
                    op.role = LockRole::Acquire;
                    op.holder = now;
                    mem.enqueue(
                        0,
                        MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 512, 1_000 + now)
                            .sync(),
                        now,
                    );
                }
                mem.cycle_into(now, &mut done);
            }
            done
        };
        let finish = |mem: &mut MemorySystem, from: u64| {
            let mut done = Vec::new();
            let mut now = from;
            while !mem.quiescent() && now < from + 100_000 {
                mem.cycle_into(now, &mut done);
                now += 1;
            }
            done
        };

        // Uninterrupted run.
        let mut a = build();
        let mut a_done = drive(&mut a, 200);
        a_done.extend(finish(&mut a, 200));

        // Same run snapshotted mid-flight and restored into a fresh system.
        let mut b = build();
        let mut b_done = drive(&mut b, 200);
        let mut w = SnapWriter::new();
        b.save_snap(&mut w);
        let body = w.into_bytes();
        let mut c = build();
        let mut r = SnapReader::new(&body);
        c.load_snap(&mut r).expect("round trip");
        r.expect_exhausted().expect("full consumption");
        b_done.extend(finish(&mut c, 200));

        assert_eq!(a_done, b_done, "completion streams diverged");
        assert_eq!(a.stats(), c.stats());
        assert_eq!(a.chaos_stats(), c.chaos_stats());
        assert_eq!(a.gmem().first_diff(c.gmem()), None);

        // A second snapshot of the restored system is byte-identical to
        // the original snapshot taken at the same point (canonical form).
        let mut b2 = build();
        drive(&mut b2, 200);
        let mut w2 = SnapWriter::new();
        b2.save_snap(&mut w2);
        let mut c2 = build();
        let body2 = w2.into_bytes();
        let mut r2 = SnapReader::new(&body2);
        c2.load_snap(&mut r2).unwrap();
        let mut w3 = SnapWriter::new();
        c2.save_snap(&mut w3);
        let mut w4 = SnapWriter::new();
        b2.save_snap(&mut w4);
        assert_eq!(w3.into_bytes(), w4.into_bytes(), "snapshot not canonical");
    }
}
