//! Simulation requests: JSON schema, validation, the content-address key,
//! and the (pure, deterministic) execution function.
//!
//! A request fully determines its result: the simulator is bit-exact for a
//! fixed (kernel, config, seed, engine), so [`SimRequest::cache_key`] can
//! content-address the rendered response body. Everything that can change
//! a single output byte must feed the key; the cache-soundness tests in
//! `tests/cache_key.rs` hold this to account.

use crate::json::{kernel_report_json, sim_error_json, Json};
use bows::{AdaptiveConfig, DdosConfig, DelayMode};
use simt_core::{BasePolicy, CancelToken, CheckpointCtl, Engine, Gpu, GpuConfig, LaunchSpec, SimError};
use simt_mem::ChaosConfig;
use std::sync::Mutex;

/// Shared slot holding a job's newest mid-run checkpoint:
/// `(fnv1a(snapshot), snapshot body)`. One slot lives for the whole
/// supervised life of a job, across attempts: an attempt that dies to a
/// deadline or a panic leaves its last checkpoint here, and the retry
/// resumes from it instead of replaying the simulation from cycle 0.
/// Replacement is atomic under the lock, so the slot never holds a
/// half-written snapshot — the failure mode that would need detecting.
pub type CheckpointSlot = Mutex<Option<(u64, Vec<u8>)>>;

/// Hash of the checkpoint currently in `slot` (0 = none). Folded into the
/// retry backoff jitter — and deliberately *never* into the cache key:
/// resumed and fresh runs produce byte-identical bodies, so a checkpoint
/// must not fragment the cache.
pub fn checkpoint_hash(slot: &CheckpointSlot) -> u64 {
    slot.lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map_or(0, |(h, _)| *h)
}

/// One kernel parameter slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamSpec {
    /// A scalar value passed as-is.
    Scalar(u32),
    /// A device buffer: allocate `words` words, fill them, pass the base.
    Buffer { words: u64, fill: u32 },
}

/// A validated simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Kernel assembly source.
    pub kernel: String,
    /// Grid size in CTAs.
    pub ctas: usize,
    /// Threads per CTA.
    pub tpc: usize,
    /// Parameter slots, left to right.
    pub params: Vec<ParamSpec>,
    /// GPU preset name (`tiny` | `gtx480` | `gtx1080ti`).
    pub gpu: String,
    /// Baseline scheduler.
    pub sched: BasePolicy,
    /// BOWS back-off: `None` = baseline, fixed cycles, or adaptive.
    pub bows: Option<DelayMode>,
    /// Run the DDOS detector (else the static `!sib` oracle).
    pub ddos: bool,
    /// Main-loop engine override.
    pub engine: Option<Engine>,
    /// Simulated-cycle budget override (`GpuConfig::max_cycles`).
    pub timeout_cycles: Option<u64>,
    /// Memory-chaos seed (simulated-hardware faults, not service chaos).
    pub chaos_seed: Option<u64>,
    /// Memory-chaos intensity 0..=3.
    pub chaos_level: Option<u8>,
    /// Post-run dumps: `(param slot, words)`.
    pub dumps: Vec<(usize, u64)>,
    /// Requesting tenant (quota accounting); `"anon"` by default.
    pub tenant: String,
    /// Priority 0 (highest) ..= 2 (lowest); default 1.
    pub priority: u8,
}

/// Caps that keep one request from monopolizing a worker. Validation
/// rejects anything larger with a 400-class error before admission.
pub const MAX_KERNEL_BYTES: usize = 64 * 1024;
pub const MAX_CTAS: usize = 4096;
pub const MAX_PARAMS: usize = 32;
pub const MAX_BUFFER_WORDS: u64 = 1 << 22;
pub const MAX_DUMP_WORDS: u64 = 4096;

impl SimRequest {
    /// Parse and validate a request body.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found; the HTTP
    /// layer maps it to 400.
    pub fn from_json(body: &str) -> Result<SimRequest, String> {
        let j = Json::parse(body)?;
        let kernel = j.get("kernel")?.as_str("kernel")?.to_string();
        if kernel.is_empty() {
            return Err("kernel: empty".into());
        }
        if kernel.len() > MAX_KERNEL_BYTES {
            return Err(format!("kernel: larger than {MAX_KERNEL_BYTES} bytes"));
        }
        let ctas = match j.opt("ctas")? {
            Some(v) => v.as_u64("ctas")? as usize,
            None => 1,
        };
        if ctas == 0 || ctas > MAX_CTAS {
            return Err(format!("ctas: must be in 1..={MAX_CTAS}"));
        }
        let tpc = match j.opt("tpc")? {
            Some(v) => v.as_u64("tpc")? as usize,
            None => 32,
        };
        if tpc == 0 || tpc > 1024 {
            return Err("tpc: must be in 1..=1024".into());
        }
        let mut params = Vec::new();
        if let Some(list) = j.opt("params")? {
            for (i, p) in list.as_array("params")?.iter().enumerate() {
                if params.len() >= MAX_PARAMS {
                    return Err(format!("params: more than {MAX_PARAMS}"));
                }
                match p {
                    Json::Obj(_) => {
                        let words = p.get("buf")?.as_u64(&format!("params[{i}].buf"))?;
                        if words == 0 || words > MAX_BUFFER_WORDS {
                            return Err(format!(
                                "params[{i}].buf: must be in 1..={MAX_BUFFER_WORDS}"
                            ));
                        }
                        let fill = match p.opt("fill")? {
                            Some(v) => v.as_u64(&format!("params[{i}].fill"))? as u32,
                            None => 0,
                        };
                        params.push(ParamSpec::Buffer { words, fill });
                    }
                    _ => {
                        let v = p.as_u64(&format!("params[{i}]"))?;
                        if v > u32::MAX as u64 {
                            return Err(format!("params[{i}]: exceeds u32"));
                        }
                        params.push(ParamSpec::Scalar(v as u32));
                    }
                }
            }
        }
        let gpu = match j.opt("gpu")? {
            Some(v) => v.as_str("gpu")?.to_string(),
            None => "tiny".to_string(),
        };
        if !matches!(gpu.as_str(), "tiny" | "gtx480" | "gtx1080ti") {
            return Err("gpu: expected tiny | gtx480 | gtx1080ti".into());
        }
        let sched = match j.opt("sched")? {
            Some(v) => match v.as_str("sched")? {
                "lrr" => BasePolicy::Lrr,
                "gto" => BasePolicy::Gto,
                "cawa" => BasePolicy::Cawa,
                _ => return Err("sched: expected lrr | gto | cawa".into()),
            },
            None => BasePolicy::Gto,
        };
        let bows = match j.opt("bows")? {
            None => None,
            Some(Json::Str(s)) if s == "adaptive" => {
                Some(DelayMode::Adaptive(AdaptiveConfig::default()))
            }
            Some(v) => Some(DelayMode::Fixed(v.as_u64("bows")?)),
        };
        let ddos = match j.opt("ddos")? {
            Some(v) => v.as_bool("ddos")?,
            None => true,
        };
        let engine = match j.opt("engine")? {
            None => None,
            Some(v) => Some(match v.as_str("engine")? {
                "cycle" => Engine::Cycle,
                "skip" => Engine::Skip,
                _ => return Err("engine: expected cycle | skip".into()),
            }),
        };
        let timeout_cycles = match j.opt("timeout_cycles")? {
            Some(v) => Some(v.as_u64("timeout_cycles")?),
            None => None,
        };
        let chaos_seed = match j.opt("chaos_seed")? {
            Some(v) => Some(v.as_u64("chaos_seed")?),
            None => None,
        };
        let chaos_level = match j.opt("chaos_level")? {
            Some(v) => {
                let l = v.as_u64("chaos_level")?;
                if l > 3 {
                    return Err("chaos_level: must be 0..=3".into());
                }
                Some(l as u8)
            }
            None => None,
        };
        let mut dumps = Vec::new();
        if let Some(list) = j.opt("dumps")? {
            for d in list.as_array("dumps")? {
                let pair = d.as_array("dumps[]")?;
                if pair.len() != 2 {
                    return Err("dumps[]: expected [slot, words]".into());
                }
                let slot = pair[0].as_u64("dumps[].slot")? as usize;
                let words = pair[1].as_u64("dumps[].words")?;
                if words > MAX_DUMP_WORDS {
                    return Err(format!("dumps[].words: more than {MAX_DUMP_WORDS}"));
                }
                if slot >= params.len() {
                    return Err(format!("dumps[]: slot {slot} has no parameter"));
                }
                dumps.push((slot, words));
            }
        }
        let tenant = match j.opt("tenant")? {
            Some(v) => v.as_str("tenant")?.to_string(),
            None => "anon".to_string(),
        };
        if tenant.is_empty() || tenant.len() > 64 {
            return Err("tenant: must be 1..=64 bytes".into());
        }
        let priority = match j.opt("priority")? {
            Some(v) => {
                let p = v.as_u64("priority")?;
                if p > 2 {
                    return Err("priority: must be 0..=2".into());
                }
                p as u8
            }
            None => 1,
        };
        Ok(SimRequest {
            kernel,
            ctas,
            tpc,
            params,
            gpu,
            sched,
            bows,
            ddos,
            engine,
            timeout_cycles,
            chaos_seed,
            chaos_level,
            dumps,
            tenant,
            priority,
        })
    }

    /// Canonical encoding of every result-affecting field — the identity
    /// the cache binds entries to. `tenant` and `priority` are deliberately
    /// excluded — they steer scheduling, not simulation — so identical work
    /// from different tenants shares one cache entry. Two requests have
    /// equal encodings iff they produce the same response body; the kernel
    /// is length-prefixed so no field can masquerade as another.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut c = String::with_capacity(self.kernel.len() + 128);
        let _ = write!(c, "k={}:{};ctas={};tpc={};p=[", self.kernel.len(), self.kernel, self.ctas, self.tpc);
        for p in &self.params {
            match *p {
                ParamSpec::Scalar(v) => {
                    let _ = write!(c, "s:{v},");
                }
                ParamSpec::Buffer { words, fill } => {
                    let _ = write!(c, "b:{words}:{fill},");
                }
            }
        }
        let _ = write!(c, "];gpu={};sched=", self.gpu);
        c.push_str(match self.sched {
            BasePolicy::Lrr => "lrr",
            BasePolicy::Gto => "gto",
            BasePolicy::Cawa => "cawa",
        });
        match self.bows {
            None => c.push_str(";bows=-"),
            Some(DelayMode::Fixed(cycles)) => {
                let _ = write!(c, ";bows=f:{cycles}");
            }
            Some(DelayMode::Adaptive(_)) => c.push_str(";bows=a"),
        }
        let _ = write!(c, ";ddos={}", self.ddos as u8);
        c.push_str(match self.engine {
            None => ";engine=-",
            Some(Engine::Cycle) => ";engine=cycle",
            Some(Engine::Skip) => ";engine=skip",
        });
        let _ = write!(
            c,
            ";tc={:?};cs={:?};cl={:?};dumps=[",
            self.timeout_cycles, self.chaos_seed, self.chaos_level
        );
        for &(slot, words) in &self.dumps {
            let _ = write!(c, "{slot}:{words},");
        }
        c.push(']');
        c
    }

    /// 64-bit content-address of [`SimRequest::canonical`] — the cache's
    /// *index*, not its identity. FNV is not collision-resistant, so the
    /// cache stores the canonical encoding beside each entry and verifies
    /// it on every hit; a crafted key collision degrades to a miss, never
    /// to serving another request's body.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.canonical().as_bytes());
        h.finish()
    }

    /// The effective [`GpuConfig`] after preset + overrides.
    pub fn gpu_config(&self) -> GpuConfig {
        let mut cfg = match self.gpu.as_str() {
            "gtx480" => GpuConfig::gtx480(),
            "gtx1080ti" => GpuConfig::gtx1080ti(),
            _ => GpuConfig::test_tiny(),
        };
        if self.chaos_seed.is_some() || self.chaos_level.is_some() {
            let seed = self.chaos_seed.unwrap_or(1);
            let level = self.chaos_level.unwrap_or(1);
            cfg.mem.chaos = ChaosConfig::with_level(seed, level);
        }
        if let Some(t) = self.timeout_cycles {
            cfg.max_cycles = t;
        }
        if let Some(e) = self.engine {
            cfg.engine = e;
        }
        cfg
    }
}

/// How one execution of a request ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Simulation completed; the rendered success body.
    Ok(String),
    /// Simulation failed deterministically (deadlock, device fault, cycle
    /// limit, bad launch). Retrying is pointless; the rendered error body.
    SimError(String),
    /// The run's cancel token fired (deadline): retryable.
    Cancelled,
}

/// Execute a request to completion and render the response body.
///
/// This is the one function both the service workers and the load
/// generator's expected-result oracle call, so "the service returned the
/// right bytes" is checkable by construction. The optional `cancel` token
/// bounds wall time.
pub fn run_request(req: &SimRequest, cancel: Option<CancelToken>) -> RunOutcome {
    run_request_resumable(req, cancel, 0, 0, None)
}

/// [`run_request`] plus mid-run checkpointing into `slot` every
/// `checkpoint_every` cycles (0 = off), resuming from whatever checkpoint
/// the slot already holds. The supervised pool passes one slot across all
/// attempts of a job; a checkpoint the simulator rejects on resume
/// (impossible for a slot the same request filled, but this is the
/// persistence plane — assume damage) is discarded and the attempt
/// replays from cycle 0 rather than failing the job.
///
/// The third parameter is ignored. It stays only because the frozen
/// `perfbench/` package passes it, and goes with the next benchmark
/// change.
pub fn run_request_resumable(
    req: &SimRequest,
    cancel: Option<CancelToken>,
    _sm_threads: usize,
    checkpoint_every: u64,
    slot: Option<&CheckpointSlot>,
) -> RunOutcome {
    let resume: Option<Vec<u8>> = slot.and_then(|s| {
        s.lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
            .map(|(_, b)| b.clone())
    });
    match attempt_once(req, cancel.clone(), checkpoint_every, slot, resume.as_deref()) {
        Ok(out) => out,
        Err(()) => {
            // The checkpoint was rejected. Forget it (structured
            // degradation: re-simulate, never fail the request on a
            // recovery artifact) and run from scratch.
            if let Some(s) = slot {
                *s.lock().unwrap_or_else(|p| p.into_inner()) = None;
            }
            attempt_once(req, cancel, checkpoint_every, slot, None)
                .unwrap_or(RunOutcome::Cancelled)
        }
    }
}

/// One execution attempt. `Err(())` means the resume snapshot was
/// rejected before any simulation happened.
fn attempt_once(
    req: &SimRequest,
    cancel: Option<CancelToken>,
    checkpoint_every: u64,
    slot: Option<&CheckpointSlot>,
    resume: Option<&[u8]>,
) -> Result<RunOutcome, ()> {
    // The simulator polls the token only at forward-progress scans, which a
    // short kernel never reaches — so honor an already-fired deadline here
    // (e.g. an attempt delayed past its deadline before it could start).
    if let Some(c) = &cancel {
        if c.fired().is_some() {
            return Ok(RunOutcome::Cancelled);
        }
    }
    let kernel = match simt_isa::asm::assemble(&req.kernel) {
        Ok(k) => k,
        Err(e) => {
            let body = Json::Obj(vec![(
                "error".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::Str("asm_error".into())),
                    ("message".into(), Json::Str(e.to_string())),
                ]),
            )])
            .render();
            return Ok(RunOutcome::SimError(body));
        }
    };
    let mut gpu = Gpu::new(req.gpu_config());
    if let Some(c) = cancel {
        gpu.set_cancel_token(c);
    }
    let mut params = Vec::new();
    let mut bases: Vec<Option<u64>> = Vec::new();
    for p in &req.params {
        match *p {
            ParamSpec::Scalar(v) => {
                params.push(v);
                bases.push(None);
            }
            ParamSpec::Buffer { words, fill } => {
                let base = gpu.mem_mut().gmem_mut().alloc(words);
                if fill != 0 {
                    for i in 0..words {
                        gpu.mem_mut().gmem_mut().write_u32(base + i * 4, fill);
                    }
                }
                params.push(base as u32);
                bases.push(Some(base));
            }
        }
    }
    let launch = LaunchSpec {
        grid_ctas: req.ctas,
        threads_per_cta: req.tpc,
        params,
    };
    let rotate = gpu.cfg.gto_rotate_period;
    let warps = gpu.cfg.warps_per_sm();
    let policy = bows::policy_factory(req.sched, req.bows, rotate);
    let mut sink = |_cycle: u64, body: &[u8]| {
        if let Some(s) = slot {
            *s.lock().unwrap_or_else(|p| p.into_inner()) =
                Some((simt_snap::fnv1a(body), body.to_vec()));
        }
    };
    let ctl = if checkpoint_every > 0 || resume.is_some() {
        Some(CheckpointCtl {
            every: checkpoint_every,
            sink: &mut sink,
            resume,
        })
    } else {
        None
    };
    let result = if req.ddos {
        let det = bows::ddos_factory(DdosConfig::default(), warps);
        gpu.run_with_checkpoints(&kernel, &launch, &policy, &det, ctl)
    } else {
        let det = |k: &simt_isa::Kernel| -> Box<dyn simt_core::SpinDetector> {
            Box::new(simt_core::StaticSibDetector::new(k.true_sibs.clone()))
        };
        gpu.run_with_checkpoints(&kernel, &launch, &policy, &det, ctl)
    };
    Ok(match result {
        Ok(report) => {
            let mut dumps = Vec::new();
            for &(slot, words) in &req.dumps {
                if let Some(Some(base)) = bases.get(slot) {
                    dumps.push((slot, gpu.mem().gmem().read_vec(*base, words)));
                }
            }
            RunOutcome::Ok(kernel_report_json(&report, &dumps).render())
        }
        Err(SimError::Snapshot { .. }) if resume.is_some() => return Err(()),
        Err(SimError::Cancelled { .. }) => RunOutcome::Cancelled,
        Err(e) => {
            let body = Json::Obj(vec![("error".into(), sim_error_json(&e))]).render();
            RunOutcome::SimError(body)
        }
    })
}

/// FNV-1a, 64-bit: the same checksum family the cache uses.
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn str(&mut self, s: &str) {
        // Length-prefix so "ab"+"c" and "a"+"bc" hash differently.
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// Checksum of a response body, stored beside each cache entry.
pub fn body_checksum(body: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(body.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub const VEC_KERNEL: &str = r#"
        .kernel inc
        .regs 8
        .params 1
            ld.param r1, [0]
            mov r2, %gtid
            shl r2, r2, 2
            add r1, r1, r2
            ld.global r3, [r1]
            add r3, r3, 1
            st.global [r1], r3
            exit
    "#;

    fn sample_body() -> String {
        format!(
            "{{\"kernel\":{},\"ctas\":1,\"tpc\":32,\
             \"params\":[{{\"buf\":32,\"fill\":5}}],\"dumps\":[[0,4]]}}",
            crate::json::json_string(VEC_KERNEL)
        )
    }

    #[test]
    fn parse_and_defaults() {
        let r = SimRequest::from_json(&sample_body()).unwrap();
        assert_eq!(r.ctas, 1);
        assert_eq!(r.sched, BasePolicy::Gto);
        assert!(r.ddos);
        assert_eq!(r.tenant, "anon");
        assert_eq!(r.priority, 1);
        assert_eq!(r.dumps, vec![(0, 4)]);
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(SimRequest::from_json("not json").is_err());
        assert!(SimRequest::from_json("{}").is_err(), "kernel required");
        assert!(SimRequest::from_json("{\"kernel\":\"x\",\"ctas\":0}").is_err());
        assert!(SimRequest::from_json("{\"kernel\":\"x\",\"gpu\":\"h100\"}").is_err());
        assert!(
            SimRequest::from_json("{\"kernel\":\"x\",\"dumps\":[[3,4]]}").is_err(),
            "dump slot must reference a parameter"
        );
    }

    #[test]
    fn tenant_and_priority_do_not_change_the_key() {
        let a = SimRequest::from_json(&sample_body()).unwrap();
        let mut b = a.clone();
        b.tenant = "other".into();
        b.priority = 0;
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn result_knobs_change_the_key() {
        let a = SimRequest::from_json(&sample_body()).unwrap();
        for mutate in [
            |r: &mut SimRequest| r.ctas = 2,
            |r: &mut SimRequest| r.sched = BasePolicy::Lrr,
            |r: &mut SimRequest| r.engine = Some(Engine::Cycle),
            |r: &mut SimRequest| r.chaos_seed = Some(7),
            |r: &mut SimRequest| r.kernel.push(' '),
        ] {
            let mut b = a.clone();
            mutate(&mut b);
            assert_ne!(a.cache_key(), b.cache_key());
        }
    }

    #[test]
    fn run_request_succeeds_and_dumps() {
        let r = SimRequest::from_json(&sample_body()).unwrap();
        match run_request(&r, None) {
            RunOutcome::Ok(body) => {
                let j = Json::parse(&body).unwrap();
                let dumps = j.get("dumps").unwrap();
                let d0 = dumps.get("0").unwrap().as_array("d0").unwrap();
                assert_eq!(d0, &vec![Json::UInt(6); 4], "fill 5 incremented once");
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    /// A spin-lock kernel with enough contention to run for hundreds of
    /// cycles, so a small `checkpoint_every` produces real mid-run
    /// snapshots.
    const LOCK_KERNEL: &str = r#"
        .kernel locked_inc
        .regs 10
        .params 2
            ld.param r1, [0]      ; mutex
            ld.param r2, [4]      ; counter
            mov r9, 0             ; done = false
        SPIN:
            atom.global.cas r3, [r1], 0, 1 !acquire !sync
            setp.eq.s32 p1, r3, 0
        @!p1 bra TEST
            ld.global.volatile r4, [r2]
            add r4, r4, 1
            st.global [r2], r4
            membar
            atom.global.exch r5, [r1], 0 !release !sync
            mov r9, 1
        TEST:
            setp.eq.s32 p2, r9, 0 !sync
        @p2 bra SPIN !sib !sync
            exit
    "#;

    fn lock_body() -> String {
        format!(
            "{{\"kernel\":{},\"ctas\":2,\"tpc\":32,\"bows\":\"adaptive\",\
             \"params\":[{{\"buf\":1,\"fill\":0}},{{\"buf\":1,\"fill\":0}}],\
             \"dumps\":[[1,1]]}}",
            crate::json::json_string(LOCK_KERNEL)
        )
    }

    fn expect_ok(out: RunOutcome) -> String {
        match out {
            RunOutcome::Ok(body) => body,
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn resumed_run_returns_byte_identical_body() {
        let r = SimRequest::from_json(&lock_body()).unwrap();
        let fresh = expect_ok(run_request(&r, None));

        // Fill the slot by running with checkpointing armed; the slot
        // keeps the newest snapshot the run produced.
        let slot: CheckpointSlot = Mutex::new(None);
        let ckpt = expect_ok(run_request_resumable(&r, None, 0, 64, Some(&slot)));
        assert_eq!(fresh, ckpt, "checkpointing must not perturb the run");
        assert!(
            checkpoint_hash(&slot) != 0,
            "a contended lock kernel must live past 64 cycles"
        );

        // Resume from that snapshot: same bytes out.
        let resumed = expect_ok(run_request_resumable(&r, None, 0, 64, Some(&slot)));
        assert_eq!(fresh, resumed, "resumed body must be byte-identical");
    }

    #[test]
    fn rejected_resume_snapshot_degrades_to_a_fresh_run() {
        // Poison the slot with a snapshot from a *different* request: the
        // fingerprint check rejects it, the slot is cleared, and the run
        // replays from cycle 0 — correct bytes, no error surfaced.
        let lock = SimRequest::from_json(&lock_body()).unwrap();
        let slot: CheckpointSlot = Mutex::new(None);
        expect_ok(run_request_resumable(&lock, None, 0, 64, Some(&slot)));
        assert!(checkpoint_hash(&slot) != 0);

        let vec = SimRequest::from_json(&sample_body()).unwrap();
        let fresh = expect_ok(run_request(&vec, None));
        let recovered = expect_ok(run_request_resumable(&vec, None, 0, 0, Some(&slot)));
        assert_eq!(fresh, recovered, "degraded run must still be correct");
        assert_eq!(
            checkpoint_hash(&slot),
            0,
            "the rejected snapshot must be discarded"
        );
    }

    #[test]
    fn garbage_resume_snapshot_degrades_to_a_fresh_run() {
        // Structurally broken snapshot bytes (not just a mismatched
        // fingerprint) take the same degradation path: discard, replay.
        let vec = SimRequest::from_json(&sample_body()).unwrap();
        let slot: CheckpointSlot = Mutex::new(Some((1, vec![0xAB; 64])));
        let fresh = expect_ok(run_request(&vec, None));
        let recovered = expect_ok(run_request_resumable(&vec, None, 0, 0, Some(&slot)));
        assert_eq!(fresh, recovered);
        assert_eq!(checkpoint_hash(&slot), 0);
    }

    #[test]
    fn asm_error_is_a_sim_error_body() {
        let r = SimRequest::from_json("{\"kernel\":\"bogus text\"}").unwrap();
        match run_request(&r, None) {
            RunOutcome::SimError(body) => {
                let j = Json::parse(&body).unwrap();
                let kind = j.get("error").unwrap().get("kind").unwrap().clone();
                assert_eq!(kind, Json::Str("asm_error".into()));
            }
            other => panic!("expected SimError, got {other:?}"),
        }
    }
}
