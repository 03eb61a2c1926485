//! Supervised execution: per-attempt isolation, deadlines, reaping, and
//! retry with exponential backoff.
//!
//! Each attempt of a job runs on its own thread behind `catch_unwind`, so
//! a panicking simulation (a simulator bug, or the chaos injector) kills
//! the *attempt*, never the service. The supervising worker enforces a
//! wall deadline two ways:
//!
//! 1. cooperatively — the attempt's [`CancelToken`] is armed with the
//!    deadline, and the simulator polls it at forward-progress scans, so a
//!    live-but-slow run exits with `SimError::Cancelled`;
//! 2. forcibly — if the attempt doesn't respond within a grace period
//!    after the deadline (wedged outside the simulator's poll points), the
//!    supervisor *abandons* the thread: cancels its token, stops waiting,
//!    and moves on. The abandoned thread unwinds on its own when it next
//!    observes the token; its late result is discarded because its result
//!    channel has no receiver left. This is the "reap" counter.
//!
//! Panics, timeouts, and reaps are retried with exponential backoff plus
//! deterministic jitter, up to a retry budget. Deterministic simulation
//! failures (deadlock, device fault, cycle limit) are **not** retried —
//! re-running a bit-exact simulator reproduces them bit-exactly — and are
//! returned as structured errors instead.

use crate::chaos::{splitmix64, ServiceChaos};
use crate::request::{
    checkpoint_hash, run_request_resumable, CheckpointSlot, RunOutcome, SimRequest,
};
use simt_core::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Supervision knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Retries after the first attempt (total attempts = `max_retries`+1).
    pub max_retries: u32,
    /// First retry's backoff, milliseconds; doubles per retry.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-attempt wall deadline, milliseconds.
    pub attempt_deadline_ms: u64,
    /// Extra wait past the deadline before abandoning the attempt thread.
    pub reap_grace_ms: u64,
    /// Mid-run checkpoint cadence in *simulated* cycles (0 = off). An
    /// attempt killed by its deadline or a panic leaves its newest
    /// checkpoint in the job's slot, and the retry resumes from it instead
    /// of replaying from cycle 0 — resumed and fresh runs are bit-identical
    /// (the determinism invariant), so this is purely a latency knob and
    /// never enters the cache key.
    pub checkpoint_every_cycles: u64,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            max_retries: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 500,
            attempt_deadline_ms: 10_000,
            reap_grace_ms: 500,
            checkpoint_every_cycles: 32_768,
        }
    }
}

/// Failure-path counters, shared across workers.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Attempts that panicked (caught).
    pub panics: AtomicU64,
    /// Attempts that exited cooperatively on a fired deadline.
    pub timeouts: AtomicU64,
    /// Attempts abandoned past the grace period (forcible reap).
    pub reaped: AtomicU64,
    /// Retry sleeps taken.
    pub retries: AtomicU64,
    /// Retry attempts that resumed from a mid-run checkpoint.
    pub resumed: AtomicU64,
}

/// Terminal result of a supervised job.
#[derive(Debug)]
pub enum JobResult {
    /// Success body.
    Ok(String),
    /// Deterministic simulation failure: structured error body, no retry.
    SimError(String),
    /// Deadline exhausted on every attempt.
    TimedOut,
    /// Panicked on every attempt.
    Crashed,
}

/// Marker prefix on chaos-injected panics so binaries can install a quiet
/// panic hook that hides expected noise but keeps real panics loud.
pub const CHAOS_PANIC_PREFIX: &str = "chaos: ";

/// Install a process-wide panic hook that silences panics whose payload
/// starts with [`CHAOS_PANIC_PREFIX`] (they are part of a chaos drill) and
/// defers to the default hook for everything else.
pub fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|s| s.starts_with(CHAOS_PANIC_PREFIX));
        if !injected {
            default(info);
        }
    }));
}

/// Run one job to a terminal result under the supervision policy.
///
/// `job_id` keys the chaos decision stream and the backoff jitter, so a
/// fixed (chaos seed, job id) replays the same fault schedule.
pub fn execute_supervised(
    req: &SimRequest,
    job_id: u64,
    cfg: &PoolConfig,
    chaos: &ServiceChaos,
    counters: &PoolCounters,
) -> JobResult {
    let mut last_failure_was_panic = false;
    // One checkpoint slot for the whole job: a dying attempt's last
    // snapshot survives here (the slot is outside the attempt thread and
    // outside `catch_unwind`), and the next attempt picks it up.
    let slot: Arc<CheckpointSlot> = Arc::new(Mutex::new(None));
    for attempt in 0..=cfg.max_retries {
        if attempt > 0 {
            counters.retries.fetch_add(1, Ordering::Relaxed);
            // The checkpoint hash feeds the jitter (retry *accounting*),
            // never the cache key: a resumed job de-correlates its sleep
            // from fresh retries of the same id without fragmenting the
            // response cache.
            let ckpt = checkpoint_hash(&slot);
            if ckpt != 0 {
                counters.resumed.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(backoff_ms(cfg, job_id, attempt, ckpt)));
        }
        let deadline = Duration::from_millis(cfg.attempt_deadline_ms);
        let token = CancelToken::with_deadline(deadline);
        let (tx, rx) = mpsc::channel();
        let attempt_token = token.clone();
        let attempt_req = req.clone();
        let attempt_chaos = *chaos;
        let every = cfg.checkpoint_every_cycles;
        let attempt_slot = Arc::clone(&slot);
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if attempt_chaos.slow_attempt(job_id, attempt) {
                    std::thread::sleep(Duration::from_millis(attempt_chaos.slow_ms));
                }
                if attempt_chaos.panic_attempt(job_id, attempt) {
                    panic!("{CHAOS_PANIC_PREFIX}injected worker panic (job {job_id})");
                }
                run_request_resumable(
                    &attempt_req,
                    Some(attempt_token),
                    0,
                    every,
                    Some(&attempt_slot),
                )
            }));
            // A dropped receiver (reaped attempt) makes this send fail;
            // the late result is deliberately discarded.
            let _ = tx.send(outcome);
        });
        let wait = deadline + Duration::from_millis(cfg.reap_grace_ms);
        match rx.recv_timeout(wait) {
            Ok(Ok(RunOutcome::Ok(body))) => return JobResult::Ok(body),
            Ok(Ok(RunOutcome::SimError(body))) => return JobResult::SimError(body),
            Ok(Ok(RunOutcome::Cancelled)) => {
                counters.timeouts.fetch_add(1, Ordering::Relaxed);
                last_failure_was_panic = false;
            }
            Ok(Err(_panic)) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                last_failure_was_panic = true;
            }
            Err(_) => {
                // Unresponsive past deadline + grace: cancel and abandon.
                token.cancel();
                counters.reaped.fetch_add(1, Ordering::Relaxed);
                last_failure_was_panic = false;
            }
        }
    }
    if last_failure_was_panic {
        JobResult::Crashed
    } else {
        JobResult::TimedOut
    }
}

/// Exponential backoff with deterministic jitter: `min(cap, base·2^(a-1))`
/// plus up to `base` of jitter derived from `(job, attempt, checkpoint)`.
/// `ckpt_hash` is the hash of the checkpoint the retry resumes from (0 =
/// cold retry) — part of retry accounting only, never request identity.
fn backoff_ms(cfg: &PoolConfig, job_id: u64, attempt: u32, ckpt_hash: u64) -> u64 {
    let exp = cfg
        .backoff_base_ms
        .saturating_mul(1u64 << (attempt - 1).min(16))
        .min(cfg.backoff_cap_ms);
    let jitter = splitmix64(job_id ^ ((attempt as u64) << 32) ^ ckpt_hash)
        % cfg.backoff_base_ms.max(1);
    exp + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_request() -> SimRequest {
        SimRequest::from_json(
            r#"{"kernel":".kernel t\n.regs 4\n    mov r1, 1\n    exit\n","tpc":32}"#,
        )
        .unwrap()
    }

    fn pool_cfg() -> PoolConfig {
        PoolConfig {
            max_retries: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            attempt_deadline_ms: 5_000,
            reap_grace_ms: 200,
            checkpoint_every_cycles: 0,
        }
    }

    /// Find a job id whose chaos schedule fails attempt 0 but not 1.
    fn job_failing_only_first(chaos: &ServiceChaos) -> u64 {
        (0..10_000)
            .find(|&j| chaos.panic_attempt(j, 0) && !chaos.panic_attempt(j, 1))
            .expect("some job fails only its first attempt")
    }

    #[test]
    fn clean_job_succeeds_first_try() {
        let counters = PoolCounters::default();
        let r = execute_supervised(
            &tiny_request(),
            1,
            &pool_cfg(),
            &ServiceChaos::off(),
            &counters,
        );
        assert!(matches!(r, JobResult::Ok(_)));
        assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panicked_attempt_is_retried_to_success() {
        install_quiet_panic_hook();
        let chaos = ServiceChaos {
            seed: 3,
            worker_panic_ppm: 300_000,
            worker_slow_ppm: 0,
            slow_ms: 0,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let job = job_failing_only_first(&chaos);
        let counters = PoolCounters::default();
        let r = execute_supervised(&tiny_request(), job, &pool_cfg(), &chaos, &counters);
        assert!(matches!(r, JobResult::Ok(_)), "got {r:?}");
        assert_eq!(counters.panics.load(Ordering::Relaxed), 1);
        assert_eq!(counters.retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn always_panicking_job_crashes_structurally() {
        install_quiet_panic_hook();
        let chaos = ServiceChaos {
            seed: 3,
            worker_panic_ppm: 1_000_000,
            worker_slow_ppm: 0,
            slow_ms: 0,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let counters = PoolCounters::default();
        let r = execute_supervised(&tiny_request(), 9, &pool_cfg(), &chaos, &counters);
        assert!(matches!(r, JobResult::Crashed), "got {r:?}");
        assert_eq!(counters.panics.load(Ordering::Relaxed), 3, "all attempts panicked");
    }

    #[test]
    fn slow_attempt_times_out_and_recovers() {
        // Slowness (100ms) past the attempt deadline (20ms) but inside the
        // reap grace: the attempt wakes, sees its fired token, and exits
        // cooperatively; the retry is not slowed and succeeds.
        let chaos = ServiceChaos {
            seed: 11,
            worker_panic_ppm: 0,
            worker_slow_ppm: 300_000,
            slow_ms: 100,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let job = (0..10_000)
            .find(|&j| chaos.slow_attempt(j, 0) && !chaos.slow_attempt(j, 1))
            .unwrap();
        let cfg = PoolConfig {
            attempt_deadline_ms: 20,
            reap_grace_ms: 5_000,
            ..pool_cfg()
        };
        let counters = PoolCounters::default();
        let r = execute_supervised(&tiny_request(), job, &cfg, &chaos, &counters);
        assert!(matches!(r, JobResult::Ok(_)), "got {r:?}");
        assert_eq!(counters.timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(counters.reaped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wedged_attempt_is_reaped() {
        // Slowness (300ms) past deadline (10ms) + grace (10ms): the
        // supervisor abandons the thread and retries.
        let chaos = ServiceChaos {
            seed: 11,
            worker_panic_ppm: 0,
            worker_slow_ppm: 300_000,
            slow_ms: 300,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let job = (0..10_000)
            .find(|&j| chaos.slow_attempt(j, 0) && !chaos.slow_attempt(j, 1))
            .unwrap();
        let cfg = PoolConfig {
            attempt_deadline_ms: 10,
            reap_grace_ms: 10,
            ..pool_cfg()
        };
        let counters = PoolCounters::default();
        let r = execute_supervised(&tiny_request(), job, &cfg, &chaos, &counters);
        assert!(matches!(r, JobResult::Ok(_)), "got {r:?}");
        assert_eq!(counters.reaped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn deterministic_sim_error_is_not_retried() {
        // A kernel that always deadlocks: one structured error, no retries.
        let req = SimRequest::from_json(
            r#"{"kernel":".kernel stuck\n.regs 8\n.params 1\n    ld.param r1, [0]\ntop:\n    ld.global.volatile r2, [r1]\n    setp.eq.s32 p1, r2, 0\n@p1 bra top\n    exit\n","tpc":32,"params":[{"buf":1}],"timeout_cycles":50000}"#,
        )
        .unwrap();
        let counters = PoolCounters::default();
        let r = execute_supervised(&req, 5, &pool_cfg(), &ServiceChaos::off(), &counters);
        match r {
            JobResult::SimError(body) => {
                assert!(body.contains("\"kind\""), "structured: {body}");
            }
            other => panic!("expected SimError, got {other:?}"),
        }
        assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = PoolConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 80,
            ..pool_cfg()
        };
        let b1 = backoff_ms(&cfg, 1, 1, 0);
        let b4 = backoff_ms(&cfg, 1, 4, 0);
        assert!((10..20).contains(&b1), "base + jitter, got {b1}");
        assert!((80..90).contains(&b4), "capped + jitter, got {b4}");
        assert_eq!(backoff_ms(&cfg, 1, 2, 0), backoff_ms(&cfg, 1, 2, 0), "deterministic");
    }
}
