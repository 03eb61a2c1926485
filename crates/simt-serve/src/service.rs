//! The service core: cache in front, admission in the middle, supervised
//! workers behind — independent of any transport.
//!
//! [`Service::submit`] is the whole request path:
//!
//! 1. **cache** — a verified hit returns immediately (no admission
//!    charge, no queueing); corrupt entries are evicted and re-simulated;
//! 2. **admission** — drain, tenant quota, and overload gates refuse with
//!    a structured [`Refusal`] the HTTP layer maps to 429/503;
//! 3. **workers** — a fixed pool takes queued jobs highest-priority-first
//!    and runs each under [`execute_supervised`] (panic isolation,
//!    deadlines, retry/backoff, reaping).
//!
//! The HTTP front end in [`crate::http`] is a thin adapter over this type,
//! which keeps every behavior here testable in-process.

use crate::admission::{Admission, AdmissionConfig, Refusal};
use crate::cache::{Lookup, ResultCache};
use crate::chaos::{ServiceChaos, StoreFault};
use crate::json::Json;
use crate::pool::{execute_supervised, JobResult, PoolConfig, PoolCounters};
use crate::request::SimRequest;
use crate::store::DurableStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (supervisor) threads.
    pub workers: usize,
    /// Admission gates. `admission.workers` is overwritten with `workers`.
    pub admission: AdmissionConfig,
    /// Supervision policy.
    pub pool: PoolConfig,
    /// Result-cache capacity, entries.
    pub cache_entries: usize,
    /// Service-level fault injection.
    pub chaos: ServiceChaos,
    /// Durable result store directory. When set, every cold success body
    /// is appended to an fsync'd log here and replayed into the cache on
    /// the next start, so a restart (or a SIGKILL) loses no committed
    /// result. `None` keeps the cache purely in-memory.
    pub state_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            admission: AdmissionConfig::default(),
            pool: PoolConfig::default(),
            cache_entries: 256,
            chaos: ServiceChaos::off(),
            state_dir: None,
        }
    }
}

/// A finished request as the transport sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP-shaped status code (200/422/429/500/503/504).
    pub status: u16,
    /// JSON body. Cached and cold success bodies are byte-identical; the
    /// cache disposition travels only in [`Response::cached`].
    pub body: String,
    /// Served from the result cache.
    pub cached: bool,
    /// Client back-off hint for 429/503, seconds.
    pub retry_after: Option<u64>,
}

struct Job {
    id: u64,
    key: u64,
    /// Canonical request encoding: the identity cache entries bind to.
    canon: String,
    req: SimRequest,
    reply: mpsc::Sender<Response>,
}

struct Shared {
    cfg: ServeConfig,
    admission: Mutex<Admission<Job>>,
    work_cv: Condvar,
    cache: Mutex<ResultCache>,
    /// Durable backing log for the cache; `None` without `state_dir` or
    /// when the log failed to open (the service degrades to in-memory).
    store: Option<Mutex<DurableStore>>,
    pool_counters: PoolCounters,
    requests: AtomicU64,
    ok_responses: AtomicU64,
    lint_rejections: AtomicU64,
    sim_errors: AtomicU64,
    terminal_timeouts: AtomicU64,
    terminal_crashes: AtomicU64,
    in_flight: AtomicU64,
    job_seq: AtomicU64,
    shutdown: AtomicBool,
}

/// The simulation service.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Start the worker pool. With a `state_dir`, first recover the
    /// durable log — truncating any torn tail — and replay every
    /// committed result into the cache, so a restarted service serves
    /// pre-crash results as warm hits. A store that cannot open is a
    /// warning, not a startup failure: the service runs in-memory.
    pub fn start(mut cfg: ServeConfig) -> Service {
        cfg.workers = cfg.workers.max(1);
        cfg.admission.workers = cfg.workers;
        let nworkers = cfg.workers;
        let mut cache = ResultCache::new(cfg.cache_entries);
        let store = cfg.state_dir.as_ref().and_then(|dir| {
            match DurableStore::open(dir) {
                Ok((store, entries)) => {
                    // Log order: the newest record for a key replays last
                    // and wins, matching the order results were committed.
                    for e in entries {
                        cache.insert(e.key, e.canon, e.body);
                    }
                    Some(Mutex::new(store))
                }
                Err(e) => {
                    eprintln!(
                        "warning: durable store at {} unavailable ({e}); running in-memory",
                        dir.display()
                    );
                    None
                }
            }
        });
        let shared = Arc::new(Shared {
            admission: Mutex::new(Admission::new(cfg.admission)),
            work_cv: Condvar::new(),
            cache: Mutex::new(cache),
            store,
            pool_counters: PoolCounters::default(),
            requests: AtomicU64::new(0),
            ok_responses: AtomicU64::new(0),
            lint_rejections: AtomicU64::new(0),
            sim_errors: AtomicU64::new(0),
            terminal_timeouts: AtomicU64::new(0),
            terminal_crashes: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            job_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            cfg,
        });
        let workers = (0..nworkers)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&s))
            })
            .collect();
        Service { shared, workers }
    }

    /// Run one request through cache → admission → workers, blocking until
    /// its terminal response.
    pub fn submit(&self, req: SimRequest) -> Response {
        let s = &self.shared;
        s.requests.fetch_add(1, Ordering::Relaxed);
        let canon = req.canonical();
        let key = req.cache_key();
        match s.cache.lock().unwrap().lookup(key, &canon) {
            Lookup::Hit(body) => {
                s.ok_responses.fetch_add(1, Ordering::Relaxed);
                return Response {
                    status: 200,
                    body,
                    cached: true,
                    retry_after: None,
                };
            }
            Lookup::Miss | Lookup::Corrupt => {}
        }
        // Pre-admission lint: a kernel the static analyzer proves wrong —
        // racy, deadlocking, or reading garbage — is refused before it can
        // occupy a queue slot or a worker. Only assemblable kernels are
        // linted; an unassemblable one falls through to the worker's
        // structured `asm_error` 422 path unchanged.
        if let Ok(raw) = simt_isa::asm::assemble_raw(&req.kernel) {
            let analysis = simt_analyze::analyze_insts(&raw.insts);
            if analysis.has_errors() {
                s.lint_rejections.fetch_add(1, Ordering::Relaxed);
                return Response {
                    status: 422,
                    body: lint_reject_body(&raw.insts, &analysis.diagnostics),
                    cached: false,
                    retry_after: None,
                };
            }
        }
        let id = s.job_seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let tenant = req.tenant.clone();
        let priority = req.priority;
        let offer = s.admission.lock().unwrap().offer(
            &tenant,
            priority,
            Job {
                id,
                key,
                canon,
                req,
                reply: tx,
            },
        );
        if let Err(refusal) = offer {
            return refusal_response(refusal);
        }
        s.work_cv.notify_one();
        // The worker always replies before releasing the tenant slot, so
        // a closed channel here means a worker thread died mid-job — which
        // supervision is designed to make impossible. Surface it
        // structurally rather than panicking the transport.
        rx.recv().unwrap_or_else(|_| Response {
            status: 500,
            body: error_body("worker_lost", "worker disappeared mid-job"),
            cached: false,
            retry_after: None,
        })
    }

    /// Stop admitting, let queued and in-flight work finish (bounded by
    /// `timeout`), then stop the workers. Returns true on a clean drain,
    /// false if the timeout expired with work still in flight. On a dirty
    /// drain, jobs still queued when the workers stop are answered with a
    /// structured 503 — a caller blocked in [`Service::submit`] always
    /// gets a response, never a hang.
    pub fn drain(mut self, timeout: Duration) -> bool {
        let s = &self.shared;
        s.admission.lock().unwrap().start_drain();
        let deadline = Instant::now() + timeout;
        let mut clean = false;
        while Instant::now() < deadline {
            let backlog = s.admission.lock().unwrap().backlog();
            if backlog == 0 && s.in_flight.load(Ordering::Acquire) == 0 {
                clean = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        s.shutdown.store(true, Ordering::Release);
        s.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are gone; flush whatever they left queued so every
        // blocked submitter unblocks with a structured refusal.
        let mut adm = s.admission.lock().unwrap();
        while let Some(ticket) = adm.take() {
            let _ = ticket.job.reply.send(Response {
                status: 503,
                body: error_body("shutdown", "service stopped before this request ran"),
                cached: false,
                retry_after: Some(1),
            });
        }
        clean
    }

    /// Service counters as a JSON object (the `/stats` body).
    pub fn stats_json(&self) -> Json {
        let s = &self.shared;
        let (cache_hits, cache_misses, cache_corruptions, cache_collisions, cache_entries) =
            s.cache.lock().unwrap().stats();
        let (admitted, shed_quota, shed_overload) = s.admission.lock().unwrap().stats();
        let backlog = s.admission.lock().unwrap().backlog();
        let store_stats = s.store.as_ref().map(|st| {
            let st = st.lock().unwrap_or_else(|p| p.into_inner());
            let rec = st.recovery_stats();
            (
                st.persisted_entries(),
                rec.recovered,
                rec.truncated_bytes,
                rec.dropped_records,
                st.append_errors(),
            )
        });
        Json::Obj(vec![
            (
                "requests".into(),
                Json::UInt(s.requests.load(Ordering::Relaxed)),
            ),
            (
                "ok".into(),
                Json::UInt(s.ok_responses.load(Ordering::Relaxed)),
            ),
            (
                "sim_errors".into(),
                Json::UInt(s.sim_errors.load(Ordering::Relaxed)),
            ),
            (
                "lint_rejections".into(),
                Json::UInt(s.lint_rejections.load(Ordering::Relaxed)),
            ),
            (
                "terminal_timeouts".into(),
                Json::UInt(s.terminal_timeouts.load(Ordering::Relaxed)),
            ),
            (
                "terminal_crashes".into(),
                Json::UInt(s.terminal_crashes.load(Ordering::Relaxed)),
            ),
            ("admitted".into(), Json::UInt(admitted)),
            ("shed_quota".into(), Json::UInt(shed_quota)),
            ("shed_overload".into(), Json::UInt(shed_overload)),
            ("backlog".into(), Json::UInt(backlog as u64)),
            (
                "in_flight".into(),
                Json::UInt(s.in_flight.load(Ordering::Relaxed)),
            ),
            ("cache_hits".into(), Json::UInt(cache_hits)),
            ("cache_misses".into(), Json::UInt(cache_misses)),
            (
                "cache_corruptions_detected".into(),
                Json::UInt(cache_corruptions),
            ),
            (
                "cache_key_collisions".into(),
                Json::UInt(cache_collisions),
            ),
            ("cache_entries".into(), Json::UInt(cache_entries as u64)),
            (
                "worker_panics_caught".into(),
                Json::UInt(s.pool_counters.panics.load(Ordering::Relaxed)),
            ),
            (
                "worker_timeouts".into(),
                Json::UInt(s.pool_counters.timeouts.load(Ordering::Relaxed)),
            ),
            (
                "workers_reaped".into(),
                Json::UInt(s.pool_counters.reaped.load(Ordering::Relaxed)),
            ),
            (
                "retries".into(),
                Json::UInt(s.pool_counters.retries.load(Ordering::Relaxed)),
            ),
            (
                "attempts_resumed".into(),
                Json::UInt(s.pool_counters.resumed.load(Ordering::Relaxed)),
            ),
            (
                "persisted_entries".into(),
                Json::UInt(store_stats.map_or(0, |t| t.0)),
            ),
            (
                "store_recovered_entries".into(),
                Json::UInt(store_stats.map_or(0, |t| t.1)),
            ),
            (
                "store_truncated_bytes".into(),
                Json::UInt(store_stats.map_or(0, |t| t.2)),
            ),
            (
                "store_dropped_records".into(),
                Json::UInt(store_stats.map_or(0, |t| t.3)),
            ),
            (
                "store_append_errors".into(),
                Json::UInt(store_stats.map_or(0, |t| t.4)),
            ),
            (
                "draining".into(),
                Json::Bool(self.shared.admission.lock().unwrap().draining()),
            ),
        ])
    }

    /// Begin refusing new work (the `/admin/drain` handler); existing work
    /// continues. Use [`Service::drain`] to also stop the pool.
    pub fn start_drain(&self) {
        self.shared.admission.lock().unwrap().start_drain();
    }

    /// True once a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.admission.lock().unwrap().draining()
    }
}

/// The 422 body for a statically-rejected kernel: the standard error
/// envelope plus the full diagnostic list (with machine-readable
/// witnesses) in the same wire format as `bows-run --lint --format json`.
fn lint_reject_body(insts: &[simt_isa::Inst], diags: &[simt_analyze::Diagnostic]) -> String {
    Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("kind".into(), Json::Str("lint_rejected".into())),
            (
                "message".into(),
                Json::Str(
                    "kernel rejected by static analysis: it provably races or cannot terminate"
                        .into(),
                ),
            ),
            (
                "diagnostics".into(),
                crate::json::diagnostics_json(insts, diags),
            ),
        ]),
    )])
    .render()
}

fn error_body(kind: &str, message: &str) -> String {
    Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("kind".into(), Json::Str(kind.into())),
            ("message".into(), Json::Str(message.into())),
        ]),
    )])
    .render()
}

fn refusal_response(r: Refusal) -> Response {
    match r {
        Refusal::Draining => Response {
            status: 503,
            body: error_body("draining", "service is draining; retry another replica"),
            cached: false,
            retry_after: Some(1),
        },
        Refusal::TenantQuota { retry_after_s } => Response {
            status: 429,
            body: error_body("tenant_quota", "tenant is at its in-flight quota"),
            cached: false,
            retry_after: Some(retry_after_s),
        },
        Refusal::Overloaded { retry_after_s } => Response {
            status: 503,
            body: error_body("overloaded", "queue full or estimated wait over bound"),
            cached: false,
            retry_after: Some(retry_after_s),
        },
    }
}

fn worker_loop(s: &Shared) {
    loop {
        let ticket = {
            let mut adm = s.admission.lock().unwrap();
            loop {
                // Shutdown wins over queued work: past the drain deadline
                // the queue's survivors are answered by `drain`, not run.
                if s.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                if let Some(t) = adm.take() {
                    break Some(t);
                }
                let (guard, _) = s
                    .work_cv
                    .wait_timeout(adm, Duration::from_millis(100))
                    .unwrap();
                adm = guard;
            }
        };
        let Some(ticket) = ticket else { return };
        s.in_flight.fetch_add(1, Ordering::AcqRel);
        let started = Instant::now();
        let job = ticket.job;
        let result = execute_supervised(
            &job.req,
            job.id,
            &s.cfg.pool,
            &s.cfg.chaos,
            &s.pool_counters,
        );
        let response = match result {
            JobResult::Ok(body) => {
                {
                    let mut cache = s.cache.lock().unwrap();
                    cache.insert(job.key, job.canon.clone(), body.clone());
                    if s.cfg.chaos.corrupt_insert(job.id) {
                        cache.corrupt_for_chaos(job.key);
                    }
                }
                // Persist after the in-memory insert; the response does
                // not wait on durability semantics beyond the append's
                // own fsync, and an append failure (disk error or an
                // injected torn/short/flipped write) only means the next
                // restart re-simulates this key. Never a wrong body.
                if let Some(store) = &s.store {
                    let mut store = store.lock().unwrap_or_else(|p| p.into_inner());
                    let r = match s.cfg.chaos.store_fault(job.id) {
                        StoreFault::None => store.append(job.key, &job.canon, &body),
                        fault => store.append_faulty(job.key, &job.canon, &body, fault),
                    };
                    if let Err(e) = r {
                        eprintln!("warning: durable store append failed: {e}");
                    }
                }
                s.ok_responses.fetch_add(1, Ordering::Relaxed);
                Response {
                    status: 200,
                    body,
                    cached: false,
                    retry_after: None,
                }
            }
            JobResult::SimError(body) => {
                s.sim_errors.fetch_add(1, Ordering::Relaxed);
                Response {
                    status: 422,
                    body,
                    cached: false,
                    retry_after: None,
                }
            }
            JobResult::TimedOut => {
                s.terminal_timeouts.fetch_add(1, Ordering::Relaxed);
                Response {
                    status: 504,
                    body: error_body(
                        "deadline_exhausted",
                        "every attempt hit its wall deadline",
                    ),
                    cached: false,
                    retry_after: None,
                }
            }
            JobResult::Crashed => {
                s.terminal_crashes.fetch_add(1, Ordering::Relaxed);
                Response {
                    status: 500,
                    body: error_body("worker_crash", "every attempt panicked"),
                    cached: false,
                    retry_after: None,
                }
            }
        };
        // Reply before releasing the slot: see the comment in `submit`.
        let _ = job.reply.send(response);
        let elapsed_ms = started.elapsed().as_millis() as u64;
        s.admission
            .lock()
            .unwrap()
            .release(&ticket.tenant, elapsed_ms);
        s.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VEC_KERNEL_REQ: &str = r#"{"kernel":".kernel inc\n.regs 8\n.params 1\n    ld.param r1, [0]\n    mov r2, %gtid\n    shl r2, r2, 2\n    add r1, r1, r2\n    ld.global r3, [r1]\n    add r3, r3, 1\n    st.global [r1], r3\n    exit\n","tpc":32,"params":[{"buf":32,"fill":5}],"dumps":[[0,4]]}"#;

    fn small_service(chaos: ServiceChaos) -> Service {
        Service::start(ServeConfig {
            workers: 2,
            admission: AdmissionConfig {
                queue_cap: 32,
                tenant_quota: 32,
                max_queue_wait_ms: u64::MAX,
                workers: 2,
            },
            pool: PoolConfig {
                max_retries: 2,
                backoff_base_ms: 1,
                backoff_cap_ms: 4,
                attempt_deadline_ms: 10_000,
                reap_grace_ms: 200,
                checkpoint_every_cycles: 0,
            },
            cache_entries: 16,
            chaos,
            state_dir: None,
        })
    }

    #[test]
    fn cold_then_cached_byte_identical() {
        let svc = small_service(ServiceChaos::off());
        let req = SimRequest::from_json(VEC_KERNEL_REQ).unwrap();
        let cold = svc.submit(req.clone());
        assert_eq!(cold.status, 200);
        assert!(!cold.cached);
        let warm = svc.submit(req);
        assert_eq!(warm.status, 200);
        assert!(warm.cached);
        assert_eq!(cold.body, warm.body, "cache must serve identical bytes");
        assert!(svc.drain(Duration::from_secs(5)));
    }

    #[test]
    fn corrupted_cache_entry_is_resimulated_not_served() {
        // Corrupt every insert: each request re-simulates, yet every body
        // served is correct — corruption costs latency, never correctness.
        crate::pool::install_quiet_panic_hook();
        let svc = small_service(ServiceChaos {
            seed: 5,
            worker_panic_ppm: 0,
            worker_slow_ppm: 0,
            slow_ms: 0,
            cache_corrupt_ppm: 1_000_000,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        });
        let req = SimRequest::from_json(VEC_KERNEL_REQ).unwrap();
        let first = svc.submit(req.clone());
        let second = svc.submit(req);
        assert_eq!(first.status, 200);
        assert_eq!(second.status, 200);
        assert!(!second.cached, "corrupt entry must not serve");
        assert_eq!(first.body, second.body);
        let stats = svc.stats_json();
        assert!(
            stats.get("cache_corruptions_detected").unwrap().as_u64("c").unwrap() >= 1
        );
        assert!(svc.drain(Duration::from_secs(5)));
    }

    #[test]
    fn dirty_drain_answers_stranded_queued_jobs() {
        // One worker, every attempt slowed 400ms: occupy the worker, queue
        // a second job behind it, then drain with a zero timeout. The
        // stranded job's submitter must get a structured 503, not hang.
        let svc = Service::start(ServeConfig {
            workers: 1,
            admission: AdmissionConfig {
                queue_cap: 32,
                tenant_quota: 32,
                max_queue_wait_ms: u64::MAX,
                workers: 1,
            },
            pool: PoolConfig {
                max_retries: 0,
                backoff_base_ms: 1,
                backoff_cap_ms: 4,
                attempt_deadline_ms: 10_000,
                reap_grace_ms: 1_000,
                checkpoint_every_cycles: 0,
            },
            cache_entries: 16,
            state_dir: None,
            chaos: ServiceChaos {
                seed: 1,
                worker_panic_ppm: 0,
                worker_slow_ppm: 1_000_000,
                slow_ms: 400,
                cache_corrupt_ppm: 0,
                store_torn_ppm: 0,
                store_short_ppm: 0,
                store_flip_ppm: 0,
            },
        });
        let req = SimRequest::from_json(VEC_KERNEL_REQ).unwrap();
        let offer = |id: u64| {
            let (tx, rx) = mpsc::channel();
            svc.shared
                .admission
                .lock()
                .unwrap()
                .offer(
                    "t",
                    1,
                    Job {
                        id,
                        key: req.cache_key(),
                        canon: req.canonical(),
                        req: req.clone(),
                        reply: tx,
                    },
                )
                .map_err(|r| format!("{r:?}"))
                .unwrap();
            svc.shared.work_cv.notify_one();
            rx
        };
        let in_flight_rx = offer(0);
        while svc.shared.in_flight.load(Ordering::Acquire) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stranded_rx = offer(1);
        assert!(!svc.drain(Duration::from_millis(0)), "drain must report dirty");
        let stranded = stranded_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("stranded job must be answered, not hang");
        assert_eq!(stranded.status, 503);
        assert!(stranded.body.contains("shutdown"), "body: {}", stranded.body);
        let done = in_flight_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(done.status, 200, "in-flight job still finishes");
    }

    #[test]
    fn drain_refuses_new_work() {
        let svc = small_service(ServiceChaos::off());
        svc.start_drain();
        let req = SimRequest::from_json(VEC_KERNEL_REQ).unwrap();
        let r = svc.submit(req);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("draining"));
        assert!(svc.drain(Duration::from_secs(5)));
    }
}
