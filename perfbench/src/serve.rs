//! The `serve_mix` workload: an in-process `Service` behind its HTTP
//! front end, driven over loopback by two closed-loop clients with a
//! request stream generated from the seed, every response checked against
//! a local oracle computed before timing.

use crate::stats;
use crate::trace::{maybe_span, Tracer};
use crate::{host, permutation, Metrics, Outcome};
use simt_core::{EnergyModel, GpuConfig, SimStats};
use simt_mem::MemStats;
use simt_serve::http::client;
use simt_serve::json::{diagnostics_json, json_string};
use simt_serve::request::run_request_resumable;
use simt_serve::{
    run_request, DurableStore, HttpServer, Json, PoolConfig, RunOutcome, ServeConfig, Service,
    SimRequest,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAXPY: &str = include_str!("../../kernels/saxpy.s");
const SPINLOCK: &str = include_str!("../../kernels/spinlock.s");

/// Closed-loop clients driving the service.
pub const CLIENTS: usize = 2;
/// Service worker threads.
pub const WORKERS: usize = 2;

/// Request classes of the stream. The first five are the classes of the
/// `loadgen` load generator's seeded mix
/// (`crates/simt-serve/src/bin/loadgen.rs`); `LintReject` is added
/// because the service's pre-admission lint is on the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A vector (saxpy) simulation: a 200 carrying its result.
    Vector,
    /// A spin-lock simulation: a 200 carrying its result. Every one
    /// crosses the pool's checkpoint cadence.
    Lock,
    /// A kernel that spins forever; the cycle budget ends it with a
    /// deterministic 422.
    Hang,
    /// A kernel that does not assemble (422 from a worker).
    AsmError,
    /// A body that is not valid JSON or fails validation (400).
    Malformed,
    /// A racy or deadlocking kernel the pre-admission lint rejects (422).
    LintReject,
}

/// Requests of each class in one client's stream per pass: `loadgen`'s
/// shares (55 % vector, 15 % spin-lock, 10 % each hang, assembler error
/// and malformed) of 20 requests, plus lint rejections at the weight of
/// each of its error classes.
pub const PER_CLIENT: &[(Class, usize)] = &[
    (Class::Vector, 11),
    (Class::Lock, 3),
    (Class::Hang, 2),
    (Class::AsmError, 2),
    (Class::Malformed, 2),
    (Class::LintReject, 2),
];

/// Of each simulation class in [`PER_CLIENT`], the requests per client
/// that are cold: the first request for one of that client's distinct
/// [`catalog`] entries. The rest repeat an earlier cold request of the
/// same class, i.e. are cache hits: 8 of 14 simulations (57 %), as in
/// `loadgen`'s own mix, where 58 % (seed 42) and 54 % (seed 1337) of the
/// simulation requests of its 120-request CI runs repeat an earlier one.
pub const COLD_PER_CLIENT: &[(Class, usize)] = &[(Class::Vector, 4), (Class::Lock, 2)];

/// One cold simulation of the catalog.
#[derive(Debug, Clone)]
pub struct Sim {
    /// [`Class::Vector`] or [`Class::Lock`].
    pub class: Class,
    /// Request body.
    pub body: String,
    /// Index of the BOWS-free twin this request pairs with, for the
    /// paper-effect metrics (spin-lock kernels on the GTX480 only).
    pub pair_of: Option<usize>,
}

fn saxpy(gpu: &str, ctas: usize, tpc: usize, bows: bool) -> String {
    let n = ctas * tpc;
    let bows = if bows { "\"bows\":\"adaptive\"," } else { "" };
    format!(
        "{{\"kernel\":{},\"gpu\":\"{gpu}\",\"ctas\":{ctas},\"tpc\":{tpc},{bows}\
         \"params\":[{{\"buf\":{n},\"fill\":1065353216}},{{\"buf\":{n},\"fill\":3}},1073741824,{n}],\
         \"dumps\":[[1,8]],\"tenant\":\"t{ctas}\"}}",
        json_string(SAXPY)
    )
}

fn spinlock(gpu: &str, ctas: usize, tpc: usize, bows: bool) -> String {
    let bows = if bows { "\"bows\":\"adaptive\"," } else { "" };
    format!(
        "{{\"kernel\":{},\"gpu\":\"{gpu}\",\"ctas\":{ctas},\"tpc\":{tpc},{bows}\
         \"params\":[{{\"buf\":1}},{{\"buf\":1}}],\"dumps\":[[1,1]],\"tenant\":\"t{ctas}\"}}",
        json_string(SPINLOCK)
    )
}

/// The fixed set of distinct cold simulations: vector kernels on the
/// `tiny` and `gtx480` presets and spin-lock kernels on the `gtx480`,
/// with and without BOWS. Even entries go to client 0, odd to client 1,
/// so each client gets four vector and two spin-lock entries, and one
/// half of each BOWS pair.
pub fn catalog() -> Vec<Sim> {
    // (spin-lock kernel?, gpu, ctas, threads per CTA, BOWS?)
    const ENTRIES: &[(bool, &str, usize, usize, bool)] = &[
        (false, "tiny", 4, 128, false),
        (false, "tiny", 4, 128, true),
        (false, "tiny", 16, 256, true),
        (false, "tiny", 16, 256, false),
        (false, "gtx480", 60, 256, false),
        (false, "gtx480", 60, 256, true),
        (false, "gtx480", 240, 256, true),
        (false, "gtx480", 240, 256, false),
        (true, "gtx480", 8, 128, false),
        (true, "gtx480", 8, 128, true),
        (true, "gtx480", 15, 64, true),
        (true, "gtx480", 15, 64, false),
    ];
    ENTRIES
        .iter()
        .map(|&(spin, gpu, ctas, tpc, bows)| Sim {
            class: if spin { Class::Lock } else { Class::Vector },
            body: if spin {
                spinlock(gpu, ctas, tpc, bows)
            } else {
                saxpy(gpu, ctas, tpc, bows)
            },
            pair_of: (spin && bows)
                .then(|| {
                    ENTRIES
                        .iter()
                        .position(|e| *e == (spin, gpu, ctas, tpc, false))
                })
                .flatten(),
        })
        .collect()
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Its class.
    pub class: Class,
    /// Whether it repeats an earlier request of the stream (simulation
    /// classes only).
    pub repeat: bool,
    /// Request body.
    pub body: String,
}

impl Item {
    /// The first request for a distinct simulation.
    pub fn is_cold(&self) -> bool {
        matches!(self.class, Class::Vector | Class::Lock) && !self.repeat
    }

    /// Class name, with a `Repeat` suffix on repeats.
    fn label(&self) -> String {
        format!("{:?}{}", self.class, if self.repeat { "Repeat" } else { "" })
    }
}

/// Spins until `[param0] == 1`; the buffer holds 0, so it never exits.
/// The same kernel as `loadgen`'s hang class.
const HANG_KERNEL: &str = "\
.kernel waits_forever
.regs 6
.params 1
    ld.param r1, [0]
SPIN:
    ld.global.volatile r2, [r1]
    setp.eq.s32 p1, r2, 1 !sync
@!p1 bra SPIN !sib !sync
    exit
";

/// A request for [`HANG_KERNEL`] with `loadgen`'s cycle budget.
fn hang_body(client: usize) -> String {
    format!(
        "{{\"kernel\":{},\"tpc\":32,\"params\":[{{\"buf\":1}}],\
         \"timeout_cycles\":120000,\"tenant\":\"hang{client}\"}}",
        json_string(HANG_KERNEL)
    )
}

/// Kernel text that fails to assemble, varied by `r`.
fn junk_kernel(r: u64) -> String {
    match r % 3 {
        0 => format!("this is not assembly {r}"),
        1 => format!(".kernel k{r}\n.regs 4\n    frobnicate r1, r2\n    exit\n"),
        _ => format!(".kernel k{r}\n.regs 4\n    bra NOWHERE_{r}\n    exit\n"),
    }
}

/// A body the front end must refuse with 400, varied by `r`.
fn malformed(r: u64) -> String {
    match r % 4 {
        0 => format!("{{\"kernel\": {r},"),
        1 => format!("{{\"kernel\":{},\"ctas\":0}}", json_string(SAXPY)),
        2 => format!("{{\"kernel\":{},\"gpu\":\"gtx{r}\"}}", json_string(SAXPY)),
        _ => "[1, 2, 3".to_string(),
    }
}

fn lint_body(source: &str, r: u64) -> String {
    format!(
        "{{\"kernel\":{},\"ctas\":2,\"tpc\":64,\"params\":[{{\"buf\":64}},{{\"buf\":64}},{{\"buf\":64}}],\
         \"tenant\":\"lint{r}\"}}",
        json_string(source)
    )
}

/// Client `client`'s request stream for `seed`: the counts of
/// [`PER_CLIENT`] in an order drawn from the seed. Of each simulation
/// class, the first request and [`COLD_PER_CLIENT`]` - 1` more drawn from
/// the seed are cold, one per entry of the client's half of [`catalog`];
/// every other request of that class repeats one of its earlier cold
/// requests.
fn stream(seed: u64, client: usize) -> Vec<Item> {
    use simt_serve::chaos::splitmix64;
    let cat = catalog();
    let seed = splitmix64(seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9));
    let classes: Vec<Class> = PER_CLIENT
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
        .collect();
    let classes: Vec<Class> = permutation(classes.len(), seed)
        .into_iter()
        .map(|i| classes[i])
        .collect();
    let mut r = seed;
    let mut cold = vec![false; classes.len()];
    // Cold bodies of each simulation class, in the order they are sent.
    let mut cold_bodies: HashMap<Class, Vec<&str>> = HashMap::new();
    for &(class, n_cold) in COLD_PER_CLIENT {
        let at: Vec<usize> = (0..classes.len()).filter(|&i| classes[i] == class).collect();
        cold[at[0]] = true;
        r = splitmix64(r);
        for k in permutation(at.len() - 1, r).into_iter().take(n_cold - 1) {
            cold[at[k + 1]] = true;
        }
        let mine: Vec<&str> = cat
            .iter()
            .skip(client)
            .step_by(CLIENTS)
            .filter(|s| s.class == class)
            .map(|s| s.body.as_str())
            .collect();
        r = splitmix64(r);
        cold_bodies.insert(
            class,
            permutation(mine.len(), r).into_iter().map(|i| mine[i]).collect(),
        );
    }
    let bad: Vec<_> = workloads::racy::RACY_FIXTURES
        .iter()
        .filter(|f| f.is_bad())
        .collect();
    let mut emitted: HashMap<Class, Vec<&str>> = HashMap::new();
    classes
        .into_iter()
        .zip(cold)
        .map(|(class, cold)| {
            r = splitmix64(r);
            let (repeat, body) = match class {
                Class::Vector | Class::Lock => {
                    let sent = emitted.entry(class).or_default();
                    if cold {
                        let body = cold_bodies[&class][sent.len()];
                        sent.push(body);
                        (false, body.to_string())
                    } else {
                        (true, sent[(r % sent.len() as u64) as usize].to_string())
                    }
                }
                Class::Hang => (false, hang_body(client)),
                Class::AsmError => (
                    false,
                    format!(
                        "{{\"kernel\":{},\"tenant\":\"asm\"}}",
                        json_string(&junk_kernel(r % 1000))
                    ),
                ),
                Class::Malformed => (false, malformed(r % 1000)),
                Class::LintReject => (
                    false,
                    lint_body(bad[(r % bad.len() as u64) as usize].source, r % 1000),
                ),
            };
            Item {
                class,
                repeat,
                body,
            }
        })
        .collect()
}

/// What a correct service must answer for one body.
#[derive(Debug, Clone)]
enum Expect {
    /// This status and exactly this body (simulations and assembler
    /// errors, from [`run_request`]).
    Exact { status: u16, body: String },
    /// A 422 `lint_rejected` carrying exactly these diagnostics.
    Lint { diagnostics: String },
    /// A 400.
    BadRequest,
}

/// Simulated work of one successful body.
#[derive(Debug, Clone, Default)]
struct Work {
    /// The counters the response carries (`cycles` included).
    sim: SimStats,
    /// The memory counters the response carries.
    mem: MemStats,
    /// Dynamic energy from those counters, joules.
    dynamic_j: f64,
}

/// Read the simulator's counters out of a success body and price them
/// with the default energy model of `gpu`.
fn work_of(body: &str, gpu: &GpuConfig) -> Work {
    let Ok(j) = Json::parse(body) else {
        return Work::default();
    };
    let (Ok(s), Ok(m)) = (j.get("sim"), j.get("mem")) else {
        return Work::default();
    };
    let u = |o: &Json, k: &str| o.get(k).and_then(|v| v.as_u64(k)).unwrap_or(0);
    let sim = SimStats {
        cycles: u(&j, "cycles"),
        issued_inst: u(s, "issued_inst"),
        thread_inst: u(s, "thread_inst"),
        sync_thread_inst: u(s, "sync_thread_inst"),
        sib_inst: u(s, "sib_inst"),
        barriers: u(s, "barriers"),
        atomic_inst: u(s, "atomic_inst"),
        load_inst: u(s, "load_inst"),
        store_inst: u(s, "store_inst"),
        ctas_completed: u(s, "ctas_completed"),
        ..SimStats::default()
    };
    let mem = MemStats {
        l1_accesses: u(m, "l1_accesses"),
        l1_hits: u(m, "l1_hits"),
        l2_accesses: u(m, "l2_accesses"),
        l2_hits: u(m, "l2_hits"),
        dram_reads: u(m, "dram_reads"),
        dram_writes: u(m, "dram_writes"),
        atomic_transactions: u(m, "atomic_transactions"),
        atomic_lane_ops: u(m, "atomic_lane_ops"),
        total_transactions: u(m, "total_transactions"),
        sync_transactions: u(m, "sync_transactions"),
        lock_success: u(m, "lock_success"),
        lock_intra_fail: u(m, "lock_intra_fail"),
        lock_inter_fail: u(m, "lock_inter_fail"),
        ..MemStats::default()
    };
    let dynamic_j = EnergyModel::default()
        .evaluate(&sim, &mem, gpu.num_sms, gpu.core_clock_mhz)
        .dynamic_j();
    Work {
        sim,
        mem,
        dynamic_j,
    }
}

/// The expected answer for every distinct body of the streams, and the
/// simulated work of each success, computed locally before timing with
/// the same execution function the service workers run.
pub struct Oracle {
    expect: HashMap<String, Expect>,
    work: HashMap<String, Work>,
}

impl Oracle {
    /// Build the oracle for `streams`.
    pub fn build(streams: &[Vec<Item>]) -> Oracle {
        let mut o = Oracle {
            expect: HashMap::new(),
            work: HashMap::new(),
        };
        o.extend(streams);
        o
    }

    /// Add the bodies of `streams` the oracle has not seen yet.
    pub fn extend(&mut self, streams: &[Vec<Item>]) {
        let Oracle { expect, work } = self;
        for item in streams.iter().flatten() {
            if expect.contains_key(&item.body) {
                continue;
            }
            let e = match item.class {
                Class::Malformed => Expect::BadRequest,
                Class::LintReject => {
                    let req = SimRequest::from_json(&item.body).expect("lint body parses");
                    let raw = simt_isa::asm::assemble_raw(&req.kernel).expect("fixture assembles");
                    let a = simt_analyze::analyze_insts(&raw.insts);
                    Expect::Lint {
                        diagnostics: diagnostics_json(&raw.insts, &a.diagnostics).render(),
                    }
                }
                Class::Vector | Class::Lock | Class::Hang | Class::AsmError => {
                    let req = SimRequest::from_json(&item.body).expect("generated body parses");
                    match run_request(&req, None) {
                        RunOutcome::Ok(body) => {
                            work.insert(item.body.clone(), work_of(&body, &req.gpu_config()));
                            Expect::Exact { status: 200, body }
                        }
                        RunOutcome::SimError(body) => Expect::Exact { status: 422, body },
                        RunOutcome::Cancelled => unreachable!("no cancel token"),
                    }
                }
            };
            expect.insert(item.body.clone(), e);
        }
    }

    /// Check one response; `Err` describes the mismatch.
    pub fn check(&self, item: &Item, status: u16, body: &str) -> Result<(), String> {
        match self.expect.get(&item.body) {
            Some(Expect::Exact { status: s, body: b }) => {
                if status != *s {
                    return Err(format!("status {status}, expected {s}: {body}"));
                }
                if body != b {
                    return Err("body differs from the local run_request oracle".into());
                }
                Ok(())
            }
            Some(Expect::Lint { diagnostics }) => {
                let got = Json::parse(body)
                    .ok()
                    .and_then(|j| j.get("error").ok().cloned())
                    .filter(|e| e.get("kind").ok() == Some(&Json::Str("lint_rejected".into())))
                    .and_then(|e| e.get("diagnostics").ok().map(Json::render));
                match (status, got) {
                    (422, Some(d)) if d == *diagnostics => Ok(()),
                    _ => Err(format!(
                        "expected a 422 lint_rejected, got {status}: {body}"
                    )),
                }
            }
            Some(Expect::BadRequest) if status == 400 => Ok(()),
            Some(Expect::BadRequest) => Err(format!("expected 400, got {status}: {body}")),
            None => Err("no oracle entry".into()),
        }
    }

    /// Simulated work of a success request (zero for anything else).
    fn work(&self, body: &str) -> Work {
        self.work.get(body).cloned().unwrap_or_default()
    }

    /// Geomean GTO → GTO+BOWS (time speedup, dynamic-energy saving) over
    /// the catalog's spin-lock pairs.
    fn bows_gain(&self) -> (f64, f64) {
        let cat = catalog();
        let mut time = Vec::new();
        let mut energy = Vec::new();
        for s in &cat {
            if let Some(base) = s.pair_of {
                let b = self.work(&cat[base].body);
                let w = self.work(&s.body);
                time.push(b.sim.cycles.max(1) as f64 / w.sim.cycles.max(1) as f64);
                energy.push(b.dynamic_j.max(1e-18) / w.dynamic_j.max(1e-18));
            }
        }
        (stats::geomean(&time), stats::geomean(&energy))
    }
}

/// A scratch directory under `.bench_out/tmp` in the working directory,
/// unique to this process and `tag`.
fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(".bench_out")
        .join("tmp")
        .join(format!("{}-{tag}", std::process::id()))
}

/// Remove a scratch directory, and `.bench_out/tmp` once it is empty.
fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn serve_config(state_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        pool: PoolConfig::default(),
        state_dir: Some(state_dir),
        ..ServeConfig::default()
    }
}

/// Stop the HTTP front end and drain the service. Connection handlers
/// release their service handles just after replying, so wait for the
/// last of them before draining.
fn shutdown(server: HttpServer, service: Arc<Service>) {
    server.stop();
    let mut svc = service;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(svc) {
            Ok(s) => {
                s.drain(Duration::from_secs(10));
                return;
            }
            Err(back) if Instant::now() < deadline => {
                svc = back;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return,
        }
    }
}

/// One response as a client saw it.
struct Answer {
    ms: f64,
    result: Result<(), String>,
    hit: bool,
}

/// One untraced pass: fresh service and store, both clients run their
/// streams to completion.
struct Pass {
    /// `Service::start` (with store open) plus `HttpServer::serve`, s.
    setup_s: f64,
    /// Both streams, first request sent to last response received, s.
    wall_s: f64,
    /// Process on-CPU seconds over `wall_s`.
    cpu_s: f64,
    /// The clients' request streams.
    streams: Vec<Vec<Item>>,
    answers: Vec<(usize, usize, Answer)>,
}

impl Pass {
    fn item(&self, c: usize, i: usize) -> &Item {
        &self.streams[c][i]
    }
}

fn run_pass(streams: Vec<Vec<Item>>, oracle: &Oracle, tag: &str) -> Pass {
    let dir = scratch_dir(tag);
    let t0 = Instant::now();
    let service = Arc::new(Service::start(serve_config(dir.clone())));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
    let setup_s = t0.elapsed().as_secs_f64();
    let addr = server.addr().to_string();
    let cpu0 = host::process_cpu_s();
    let t1 = Instant::now();
    let answers: Vec<Vec<Answer>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|items| {
                let addr = &addr;
                s.spawn(move || {
                    items
                        .iter()
                        .map(|item| {
                            let t = Instant::now();
                            let resp = client::post(addr, "/simulate", &item.body);
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            match resp {
                                Ok(r) => Answer {
                                    ms,
                                    result: oracle.check(item, r.status, &r.body),
                                    hit: r.x_cache.as_deref() == Some("HIT"),
                                },
                                Err(e) => Answer {
                                    ms,
                                    result: Err(format!("transport: {e}")),
                                    hit: false,
                                },
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    shutdown(server, service);
    remove_scratch(&dir);
    Pass {
        setup_s,
        wall_s,
        cpu_s,
        streams,
        answers: answers
            .into_iter()
            .enumerate()
            .flat_map(|(c, v)| v.into_iter().enumerate().map(move |(i, a)| (c, i, a)))
            .collect(),
    }
}

/// Both clients' streams for pass `pass` of a run with seed `seed`. Each
/// pass reorders the same mix, so a run's median spans many orderings.
pub fn streams(seed: u64, pass: u64) -> Vec<Vec<Item>> {
    let seed = simt_serve::chaos::splitmix64(seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f));
    (0..CLIENTS).map(|c| stream(seed, c)).collect()
}

fn failures_of(pass_no: usize, pass: &Pass) -> Vec<String> {
    pass.answers
        .iter()
        .filter_map(|(c, i, a)| {
            a.result.as_ref().err().map(|e| {
                format!(
                    "serve_mix pass {pass_no} client {c} request {i} ({}): {e}",
                    pass.item(*c, *i).label()
                )
            })
        })
        .collect()
}

/// The untraced measurement: passes until `seconds` would be exceeded
/// (at least one), every response checked, metrics the median over passes.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut oracle = Oracle::build(&streams(seed, 0));
    let (time_gain, energy_gain) = oracle.bows_gain();
    let refs = crate::digest::Expected::committed().paper;
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut failures = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        let t = Instant::now();
        let s = streams(seed, passes.len() as u64);
        oracle.extend(&s);
        let p = run_pass(s, &oracle, &format!("pass{}", passes.len()));
        failures.extend(failures_of(passes.len(), &p));
        if passes.is_empty() {
            peak_rss_mib = host::peak_rss_mib();
        }
        passes.push(p);
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        stats::median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let lat = |p: &Pass| p.answers.iter().map(|(_, _, a)| a.ms).collect::<Vec<_>>();
    let tails: Vec<stats::Tail> = passes.iter().filter_map(|p| stats::tail(&lat(p))).collect();
    let work = |p: &Pass| {
        p.answers
            .iter()
            .filter(|(c, i, a)| a.result.is_ok() && p.item(*c, *i).is_cold())
            .map(|(c, i, _)| oracle.work(&p.streams[*c][*i].body))
            .fold((0u64, 0u64), |(c, i), w| {
                (c + w.sim.cycles, i + w.sim.issued_inst)
            })
    };
    let mut m = Metrics::default();
    m.set("wall_s", per_pass(&|p| p.wall_s));
    m.set(
        "sim_cycles_per_s",
        per_pass(&|p| work(p).0 as f64 / p.wall_s),
    );
    m.set(
        "warp_insts_per_s",
        per_pass(&|p| work(p).1 as f64 / p.wall_s),
    );
    m.set("setup_s", per_pass(&|p| p.setup_s));
    m.set("peak_rss_mib", peak_rss_mib);
    m.set(
        "paper_time_err_pct",
        stats::paper_err_pct(time_gain, refs.time_speedup),
    );
    m.set(
        "paper_energy_err_pct",
        stats::paper_err_pct(energy_gain, refs.energy_saving),
    );
    m.set(
        "req_p50_ms",
        per_pass(&|p| stats::hd_quantile(&lat(p), 0.5).unwrap_or(0.0)),
    );
    m.set(
        "req_tail_ms",
        stats::median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    m.set(
        "req_per_s",
        per_pass(&|p| p.answers.len() as f64 / p.wall_s),
    );
    let attempted: u64 = passes.iter().map(|p| p.answers.len() as u64).sum();
    m.set(
        "ok_share",
        (attempted - failures.len() as u64) as f64 / attempted as f64,
    );
    let hits: usize = passes
        .iter()
        .map(|p| p.answers.iter().filter(|a| a.2.hit).count())
        .sum();
    let tail_note = tails
        .first()
        .map_or("no tail: too few requests".to_string(), |t| {
            format!(
                "Harrell-Davis p{:.1} of {} request latencies per pass",
                t.percentile, t.samples
            )
        });
    let mut class_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for p in &passes {
        for (c, i, a) in &p.answers {
            class_ms.entry(p.item(*c, *i).label()).or_default().push(a.ms);
        }
    }
    let notes = vec![
        format!(
            "paper: spin-lock pairs' GTO->BOWS time speedup {time_gain:.4}x vs Figure 9 {}x; \
             dynamic-energy saving {energy_gain:.4}x vs {}x",
            refs.time_speedup, refs.energy_saving
        ),
        format!("req_tail_ms is the {tail_note}"),
        format!(
            "{} passes, {CLIENTS} closed-loop clients, {WORKERS} workers, {hits} cache hits",
            passes.len()
        ),
    ];
    Outcome {
        metrics: m,
        attempted,
        failures,
        notes,
        record: vec![
            (
                "passes".into(),
                Json::Arr(
                    passes
                        .iter()
                        .map(|p| crate::pass_json(p.setup_s, p.wall_s, p.cpu_s))
                        .collect(),
                ),
            ),
            ("bows_time_speedup".into(), Json::Num(time_gain)),
            ("bows_energy_saving".into(), Json::Num(energy_gain)),
            ("req_tail".into(), Json::Str(tail_note)),
            (
                "class_latency_ms".into(),
                Json::Obj(
                    class_ms
                        .into_iter()
                        .map(|(label, ms)| {
                            (
                                label,
                                Json::Obj(vec![
                                    (
                                        "median".into(),
                                        Json::Num(stats::median(&ms).unwrap_or(0.0)),
                                    ),
                                    (
                                        "max".into(),
                                        Json::Num(ms.iter().copied().fold(0.0, f64::max)),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ],
        spans: Vec::new(),
    }
}

/// The serial layer-by-layer walk of the traced run, over the same
/// bodies as the untraced streams (client 0's then client 1's). Each body
/// is parsed, linted, posted over HTTP to service A, submitted in-process
/// to service B, and — for cold simulations — run by `run_request`, by
/// `run_request_resumable` at the pool's checkpoint cadence, and appended
/// to a scratch `DurableStore`. Returns failures and service A's stats.
fn layer_walk(
    streams: &[Vec<Item>],
    oracle: &Oracle,
    tracer: Option<&Tracer>,
    tag: &str,
) -> (Vec<String>, Json) {
    let dir = scratch_dir(tag);
    let (service_a, server, service_b, mut store) =
        maybe_span(tracer, "simt_serve.start", 0, || {
            let a = Arc::new(Service::start(serve_config(dir.join("a"))));
            let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&a)).expect("bind loopback");
            let b = Service::start(serve_config(dir.join("b")));
            let (store, _) = DurableStore::open(&dir.join("c")).expect("scratch store opens");
            (a, server, b, store)
        });
    let addr = server.addr().to_string();
    let cadence = PoolConfig::default().checkpoint_every_cycles;
    let mut failures = Vec::new();
    for (id, item) in streams.iter().flatten().enumerate() {
        let id = id as u64;
        // Everything wrong with one request, reported as one failure.
        let mut problems: Vec<String> = Vec::new();
        maybe_span(tracer, "bench.request", id, || {
            let parsed = maybe_span(tracer, "simt_serve.parse", id, || {
                SimRequest::from_json(&item.body)
            });
            if let Ok(req) = &parsed {
                let _ = maybe_span(tracer, "simt_analyze.lint", id, || {
                    simt_isa::asm::assemble_raw(&req.kernel)
                        .map(|raw| simt_analyze::analyze_insts(&raw.insts).has_errors())
                });
            }
            let resp = maybe_span(tracer, "simt_serve.post", id, || {
                client::post(&addr, "/simulate", &item.body)
            });
            match resp {
                Ok(r) => problems.extend(oracle.check(item, r.status, &r.body).err()),
                Err(e) => problems.push(format!("transport: {e}")),
            }
            let Ok(req) = parsed else { return };
            let r = maybe_span(tracer, "simt_serve.submit", id, || {
                service_b.submit(req.clone())
            });
            problems.extend(
                oracle
                    .check(item, r.status, &r.body)
                    .err()
                    .map(|e| format!("submit: {e}")),
            );
            if !item.is_cold() {
                return;
            }
            maybe_span(tracer, "simt_serve.run_request", id, || {
                run_request(&req, None)
            });
            let slot = simt_serve::request::CheckpointSlot::default();
            let out = maybe_span(tracer, "simt_snap.run_resumable", id, || {
                run_request_resumable(&req, None, 0, cadence, Some(&slot))
            });
            if let RunOutcome::Ok(body) = out {
                let canon = req.canonical();
                let commit = maybe_span(tracer, "simt_serve.store_commit", id, || {
                    store.append(req.cache_key(), &canon, &body)
                });
                problems.extend(commit.err().map(|e| format!("store commit: {e}")));
            }
        });
        if !problems.is_empty() {
            failures.push(format!(
                "serve_mix traced request {id} ({}): {}",
                item.label(),
                problems.join("; ")
            ));
        }
    }
    let stats = service_a.stats_json();
    shutdown(server, service_a);
    service_b.drain(Duration::from_secs(10));
    drop(store);
    remove_scratch(&dir);
    (failures, stats)
}

/// The traced run: a discarded warm-up layer walk, one timed untraced
/// walk, then one traced walk, so `trace_overhead` compares two warm
/// walks. Per-layer metrics come from the traced walk.
pub fn traced(seed: u64) -> Outcome {
    let streams = streams(seed, 0);
    let oracle = Oracle::build(&streams);
    let (mut failures, _) = layer_walk(&streams, &oracle, None, "warmup");
    let t = Instant::now();
    let (f1, _) = layer_walk(&streams, &oracle, None, "untraced");
    let untraced_s = t.elapsed().as_secs_f64();
    failures.extend(f1);
    let tracer = Tracer::new();
    let (f2, stats) = tracer.span("bench.pass", 0, || {
        layer_walk(&streams, &oracle, Some(&tracer), "traced")
    });
    failures.extend(f2);
    let spans = tracer.spans();
    let traced_s = spans[0].end_ns.saturating_sub(spans[0].start_ns) as f64 * 1e-9;
    let selfs = crate::trace::self_seconds_by_name(&spans);
    let totals = crate::trace::total_seconds_by_name(&spans);
    let tot = |n: &str| totals.get(n).copied().unwrap_or(0.0);
    let mut m = Metrics::default();
    m.set_spans(&selfs, traced_s);
    m.set("trace_overhead", traced_s / untraced_s);
    m.set(
        "simt_serve.http_s",
        tot("simt_serve.post") - tot("simt_serve.submit"),
    );
    m.set(
        "simt_snap.checkpoint_s",
        tot("simt_snap.run_resumable") - tot("simt_serve.run_request"),
    );
    let stat = |k: &str| stats.get(k).and_then(|v| v.as_u64(k)).unwrap_or(0);
    let (hits, misses) = (stat("cache_hits"), stat("cache_misses"));
    m.set(
        "simt_serve.cache_hit_share",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    m.set("simt_serve.admitted", stat("admitted") as f64);
    m.set(
        "simt_serve.shed",
        (stat("shed_quota") + stat("shed_overload")) as f64,
    );
    m.set("simt_serve.retries", stat("retries") as f64);
    m.set(
        "simt_serve.persisted_entries",
        stat("persisted_entries") as f64,
    );
    m.set(
        "simt_analyze.lint_rejections",
        stat("lint_rejections") as f64,
    );
    // The simulator's exact counters over the distinct cold simulations.
    let mut sim = SimStats::default();
    let mut mem = MemStats::default();
    for s in catalog() {
        let w = oracle.work(&s.body);
        sim.add(&w.sim);
        mem.add(&w.mem);
    }
    m.set_counts(&sim, &mem, None);
    let attempted = 3 * streams.iter().map(Vec::len).sum::<usize>() as u64;
    Outcome {
        metrics: m,
        attempted,
        failures,
        notes: vec![format!(
            "traced walk {traced_s:.3}s vs untraced {untraced_s:.3}s (serial); \
             serve counters from /stats: {}",
            stats.render()
        )],
        record: vec![("service_stats".into(), stats)],
        spans,
    }
}
