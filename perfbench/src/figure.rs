//! The figure workloads: a paper figure grid of (kernel × scheduler) cells
//! run through `workloads`, `simt-core` and `experiments` exactly as the
//! figure binaries run them, with every cell's output checked against its
//! committed digest.

use crate::digest::{cell_digest, Expected, StageOut};
use crate::stats;
use crate::trace::{maybe_span, Tracer};
use crate::{host, permutation, Metrics, Outcome};
use bows::DdosConfig;
use experiments::SchedConfig;
use simt_core::{BasePolicy, Gpu, GpuConfig, KernelReport, ProfileReport, SimStats};
use simt_isa::{DecodedKernel, Kernel};
use simt_mem::MemStats;
use simt_serve::Json;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Scale, Workload};

/// Which kernel suite a figure workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The eight busy-wait kernels (Figure 9's GTO pair).
    Sync,
    /// The fourteen sync-free Rodinia analogs.
    SyncFree,
}

impl Suite {
    /// Workload name on the command line.
    pub fn workload_name(self) -> &'static str {
        match self {
            Suite::Sync => "sync_fermi",
            Suite::SyncFree => "syncfree_fermi",
        }
    }

    /// The suite's workloads at `scale`.
    pub fn build(self, scale: Scale) -> Vec<Box<dyn Workload>> {
        match self {
            Suite::Sync => workloads::sync_suite(scale),
            Suite::SyncFree => workloads::rodinia_suite(scale),
        }
    }
}

/// The two scheduler configurations of every cell: GTO, and GTO wrapped
/// in adaptive BOWS with default (XOR) DDOS.
pub fn configs() -> [SchedConfig; 2] {
    [
        SchedConfig::baseline(BasePolicy::Gto),
        SchedConfig::bows_adaptive(BasePolicy::Gto),
    ]
}

/// The GPU every cell runs on: the GTX480 preset, serial SMs.
fn gpu_config(profile: bool) -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.sm_threads = 1;
    cfg.profile = profile;
    cfg
}

/// One finished (kernel × config) cell.
pub struct Cell {
    /// Position in canonical (suite × config) order.
    pub index: usize,
    /// `workload/kernel/config`, the digest key.
    pub name: String,
    /// Per-stage reports (empty when the simulator returned an error).
    pub reports: Vec<KernelReport>,
    /// Ground-truth spin branches per stage.
    pub true_sibs: Vec<Vec<usize>>,
    /// Digest over cycles, stats and final device memory.
    pub digest: u64,
    /// The workload's own verification, or the simulator error.
    pub verified: Result<(), String>,
    /// Host seconds inside `Gpu::run` for this cell.
    pub run_s: f64,
    /// Host seconds to simulate, verify and digest this cell.
    pub wall_s: f64,
    /// The median time of this cell's [`SETUP_REPS`] set-ups, seconds.
    pub setup_s: f64,
}

impl Cell {
    /// Simulated cycles over all stages.
    pub fn cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).sum()
    }

    /// Dynamic energy over all stages, joules.
    pub fn dynamic_j(&self) -> f64 {
        self.reports.iter().map(|r| r.energy.dynamic_j()).sum()
    }

    /// Issued warp instructions over all stages.
    pub fn issued_inst(&self) -> u64 {
        self.reports.iter().map(|r| r.sim.issued_inst).sum()
    }
}

/// One pass over the cells of the grid: every cell, or, for a pass cut
/// short by [`run_pass_while`], the cells that ran before the cut.
pub struct Pass {
    /// Suite construction plus, for every cell, the median time of its
    /// [`SETUP_REPS`] set-ups (`Gpu::new` and `Workload::prepare`),
    /// seconds.
    pub setup_s: f64,
    /// Simulation, verification and digests of every cell, seconds.
    pub wall_s: f64,
    /// Process on-CPU seconds over the same intervals as `wall_s`.
    pub cpu_s: f64,
    /// Suite construction, seconds.
    pub suite_s: f64,
    /// The cells that ran, in canonical (suite × config) order.
    pub cells: Vec<Cell>,
}

/// Set-ups of each cell per pass. A pass counts the median set-up time of
/// each cell, so `setup_s` is a median even when a run has time for one
/// pass only.
pub const SETUP_REPS: usize = 3;

/// Run every cell once, serially, in an order permuted by `order_seed`:
/// prepare it [`SETUP_REPS`] times (the median time goes into
/// `setup_s`), simulate the last set-up, verify and digest its output,
/// then drop its GPU. A `tracer` records a span around each call
/// into a layer; `profile` turns on the simulator's phase profiler.
pub fn run_pass(
    suite: Suite,
    scale: Scale,
    order_seed: u64,
    tracer: Option<&Tracer>,
    profile: bool,
) -> Pass {
    run_pass_while(suite, scale, order_seed, tracer, profile, &mut |_| true)
}

/// [`run_pass`], asking `go_on` with each cell's canonical index before
/// the cell starts; the pass ends at the first `false`.
pub fn run_pass_while(
    suite: Suite,
    scale: Scale,
    order_seed: u64,
    tracer: Option<&Tracer>,
    profile: bool,
    go_on: &mut dyn FnMut(usize) -> bool,
) -> Pass {
    let t0 = Instant::now();
    let wls = maybe_span(tracer, "workloads.suite", 0, || suite.build(scale));
    let suite_s = t0.elapsed().as_secs_f64();
    let mut setup_s = suite_s;
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let scheds = configs();
    let cfg = gpu_config(profile);
    let rotate = cfg.gto_rotate_period;
    let warps = cfg.warps_per_sm();
    let n = wls.len() * scheds.len();
    let mut cells: Vec<Option<Cell>> = (0..n).map(|_| None).collect();
    for ci in permutation(n, order_seed) {
        if !go_on(ci) {
            break;
        }
        let id = ci as u64;
        let wl = &wls[ci / scheds.len()];
        let sched = scheds[ci % scheds.len()];
        // Set the cell up SETUP_REPS times, count the median time and
        // simulate the last set-up.
        let mut times = [0.0; SETUP_REPS];
        let mut cell = None;
        for time in &mut times {
            drop(cell.take());
            let t = Instant::now();
            cell = Some(maybe_span(tracer, "workloads.prepare", id, || {
                let mut gpu = Gpu::new(cfg.clone());
                let p = wl.prepare(&mut gpu);
                (gpu, p)
            }));
            *time = t.elapsed().as_secs_f64();
        }
        let cell_setup_s = stats::median(&times).unwrap_or(0.0);
        setup_s += cell_setup_s;
        let (mut gpu, prepared) = cell.expect("set up at least once");

        let t_cell = Instant::now();
        let cpu0 = host::process_cpu_s();
        let policy = bows::policy_factory(sched.base, sched.bows, rotate);
        let ddos = bows::ddos_factory(DdosConfig::default(), warps);
        let static_sibs = |k: &Kernel| -> Box<dyn simt_core::SpinDetector> {
            if k.true_sibs.is_empty() {
                Box::new(simt_core::NullDetector)
            } else {
                Box::new(simt_core::StaticSibDetector::new(k.true_sibs.clone()))
            }
        };
        let t = Instant::now();
        let mut reports = Vec::with_capacity(prepared.stages.len());
        let mut error = None;
        for st in &prepared.stages {
            if tracer.is_some() {
                maybe_span(tracer, "simt_isa.decode", id, || {
                    DecodedKernel::decode(&st.kernel)
                });
            }
            let r = maybe_span(tracer, "simt_core.run", id, || {
                if sched.bows.is_some() {
                    gpu.run(&st.kernel, &st.launch, &*policy, &*ddos)
                } else {
                    gpu.run(&st.kernel, &st.launch, &*policy, &static_sibs)
                }
            });
            match r {
                Ok(rep) => reports.push(rep),
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
        }
        let run_s = t.elapsed().as_secs_f64();
        let verified = match error {
            Some(e) => Err(format!("simulator error: {e}")),
            None => maybe_span(tracer, "workloads.verify", id, || (prepared.verify)(&gpu)),
        };
        let outs: Vec<StageOut<'_>> = reports
            .iter()
            .map(|r| StageOut {
                cycles: r.cycles,
                sim: &r.sim,
                mem: &r.mem,
            })
            .collect();
        let digest = cell_digest(&outs, gpu.mem().gmem().image());
        let cell_wall_s = t_cell.elapsed().as_secs_f64();
        wall_s += cell_wall_s;
        cpu_s += host::process_cpu_s() - cpu0;
        cells[ci] = Some(Cell {
            index: ci,
            name: format!("{}/{}/{}", suite.workload_name(), wl.name(), sched.label()),
            reports,
            true_sibs: prepared
                .stages
                .iter()
                .map(|s| s.kernel.true_sibs.clone())
                .collect(),
            digest,
            verified,
            run_s,
            wall_s: cell_wall_s,
            setup_s: cell_setup_s,
        });
    }
    Pass {
        setup_s,
        wall_s,
        cpu_s,
        suite_s,
        cells: cells.into_iter().flatten().collect(),
    }
}

/// Failures of a pass: each cell whose own verification failed or whose
/// digest differs from the committed one, first failure first.
fn check_pass(pass: &Pass, expected: &Expected) -> Vec<String> {
    let mut out = Vec::new();
    for c in &pass.cells {
        if let Err(e) = &c.verified {
            out.push(format!("{}: verification failed: {e}", c.name));
        } else if let Err(e) = expected.check(&c.name, c.digest) {
            out.push(e);
        }
    }
    out
}

/// Geomean GTO → GTO+BOWS (time speedup, dynamic-energy saving) over the
/// pass's kernels. Cells are in canonical order: config varies fastest.
fn bows_gain(pass: &Pass) -> (f64, f64) {
    let mut time = Vec::new();
    let mut energy = Vec::new();
    for pair in pass.cells.chunks(2) {
        time.push(pair[0].cycles().max(1) as f64 / pair[1].cycles().max(1) as f64);
        energy.push(pair[0].dynamic_j().max(1e-18) / pair[1].dynamic_j().max(1e-18));
    }
    (stats::geomean(&time), stats::geomean(&energy))
}

/// Whole-pass totals of the simulator's exact counters.
struct Totals {
    cycles: u64,
    sim: SimStats,
    mem: MemStats,
    profile: ProfileReport,
    confirmed_sibs: u64,
    false_detections: u64,
}

fn totals(pass: &Pass) -> Totals {
    let mut t = Totals {
        cycles: 0,
        sim: SimStats::default(),
        mem: MemStats::default(),
        profile: ProfileReport::default(),
        confirmed_sibs: 0,
        false_detections: 0,
    };
    for c in &pass.cells {
        for (r, sibs) in c.reports.iter().zip(&c.true_sibs) {
            t.cycles += r.cycles;
            t.sim.add(&r.sim);
            t.mem.add(&r.mem);
            if let Some(p) = &r.profile {
                t.profile.add(p);
            }
            t.confirmed_sibs += r.confirmed_sibs.len() as u64;
            t.false_detections += r
                .confirmed_sibs
                .iter()
                .filter(|(pc, _)| !sibs.contains(pc))
                .count() as u64;
        }
    }
    t
}

fn pass_record(p: &Pass) -> Json {
    let mut j = crate::pass_json(p.setup_s, p.wall_s, p.cpu_s);
    if let Json::Obj(fields) = &mut j {
        fields.push(("suite_s".into(), Json::Num(p.suite_s)));
        fields.push(("cells".into(), Json::UInt(p.cells.len() as u64)));
    }
    j
}

/// The untraced measurement. The first pass runs every cell. Later passes,
/// each in another seeded order, go on while the next cell, at the time
/// its last run took, would end within `seconds`; so a run measures for
/// about `seconds`, and its last pass stops partway. Every cell run is
/// checked. A cell's host times are the medians over its runs, and a
/// pass's time is the sum of its cells' times: that uses every measured
/// second, where whole passes alone would leave up to a pass's time of
/// the run unmeasured.
pub fn measure(suite: Suite, seed: u64, seconds: f64) -> Outcome {
    let expected = Expected::committed();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut failures = Vec::new();
    let mut peak_rss_mib = 0.0;
    // Host seconds the last run of each cell took, set-ups included.
    let mut last_s: Vec<f64> = Vec::new();
    loop {
        let first = passes.is_empty();
        let p = run_pass_while(
            suite,
            Scale::Small,
            seed ^ ((passes.len() as u64) << 32),
            None,
            false,
            &mut |ci| first || start.elapsed().as_secs_f64() + last_s[ci] <= seconds,
        );
        failures.extend(check_pass(&p, &expected));
        if first {
            peak_rss_mib = host::peak_rss_mib();
            last_s = vec![0.0; p.cells.len()];
        }
        for c in &p.cells {
            last_s[c.index] = c.wall_s + SETUP_REPS as f64 * c.setup_s;
        }
        let whole = p.cells.len() == last_s.len();
        if !p.cells.is_empty() {
            passes.push(p);
        }
        if !whole {
            break;
        }
    }
    let mut runs: Vec<Vec<&Cell>> = vec![Vec::new(); last_s.len()];
    for c in passes.iter().flat_map(|p| &p.cells) {
        runs[c.index].push(c);
    }
    let cell_median = |f: fn(&Cell) -> f64| -> Vec<f64> {
        runs.iter()
            .map(|r| stats::median(&r.iter().map(|c| f(c)).collect::<Vec<_>>()).unwrap_or(0.0))
            .collect()
    };
    let cells_ms = cell_median(|c| c.run_s * 1e3);
    let wall_s: f64 = cell_median(|c| c.wall_s).iter().sum();
    let suite_s = stats::median(&passes.iter().map(|p| p.suite_s).collect::<Vec<_>>());
    let setup_s = suite_s.unwrap_or(0.0) + cell_median(|c| c.setup_s).iter().sum::<f64>();
    let grid = &passes[0];
    let tail = stats::tail(&cells_ms);
    let (time_gain, energy_gain) = bows_gain(grid);
    let mut m = Metrics::default();
    m.set("wall_s", wall_s);
    m.set(
        "sim_cycles_per_s",
        grid.cells.iter().map(Cell::cycles).sum::<u64>() as f64 / wall_s,
    );
    m.set(
        "warp_insts_per_s",
        grid.cells.iter().map(Cell::issued_inst).sum::<u64>() as f64 / wall_s,
    );
    m.set("setup_s", setup_s);
    m.set("peak_rss_mib", peak_rss_mib);
    m.set(
        "paper_time_err_pct",
        stats::paper_err_pct(time_gain, expected.paper.time_speedup),
    );
    m.set(
        "paper_energy_err_pct",
        stats::paper_err_pct(energy_gain, expected.paper.energy_saving),
    );
    m.set(
        "req_p50_ms",
        stats::hd_quantile(&cells_ms, 0.5).unwrap_or(0.0),
    );
    m.set("req_tail_ms", tail.map_or(0.0, |t| t.value));
    m.set("req_per_s", grid.cells.len() as f64 / wall_s);
    let attempted = passes.iter().map(|p| p.cells.len() as u64).sum::<u64>();
    m.set(
        "ok_share",
        (attempted - failures.len() as u64) as f64 / attempted as f64,
    );
    let tail_note = tail.map_or("no tail: too few cells".to_string(), |t| {
        format!(
            "Harrell-Davis p{:.1} of {} cell times, not a latency tail",
            t.percentile, t.samples
        )
    });
    let cut = passes.last().map_or(0, |p| p.cells.len());
    let notes = vec![
        format!(
            "paper: simulated GTO->BOWS time speedup {time_gain:.4}x vs Figure 9 {}x; \
             dynamic-energy saving {energy_gain:.4}x vs {}x",
            expected.paper.time_speedup, expected.paper.energy_saving
        ),
        format!("req_tail_ms is the {tail_note}; req_* count one figure cell as one request"),
        format!(
            "serial passes: {} ({attempted} cell runs; the last pass ran {cut} of {} cells); \
             host times are per-cell medians over runs",
            passes.len(),
            grid.cells.len()
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
                Json::Arr(passes.iter().map(pass_record).collect()),
            ),
            ("bows_time_speedup".into(), Json::Num(time_gain)),
            ("bows_energy_saving".into(), Json::Num(energy_gain)),
            ("req_tail".into(), Json::Str(tail_note)),
            (
                "cell_run_ms".into(),
                Json::Obj(
                    runs.iter()
                        .map(|r| {
                            (
                                r[0].name.clone(),
                                Json::Arr(r.iter().map(|c| Json::Num(c.run_s * 1e3)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ],
        spans: Vec::new(),
    }
}

/// The traced run: one serial untraced pass, then one serial pass with
/// the simulator's phase profiler on and a span around every layer call.
/// Per-layer metrics come from the traced pass.
pub fn traced(suite: Suite, seed: u64) -> Outcome {
    let expected = Expected::committed();
    let plain = run_pass(suite, Scale::Small, seed, None, false);
    let untraced_s = plain.setup_s + plain.wall_s;
    let tracer = Tracer::new();
    let p = tracer.span("bench.pass", 0, || {
        run_pass(suite, Scale::Small, seed, Some(&tracer), true)
    });
    let mut failures = check_pass(&plain, &expected);
    failures.extend(check_pass(&p, &expected));
    let spans = tracer.spans();
    let traced_s = spans[0].end_ns.saturating_sub(spans[0].start_ns) as f64 * 1e-9;
    let selfs = crate::trace::self_seconds_by_name(&spans);
    let t = totals(&p);
    let ns = |x: u64| x as f64 * 1e-9;
    let mut m = Metrics::default();
    m.set_spans(&selfs, traced_s);
    m.set("trace_overhead", traced_s / untraced_s);
    m.set("simt_core.fetch_s", ns(t.profile.fetch_ns));
    m.set("simt_core.issue_s", ns(t.profile.issue_ns));
    m.set("simt_core.execute_s", ns(t.profile.execute_ns));
    m.set("simt_core.other_s", ns(t.profile.other_ns()));
    m.set("simt_core.skip_horizon_s", ns(t.profile.skip_horizon_ns));
    m.set("simt_mem.mem_cycle_s", ns(t.profile.mem_cycle_ns));
    m.set("simt_mem.merge_s", ns(t.profile.merge_ns));
    m.set(
        "simt_core.ns_per_warp_inst",
        selfs.get("simt_core.run").copied().unwrap_or(0.0) * 1e9 / t.sim.issued_inst.max(1) as f64,
    );
    m.set_counts(&t.sim, &t.mem, Some(t.cycles));
    m.set("bows.confirmed_sibs", t.confirmed_sibs as f64);
    m.set("bows.false_detections", t.false_detections as f64);
    Outcome {
        metrics: m,
        attempted: (plain.cells.len() + p.cells.len()) as u64,
        failures,
        notes: vec![format!(
            "traced pass {traced_s:.3}s vs untraced {untraced_s:.3}s (serial, profile on)"
        )],
        record: vec![
            ("untraced_pass".into(), pass_record(&plain)),
            ("traced_pass".into(), pass_record(&p)),
        ],
        spans,
    }
}

/// One pass of both figure suites at `scale`, returning each cell's
/// digest (for regenerating `expected.json`).
pub fn digests(scale: Scale, order_seed: u64) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for suite in [Suite::Sync, Suite::SyncFree] {
        let p = run_pass(suite, scale, order_seed, None, false);
        for c in p.cells {
            if let Err(e) = &c.verified {
                panic!("{}: verification failed: {e}", c.name);
            }
            out.insert(c.name, c.digest);
        }
    }
    out
}
