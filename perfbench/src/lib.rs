//! Paper-scale benchmark of the bows-sim reproduction.
//!
//! Three workloads, each driven through the crates' public APIs:
//!
//! * `sync_fermi` — the eight busy-wait kernels at `Scale::Small` on the
//!   GTX480 preset under GTO and GTO+BOWS(adaptive): Figure 9's GTO pair;
//! * `syncfree_fermi` — the fourteen sync-free Rodinia analogs on the
//!   same grid;
//! * `serve_mix` — an in-process `Service` behind its HTTP front end,
//!   driven over loopback by two closed-loop clients.
//!
//! [`figure`] and [`serve`] run the workloads, [`digest`] and the serve
//! oracle check every output, [`trace`] records the traced run's spans and
//! [`stats`] holds the summary arithmetic. `README.md` beside this crate
//! explains the workloads and how to read the results.

pub mod digest;
pub mod figure;
pub mod host;
pub mod serve;
pub mod stats;
pub mod trace;

use simt_serve::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs of every workload.
/// `peak_rss_mib` is VmHWM after a run's first pass: the high-water mark
/// keeps creeping up as passes go on, so it is taken after a fixed amount
/// of work rather than after however many passes fit in the run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("warp_insts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("paper_time_err_pct", "%"),
    ("paper_energy_err_pct", "%"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, reported by the traced run of every workload (zero
/// where a workload does not reach the layer). `*_s` metrics named after a
/// span are that span's self time; `simt_serve.http_s` and
/// `simt_snap.checkpoint_s` are derived differences of two timed calls.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.suite_s", "s"),
    ("workloads.prepare_s", "s"),
    ("workloads.verify_s", "s"),
    ("simt_isa.decode_s", "s"),
    ("simt_core.run_s", "s"),
    ("simt_core.fetch_s", "s"),
    ("simt_core.issue_s", "s"),
    ("simt_core.execute_s", "s"),
    ("simt_core.other_s", "s"),
    ("simt_core.ns_per_warp_inst", "ns"),
    ("simt_core.issued_inst", "count"),
    ("simt_core.busy_cycles", "count"),
    ("simt_core.stall_data", "count"),
    ("simt_core.stall_arbitration", "count"),
    ("simt_core.stall_barrier", "count"),
    ("simt_core.simd_efficiency", "ratio"),
    ("simt_core.skip_horizon_s", "s"),
    ("simt_core.idle_cycle_share", "ratio"),
    ("simt_mem.mem_cycle_s", "s"),
    ("simt_mem.merge_s", "s"),
    ("simt_mem.l1_accesses", "count"),
    ("simt_mem.l1_hit_rate", "ratio"),
    ("simt_mem.l2_accesses", "count"),
    ("simt_mem.dram_reads", "count"),
    ("simt_mem.atomic_transactions", "count"),
    ("simt_mem.lock_attempts", "count"),
    ("simt_mem.lock_fail_share", "ratio"),
    ("bows.backed_off_share", "ratio"),
    ("bows.stall_backoff", "count"),
    ("bows.sib_inst", "count"),
    ("bows.confirmed_sibs", "count"),
    ("bows.false_detections", "count"),
    ("simt_serve.start_s", "s"),
    ("simt_serve.parse_s", "s"),
    ("simt_serve.post_s", "s"),
    ("simt_serve.submit_s", "s"),
    ("simt_serve.http_s", "s"),
    ("simt_serve.run_request_s", "s"),
    ("simt_serve.store_commit_s", "s"),
    ("simt_serve.cache_hit_share", "ratio"),
    ("simt_serve.admitted", "count"),
    ("simt_serve.shed", "count"),
    ("simt_serve.retries", "count"),
    ("simt_serve.persisted_entries", "count"),
    ("simt_analyze.lint_s", "s"),
    ("simt_analyze.lint_rejections", "count"),
    ("simt_snap.run_resumable_s", "s"),
    ("simt_snap.checkpoint_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Set one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Value of a metric (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Per-span-name self times as `<span>_s` metrics. Spans of the
    /// benchmark's own code (`bench.*`) form the unattributed remainder;
    /// with the traced wall they close the books: every `*_s` span metric
    /// plus `bench.unattributed_s` sums to `bench.traced_wall_s`.
    pub fn set_spans(&mut self, selfs: &BTreeMap<&'static str, f64>, traced_wall_s: f64) {
        let mut unattributed = 0.0;
        for (&name, &s) in selfs {
            if name.starts_with("bench.") {
                unattributed += s;
            } else {
                self.set(&format!("{name}_s"), s);
            }
        }
        self.set("bench.unattributed_s", unattributed);
        self.set("bench.traced_wall_s", traced_wall_s);
    }

    /// Exact simulator counters as per-layer metrics. `cycles` is `None`
    /// when only a service response's counters are known: it carries no
    /// busy-cycle, stall or back-off samples, so those stay unset.
    pub fn set_counts(
        &mut self,
        sim: &simt_core::SimStats,
        mem: &simt_mem::MemStats,
        cycles: Option<u64>,
    ) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        self.set("simt_core.issued_inst", sim.issued_inst as f64);
        self.set("simt_core.simd_efficiency", sim.simd_efficiency());
        if let Some(cycles) = cycles {
            self.set("simt_core.busy_cycles", sim.busy_cycles as f64);
            self.set("simt_core.stall_data", sim.stall_data as f64);
            self.set("simt_core.stall_arbitration", sim.stall_arbitration as f64);
            self.set("simt_core.stall_barrier", sim.stall_barrier as f64);
            self.set(
                "simt_core.idle_cycle_share",
                1.0 - ratio(sim.busy_cycles, cycles),
            );
            self.set("bows.backed_off_share", sim.backed_off_fraction());
            self.set("bows.stall_backoff", sim.stall_backoff as f64);
        }
        self.set("simt_mem.l1_accesses", mem.l1_accesses as f64);
        self.set("simt_mem.l1_hit_rate", mem.l1_hit_rate());
        self.set("simt_mem.l2_accesses", mem.l2_accesses as f64);
        self.set("simt_mem.dram_reads", mem.dram_reads as f64);
        self.set(
            "simt_mem.atomic_transactions",
            mem.atomic_transactions as f64,
        );
        let fails = mem.lock_intra_fail + mem.lock_inter_fail;
        let attempts = mem.lock_success + fails;
        self.set("simt_mem.lock_attempts", attempts as f64);
        self.set("simt_mem.lock_fail_share", ratio(fails, attempts));
        self.set("bows.sib_inst", sim.sib_inst as f64);
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    /// Metric values.
    pub metrics: Metrics,
    /// Operations attempted (figure cells or service requests).
    pub attempted: u64,
    /// One line per failed operation, first failure first.
    pub failures: Vec<String>,
    /// Human-readable lines printed beside the metrics.
    pub notes: Vec<String>,
    /// Extra fields for the result record.
    pub record: Vec<(String, Json)>,
    /// The traced run's spans (empty for untraced runs).
    pub spans: Vec<trace::Span>,
}

/// One pass of a result record: set-up, wall and on-CPU seconds.
pub fn pass_json(setup_s: f64, wall_s: f64, cpu_s: f64) -> Json {
    Json::Obj(vec![
        ("setup_s".into(), Json::Num(setup_s)),
        ("wall_s".into(), Json::Num(wall_s)),
        ("cpu_s".into(), Json::Num(cpu_s)),
    ])
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates over
/// splitmix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = simt_serve::chaos::splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let a = permutation(16, 1);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..16).collect::<Vec<_>>());
        assert_eq!(a, permutation(16, 1));
        assert_ne!(a, permutation(16, 2));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn span_metrics_close_the_books() {
        let mut selfs = BTreeMap::new();
        selfs.insert("bench.pass", 0.5);
        selfs.insert("workloads.prepare", 1.0);
        selfs.insert("simt_core.run", 2.5);
        let mut m = Metrics::default();
        m.set_spans(&selfs, 4.0);
        assert_eq!(m.get("workloads.prepare_s"), 1.0);
        assert_eq!(m.get("bench.unattributed_s"), 0.5);
        for name in m.0.keys() {
            assert!(
                PER_LAYER.iter().any(|p| p.0 == name),
                "{name} not a per-layer metric"
            );
        }
        let sum: f64 =
            m.0.iter()
                .filter(|(k, _)| *k != "bench.traced_wall_s")
                .map(|(_, v)| v)
                .sum();
        assert_eq!(sum, m.get("bench.traced_wall_s"));
    }
}
