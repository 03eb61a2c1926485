//! The output-correctness gate of the figure workloads: an FNV-1a digest
//! per figure cell over everything the simulator reports, checked against
//! the committed `perfbench/expected.json`.

use simt_core::SimStats;
use simt_mem::MemStats;
use simt_serve::Json;
use std::collections::BTreeMap;

/// What one kernel launch of a cell reported.
pub struct StageOut<'a> {
    /// Simulated cycles.
    pub cycles: u64,
    /// Core counters.
    pub sim: &'a SimStats,
    /// Memory counters.
    pub mem: &'a MemStats,
}

/// FNV-1a over the cycles, `SimStats` and `MemStats` of every stage of a
/// cell and the final device-memory image.
pub fn cell_digest(stages: &[StageOut<'_>], gmem: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(gmem.len() * 4 + 1024);
    for s in stages {
        bytes.extend_from_slice(&s.cycles.to_le_bytes());
        // Debug output names every field, so a new counter joins the
        // digest without touching this code.
        bytes.extend_from_slice(format!("{:?}{:?}", s.sim, s.mem).as_bytes());
    }
    for w in gmem {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    simt_snap::fnv1a(&bytes)
}

/// Paper reference values (Figure 9, GTO pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRefs {
    /// Geomean GTO → GTO+BOWS execution-time speedup.
    pub time_speedup: f64,
    /// Geomean GTO → GTO+BOWS dynamic-energy saving.
    pub energy_saving: f64,
}

/// The committed expectations: paper references and per-cell digests.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Figure 9 GTO references.
    pub paper: PaperRefs,
    /// Cell name (`workload/kernel/config`) → digest.
    pub digests: BTreeMap<String, u64>,
}

/// The committed expectations file, compiled in so the benchmark needs no
/// data path at run time.
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

fn num(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key)? {
        Json::Num(x) => Ok(*x),
        Json::UInt(x) => Ok(*x as f64),
        _ => Err(format!("{key}: expected a number")),
    }
}

impl Expected {
    /// Parse the expectations file.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let j = Json::parse(text)?;
        let p = j.get("paper")?;
        let paper = PaperRefs {
            time_speedup: num(p, "fig9_gto_time_speedup")?,
            energy_saving: num(p, "fig9_gto_energy_saving")?,
        };
        let mut digests = BTreeMap::new();
        let Json::Obj(cells) = j.get("digests")? else {
            return Err("digests: expected an object".into());
        };
        for (name, v) in cells {
            let hex = v.as_str(name)?;
            let d = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .map_err(|e| format!("{name}: {e}"))?;
            digests.insert(name.clone(), d);
        }
        Ok(Expected { paper, digests })
    }

    /// The compiled-in expectations.
    pub fn committed() -> Expected {
        Expected::parse(EXPECTED_JSON).expect("perfbench/expected.json is well-formed")
    }

    /// Check one cell's digest.
    ///
    /// # Errors
    ///
    /// Names the cell when its digest differs or is not committed.
    pub fn check(&self, cell: &str, digest: u64) -> Result<(), String> {
        match self.digests.get(cell) {
            Some(&d) if d == digest => Ok(()),
            Some(&d) => Err(format!(
                "{cell}: digest {digest:#018x} differs from committed {d:#018x}"
            )),
            None => Err(format!("{cell}: no committed digest")),
        }
    }
}

/// Render the expectations file with `digests` replacing the committed
/// ones (used by `--write-digests`); the paper block is kept verbatim.
pub fn render_expected(paper: &PaperRefs, digests: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"paper\": {\n");
    out.push_str(
        "    \"source\": \"EXPERIMENTS.md, section 'Figure 9 - time & energy, Fermi (fig9)': \
         BOWS over GTO, geometric means over the eight sync kernels\",\n",
    );
    out.push_str(&format!(
        "    \"fig9_gto_time_speedup\": {:?},\n    \"fig9_gto_energy_saving\": {:?}\n  }},\n",
        paper.time_speedup, paper.energy_saving
    ));
    out.push_str("  \"digests\": {\n");
    let n = digests.len();
    for (i, (k, v)) in digests.iter().enumerate() {
        let sep = if i + 1 < n { "," } else { "" };
        out.push_str(&format!("    \"{k}\": \"{v:#018x}\"{sep}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (SimStats, MemStats, Vec<u32>) {
        let sim = SimStats {
            cycles: 1000,
            issued_inst: 420,
            stall_data: 77,
            ..SimStats::default()
        };
        let mem = MemStats {
            l1_accesses: 50,
            lock_inter_fail: 3,
            ..MemStats::default()
        };
        (sim, mem, vec![1, 2, 3, 4])
    }

    #[test]
    fn a_single_perturbed_counter_fails_the_gate_by_name() {
        let (sim, mem, gmem) = sample();
        let good = cell_digest(
            &[StageOut {
                cycles: 1000,
                sim: &sim,
                mem: &mem,
            }],
            &gmem,
        );
        let mut digests = BTreeMap::new();
        digests.insert("sync_fermi/HT/gto".to_string(), good);
        let exp = Expected {
            paper: PaperRefs {
                time_speedup: 1.4,
                energy_saving: 1.7,
            },
            digests,
        };
        assert!(exp.check("sync_fermi/HT/gto", good).is_ok());

        let mut sim2 = sim.clone();
        sim2.stall_arbitration += 1;
        let mut mem2 = mem;
        mem2.lock_intra_fail += 1;
        let mut gmem2 = gmem.clone();
        gmem2[3] ^= 1;
        let perturbed = [
            cell_digest(
                &[StageOut {
                    cycles: 1001,
                    sim: &sim,
                    mem: &mem,
                }],
                &gmem,
            ),
            cell_digest(
                &[StageOut {
                    cycles: 1000,
                    sim: &sim2,
                    mem: &mem,
                }],
                &gmem,
            ),
            cell_digest(
                &[StageOut {
                    cycles: 1000,
                    sim: &sim,
                    mem: &mem2,
                }],
                &gmem,
            ),
            cell_digest(
                &[StageOut {
                    cycles: 1000,
                    sim: &sim,
                    mem: &mem,
                }],
                &gmem2,
            ),
        ];
        for d in perturbed {
            let err = exp.check("sync_fermi/HT/gto", d).unwrap_err();
            assert!(err.starts_with("sync_fermi/HT/gto:"), "{err}");
        }
        assert!(exp.check("sync_fermi/HT/gto+bows(adaptive)", good).is_err());
    }

    #[test]
    fn expectations_round_trip_and_committed_file_parses() {
        let mut digests = BTreeMap::new();
        digests.insert("a/b/c".to_string(), 0x0123_4567_89ab_cdef);
        digests.insert("a/b/d".to_string(), u64::MAX);
        let paper = PaperRefs {
            time_speedup: 1.4,
            energy_saving: 1.7,
        };
        let text = render_expected(&paper, &digests);
        assert_eq!(Expected::parse(&text).unwrap(), Expected { paper, digests });
        let committed = Expected::committed();
        assert_eq!(committed.paper, paper);
        assert_eq!(committed.digests.len(), 2 * (8 + 14));
    }
}
