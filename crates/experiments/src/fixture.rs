//! Committed divergence fixtures for the differential oracle.
//!
//! A fixture is a plain assembly kernel (`.s`) whose comment header carries
//! `;; differ:` directives telling the harness how to launch it and what
//! the differential comparison is *expected* to find. Fixtures pin down
//! the deliberate semantic gaps between the reference interpreter and the
//! cycle-level simulator (`clock`, `%smid`, CTA residency limits) as well
//! as shrunken fuzzer reproducers, so a regression in either engine — or
//! in the comparison logic itself — turns a fixture red.
//!
//! Directive vocabulary (one per line, anywhere in the file):
//!
//! ```text
//! ;; differ: launch ctas=2 tpc=32
//! ;; differ: alloc out 64              ; zero-filled buffer, 64 words
//! ;; differ: alloc in 64 lcg 7         ; LCG-seeded buffer
//! ;; differ: alloc flag 1 init 0 ...   ; explicit initial words
//! ;; differ: param out                 ; kernel param: buffer base address
//! ;; differ: param 42                  ; kernel param: immediate
//! ;; differ: regs                      ; also compare per-thread registers
//! ;; differ: sms 2                     ; override the SM count
//! ;; differ: timeout-cycles 2000000    ; override the simulator cycle cap
//! ;; differ: chaos 42 2                ; run the simulator under chaos
//! ;; differ: post lock[0] == 0         ; postcondition on final memory
//! ;; differ: expect memory             ; agree | memory | register |
//! ;;                                   ; postcondition | ref-failed |
//! ;;                                   ; sim-failed | engine | ...
//! ```
//!
//! Declaring any `post` switches the fixture from bytewise ([`Equivalence::Exact`])
//! to postcondition comparison, mirroring how racy corpus workloads are
//! classified.
//!
//! [`Equivalence::Exact`]: workloads::Equivalence::Exact

use crate::differ::{check_cell, check_engines, run_reference, DifferCell, DivergenceReport};
use crate::SchedConfig;
use simt_core::{BasePolicy, Gpu, GpuConfig, LaunchSpec};
use simt_isa::asm::assemble;
use simt_isa::Kernel;
use workloads::{Lcg, Postcond, Prepared, Stage, Workload};

/// How a fixture buffer is initialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Init {
    /// All words zero (the allocator default).
    Zero,
    /// Words drawn from [`Lcg`] with this seed.
    Lcg(u32),
    /// Explicit leading words (the rest stay zero).
    Words(Vec<u32>),
}

/// One named device allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSpec {
    /// Name referenced by `param` and `post` directives.
    pub name: String,
    /// Size in 32-bit words.
    pub words: u64,
    /// Initial contents.
    pub init: Init,
}

/// One kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamSpec {
    /// Base address of the named buffer.
    Buf(String),
    /// Immediate value.
    Imm(u32),
}

/// A `post buf[idx] == val` postcondition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostSpec {
    /// Buffer name.
    pub buf: String,
    /// Word index within the buffer.
    pub idx: u64,
    /// Required final value.
    pub val: u32,
}

/// A parsed fixture: the kernel plus its launch/compare description.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Fixture name (from the file stem).
    pub name: String,
    /// The assembled kernel.
    pub kernel: Kernel,
    /// CTAs in the grid.
    pub ctas: usize,
    /// Threads per CTA.
    pub tpc: usize,
    /// Device allocations, in allocation order.
    pub allocs: Vec<AllocSpec>,
    /// Kernel parameters, in order.
    pub params: Vec<ParamSpec>,
    /// Also compare per-thread registers/predicates/shared memory.
    pub compare_regs: bool,
    /// SM-count override (residency-limit fixtures).
    pub sms: Option<usize>,
    /// Simulator cycle-cap override (hang fixtures).
    pub timeout_cycles: Option<u64>,
    /// Chaos `(seed, level)` for the simulator side.
    pub chaos: Option<(u64, u8)>,
    /// Postconditions on final memory (presence switches to racy compare).
    pub posts: Vec<PostSpec>,
    /// Expected divergence kind, or `"agree"`.
    pub expect: String,
}

impl Fixture {
    /// Parse fixture `source`, assembling the kernel and collecting all
    /// `;; differ:` directives.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed directive, a reference to an
    /// undeclared buffer, or the assembler error.
    pub fn parse(name: &str, source: &str) -> Result<Fixture, String> {
        let kernel = assemble(source).map_err(|e| format!("{name}: {e}"))?;
        let mut f = Fixture {
            name: name.to_string(),
            kernel,
            ctas: 1,
            tpc: 32,
            allocs: Vec::new(),
            params: Vec::new(),
            compare_regs: false,
            sms: None,
            timeout_cycles: None,
            chaos: None,
            posts: Vec::new(),
            expect: "agree".to_string(),
        };
        for line in source.lines() {
            let Some(rest) = line.trim().strip_prefix(";; differ:") else {
                continue;
            };
            parse_directive(&mut f, rest.trim())
                .map_err(|e| format!("{name}: directive `{}`: {e}", rest.trim()))?;
        }
        let named = |f: &Fixture, n: &str| f.allocs.iter().any(|a| a.name == n);
        for p in &f.params {
            if let ParamSpec::Buf(b) = p {
                if !named(&f, b) {
                    return Err(format!("{name}: param references undeclared buffer `{b}`"));
                }
            }
        }
        for p in &f.posts {
            if !named(&f, &p.buf) {
                return Err(format!("{name}: post references undeclared buffer `{}`", p.buf));
            }
        }
        Ok(f)
    }

    /// The matrix cell this fixture runs under: GTO baseline, plus any
    /// declared chaos.
    pub fn cell(&self) -> DifferCell {
        DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Gto),
            chaos: self.chaos,
        }
    }

    /// The GPU configuration: `base` with this fixture's overrides applied.
    pub fn gpu_config(&self, base: &GpuConfig) -> GpuConfig {
        let mut cfg = base.clone();
        if let Some(sms) = self.sms {
            cfg.num_sms = sms;
        }
        if let Some(t) = self.timeout_cycles {
            cfg.max_cycles = t;
        }
        cfg
    }
}

fn parse_directive(f: &mut Fixture, d: &str) -> Result<(), String> {
    let mut it = d.split_whitespace();
    let verb = it.next().ok_or("empty directive")?;
    let toks: Vec<&str> = it.collect();
    match verb {
        "launch" => {
            for t in &toks {
                if let Some(v) = t.strip_prefix("ctas=") {
                    f.ctas = parse_num(v)? as usize;
                } else if let Some(v) = t.strip_prefix("tpc=") {
                    f.tpc = parse_num(v)? as usize;
                } else {
                    return Err(format!("unknown launch field `{t}`"));
                }
            }
            Ok(())
        }
        "alloc" => {
            let [name, words, rest @ ..] = toks.as_slice() else {
                return Err("want `alloc <name> <words> [lcg <seed> | init v...]`".into());
            };
            let init = match rest {
                [] => Init::Zero,
                ["lcg", seed] => Init::Lcg(parse_num(seed)? as u32),
                ["init", vals @ ..] => Init::Words(
                    vals.iter()
                        .map(|v| parse_num(v).map(|n| n as u32))
                        .collect::<Result<_, _>>()?,
                ),
                _ => return Err(format!("unknown alloc initializer `{}`", rest.join(" "))),
            };
            f.allocs.push(AllocSpec {
                name: name.to_string(),
                words: parse_num(words)?,
                init,
            });
            Ok(())
        }
        "param" => {
            let [p] = toks.as_slice() else {
                return Err("want `param <buffer|imm>`".into());
            };
            f.params.push(match parse_num(p) {
                Ok(n) => ParamSpec::Imm(n as u32),
                Err(_) => ParamSpec::Buf(p.to_string()),
            });
            Ok(())
        }
        "regs" => {
            f.compare_regs = true;
            Ok(())
        }
        "sms" => {
            let [n] = toks.as_slice() else { return Err("want `sms <n>`".into()) };
            f.sms = Some(parse_num(n)? as usize);
            Ok(())
        }
        "timeout-cycles" => {
            let [n] = toks.as_slice() else {
                return Err("want `timeout-cycles <n>`".into());
            };
            f.timeout_cycles = Some(parse_num(n)?);
            Ok(())
        }
        "chaos" => {
            let [seed, level] = toks.as_slice() else {
                return Err("want `chaos <seed> <level>`".into());
            };
            f.chaos = Some((parse_num(seed)?, parse_num(level)? as u8));
            Ok(())
        }
        "post" => {
            // `post <buf>[<idx>] == <val>`
            let [site, "==", val] = toks.as_slice() else {
                return Err("want `post <buf>[<idx>] == <val>`".into());
            };
            let (buf, idx) = site
                .strip_suffix(']')
                .and_then(|s| s.split_once('['))
                .ok_or("want `<buf>[<idx>]`")?;
            f.posts.push(PostSpec {
                buf: buf.to_string(),
                idx: parse_num(idx)?,
                val: parse_num(val)? as u32,
            });
            Ok(())
        }
        "expect" => {
            let [kind] = toks.as_slice() else { return Err("want `expect <kind>`".into()) };
            const KINDS: [&str; 9] = [
                "agree",
                "memory",
                "register",
                "predicate",
                "shared",
                "postcondition",
                "ref-failed",
                "sim-failed",
                "engine",
            ];
            if !KINDS.contains(kind) {
                return Err(format!("unknown expectation `{kind}`"));
            }
            f.expect = kind.to_string();
            Ok(())
        }
        _ => Err(format!("unknown directive verb `{verb}`")),
    }
}

fn parse_num(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("bad number `{s}`"))
}

impl Workload for Fixture {
    fn name(&self) -> &'static str {
        "fixture"
    }

    // As in the fuzzer, `is_sync` doubles as "registers are
    // schedule-dependent": a fixture that declares `regs` promises
    // deterministic per-thread state.
    fn is_sync(&self) -> bool {
        !self.compare_regs
    }

    fn prepare(&self, gpu: &mut Gpu) -> Prepared {
        let g = gpu.mem_mut().gmem_mut();
        let mut bases = Vec::with_capacity(self.allocs.len());
        for a in &self.allocs {
            let base = g.alloc(a.words);
            match &a.init {
                Init::Zero => {}
                Init::Lcg(seed) => {
                    let mut lcg = Lcg::new(*seed);
                    for i in 0..a.words {
                        g.write_u32(base + i * 4, lcg.next_u32());
                    }
                }
                Init::Words(vals) => {
                    for (i, v) in vals.iter().enumerate() {
                        g.write_u32(base + i as u64 * 4, *v);
                    }
                }
            }
            bases.push((a.name.clone(), base));
        }
        let addr_of = |name: &str| bases.iter().find(|(n, _)| n == name).map(|&(_, b)| b);
        let params = self
            .params
            .iter()
            .map(|p| match p {
                ParamSpec::Buf(b) => addr_of(b).expect("validated at parse") as u32,
                ParamSpec::Imm(v) => *v,
            })
            .collect();
        let stages = vec![Stage {
            kernel: self.kernel.clone(),
            launch: LaunchSpec {
                grid_ctas: self.ctas,
                threads_per_cta: self.tpc,
                params,
            },
        }];
        if self.posts.is_empty() {
            // The reference interpreter is the expected result; per-engine
            // verification is vacuous.
            Prepared::exact(stages, |_gpu| Ok(()))
        } else {
            let posts = self
                .posts
                .iter()
                .map(|p| {
                    let addr = addr_of(&p.buf).expect("validated at parse") + p.idx * 4;
                    let (site, want) = (format!("{}[{}]", p.buf, p.idx), p.val);
                    Postcond::new(&site.clone(), move |g| {
                        let got = g.read_u32(addr);
                        if got == want {
                            Ok(())
                        } else {
                            Err(format!("{site} = {got:#x}, want {want:#x}"))
                        }
                    })
                })
                .collect();
            Prepared::racy(stages, posts)
        }
    }
}

/// Result of running one fixture through the differential harness.
pub struct FixtureOutcome {
    /// The parsed fixture.
    pub fixture: Fixture,
    /// Divergences found (workload field rewritten to the fixture name).
    pub reports: Vec<DivergenceReport>,
}

impl FixtureOutcome {
    /// Check the outcome against the fixture's `expect` directive.
    ///
    /// # Errors
    ///
    /// Describes the mismatch: an unexpected divergence, a missing
    /// expected one, or the wrong kind.
    pub fn verdict(&self) -> Result<(), String> {
        match (self.fixture.expect.as_str(), self.reports.first()) {
            ("agree", None) => Ok(()),
            ("agree", Some(r)) => Err(format!("expected agreement, got: {r}")),
            (want, None) => Err(format!("expected a `{want}` divergence, engines agreed")),
            (want, Some(r)) if r.divergence.kind() == want => Ok(()),
            (want, Some(r)) => Err(format!("expected `{want}`, got `{}`: {r}", r.divergence.kind())),
        }
    }
}

/// Run one fixture source through both engines and compare.
///
/// # Errors
///
/// Returns the parse/assembly error message; divergences are *not* errors
/// (they are the outcome, judged against `expect` by
/// [`FixtureOutcome::verdict`]).
pub fn check_fixture(
    base_cfg: &GpuConfig,
    name: &str,
    source: &str,
    fuel: u64,
) -> Result<FixtureOutcome, String> {
    let fixture = Fixture::parse(name, source)?;
    let cfg = fixture.gpu_config(base_cfg);
    let cell = fixture.cell();
    let reference = run_reference(&cfg, &fixture, fuel);
    let mut reports = check_cell(&cfg, &fixture, &cell, &reference);
    reports.extend(check_engines(&cfg, &fixture, &cell));
    for r in &mut reports {
        r.workload = fixture.name.clone();
    }
    Ok(FixtureOutcome { fixture, reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differ::DEFAULT_FUEL;

    const COUNTER: &str = "\
;; differ: launch ctas=1 tpc=32
;; differ: alloc out 32
;; differ: param out
;; differ: regs
;; differ: expect agree
.kernel fix_counter
.regs 8
    ld.param r1, [0]
    mov r2, %gtid
    shl r3, r2, 2
    add r3, r1, r3
    add r4, r2, 7
    st.global [r3], r4
    exit
";

    #[test]
    fn parses_and_agrees() {
        let out = check_fixture(&GpuConfig::test_tiny(), "counter", COUNTER, DEFAULT_FUEL)
            .unwrap();
        assert!(out.fixture.compare_regs);
        assert_eq!(out.fixture.expect, "agree");
        out.verdict().unwrap();
    }

    #[test]
    fn rejects_unknown_directives_and_dangling_buffers() {
        let bad = ";; differ: lunch ctas=1\n.kernel k\nexit\n";
        assert!(Fixture::parse("bad", bad).is_err());
        let dangling = ";; differ: param nope\n.kernel k\n.regs 4\nexit\n";
        assert!(Fixture::parse("dangling", dangling)
            .unwrap_err()
            .contains("undeclared buffer"));
    }

    #[test]
    fn post_directive_switches_to_postcondition_compare() {
        let src = "\
;; differ: launch ctas=1 tpc=32
;; differ: alloc flag 4
;; differ: param flag
;; differ: post flag[0] == 9
;; differ: expect postcondition
.kernel fix_post
.regs 8
    ld.param r1, [0]
    mov r2, %gtid
    setp.eq.s32 p0, r2, 0
    mov r3, 5
    @p0 st.global [r1], r3
    exit
";
        let out =
            check_fixture(&GpuConfig::test_tiny(), "post", src, DEFAULT_FUEL).unwrap();
        // flag[0] ends up 5 on both engines; the post wants 9 → both sides
        // report a postcondition failure.
        out.verdict().unwrap();
        assert_eq!(out.reports.len(), 2);
    }
}
