//! Seeded random-kernel fuzzer for the differential oracle and the
//! simulator's engine-equivalence invariant.
//!
//! Generates structured, guaranteed-terminating kernels (bounded loops,
//! nested divergence, uniform barriers, thread-private stores, commutative
//! atomics), filters them through `simt-analyze`'s lints, then runs each
//! through both the reference interpreter and the cycle-level simulator
//! under a seed-derived scheduler/chaos configuration, and runs the
//! simulator cell again under `Engine::Cycle` to compare it with the
//! default `Engine::Skip` run (an `engine` divergence). Every generated
//! kernel's final memory *and* registers are schedule-independent by
//! construction:
//!
//! * scratch-register dataflow only reads launch constants, immediates,
//!   and a read-only input buffer;
//! * stores go to the thread's private slots of the output buffer;
//! * atomics are commutative reductions (`add`/`min`/`max`/`and`/`or`) on
//!   shared counters, each counter word is only ever targeted by a single
//!   op (a *mix* of commutative ops on one word is still order-dependent),
//!   and the (schedule-dependent) old value returned in the destination
//!   register is immediately overwritten with zero.
//!
//! So *any* divergence between the reference and the simulator, or
//! between the simulator's two engines, is a bug (or a seeded chaos
//! fixture). On divergence the kernel shrinks automatically: structural
//! mutations (drop a node, unwrap a loop/if body, reduce trip counts,
//! shrink the launch) are applied while the divergence kind persists,
//! and the minimal reproducer is emitted as a committable `.s` fixture.
//!
//! Everything is deterministic in the root seed: generation, the
//! simulator configuration drawn per kernel, and shrinking order.

use crate::differ::{check_cell, check_engines, DifferCell, DivergenceReport, CHAOS_POINTS};
use crate::SchedConfig;
use simt_analyze::analyze_insts;
use simt_core::{BasePolicy, Gpu, GpuConfig, LaunchSpec};
use simt_isa::asm::assemble;
use simt_isa::Kernel;
use std::fmt::Write as _;
use workloads::{Lcg, Prepared, Stage, Workload};

/// SplitMix64: a tiny, high-quality deterministic PRNG for generation
/// decisions (the committed fixtures depend on this stream: change it and
/// seeds reproduce different kernels, so bump [`GENERATOR_VERSION`]).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded stream.
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform choice from a slice of `Copy` values.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// Bernoulli with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Bump when generation semantics change (invalidates seed reproduction
/// of previously committed fixtures; the fixture header records it).
pub const GENERATOR_VERSION: u32 = 2;

/// Register conventions of generated kernels (`.regs 16`):
/// r1..r3 = out/in/ctr base pointers, r4 = gtid, r5 = out slot base,
/// r6..r11 = scratch dataflow, r12..r13 = loop counters, r15 = temp.
const SCRATCH: [u8; 6] = [6, 7, 8, 9, 10, 11];
/// Output words per thread (private store slots).
pub const OUT_STRIDE: u64 = 4;
/// Read-only input buffer words.
pub const IN_WORDS: u64 = 64;
/// Shared atomic counters — one per reduction op (`add`/`min`/`max`/
/// `and`/`or`), so every counter word sees exactly one commutative op.
pub const CTR_WORDS: u64 = 5;

/// A value operand of a generated ALU op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Reg(u8),
    Imm(u32),
}

impl Src {
    fn render(self) -> String {
        match self {
            Src::Reg(r) => format!("r{r}"),
            Src::Imm(v) => format!("{v}"),
        }
    }
}

/// One structural node of a generated kernel body.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    /// `op rd, a, b` (or 3-source `mad`).
    Alu {
        op: &'static str,
        dst: u8,
        a: Src,
        b: Src,
        c: Option<Src>,
    },
    /// Load `in[r_idx & 63]` into a scratch register.
    LoadIn { dst: u8, idx: u8 },
    /// Store a scratch register to the thread's private out slot.
    StoreOut { slot: u8, src: u8 },
    /// Commutative atomic reduction on a shared counter; the returned old
    /// value is immediately zeroed to keep registers deterministic.
    AtomCtr { op: &'static str, ctr: u8, src: u8 },
    /// Two-sided divergence on a thread-varying predicate.
    If {
        cmp: &'static str,
        lhs: u8,
        rhs: u32,
        then_: Vec<Node>,
        else_: Vec<Node>,
    },
    /// Counted loop, 1..=8 trips, loop counter register by nesting depth.
    Loop { trips: u32, depth: u8, body: Vec<Node> },
    /// Uniform CTA barrier (top level only).
    Bar,
}

/// A generated kernel: its structure, rendered source, and launch shape.
#[derive(Debug, Clone)]
pub struct FuzzKernel {
    /// Root seed this kernel was generated from.
    pub seed: u64,
    /// CTAs in the grid.
    pub ctas: usize,
    /// Threads per CTA.
    pub tpc: usize,
    body: Vec<Node>,
}

impl FuzzKernel {
    /// Generate the kernel for `seed`. The structure is drawn from the
    /// seed alone; launch shape covers partial warps and multi-CTA grids.
    pub fn generate(seed: u64) -> FuzzKernel {
        let mut rng = Rng::new(seed);
        let ctas = 1 + rng.below(2) as usize;
        let tpc = rng.pick(&[20usize, 32, 48, 64]);
        let n = 3 + rng.below(6) as usize;
        let mut body = Vec::new();
        for _ in 0..n {
            body.push(gen_node(&mut rng, 0));
        }
        // Ensure at least one observable effect.
        body.push(Node::StoreOut {
            slot: 0,
            src: rng.pick(&SCRATCH),
        });
        FuzzKernel {
            seed,
            ctas,
            tpc,
            body,
        }
    }

    /// Render assembler source (committable as a fixture; the header
    /// records the seed for reproduction).
    pub fn source(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, ";; fuzz seed {} v{}", self.seed, GENERATOR_VERSION);
        let _ = writeln!(
            s,
            ";; differ: launch ctas={} tpc={}",
            self.ctas, self.tpc
        );
        let _ = writeln!(s, ";; differ: alloc out {}", self.ctas as u64 * self.tpc as u64 * OUT_STRIDE);
        let _ = writeln!(s, ";; differ: alloc in {IN_WORDS} lcg {}", self.seed as u32);
        let _ = writeln!(s, ";; differ: alloc ctr {CTR_WORDS}");
        let _ = writeln!(s, ";; differ: param out");
        let _ = writeln!(s, ";; differ: param in");
        let _ = writeln!(s, ";; differ: param ctr");
        let _ = writeln!(s, ";; differ: regs");
        let _ = writeln!(s, ";; differ: expect agree");
        let _ = writeln!(s, ".kernel fuzz_{}", self.seed);
        let _ = writeln!(s, ".regs 16");
        let mut seed_rng = Rng::new(self.seed ^ 0xF00D);
        let _ = writeln!(s, "    ld.param r1, [0]");
        let _ = writeln!(s, "    ld.param r2, [4]");
        let _ = writeln!(s, "    ld.param r3, [8]");
        let _ = writeln!(s, "    mov r4, %gtid");
        let _ = writeln!(s, "    shl r5, r4, {}", OUT_STRIDE.trailing_zeros() + 2);
        let _ = writeln!(s, "    add r5, r5, r1");
        let _ = writeln!(s, "    mov r6, r4");
        let _ = writeln!(s, "    mov r7, %laneid");
        let _ = writeln!(s, "    mov r8, %tid");
        for r in [9u8, 10, 11] {
            let _ = writeln!(s, "    mov r{r}, {}", seed_rng.below(1 << 16));
        }
        let _ = writeln!(s, "    mov r15, 0");
        let mut label = 0usize;
        render_nodes(&self.body, &mut s, &mut label, 1);
        let _ = writeln!(s, "    exit");
        s
    }

    /// Assemble the rendered source.
    ///
    /// # Errors
    ///
    /// Returns the assembler's message — generation should never produce
    /// one; a failure here is itself a generator bug worth surfacing.
    pub fn assemble(&self) -> Result<Kernel, String> {
        assemble(&self.source()).map_err(|e| e.to_string())
    }

    /// The seed-derived simulator cell this kernel is checked under.
    pub fn cell(&self) -> DifferCell {
        let mut rng = Rng::new(self.seed ^ 0xCE11);
        let base = rng.pick(&[BasePolicy::Gto, BasePolicy::Lrr, BasePolicy::Cawa]);
        let sched = if rng.chance(1, 2) {
            SchedConfig::bows_adaptive(base)
        } else {
            SchedConfig::baseline(base)
        };
        let chaos = match rng.below(3) {
            0 => None,
            1 => Some(CHAOS_POINTS[rng.below(3) as usize]),
            _ => Some((self.seed, 1 + rng.below(2) as u8)),
        };
        DifferCell { sched, chaos }
    }

    /// Total structural nodes (a shrinking-progress metric).
    pub fn node_count(&self) -> usize {
        count_nodes(&self.body)
    }

    fn mutants(&self) -> Vec<FuzzKernel> {
        let mut out = Vec::new();
        // Launch-shape reductions first: they shrink every later re-run.
        if self.ctas > 1 {
            let mut m = self.clone();
            m.ctas = 1;
            out.push(m);
        }
        if self.tpc > 32 {
            let mut m = self.clone();
            m.tpc = 32;
            out.push(m);
        }
        if self.tpc > 20 {
            let mut m = self.clone();
            m.tpc = 20;
            out.push(m);
        }
        for i in 0..count_nodes(&self.body) {
            for kind in [Mutation::Drop, Mutation::Unwrap, Mutation::OneTrip] {
                let mut body = self.body.clone();
                let mut k = i;
                if mutate(&mut body, &mut k, kind) {
                    let mut m = self.clone();
                    m.body = body;
                    out.push(m);
                }
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Remove the node entirely.
    Drop,
    /// Replace an `If`/`Loop` with its (then-)body.
    Unwrap,
    /// Set a loop's trip count to 1.
    OneTrip,
}

fn count_nodes(nodes: &[Node]) -> usize {
    nodes
        .iter()
        .map(|n| {
            1 + match n {
                Node::If { then_, else_, .. } => count_nodes(then_) + count_nodes(else_),
                Node::Loop { body, .. } => count_nodes(body),
                _ => 0,
            }
        })
        .sum()
}

/// Apply `kind` to the `k`-th node in preorder. Returns whether a
/// structural change was made.
fn mutate(nodes: &mut Vec<Node>, k: &mut usize, kind: Mutation) -> bool {
    let mut i = 0;
    while i < nodes.len() {
        if *k == 0 {
            match (kind, nodes[i].clone()) {
                (Mutation::Drop, _) => {
                    nodes.remove(i);
                    return true;
                }
                (Mutation::Unwrap, Node::If { then_, .. }) => {
                    nodes.splice(i..=i, then_);
                    return true;
                }
                (Mutation::Unwrap, Node::Loop { body, .. }) => {
                    nodes.splice(i..=i, body);
                    return true;
                }
                (Mutation::OneTrip, Node::Loop { trips, .. }) if trips > 1 => {
                    if let Node::Loop { trips, .. } = &mut nodes[i] {
                        *trips = 1;
                    }
                    return true;
                }
                _ => return false,
            }
        }
        *k -= 1;
        let changed = match &mut nodes[i] {
            Node::If { then_, else_, .. } => {
                mutate(then_, k, kind) || mutate(else_, k, kind)
            }
            Node::Loop { body, .. } => mutate(body, k, kind),
            _ => false,
        };
        if changed {
            return true;
        }
        i += 1;
    }
    false
}

const ALU_OPS: [&str; 12] = [
    "add", "sub", "mul", "and", "or", "xor", "shl", "shr", "min.s32", "max.s32", "div.u32",
    "add.f32",
];
const ATOM_OPS: [&str; 5] = ["add", "min", "max", "and", "or"];
const CMPS: [&str; 4] = ["eq", "ne", "lt", "gt"];

fn gen_src(rng: &mut Rng) -> Src {
    if rng.chance(1, 3) {
        Src::Imm(rng.below(1 << 10) as u32)
    } else {
        Src::Reg(rng.pick(&SCRATCH))
    }
}

fn gen_node(rng: &mut Rng, depth: u8) -> Node {
    // Leaves get likelier with depth; barriers only at top level.
    let roll = rng.below(if depth == 0 { 10 } else { 8 });
    match roll {
        0..=2 => Node::Alu {
            op: rng.pick(&ALU_OPS),
            dst: rng.pick(&SCRATCH),
            a: Src::Reg(rng.pick(&SCRATCH)),
            b: gen_src(rng),
            c: None,
        },
        3 => Node::Alu {
            op: "mad",
            dst: rng.pick(&SCRATCH),
            a: Src::Reg(rng.pick(&SCRATCH)),
            b: gen_src(rng),
            c: Some(gen_src(rng)),
        },
        4 => Node::LoadIn {
            dst: rng.pick(&SCRATCH),
            idx: rng.pick(&SCRATCH),
        },
        5 => Node::StoreOut {
            slot: rng.below(OUT_STRIDE) as u8,
            src: rng.pick(&SCRATCH),
        },
        6 => {
            // One op per counter word: each op alone is commutative, but a
            // *mix* on the same word (add-then-max vs max-then-add) is
            // order-dependent — the v1 generator allowed that and fuzz
            // seed 137 duly diverged. Tying the op to the index keeps
            // every interleaving equivalent.
            let ctr = rng.below(CTR_WORDS) as u8;
            Node::AtomCtr {
                op: ATOM_OPS[ctr as usize],
                ctr,
                src: rng.pick(&SCRATCH),
            }
        }
        7 if depth < 2 => {
            let n_then = 1 + rng.below(3) as usize;
            let n_else = rng.below(3) as usize;
            Node::If {
                cmp: rng.pick(&CMPS),
                lhs: rng.pick(&[6u8, 7, 8]), // thread-varying sources
                rhs: rng.below(64) as u32,
                then_: (0..n_then).map(|_| gen_node(rng, depth + 1)).collect(),
                else_: (0..n_else).map(|_| gen_node(rng, depth + 1)).collect(),
            }
        }
        8 if depth < 2 => {
            let n = 1 + rng.below(3) as usize;
            Node::Loop {
                trips: 1 + rng.below(8) as u32,
                depth,
                body: (0..n).map(|_| gen_node(rng, depth + 1)).collect(),
            }
        }
        9 => Node::Bar,
        _ => Node::Alu {
            op: "add",
            dst: rng.pick(&SCRATCH),
            a: Src::Reg(rng.pick(&SCRATCH)),
            b: Src::Imm(1),
            c: None,
        },
    }
}

fn render_nodes(nodes: &[Node], s: &mut String, label: &mut usize, indent: usize) {
    let pad = "    ".repeat(indent);
    for n in nodes {
        match n {
            Node::Alu { op, dst, a, b, c } => {
                let _ = write!(s, "{pad}{op} r{dst}, {}, {}", a.render(), b.render());
                if let Some(c) = c {
                    let _ = write!(s, ", {}", c.render());
                }
                s.push('\n');
            }
            Node::LoadIn { dst, idx } => {
                let _ = writeln!(s, "{pad}and r15, r{idx}, {}", IN_WORDS - 1);
                let _ = writeln!(s, "{pad}shl r15, r15, 2");
                let _ = writeln!(s, "{pad}add r15, r15, r2");
                let _ = writeln!(s, "{pad}ld.global r{dst}, [r15]");
            }
            Node::StoreOut { slot, src } => {
                let _ = writeln!(s, "{pad}st.global [r5+{}], r{src}", 4 * slot);
            }
            Node::AtomCtr { op, ctr, src } => {
                let _ = writeln!(s, "{pad}atom.global.{op} r15, [r3+{}], r{src}", 4 * ctr);
                let _ = writeln!(s, "{pad}mov r15, 0");
            }
            Node::If {
                cmp,
                lhs,
                rhs,
                then_,
                else_,
            } => {
                let id = *label;
                *label += 1;
                let _ = writeln!(s, "{pad}setp.{cmp}.s32 p0, r{lhs}, {rhs}");
                let _ = writeln!(s, "{pad}@!p0 bra ELSE{id}");
                render_nodes(then_, s, label, indent + 1);
                let _ = writeln!(s, "{pad}bra END{id}");
                let _ = writeln!(s, "ELSE{id}:");
                render_nodes(else_, s, label, indent + 1);
                let _ = writeln!(s, "END{id}:");
            }
            Node::Loop { trips, depth, body } => {
                let id = *label;
                *label += 1;
                let lc = 12 + depth; // r12/r13 by nesting depth
                let _ = writeln!(s, "{pad}mov r{lc}, 0");
                let _ = writeln!(s, "LOOP{id}:");
                render_nodes(body, s, label, indent + 1);
                let _ = writeln!(s, "{pad}add r{lc}, r{lc}, 1");
                let _ = writeln!(s, "{pad}setp.lt.s32 p1, r{lc}, {trips}");
                let _ = writeln!(s, "{pad}@p1 bra LOOP{id}");
            }
            Node::Bar => {
                let _ = writeln!(s, "{pad}bar.sync");
            }
        }
    }
}

/// The fuzz harness's [`Workload`] wrapper around one generated (or
/// fixture) kernel: allocates the out/in/ctr buffers, seeds the read-only
/// input from the kernel's LCG stream, and declares exact equivalence.
pub struct AdhocKernel {
    /// The kernel under test.
    pub kernel: Kernel,
    /// CTAs in the grid.
    pub ctas: usize,
    /// Threads per CTA.
    pub tpc: usize,
    /// LCG seed for the input buffer.
    pub input_seed: u32,
    /// Compare per-thread registers too (off for kernels with
    /// schedule-dependent register state).
    pub compare_regs: bool,
}

impl Workload for AdhocKernel {
    fn name(&self) -> &'static str {
        "fuzz"
    }

    // `is_sync` doubles as "registers are schedule-dependent" for the
    // differ; generated kernels keep registers deterministic.
    fn is_sync(&self) -> bool {
        !self.compare_regs
    }

    fn prepare(&self, gpu: &mut Gpu) -> Prepared {
        let g = gpu.mem_mut().gmem_mut();
        let out = g.alloc(self.ctas as u64 * self.tpc as u64 * OUT_STRIDE);
        let inp = g.alloc(IN_WORDS);
        let mut lcg = Lcg::new(self.input_seed);
        for i in 0..IN_WORDS {
            g.write_u32(inp + i * 4, lcg.next_u32());
        }
        let ctr = g.alloc(CTR_WORDS);
        Prepared::exact(
            vec![Stage {
                kernel: self.kernel.clone(),
                launch: LaunchSpec {
                    grid_ctas: self.ctas,
                    threads_per_cta: self.tpc,
                    params: vec![out as u32, inp as u32, ctr as u32],
                },
            }],
            // No host-side model: the reference interpreter *is* the
            // expected result, so per-engine verification is vacuous.
            |_gpu| Ok(()),
        )
    }
}

/// Outcome of fuzzing one seed.
pub struct FuzzCase {
    /// The generated kernel.
    pub kernel: FuzzKernel,
    /// Divergences found (empty = engines agree).
    pub reports: Vec<DivergenceReport>,
}

/// Generate, filter, and differentially check the kernel for `seed`.
/// Returns `None` if the generated kernel fails the static lint filter
/// (counted by the caller; by construction this should not happen).
pub fn run_seed(base_cfg: &GpuConfig, seed: u64, fuel: u64) -> Option<FuzzCase> {
    let kernel = FuzzKernel::generate(seed);
    let case = check_kernel(base_cfg, &kernel, fuel)?;
    Some(case)
}

/// Differentially check one structured kernel against the reference, and
/// the simulator's two engines against each other (shared by fuzzing and
/// shrinking). `None` = rejected by the lint filter or unassemblable.
fn check_kernel(base_cfg: &GpuConfig, fk: &FuzzKernel, fuel: u64) -> Option<FuzzCase> {
    let kernel = fk.assemble().ok()?;
    let analysis = analyze_insts(&kernel.insts);
    if analysis.has_errors() {
        return None;
    }
    let w = AdhocKernel {
        kernel,
        ctas: fk.ctas,
        tpc: fk.tpc,
        input_seed: fk.seed as u32,
        compare_regs: true,
    };
    let cell = fk.cell();
    let reference = crate::differ::run_reference(base_cfg, &w, fuel);
    let mut reports = check_cell(base_cfg, &w, &cell, &reference);
    reports.extend(check_engines(base_cfg, &w, &cell));
    for r in &mut reports {
        r.workload = format!("fuzz[seed={}]", fk.seed);
    }
    Some(FuzzCase {
        kernel: fk.clone(),
        reports,
    })
}

/// Shrink a diverging kernel: greedily apply structural mutations while
/// the *kind* of the first divergence is preserved. Deterministic; bounded
/// by `max_steps` accepted mutations.
pub fn shrink(base_cfg: &GpuConfig, case: &FuzzCase, fuel: u64, max_steps: usize) -> FuzzCase {
    let Some(first) = case.reports.first() else {
        return FuzzCase {
            kernel: case.kernel.clone(),
            reports: Vec::new(),
        };
    };
    let want = first.divergence.kind();
    let mut best = FuzzCase {
        kernel: case.kernel.clone(),
        reports: case.reports.clone(),
    };
    let mut steps = 0;
    'outer: while steps < max_steps {
        for m in best.kernel.mutants() {
            if let Some(c) = check_kernel(base_cfg, &m, fuel) {
                if c.reports.first().map(|r| r.divergence.kind()) == Some(want) {
                    best = c;
                    steps += 1;
                    continue 'outer;
                }
            }
        }
        break; // fixpoint: no mutant preserves the divergence
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_assembles() {
        for seed in 0..50 {
            let a = FuzzKernel::generate(seed);
            let b = FuzzKernel::generate(seed);
            assert_eq!(a.source(), b.source(), "seed {seed}");
            let k = a.assemble().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!analyze_insts(&k.insts).has_errors(), "seed {seed}");
        }
    }

    #[test]
    fn fuzz_smoke_engines_agree() {
        let cfg = GpuConfig::test_tiny();
        for seed in 0..25 {
            let case = run_seed(&cfg, seed, 1 << 22).expect("filter should pass");
            assert!(
                case.reports.is_empty(),
                "seed {seed}: {}",
                case.reports[0]
            );
        }
    }

    #[test]
    fn mutants_shrink_structure() {
        let k = FuzzKernel::generate(7);
        let total = count_nodes(&k.body);
        assert!(total >= 4);
        let ms = k.mutants();
        assert!(!ms.is_empty());
        // Drop-mutants must strictly reduce preorder node count.
        assert!(ms.iter().any(|m| count_nodes(&m.body) < total));
    }

    #[test]
    fn seeded_cell_is_deterministic() {
        let a = FuzzKernel::generate(3).cell();
        let b = FuzzKernel::generate(3).cell();
        assert_eq!(a.label(), b.label());
    }
}
