//! Microbenchmarks isolating the two hot-path changes of the overhaul on
//! synthetic traces, outside the full simulator:
//!
//! 1. **decode-dispatch vs enum-dispatch** — the per-issue cost of reading
//!    a flat [`simt_isa::DecodedInst`] (precomputed scoreboard masks,
//!    resolved operands) against re-matching the nested `Inst`/`Operand`
//!    enums the way the pre-overhaul executor did on every eligibility
//!    check.
//! 2. **slab vs HashMap** — the pending-memory (`TagSlab`) and line-keyed
//!    (`ProbeMap`) access patterns against the `HashMap`s they replaced.
//!
//! Wall times are best-of-`REPS` over `ITERS`-step loops; a checksum from
//! every loop is printed so the work cannot be optimized away. Run with
//! `cargo run --release -p experiments --bin hotpath_bench`.

use simt_core::Scoreboard;
use simt_isa::asm::assemble;
use simt_isa::DecodedKernel;
use simt_mem::{ProbeMap, TagSlab};
use std::collections::HashMap;
use std::time::Instant;

const ITERS: usize = 2_000_000;
const REPS: usize = 5;

/// Deterministic pseudo-random stream (same LCG family as the chaos
/// engine) so every variant of a comparison replays one identical trace.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Best-of-REPS wall time of `f`, in nanoseconds per iteration, folding
/// each rep's checksum so the optimizer must keep the loop.
fn time(label: &str, mut f: impl FnMut() -> u64) {
    let mut best = f64::INFINITY;
    let mut sum = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        sum = sum.wrapping_add(f());
        let ns = t0.elapsed().as_nanos() as f64;
        best = best.min(ns / ITERS as f64);
    }
    println!("  {label:<28} {best:>8.2} ns/op   (checksum {sum:#x})");
}

/// A kernel body with the instruction mix the sync workloads issue:
/// address math, loads, compare/branch, an atomic, a store.
fn sample_kernel() -> simt_isa::Kernel {
    assemble(
        r#"
        .kernel hotpath
        .regs 16
        .params 2
            ld.param r1, [0]
            ld.param r2, [1]
            mov r3, %gtid
            shl r4, r3, 2
            add r5, r1, r4
        LOOP:
            ld.global r6, [r5]
            add r6, r6, 1
            setp.lt.s32 p1, r6, r2
            atom.global.cas r7, [r5], 0, 1
            st.global [r5], r6
        @p1 bra LOOP
            exit
        "#,
    )
    .expect("sample kernel assembles")
}

fn bench_dispatch() {
    let kernel = sample_kernel();
    let decoded = DecodedKernel::decode(&kernel);
    let n = decoded.insts.len();
    let mut sb = Scoreboard::new();
    // A live scoreboard so neither hazard path short-circuits on "empty".
    sb.reserve_reg(simt_isa::Reg(6));
    sb.reserve_pred(simt_isa::Pred(1));

    println!("dispatch ({} insts, {} steps):", n, ITERS);
    // Identical pc trace for both variants.
    let pcs: Vec<usize> = {
        let mut rng = Lcg(0x5eed);
        (0..ITERS).map(|_| rng.next() as usize % n).collect()
    };
    time("enum has_hazard", || {
        let mut acc = 0u64;
        for &pc in &pcs {
            acc = acc.wrapping_add(sb.has_hazard(&kernel.insts[pc]) as u64);
        }
        acc
    });
    time("decoded has_hazard_masks", || {
        let mut acc = 0u64;
        for &pc in &pcs {
            let d = &decoded.insts[pc];
            acc = acc.wrapping_add(sb.has_hazard_masks(&d.reg_mask, d.pred_mask) as u64);
        }
        acc
    });
    // Operand resolution: the enum path re-matches `Operand` per read the
    // way the old per-lane loop did; the decoded path reads flat fields.
    time("enum operand walk", || {
        let mut acc = 0u64;
        for &pc in &pcs {
            for op in &kernel.insts[pc].srcs {
                acc = acc.wrapping_add(match *op {
                    simt_isa::Operand::Reg(r) => r.0 as u64,
                    simt_isa::Operand::Imm(v) => v as u64,
                    simt_isa::Operand::Special(_) => 7,
                });
            }
        }
        acc
    });
    time("decoded operand walk", || {
        let mut acc = 0u64;
        for &pc in &pcs {
            let d = &decoded.insts[pc];
            for op in &d.srcs {
                acc = acc.wrapping_add(match *op {
                    simt_isa::Operand::Reg(r) => r.0 as u64,
                    simt_isa::Operand::Imm(v) => v as u64,
                    simt_isa::Operand::Special(_) => 7,
                });
            }
        }
        acc
    });
}

fn bench_tag_maps() {
    println!("pending-tag map, {} ops (insert/get_mut/remove churn):", ITERS);
    // The Sm::pending pattern: allocate a tag at issue, hit it once per
    // completing request, remove when drained. Working set stays small
    // (tens of in-flight entries), which is exactly where hashing loses.
    time("HashMap<u64, u64>", || {
        let mut m: HashMap<u64, u64> = HashMap::new();
        let mut next_tag = 0u64;
        let mut rng = Lcg(0xfeed);
        let mut tags: Vec<u64> = Vec::new();
        let mut acc = 0u64;
        for _ in 0..ITERS {
            if tags.len() < 24 || rng.next().is_multiple_of(2) {
                m.insert(next_tag, next_tag ^ 0xabcd);
                tags.push(next_tag);
                next_tag += 1;
            } else {
                let i = rng.next() as usize % tags.len();
                let t = tags.swap_remove(i);
                if let Some(v) = m.get_mut(&t) {
                    acc = acc.wrapping_add(*v);
                }
                m.remove(&t);
            }
        }
        acc
    });
    time("TagSlab<u64>", || {
        let mut m: TagSlab<u64> = TagSlab::new();
        let mut next_tag = 0u64;
        let mut rng = Lcg(0xfeed);
        let mut tags: Vec<u64> = Vec::new();
        let mut acc = 0u64;
        for _ in 0..ITERS {
            if tags.len() < 24 || rng.next().is_multiple_of(2) {
                let t = m.insert(next_tag ^ 0xabcd);
                tags.push(t);
                next_tag += 1;
            } else {
                let i = rng.next() as usize % tags.len();
                let t = tags.swap_remove(i);
                if let Some(v) = m.get_mut(t) {
                    acc = acc.wrapping_add(*v);
                }
                m.remove(t);
            }
        }
        acc
    });
}

fn bench_line_maps() {
    println!("line-keyed map, {} ops (lock_owners/parked pattern):", ITERS);
    // Line addresses: 128-byte aligned, small hot set plus a cold tail.
    let addrs: Vec<u64> = {
        let mut rng = Lcg(0x10c);
        (0..ITERS)
            .map(|_| {
                let line = if rng.next().is_multiple_of(4) {
                    rng.next() % 4096
                } else {
                    rng.next() % 32
                };
                line * 128
            })
            .collect()
    };
    time("HashMap<u64, u64>", || {
        let mut m: HashMap<u64, u64> = HashMap::new();
        let mut acc = 0u64;
        for &a in &addrs {
            match m.get(&a) {
                Some(&v) => {
                    acc = acc.wrapping_add(v);
                    m.remove(&a);
                }
                None => {
                    m.insert(a, a ^ 0x5a5a);
                }
            }
        }
        acc
    });
    time("ProbeMap<u64>", || {
        let mut m: ProbeMap<u64> = ProbeMap::new();
        let mut acc = 0u64;
        for &a in &addrs {
            match m.get(a) {
                Some(&v) => {
                    acc = acc.wrapping_add(v);
                    m.remove(a);
                }
                None => {
                    m.insert(a, a ^ 0x5a5a);
                }
            }
        }
        acc
    });
}

fn main() {
    println!("hotpath_bench: best of {REPS} reps\n");
    bench_dispatch();
    println!();
    bench_tag_maps();
    println!();
    bench_line_maps();
}
