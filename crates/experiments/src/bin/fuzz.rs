//! `fuzz`: seeded random-kernel fuzzer for the differential oracle and
//! the simulator's engine-equivalence invariant.
//!
//! Deterministically generates a window of structured kernels starting at
//! `--seed` (`--scale` picks 500/5 000/20 000 seeds; `--count` overrides
//! exactly), runs each through the reference interpreter and the
//! cycle-level simulator under a seed-derived scheduler/chaos cell, runs
//! that cell under both simulator engines (`Engine::Skip` and
//! `Engine::Cycle` must agree on cycles, statistics, final memory, or the
//! error), and reports any divergence. Diverging kernels are shrunk to a minimal
//! reproducer; with `--emit <dir>` the shrunken kernel is written as a
//! committable `.s` fixture whose `expect` directive records the observed
//! divergence kind.
//!
//! The whole run is a pure function of `--seed`/`--count`: CI replays the
//! same window on every commit (`fuzz-smoke`). Exits 0 when every kernel
//! agrees, 1 on any divergence, 2 on usage errors.

use experiments::fuzz::{run_seed, shrink, FuzzCase};
use experiments::grid;
use simt_core::GpuConfig;
use std::process::ExitCode;

const USAGE: &str = "flags: --scale tiny|small|full   --seed <n>   --count <n>   --jobs <n>   \
--fuel <n>   --timeout-cycles <n>   --shrink-steps <n>   --emit <dir>";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    seed: u64,
    count: Option<u64>,
    scale_count: u64,
    fuel: u64,
    timeout_cycles: Option<u64>,
    shrink_steps: usize,
    emit: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        seed: 1,
        count: None,
        scale_count: 500,
        fuel: experiments::differ::DEFAULT_FUEL,
        timeout_cycles: None,
        shrink_steps: 64,
        emit: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
    };
    macro_rules! num {
        ($args:expr, $flag:literal) => {
            value($args, $flag)
                .parse()
                .unwrap_or_else(|_| usage_error(concat!("bad ", $flag)))
        };
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // The harness always fuzzes on the test_tiny config (generated
            // grids are tiny by construction); scale picks the seed-window
            // size instead. An explicit --count overrides it.
            "--scale" => {
                a.scale_count = match value(&mut args, "--scale").as_str() {
                    "tiny" => 500,
                    "small" => 5_000,
                    "full" => 20_000,
                    other => usage_error(&format!("unknown scale `{other}` (tiny|small|full)")),
                }
            }
            "--seed" => a.seed = num!(&mut args, "--seed"),
            "--count" => a.count = Some(num!(&mut args, "--count")),
            "--jobs" => grid::set_jobs(num!(&mut args, "--jobs")),
            "--fuel" => a.fuel = num!(&mut args, "--fuel"),
            "--timeout-cycles" => a.timeout_cycles = Some(num!(&mut args, "--timeout-cycles")),
            "--shrink-steps" => a.shrink_steps = num!(&mut args, "--shrink-steps"),
            "--emit" => a.emit = Some(value(&mut args, "--emit")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    a
}

/// Render a shrunk diverging case as a committable fixture: the generated
/// source with `expect agree` rewritten to the observed divergence kind
/// and the seed-derived chaos cell (if any) made explicit.
fn fixture_source(case: &FuzzCase) -> String {
    let kind = case
        .reports
        .first()
        .map_or("agree", |r| r.divergence.kind());
    let mut out = String::new();
    for line in case.kernel.source().lines() {
        if line.trim() == ";; differ: expect agree" {
            if let Some((seed, level)) = case.kernel.cell().chaos {
                out.push_str(&format!(";; differ: chaos {seed} {level}\n"));
            }
            out.push_str(&format!(";; differ: expect {kind}\n"));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn main() -> ExitCode {
    let args = parse_args();
    let count = args.count.unwrap_or(args.scale_count);
    let mut cfg = GpuConfig::test_tiny();
    if let Some(t) = args.timeout_cycles {
        cfg.max_cycles = t;
    }
    println!(
        "fuzz: seeds {}..{} on {} (fuel {})",
        args.seed,
        args.seed + count,
        cfg.name,
        args.fuel
    );

    let seeds: Vec<u64> = (args.seed..args.seed + count).collect();
    let cases = grid::parallel_map(&seeds, |_, &s| run_seed(&cfg, s, args.fuel));
    let rejected = cases.iter().filter(|c| c.is_none()).count();
    let diverging: Vec<&FuzzCase> = cases
        .iter()
        .flatten()
        .filter(|c| !c.reports.is_empty())
        .collect();
    println!(
        "fuzz: {} kernels checked, {} rejected by the lint filter, {} diverging",
        cases.len() - rejected,
        rejected,
        diverging.len()
    );

    for case in &diverging {
        println!("\nseed {} diverged: {}", case.kernel.seed, case.reports[0]);
        let small = shrink(&cfg, case, args.fuel, args.shrink_steps);
        println!(
            "  shrunk to {} nodes, ctas={} tpc={}",
            small.kernel.node_count(),
            small.kernel.ctas,
            small.kernel.tpc
        );
        if let Some(dir) = &args.emit {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("fuzz: cannot create {dir}: {e}");
                return ExitCode::FAILURE;
            }
            let path = format!("{dir}/fuzz_{}.s", small.kernel.seed);
            if let Err(e) = std::fs::write(&path, fixture_source(&small)) {
                eprintln!("fuzz: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("  wrote {path}");
        } else {
            println!("  reproduce with: fuzz --seed {} --count 1", small.kernel.seed);
        }
    }

    if diverging.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
