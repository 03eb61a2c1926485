//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload sync_fermi|syncfree_fermi|serve_mix --seed N
//!           --seconds S --trace 0|1
//! perfbench --write-digests
//! ```
//!
//! Human-readable results go to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. A result record (host context, per-pass detail) and,
//! for traced runs, the span file are written under `.bench_out/`. The
//! exit status is non-zero when any operation failed its check.

use perfbench::figure::Suite;
use perfbench::{digest, figure, host, serve, Outcome, END_TO_END, PER_LAYER};
use simt_serve::Json;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload sync_fermi|syncfree_fermi|serve_mix \
     --seed N --seconds S --trace 0|1\n       perfbench --write-digests";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The run's arguments, or `None` for `--write-digests`.
fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => {
                seed = Some(
                    value("--seed")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --seed")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                trace = Some(match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            "--write-digests" => return None,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    Some(Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn write_digests() {
    let t = Instant::now();
    let digests = figure::digests(workloads::Scale::Small, 0);
    let paper = digest::Expected::committed().paper;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    std::fs::write(&path, digest::render_expected(&paper, &digests)).expect("write expected.json");
    eprintln!(
        "wrote {} digests to {} in {:.1}s",
        digests.len(),
        path.display(),
        t.elapsed().as_secs_f64()
    );
}

fn main() {
    let Some(args) = parse_args() else {
        write_digests();
        return;
    };
    let started = Instant::now();
    let out: Outcome = match (args.workload.as_str(), args.trace) {
        ("sync_fermi", false) => figure::measure(Suite::Sync, args.seed, args.seconds),
        ("syncfree_fermi", false) => figure::measure(Suite::SyncFree, args.seed, args.seconds),
        ("serve_mix", false) => serve::measure(args.seed, args.seconds),
        ("sync_fermi", true) => figure::traced(Suite::Sync, args.seed),
        ("syncfree_fermi", true) => figure::traced(Suite::SyncFree, args.seed),
        ("serve_mix", true) => serve::traced(args.seed),
        (other, _) => usage(&format!("unknown workload `{other}`")),
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };

    eprintln!(
        "perfbench {} seed {} trace {} ({:.1}s)",
        args.workload,
        args.seed,
        args.trace as u8,
        started.elapsed().as_secs_f64()
    );
    for (name, unit) in wanted {
        eprintln!("  {name:<32} {:>18.6} {unit}", out.metrics.get(name));
    }
    for n in &out.notes {
        eprintln!("  note: {n}");
    }
    let failed = out.failures.len() as u64;
    if let Some(first) = out.failures.first() {
        eprintln!("  FAILED {failed} of {}; first: {first}", out.attempted);
    }

    let metrics = Json::Obj(
        wanted
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(out.metrics.get(name))),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::UInt(out.attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), metrics),
    ]);

    let dir = Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let mut record = vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        (
            "host".into(),
            host::context(if args.workload == "serve_mix" {
                &[
                    ("service_workers", serve::WORKERS),
                    ("clients", serve::CLIENTS),
                ]
            } else {
                // Figure passes run their cells serially.
                &[("grid_jobs", 1)]
            }),
        ),
        (
            "run_wall_s".into(),
            Json::Num(started.elapsed().as_secs_f64()),
        ),
        ("run_cpu_s".into(), Json::Num(host::process_cpu_s())),
        (
            "failures".into(),
            Json::Arr(out.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("result".into(), result.clone()),
    ];
    record.extend(out.record);
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            Json::Obj(record).render() + "\n",
        )?;
        if !out.spans.is_empty() {
            let path = dir.join(format!("{stem}-spans.jsonl"));
            std::fs::write(&path, perfbench::trace::to_jsonl(&out.spans))?;
            eprintln!("  spans: {} ({} spans)", path.display(), out.spans.len());
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("  warning: could not write the result record: {e}");
    }

    println!("{}", result.render());
    if failed > 0 {
        std::process::exit(1);
    }
}
