//! Host context stamped on every result record, and process counters read
//! from `/proc`.

use simt_serve::Json;
use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout);
    s.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host context for a result record, plus the workload's parallelism
/// (`shape`, e.g. grid jobs or service workers).
pub fn context(shape: &[(&str, usize)]) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("nproc".into(), Json::UInt(nproc() as u64)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        (
            "rustc".into(),
            Json::Str(first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_rev".into(),
            Json::Str(
                first_line_of("git", &["rev-parse", "HEAD"])
                    .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            ),
        ),
        ("engine".into(), Json::Str("skip".into())),
        ("sm_threads".into(), Json::UInt(1)),
    ];
    fields.extend(
        shape
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::UInt(v as u64))),
    );
    Json::Obj(fields)
}

fn status_kib(field: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

/// On-CPU time of the whole process (user + system, all threads including
/// finished ones), seconds, at clock-tick resolution.
pub fn process_cpu_s() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = s.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // `rest` starts at field 3 (state), so field n is at index n - 3.
    (ticks(14 - 3) + ticks(15 - 3)) as f64 / 100.0
}
