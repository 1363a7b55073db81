//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_lr5|campaign_dme_lc|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `campaign_lr5` and `serve_mixed` are the workloads `BENCHMARK.json`
//! lists; `campaign_dme_lc` is an extra control run by name (see
//! `perfbench/README.md`).
//!
//! Runs one workload in this process (so `peak_rss_mb` is the
//! workload's own), checks its outputs, and prints a human-readable
//! table followed, as the last line of standard output, by one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set of `BENCHMARK.json`;
//! with `--trace 1` the run records spans around every layer call and
//! the metrics are the per-layer set. A failed output check prints
//! `"correct": false` with no metrics and exits 1. See
//! `perfbench/README.md` for what each workload and metric means.

mod campaign;
mod heap;
mod serve;
mod trace;
mod util;

use std::collections::BTreeSet;
use std::time::Duration;

use serde::json::Value;

/// Default `--seed`; the held-out seed later claims must also hold on
/// is [`HELD_OUT_SEED`].
pub const DEFAULT_SEED: u64 = 2018;
pub const HELD_OUT_SEED: u64 = 7;

const WORKLOADS: [&str; 3] = ["campaign_lr5", "campaign_dme_lc", "serve_mixed"];

/// Where traces and per-run scratch data go (ignored by git).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// The `(name, unit)` metric list of one section of `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    let doc = Value::parse(&text).unwrap_or_else(|e| die(&format!("BENCHMARK.json: {e}")));
    let list = doc
        .field(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|e| die(&format!("BENCHMARK.json `{section}`: {e}")));
    list.iter()
        .map(|m| {
            let get = |k: &str| {
                m.field(k).and_then(Value::as_str).map(str::to_owned).unwrap_or_else(|e| {
                    die(&format!("BENCHMARK.json `{section}` entry needs `{k}`: {e}"))
                })
            };
            (get("name"), get("unit"))
        })
        .collect()
}

#[global_allocator]
static HEAP: heap::CountingAlloc = heap::CountingAlloc;

fn main() {
    let mut workload = None;
    let mut opts = Opts { seed: DEFAULT_SEED, seconds: Duration::from_secs(10), traced: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| die("bad --seed")),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| die("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    die("--seconds must be in (0, 600]");
                }
                opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                opts.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        die(&format!("unknown workload `{workload}`"));
    }
    let declared = declared_metrics(if opts.traced { "per_layer" } else { "end_to_end" });
    if opts.traced {
        trace::enable();
    }
    std::fs::create_dir_all(out_dir())
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", out_dir().display())));

    eprintln!(
        "perfbench: {workload}, seed {}, {:.1} s, trace {}",
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.traced)
    );
    let mut report = match workload.as_str() {
        "campaign_lr5" => campaign::run(campaign::Kind::Lr5, opts),
        "campaign_dme_lc" => campaign::run(campaign::Kind::DmeLc, opts),
        "serve_mixed" => serve::run(opts),
        _ => unreachable!("workload names are checked above"),
    };
    if !opts.traced {
        report.notes.push(format!("peak resident set (VmHWM): {:.1} MiB", util::peak_rss_mb()));
    } else {
        report.metric("host.peak_rss_mb", util::peak_rss_mb());
    }

    // Every name must be declared and measured once; a per-layer
    // metric a workload never reaches reads 0. End-to-end values must
    // be finite and nonzero.
    let mut seen = BTreeSet::new();
    for (name, _) in &report.metrics {
        if !declared.iter().any(|(n, _)| n == name) || !seen.insert(name.clone()) {
            eprintln!("error: metric `{name}` is undeclared in BENCHMARK.json or measured twice");
            std::process::exit(3);
        }
    }
    let missing: Vec<&String> =
        declared.iter().map(|(n, _)| n).filter(|n| !seen.contains(*n)).collect();
    if opts.traced {
        for name in missing {
            report.notes.push(format!("{name}: not on this workload's path (0)"));
            report.metric(name, 0.0);
        }
    } else if !missing.is_empty() && report.check_failures.is_empty() {
        eprintln!("error: end-to-end metrics {missing:?} were not measured");
        std::process::exit(3);
    }
    report.metrics.sort_by_key(|(n, _)| declared.iter().position(|(d, _)| d == n));
    let failures: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, v)| !(v.is_finite() && (opts.traced || *v > 0.0)))
        .map(|(n, v)| format!("metric {n} has no valid measurement ({v})"))
        .collect();
    report.check_failures.extend(failures);
    let unit = |name: &str| &declared.iter().find(|(n, _)| n == name).expect("declared").1;

    if opts.traced {
        write_trace(&workload, opts.seed);
    }
    println!("{:<34} {:>16}  unit", "metric", "value");
    for (name, value) in &report.metrics {
        println!("{name:<34} {value:>16.6}  {}", unit(name));
    }
    for note in &report.notes {
        println!("{note}");
    }
    let correct = report.check_failures.is_empty();
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
        eprintln!("CHECK FAILED: {failure}");
    }
    let metrics = if correct {
        report
            .metrics
            .iter()
            .map(|(n, v)| format!(r#""{n}": {{"value": {v}, "unit": "{}"}}"#, unit(n)))
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        String::new()
    };
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Prints the per-name span summary (total and self time) and writes
/// every span to `perfbench/out/trace-<workload>-<seed>.json`.
fn write_trace(workload: &str, seed: u64) {
    let spans = trace::spans();
    let summary = trace::summary(&spans);
    println!(
        "span self times ({} spans): name, count, total ms, self ms, p50 ms, self p50 ms",
        spans.len()
    );
    for (name, s) in &summary {
        let ms = |v: &[u64]| util::median(&v.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>());
        println!(
            "  {name:<28} {:>7} {:>12.3} {:>12.3} {:>10.4} {:>10.4}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            ms(&s.durations),
            ms(&s.self_durations)
        );
    }
    let mut json = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        json.push_str(&format!(
            r#"{{"index": {i}, "name": "{}", "id": {}, "parent": {parent}, "start_ns": {}, "end_ns": {}}}"#,
            s.name, s.id, s.start_ns, s.end_ns
        ));
        json.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    json.push_str("], \"self_time\": {");
    let entries: Vec<String> = summary
        .iter()
        .map(|(name, s)| {
            format!(
                r#""{name}": {{"count": {}, "total_ns": {}, "self_ns": {}}}"#,
                s.count, s.total_ns, s.self_ns
            )
        })
        .collect();
    json.push_str(&entries.join(", "));
    json.push_str("}}\n");
    let path = out_dir().join(format!("trace-{workload}-{seed}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
