//! `perfbench`: the exi-sim benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|sweep|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark has three sections — `table1`, `sweep` and `serve` — each
//! run in a process of its own so its memory peak is its own. With
//! `--trace 0` every section runs, on the same schedule in every workload
//! (`SCHEDULE`), and every end-to-end metric is printed; `setup_s` and
//! `peak_rss_mb` come from the workload's own section. With `--trace 1`
//! only the workload's section runs, traced, and the per-layer metrics are
//! printed; a layer the section never reaches reads 0. The last line of
//! standard output is one JSON object; every output is checked, and a
//! failed check makes the exit code nonzero. See BENCHMARK.md for what each
//! number means.

mod replay;
mod serve;
mod sweep;
mod table1;
mod util;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use util::{json_number, json_string, Report};

const SECTIONS: [&str; 3] = ["table1", "sweep", "serve"];

/// How an end-to-end metric summarizes the samples the sections report.
#[derive(Clone, Copy)]
enum Summary {
    Median,
    P95,
    Max,
    /// The second smallest sample (the only one, if alone): the slowest
    /// fleet but one, so a single stalled fleet cannot decide the metric.
    SecondSmallest,
    /// Samples named `<stream>/<key>`: the second largest sample of each
    /// key (the only one, if alone), summed over the keys.
    SumOfSecondLargest,
}

/// End-to-end metrics as BENCHMARK.json lists them: name, unit, the sample
/// stream each summarizes, and how.
const END_TO_END: [(&str, &str, &str, Summary); 11] = [
    ("setup_s", "s", "setup_s", Summary::Median),
    ("er_s", "s", "er_s", Summary::SumOfSecondLargest),
    ("erc_s", "s", "erc_s", Summary::SumOfSecondLargest),
    ("benr_s", "s", "benr_s", Summary::SumOfSecondLargest),
    (
        "grid_jobs_per_s",
        "1/s",
        "grid_jobs_per_s",
        Summary::SecondSmallest,
    ),
    (
        "lane_jobs_per_s",
        "1/s",
        "lane_jobs_per_s",
        Summary::SecondSmallest,
    ),
    ("ttfc_p50_ms", "ms", "ttfc_ms", Summary::Median),
    ("ttfc_p95_ms", "ms", "ttfc_ms", Summary::P95),
    ("job_p50_ms", "ms", "job_ms", Summary::Median),
    ("job_p95_ms", "ms", "job_ms", Summary::P95),
    ("peak_rss_mb", "MiB", "peak_rss_mb", Summary::Max),
];

/// Per-layer metrics and their units, as BENCHMARK.json lists them.
const PER_LAYER: [(&str, &str); 33] = [
    ("netlist.plan.evaluate_us", "us"),
    ("netlist.plan.evaluate_calls", "count"),
    ("netlist.plan.restamped_entries", "count"),
    ("netlist.deck.parse_us", "us"),
    ("netlist.plan.compile_ms", "ms"),
    ("sparse.lu.symbolic_analyses", "count"),
    ("sparse.lu.factorize_ms", "ms"),
    ("sparse.lu.refactorize_us", "us"),
    ("sparse.lu.solve_us", "us"),
    ("sparse.lu.factor_nnz", "count"),
    ("sparse.lanes.lanes_per_refactorization", "lanes"),
    ("sparse.lanes.passes", "count"),
    ("core.lanes.detaches", "count"),
    ("sparse.shared.hits", "count"),
    ("sparse.shared.wait_events", "count"),
    ("core.batch.cache_wait_s", "s"),
    ("core.batch.worker_imbalance", "ratio"),
    ("krylov.mevp_us", "us"),
    ("krylov.mevp_calls", "count"),
    ("krylov.dim_mean", "dim"),
    ("krylov.operator_us", "us"),
    ("krylov.projected_us", "us"),
    ("krylov.projected_share", "ratio"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.bytes_per_job", "B"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.generator_late_ms", "ms"),
    ("core.session.accepted_steps", "count"),
    ("core.session.rejected_steps", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Samples taken only from the workload's own section.
const OWN_SECTION_ONLY: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// The sections a `--trace 0` run runs, in order, each with its share of
/// `--seconds`. Every section runs twice, apart, so its samples span the
/// run and a slow minute of the host does not decide a metric alone.
const SCHEDULE: [(&str, f64); 6] = [
    ("table1", 0.24),
    ("sweep", 0.16),
    ("serve", 0.1),
    ("table1", 0.24),
    ("sweep", 0.16),
    ("serve", 0.1),
];

/// Set-ups of the workload's own section per run, spread over its
/// processes (the other sections set up once).
const OWN_SETUPS: usize = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a section process: run this section for this many seconds,
    /// with this many set-ups, and report to the parent.
    section: Option<(String, f64, usize)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let workload = get("workload")?.to_string();
    if !SECTIONS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {SECTIONS:?})"
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    let section = match values.get("section") {
        Some(s) if SECTIONS.contains(s) => Some((
            s.to_string(),
            get("budget")?
                .parse()
                .map_err(|_| "--budget takes a number")?,
            get("setups")?
                .parse()
                .map_err(|_| "--setups takes an integer")?,
        )),
        Some(s) => return Err(format!("unknown section '{s}'")),
        None => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        section,
    })
}

fn run_section(name: &str, args: &Args, budget_s: f64, setups: usize) -> Report {
    let run = match name {
        "table1" => table1::run,
        "sweep" => sweep::run,
        _ => serve::run,
    };
    run(args.seed, budget_s, args.trace, setups)
}

/// Runs one section in a child process for `budget_s` seconds and parses
/// what it reports.
fn spawn_section(name: &str, budget_s: f64, setups: usize, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--section", name])
        .args(["--budget", &budget_s.to_string()])
        .args(["--setups", &setups.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start section {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("section {name} exited with {}", output.status));
    }
    Ok(Report::parse(&String::from_utf8_lossy(&output.stdout)))
}

fn largest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// The `rank`-th smallest of a non-empty sample (0 is the smallest), or its
/// largest when it has no more than `rank` values.
fn ranked(values: &[f64], rank: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank.min(v.len() - 1)]
}

/// The second largest sample of each `<stream>/<key>` series (the only
/// one, if alone), summed over the keys; `None` when the stream has no
/// samples.
fn sum_of_second_largest(samples: &BTreeMap<String, Vec<f64>>, stream: &str) -> Option<f64> {
    let prefix = format!("{stream}/");
    let seconds: Vec<f64> = samples
        .iter()
        .filter(|(name, v)| name.starts_with(&prefix) && !v.is_empty())
        .map(|(_, v)| ranked(v, v.len().saturating_sub(2)))
        .collect();
    (!seconds.is_empty()).then(|| seconds.iter().sum())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--serve-daemon") {
        serve::daemon();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <table1|sweep|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some((name, budget_s, setups)) = &args.section {
        run_section(name, &args, *budget_s, *setups).emit();
        return ExitCode::SUCCESS;
    }

    // (section, measuring seconds, set-ups) in the order they run.
    let own_runs = SCHEDULE.iter().filter(|(s, _)| *s == args.workload).count();
    let own_setups = OWN_SETUPS.div_ceil(own_runs);
    let schedule: Vec<(&str, f64, usize)> = if args.trace {
        let share: f64 = SCHEDULE
            .iter()
            .filter(|(s, _)| *s == args.workload)
            .map(|(_, share)| share)
            .sum();
        vec![(args.workload.as_str(), args.seconds * share, own_setups)]
    } else {
        SCHEDULE
            .iter()
            .map(|&(s, share)| {
                let setups = if s == args.workload { own_setups } else { 1 };
                (s, args.seconds * share, setups)
            })
            .collect()
    };
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut known_failures: BTreeMap<String, (String, String)> = BTreeMap::new();
    for (name, budget_s, setups) in schedule {
        let report = match spawn_section(name, budget_s, setups, &args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let own = name == args.workload;
        for (sample, value) in report.samples {
            if own || !OWN_SECTION_ONLY.contains(&sample.as_str()) {
                samples.entry(sample).or_default().push(value);
            }
        }
        metrics.extend(report.metrics);
        attempted += report.attempted;
        failed += report.failed;
        for (name, status, detail) in report.known_failures {
            known_failures.entry(name).or_insert((status, detail));
        }
    }

    let mut fields = Vec::new();
    let mut field = |name: &str, value: f64, unit: &str| {
        eprintln!("  {name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            // A layer this workload never reaches did no work there.
            field(name, metrics.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit, stream, summary) in END_TO_END {
            let series = samples.get(stream).filter(|v| !v.is_empty());
            let value = match summary {
                Summary::Median => series.map(|v| util::median(v)),
                Summary::P95 => series.map(|v| util::percentile(v, 95.0)),
                Summary::Max => series.map(|v| largest(v)),
                Summary::SecondSmallest => series.map(|v| ranked(v, 1)),
                Summary::SumOfSecondLargest => sum_of_second_largest(&samples, stream),
            };
            let value = match value {
                Some(value) => value,
                None => {
                    eprintln!("perfbench: end-to-end metric {name} was not measured");
                    failed += 1;
                    0.0
                }
            };
            field(name, value, unit);
        }
    }
    if !known_failures.is_empty() {
        let entries: Vec<String> = known_failures
            .iter()
            .map(|(name, (status, detail))| {
                format!(
                    "{{\"name\": {}, \"status\": {}, \"detail\": {}}}",
                    json_string(name),
                    json_string(status),
                    json_string(detail)
                )
            })
            .collect();
        println!("{{\"known_failures\": [{}]}}", entries.join(", "));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
