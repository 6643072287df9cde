//! Small helpers shared by the sections: a seeded generator, order
//! statistics, process memory and the child-to-parent metric protocol.

use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every input the benchmark hands
/// the program is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` in `(0, 100]` of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from procfs.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `setup` once; returns its product and its time.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let product = setup();
    (product, secs(start))
}

/// `first_s` followed by the times of `repeats - 1` further runs of
/// `setup`, whose products are dropped. Sections call it after their
/// measurement, so the extra set-ups never change the process state the
/// measured passes see, whichever workload asks for them.
pub fn setup_times<T>(first_s: f64, repeats: usize, mut setup: impl FnMut() -> T) -> Vec<f64> {
    let mut times = vec![first_s];
    for _ in 1..repeats {
        times.push(timed(&mut setup).1);
    }
    times
}

/// Runs `pass` at least `min_passes` times, and again while another pass as
/// long as the last one still ends within `budget_s` seconds; returns every
/// pass's result. Judging by the last pass keeps a section within its share
/// of the run without counting a cold first pass against the later ones.
pub fn passes_within<T>(budget_s: f64, min_passes: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut results = Vec::new();
    let mut last: f64 = 0.0;
    while results.len() < min_passes.max(1) || secs(start) + last <= budget_s {
        let begun = Instant::now();
        results.push(pass());
        last = secs(begun);
    }
    results
}

/// What a section process reports to the parent on its standard output, one
/// record per line: `sample <name> <value>` (one observation; the parent
/// takes medians and percentiles over all of a run's observations),
/// `metric <name> <value>` (a per-layer value), `ops <attempted> <failed>`
/// and `known_failure <name> <status> <detail>`.
#[derive(Default)]
pub struct Report {
    pub samples: Vec<(String, f64)>,
    pub metrics: Vec<(String, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub known_failures: Vec<(String, String, String)>,
}

impl Report {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.push((name.to_string(), value));
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Counts one checked operation; `ok == false` counts it as failed and
    /// prints why on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    pub fn emit(&self) {
        for (name, value) in &self.samples {
            println!("sample {name} {value}");
        }
        for (name, value) in &self.metrics {
            println!("metric {name} {value}");
        }
        for (name, status, detail) in &self.known_failures {
            println!("known_failure {name} {status} {detail}");
        }
        println!("ops {} {}", self.attempted, self.failed);
    }

    pub fn parse(text: &str) -> Report {
        let mut report = Report::default();
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("sample"), Some(name), Some(value)) => {
                    if let Ok(v) = value.trim().parse() {
                        report.sample(name, v);
                    }
                }
                (Some("metric"), Some(name), Some(value)) => {
                    if let Ok(v) = value.trim().parse() {
                        report.metric(name, v);
                    }
                }
                (Some("ops"), Some(a), Some(f)) => {
                    report.attempted += a.parse::<usize>().unwrap_or(0);
                    report.failed += f.trim().parse::<usize>().unwrap_or(1);
                }
                (Some("known_failure"), Some(name), Some(rest)) => {
                    let (status, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                    report.known_failures.push((
                        name.to_string(),
                        status.to_string(),
                        detail.to_string(),
                    ));
                }
                _ => {}
            }
        }
        report
    }
}

/// Formats `value` as a JSON number (non-finite values become 0).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
