//! Metric lists, percentiles, the host/commit fingerprint and the result
//! line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Human-readable context (sample counts, percentile), printed beside
    /// the value but not in the result line.
    pub note: String,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric without a note.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    /// Appends a metric with a note.
    pub fn push_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One `name value unit (note)` line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|m| {
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                };
                format!("{:<36} {:>16.6} {}{note}", m.name, m.value, m.unit)
            })
            .collect()
    }
}

/// Nearest-rank percentile `p` (0–100] of unsorted samples; 0 when empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Host and commit fingerprint recorded with every result.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}, \"source_digest\": {}, \"profile\": {}}}",
        json_string(&output("rustc", &["-V"])),
        json_string(&output("git", &["rev-parse", "HEAD"])),
        json_string(&source_digest()),
        json_string(if cfg!(debug_assertions) { "debug" } else { "release" }),
    )
}

/// FNV-1a over the served program's sources (`Cargo.lock` and `crates/`,
/// in path order), so a result names its code even in a checkout that is
/// not a git repository.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        for byte in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
