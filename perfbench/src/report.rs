//! Result plumbing shared by every workload: nearest-rank percentiles,
//! the metric-name grammar, peak-RSS probes, and the one-line JSON
//! result the benchmark prints last.

use std::collections::BTreeMap;

use fcm_substrate::Json;

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports every one of them; README.md gives each its per-workload
/// meaning. Tail percentiles print as diagnostics: on the shared host
/// this was sized on, host interference moved them several-fold between
/// runs of the same code.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("recover_s", "s"),
];

/// Per-layer metrics (traced runs), with units. A traced run reports
/// all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("host.probe_ms", "ms"),
    ("alloc.h1_ms", "ms"),
    ("alloc.h2_ms", "ms"),
    ("alloc.h3_ms", "ms"),
    ("alloc.map_ms", "ms"),
    ("alloc.failover_ms", "ms"),
    ("alloc.strategy_ok_ratio", "ratio"),
    ("core.separation_ms", "ms"),
    ("check.plan_gate_ms", "ms"),
    ("eval.reliability_ms", "ms"),
    ("sim.mission_ms", "ms"),
    ("plan.timed_share", "ratio"),
    ("plan.trace_overhead_per_s", "1/s"),
    ("serve.decode_us", "us"),
    ("serve.render_us", "us"),
    ("serve.apply_us", "us"),
    ("serve.query_us", "us"),
    ("serve.journal_us", "us"),
    ("check.gate_us", "us"),
    ("alloc.graph_clone_us", "us"),
    ("serve.snapshot_ms", "ms"),
    ("serve.wait_us", "us"),
    ("serve.read_wait_us", "us"),
    ("serve.sender_late_p99_us", "us"),
    ("serve.recover_read_ms", "ms"),
    ("serve.recover_build_ms", "ms"),
    ("serve.recover_replay_ms", "ms"),
    ("serve.journal_bytes_per_write", "B"),
    ("serve.rejected", "count"),
];

/// One reported figure: value plus unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric value as measured (never rounded).
    pub value: f64,
    /// Unit string, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// A workload's outcome: correctness, operation accounting, metrics,
/// and unrated diagnostic lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (plans, or requests sent).
    pub attempted: u64,
    /// Operations failed: `"ok":false`, I/O error, timeout, strategy error.
    pub failed: u64,
    /// Metrics by name (sorted, so output is canonical).
    pub metrics: BTreeMap<String, Metric>,
    /// Human-readable diagnostics (printed as `# ` lines).
    pub notes: Vec<String>,
    /// Correctness failures, each one line; empty = every check passed.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .any(|&m| m == (name, unit)),
            "unlisted metric {name} [{unit}]"
        );
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    /// Keeps the metrics the run reports: the per-layer set when
    /// traced (a layer this workload never called reads 0), else the
    /// end-to-end set, every one of which must have been measured.
    pub fn select(&mut self, trace: bool) {
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        self.metrics
            .retain(|name, _| wanted.iter().any(|(n, _)| n == name));
        for &(name, unit) in wanted {
            if !self.metrics.contains_key(name) {
                if trace {
                    self.metrics
                        .insert(name.to_string(), Metric { value: 0.0, unit });
                } else {
                    self.mismatch(format!("metric {name} was not measured"));
                }
            }
        }
    }

    /// Records a correctness failure.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    /// Adds a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut metrics = Json::object();
        for (name, m) in &self.metrics {
            metrics = metrics.set(
                name,
                Json::object().set("unit", m.unit).set("value", m.value),
            );
        }
        Json::object()
            .set("attempted", self.attempted)
            .set("correct", self.mismatches.is_empty())
            .set("failed", self.failed)
            .set("metrics", metrics)
            .to_string_compact()
    }
}

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it. `None` when
/// the sample is empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A sorted latency sample with its percentile summary.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (NaN-free by construction: durations).
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Sample count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile (0 when empty).
    #[must_use]
    pub fn pct(&self, p: f64) -> f64 {
        nearest_rank(&self.sorted, p).unwrap_or(0.0)
    }

    /// Samples strictly above the `p`th percentile — how many values a
    /// tail percentile rests on.
    #[must_use]
    pub fn beyond(&self, p: f64) -> usize {
        let v = self.pct(p);
        self.sorted.iter().filter(|&&x| x > v).count()
    }

    /// `p50/p90/p99 (n=…, beyond p99=…)` — a diagnostic line fragment
    /// giving every percentile with the counts it rests on.
    #[must_use]
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p90 {:.4} {unit}, p99 {:.4} {unit}, max {:.4} {unit} (n={}, beyond p90={}, beyond p99={})",
            self.pct(50.0) * scale,
            self.pct(90.0) * scale,
            self.pct(99.0) * scale,
            self.pct(100.0) * scale,
            self.len(),
            self.beyond(90.0),
            self.beyond(99.0),
        )
    }
}

/// Median of an unsorted slice (upper median for even lengths, as
/// nearest-rank p50). 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).pct(50.0)
}

/// Peak resident set size (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`; `pid` `None` means this process.
#[must_use]
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// 64-bit FNV-1a, for order-sensitive digests of outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}
