//! What one run prints: checks, metrics with units, the host and
//! geometry stamp, and the closing one-line JSON result.

use std::time::Instant;

use monotone_coord::seed::{splitmix64, SeedHasher};

/// The geometry a run measured at, stamped on every result.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub shards: usize,
    pub engine_threads: usize,
    pub worker_processes: usize,
    pub k: usize,
}

/// A deterministic generator of workload inputs, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Per-window quantiles of a stream of timings. Values are grouped into
/// consecutive windows of `size`; each full window keeps its median and
/// its `tail` quantile, and the run reports their [`trimmed_mean`] over
/// windows: the
/// percentile averaged over the run's time. A shared host that switches
/// between faster and slower phases moves this figure in proportion to
/// the time spent in each phase, where a pooled median would jump
/// between the phases' modes; a burst of interference moves only the few
/// windows it lands in, which the trim drops. Memory stays one window
/// however long the run. A run shorter than one window is one window.
#[derive(Debug, Clone)]
pub struct Windows {
    size: usize,
    tail: f64,
    buf: Vec<f64>,
    p50: Vec<f64>,
    ptail: Vec<f64>,
    seen: u64,
}

impl Windows {
    pub fn new(size: usize, tail: f64) -> Windows {
        Windows {
            size,
            tail,
            buf: Vec::with_capacity(size),
            p50: Vec::new(),
            ptail: Vec::new(),
            seen: 0,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.buf.push(v);
        self.seen += 1;
        if self.buf.len() == self.size {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.buf.sort_by(f64::total_cmp);
        self.p50.push(quantile(&self.buf, 0.50));
        self.ptail.push(quantile(&self.buf, self.tail));
        self.buf.clear();
    }

    /// Values pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Trimmed mean over windows of each window's median and tail
    /// quantile.
    pub fn p50_tail(&mut self) -> (f64, f64) {
        if self.p50.is_empty() && !self.buf.is_empty() {
            self.flush();
        }
        (trimmed_mean(&self.p50), trimmed_mean(&self.ptail))
    }
}

/// Throughput per window of `size` calls (work done ÷ seconds inside the
/// calls), reported as the trimmed mean over windows — see [`Windows`].
#[derive(Debug, Clone)]
pub struct RateWindows {
    size: usize,
    calls: usize,
    work: f64,
    ns: f64,
    rates: Vec<f64>,
}

impl RateWindows {
    pub fn new(size: usize) -> RateWindows {
        RateWindows {
            size,
            calls: 0,
            work: 0.0,
            ns: 0.0,
            rates: Vec::new(),
        }
    }

    /// One call that did `work` units in `ns` nanoseconds.
    pub fn push(&mut self, work: u64, ns: u64) {
        self.calls += 1;
        self.work += work as f64;
        self.ns += ns as f64;
        if self.calls == self.size {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.rates.push(ratio(self.work, self.ns / 1e9));
        self.calls = 0;
        self.work = 0.0;
        self.ns = 0.0;
    }

    /// Trimmed mean per-second rate over windows.
    pub fn rate(&mut self) -> f64 {
        if self.rates.is_empty() && self.calls > 0 {
            self.flush();
        }
        trimmed_mean(&self.rates)
    }
}

/// Timings per window (10⁴ keeps 100 samples beyond each window's p99),
/// rounds per window, and ingest calls per throughput window.
pub const OP_WINDOW: usize = 10_000;
/// The tail quantile of per-op latency: p99 where a run yields windows of
/// 10⁴ ops.
pub const OP_TAIL: f64 = 0.99;
pub const ROUND_WINDOW: usize = 1_000;
pub const INGEST_WINDOW: usize = 10_000;

/// An order-sensitive digest of answers, for bit-identity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest(u64);

impl Digest {
    pub fn add(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v).wrapping_add(v.rotate_left(29));
    }

    pub fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }
}

/// The `p`-quantile (nearest rank) of sorted `xs`; 0 for no samples.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The mean of `xs` without its lowest and highest tenth (the median
/// when that leaves nothing).
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return quantile(&v, 0.5);
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process plus the given children, in
/// MiB (Linux `VmHWM`; 0 where `/proc` is unavailable).
pub fn peak_rss_mb(children: &[u32]) -> f64 {
    let hwm = |pid: &str| -> f64 {
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .unwrap_or(0.0)
            / 1024.0
    };
    hwm("self") + children.iter().map(|c| hwm(&c.to_string())).sum::<f64>()
}

/// Pids of this process's live children (the shard workers).
pub fn child_pids() -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
            out.extend(
                list.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The CPUs this process may run on (Linux `Cpus_allowed_list`).
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cores the run may use: `PERFBENCH_NPROC` when `run.py` pinned the
/// process to one core (and recorded the count first), else the
/// available parallelism.
pub fn nproc() -> usize {
    std::env::var("PERFBENCH_NPROC")
        .ok()
        .and_then(|n| n.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn json_str(s: &str) -> String {
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

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub geometry: Geometry,
    pub worker_binary: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool, geometry: Geometry) -> Report {
        Report {
            workload,
            seed,
            traced,
            geometry,
            worker_binary: None,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_owned(), ok, detail));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|(_, ok, _)| *ok)
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn stamp_json(&self) -> String {
        let g = self.geometry;
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": {}, \
             \"cpus_allowed\": {}, \"seed_many_lanes\": {}, \"shards\": {}, \
             \"engine_threads\": {}, \"worker_processes\": {}, \"k\": {}, \"worker_binary\": {}}}",
            json_str(self.workload),
            self.seed,
            u8::from(self.traced),
            nproc(),
            json_str(&cpu_model()),
            json_str(&cpus_allowed()),
            json_str(SeedHasher::seed_many_lanes()),
            g.shards,
            g.engine_threads,
            g.worker_processes,
            g.k,
            self.worker_binary
                .as_deref()
                .map_or_else(|| "null".to_owned(), json_str),
        )
    }

    /// Prints the human-readable lines, then the stamp, then the result
    /// JSON as the last line of standard output.
    pub fn print(&self) {
        for (name, ok, detail) in &self.checks {
            println!(
                "check {name}: {} ({detail})",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        println!(
            "metric failed_op_frac = {} 1",
            ratio(self.failed as f64, self.attempted as f64)
        );
        println!("stamp {}", self.stamp_json());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
