//! Small shared helpers: order statistics, a seeded generator, record
//! digests, host memory, and the report every workload fills in.

use lockstep_core::ErrorRecord;

/// The `q`-quantile (0..=1) of `values` by the nearest-rank method;
/// `f64::NAN` when empty. Infinite values (failed operations) sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, always seeded
/// from `--seed` so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A DSR-shaped value: a few of the 62 SC bits set.
    pub fn dsr(&mut self) -> u64 {
        let bits = 1 + self.below(4);
        (0..bits).fold(0u64, |acc, _| acc | 1 << self.below(62))
    }
}

/// FNV-1a over every field of every record, in order: equal digests
/// mean equal record streams.
pub fn digest(records: &[ErrorRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.workload.as_bytes());
        eat(&[r.unit_index, r.fault as u8]);
        eat(&r.inject_cycle.to_le_bytes());
        eat(&r.detect_cycle.to_le_bytes());
        eat(&r.dsr.bits().to_le_bytes());
    }
    h
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Worker threads for campaigns and load: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (failed ones also count as
    /// missing every latency limit).
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one message each; empty means correct.
    pub check_failures: Vec<String>,
    /// `(name, value)` in print order; units come from `BENCHMARK.json`.
    pub metrics: Vec<(String, f64)>,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// Reports the end-to-end measurements: as themselves in an
    /// untraced run, as `traced.<name>` per-layer metrics in a traced
    /// one (their difference is the tracing overhead).
    pub fn end_to_end(&mut self, traced: bool, values: &[(&str, f64)]) {
        for &(name, value) in values {
            if traced {
                self.metric(&format!("traced.{name}"), value);
            } else {
                self.metric(name, value);
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}
