//! Latency samples: `sketchtree-loadgen`'s `LatencyHist` for the tail,
//! plus the exact samples for the median.
//!
//! The histogram reports a bucket's upper bound (≤ 1.6% wide), so a
//! steady median would read the very same number run after run; the
//! gated medians are computed from the exact samples instead.

use sketchtree_loadgen::hist::LatencyHist;
use std::time::Duration;

#[derive(Default)]
pub struct Lat {
    hist: LatencyHist,
    ns: Vec<u64>,
}

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 8] = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 0.9999];

impl Lat {
    pub fn record(&mut self, d: Duration) {
        self.hist.record_duration(d);
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn merge(&mut self, other: &Lat) {
        self.hist.merge_from(&other.hist);
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn count(&self) -> usize {
        self.ns.len()
    }

    /// Exact median in milliseconds; `None` without samples.
    pub fn p50_ms(&self) -> Option<f64> {
        median(self.ns.iter().map(|&n| n as f64 / 1e6).collect())
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, milliseconds)`.
    pub fn tail_ms(&self) -> Option<(f64, f64)> {
        let n = self.ns.len() as f64;
        let q = LADDER
            .iter()
            .rev()
            .copied()
            .find(|q| n * (1.0 - q) >= 10.0)?;
        Some((q, self.hist.quantile(q)? as f64 / 1e3))
    }

    /// One display line: median, tail and sample count.
    pub fn describe(&self) -> String {
        let p50 = self
            .p50_ms()
            .map_or("-".to_string(), |v| format!("{v:.3} ms"));
        let tail = match self.tail_ms() {
            Some((q, v)) => format!("p{} {v:.3} ms", q * 100.0),
            None => "no tail (< 20 samples)".to_string(),
        };
        format!("p50 {p50}, {tail}, n={}", self.count())
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let m = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[m]
    } else {
        (values[m - 1] + values[m]) / 2.0
    })
}
