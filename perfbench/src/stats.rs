//! Small numeric helpers: exact percentiles, medians, geometric means,
//! a stable 64-bit digest, and the process's peak resident set.

use serde::Value;

/// Exact nearest-rank percentile of `samples` (`p` in `[0, 1]`): the
/// smallest sample with at least `p` of all samples at or below it.
/// Sorts in place. Returns `None` for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `samples` (the mean of the middle two for an even count),
/// sorted in place; `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// A latency percentile reported with the sample count it rests on, so
/// a reader can tell whether the tail percentile has enough samples
/// beyond it to mean anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Exact p50/p99 of `samples` (sorted in place); zeros when empty.
    pub fn of(samples: &mut [f64]) -> Quantiles {
        Quantiles {
            n: samples.len(),
            p50: percentile(samples, 0.50).unwrap_or(0.0),
            p99: percentile(samples, 0.99).unwrap_or(0.0),
        }
    }

    /// How many samples lie strictly above the p99 value.
    pub fn beyond_p99(samples: &[f64], p99: f64) -> usize {
        samples.iter().filter(|&&s| s > p99).count()
    }
}

/// Geometric mean of positive ratios; `None` when empty or when any
/// value is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// FNV-1a, 64 bit: stable across runs, platforms and commits, which is
/// what output digests need (the std hasher is randomly keyed).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes one float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Mixes anything serializable through its value tree, floats by bit
    /// pattern, so two outputs digest equally exactly when they are
    /// bit-identical.
    pub fn value<T: serde::Serialize + ?Sized>(&mut self, v: &T) {
        self.tree(&v.to_value());
    }

    fn tree(&mut self, v: &Value) {
        match v {
            Value::Null => self.u64(0),
            Value::Bool(b) => self.u64(1 + u64::from(*b)),
            Value::UInt(u) => {
                self.u64(3);
                self.u64(*u);
            }
            Value::Int(i) => {
                self.u64(4);
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.u64(5);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u64(6);
                self.str(s);
            }
            Value::Arr(items) => {
                self.u64(7);
                self.u64(items.len() as u64);
                for item in items {
                    self.tree(item);
                }
            }
            Value::Obj(pairs) => {
                self.u64(8);
                self.u64(pairs.len() as u64);
                for (k, item) in pairs {
                    self.str(k);
                    self.tree(item);
                }
            }
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of<T: serde::Serialize + ?Sized>(v: &T) -> u64 {
        let mut d = Digest::default();
        d.value(v);
        d.finish()
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let mut s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.50), Some(50.0));
        assert_eq!(percentile(&mut s, 0.99), Some(99.0));
        assert_eq!(percentile(&mut s, 1.0), Some(100.0));
        assert_eq!(percentile(&mut s, 0.0), Some(1.0));
        let mut one = vec![7.5];
        assert_eq!(percentile(&mut one, 0.99), Some(7.5));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn quantiles_report_the_sample_count() {
        let mut s: Vec<f64> = (0..1000).map(|i| f64::from(i % 250)).collect();
        let q = Quantiles::of(&mut s);
        assert_eq!(q.n, 1000);
        assert_eq!(q.p50, 124.0);
        assert_eq!(q.p99, 247.0);
        // 2 values (248, 249) x 4 copies lie above p99: exactly the 1%.
        assert_eq!(Quantiles::beyond_p99(&s, q.p99), 8);
        let empty = Quantiles::of(&mut []);
        assert_eq!((empty.n, empty.p50, empty.p99), (0, 0.0, 0.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn geomean_rejects_non_positive() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn digest_separates_bit_patterns_and_structure() {
        assert_eq!(digest_of(&1.0f64), digest_of(&1.0f64));
        assert_ne!(digest_of(&0.0f64), digest_of(&-0.0f64));
        assert_ne!(digest_of(&vec![1u64, 2]), digest_of(&vec![12u64]));
        assert_ne!(digest_of("ab"), digest_of("ba"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
