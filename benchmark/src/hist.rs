//! Log-linear histogram of nanosecond samples.
//!
//! Values below 2^[`SUB_BITS`] are counted exactly; every further
//! power-of-two range is cut into 2^[`SUB_BITS`] equal buckets. A
//! quantile is interpolated linearly inside the bucket that holds it,
//! so it always lies inside that bucket: its relative error is at most
//! 2^-[`SUB_BITS`] (1.6%), whatever the magnitude.
//!
//! A quantile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it — a p99 of 200 samples is the second-largest value, not a
//! percentile.

/// Linear sub-bucket resolution per power-of-two range.
pub const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const N_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bound on the relative error of a reported quantile.
#[cfg(test)]
const REL_ERR: f64 = 1.0 / SUB as f64;

/// Samples that must lie beyond a quantile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
}

/// Lower bound and width of bucket `i`.
fn bucket_span(i: usize) -> (f64, f64) {
    let block = i / SUB;
    let sub = (i % SUB) as u64;
    if block == 0 {
        return (sub as f64, 1.0);
    }
    let shift = block as u32 - 1;
    (((SUB as u64 + sub) as f64) * (1u64 << shift) as f64, (1u64 << shift) as f64)
}

/// A fixed-size histogram; recording is O(1), merging is element-wise.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; N_BUCKETS], count: 0, max: 0 }
    }
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, exact.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value below which a share `q` (0 < q < 1) of the samples
    /// lie, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
    /// it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = q * self.count as f64;
        if (self.count as f64 - rank) < MIN_BEYOND as f64 {
            return None;
        }
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bucket_span(i);
                return Some(lo + width * (rank - below as f64) / c as f64);
            }
            below += c;
        }
        None
    }

    /// [`Histogram::quantile`] in microseconds, 0 when refused (a
    /// refused tail is printed as 0 with its sample count beside it).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q).map_or(0.0, |ns| ns / 1e3)
    }
}

/// Median of a slice of per-window values (the mean of the two middle
/// ones for an even count). 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Xorshift;

    #[test]
    fn every_value_falls_inside_its_bucket() {
        let mut rng = Xorshift::new(7);
        for _ in 0..100_000 {
            let v = rng.next_u64() >> (rng.bounded(60) as u32);
            let (lo, width) = bucket_span(bucket_index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v} not in [{lo}, +{width})");
            assert!(width <= (lo * REL_ERR).max(1.0));
        }
    }

    #[test]
    fn quantiles_stay_within_the_stated_relative_error() {
        let mut rng = Xorshift::new(11);
        // Five decades, like latencies: 100 ns .. 10 ms, log-uniform.
        let mut samples: Vec<u64> =
            (0..200_000).map(|_| (100.0 * 10f64.powf(5.0 * rng.unit())) as u64).collect();
        let mut h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = samples[(q * samples.len() as f64) as usize - 1] as f64;
            let got = h.quantile(q).expect("enough samples");
            assert!(((got - exact) / exact).abs() <= REL_ERR, "q={q}: {got} vs exact {exact}");
        }
        assert_eq!(h.max(), *samples.last().unwrap());
    }

    #[test]
    fn refuses_a_percentile_without_ten_samples_beyond_it() {
        let mut h = Histogram::default();
        for v in 1..=999u64 {
            h.record(v * 1000);
        }
        // 999 samples: p99 has 9.99 beyond it, p50 has plenty.
        assert!(h.quantile(0.99).is_none());
        assert!(h.quantile(0.5).is_some());
        h.record(1_000_000);
        assert!(h.quantile(0.99).is_some());
        assert!(h.quantile(0.999).is_none());
        assert_eq!(h.quantile_us(0.999), 0.0);
        assert!(Histogram::default().quantile(0.5).is_none());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) =
            (Histogram::default(), Histogram::default(), Histogram::default());
        for v in 0..5000u64 {
            let h = if v % 3 == 0 { &mut a } else { &mut b };
            h.record(v * 37);
            both.record(v * 37);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.quantile(0.9), both.quantile(0.9));
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
