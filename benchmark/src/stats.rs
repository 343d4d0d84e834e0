//! Order statistics for the benchmark's samples.

/// Quartiles of a sample: `(q1, median, q3)` by linear interpolation
/// between order statistics. Empty samples read 0.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (
        percentile_sorted(&v, 0.25),
        percentile_sorted(&v, 0.5),
        percentile_sorted(&v, 0.75),
    )
}

/// Median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// The `p`-quantile (0..=1) of an ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Geometric mean; a non-positive member makes it 0 (the caller only
/// aggregates quantities that are positive on every model).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A sample reduced to what the report prints.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
        }
    }
}

/// SplitMix64: the benchmark's own request-stream generator (the program
/// under test only ever receives the inputs generated from it).
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let (q1, m, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[2.0, 0.0]), 0.0);
    }
}
