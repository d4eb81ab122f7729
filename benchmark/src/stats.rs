//! Order statistics used by the ledger.

/// Midpoint-rank percentile with linear interpolation: the `i`-th of `n`
/// sorted samples sits at rank `(i + 0.5) / n`; `q` outside the outermost
/// midpoints clamps to the extreme sample. `q` in `[0, 1]`.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = (q * sorted.len() as f64 - 0.5).clamp(0.0, (sorted.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median, minimum and maximum of per-pass values: what the ledger prints
/// for every timing metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(samples: &[f64]) -> Spread {
        Spread {
            median: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_known_vectors() {
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // Even count: the median is the mean of the middle pair.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        // Odd count: the median is the middle sample.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        // Ranks beyond the outermost midpoints clamp.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.95), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        // 1..=100: rank 0.95 sits between the 95th and 96th samples.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&v, 0.95) - 95.5).abs() < 1e-9);
        assert!((percentile(&v, 0.5) - 50.5).abs() < 1e-9);
        // Quarter rank interpolates: pos = 0.25*4 - 0.5 = 0.5.
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 0.25), 15.0);
    }

    #[test]
    fn spread_and_geomean() {
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
