//! Summaries of repeated host-time samples: median, quartiles, and the
//! fastest-decile estimate of undisturbed time.

/// The quantile at which repeated timings of identical deterministic work
/// are read. Host noise on a shared machine only ever adds time, in bursts:
/// on the 2-vCPU VM this was sized on, the fastest decile of 12–48 samples of
/// 0.25 s repeats within 2–3 % between runs where their median moves 10 %
/// (README, "Measured spread").
pub const UNDISTURBED: f64 = 0.10;

/// Linear-interpolated quantile `q` of `sorted` (ascending, non-empty).
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median, quartiles and sample count of one measured quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; quartiles interpolate linearly between order
    /// statistics. `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        Some(Summary {
            n: sorted.len(),
            q1: quantile_of_sorted(&sorted, 0.25),
            median: quantile_of_sorted(&sorted, 0.5),
            q3: quantile_of_sorted(&sorted, 0.75),
        })
    }

    /// Interquartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The [`UNDISTURBED`] quantile of repeated timings (0 for an empty slice).
pub fn undisturbed(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile_of_sorted(&sorted(samples), UNDISTURBED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[7.0]).unwrap().spread(), 0.0);
        let timings: Vec<f64> = (0..11).map(|i| 10.0 + i as f64).collect();
        assert_eq!(undisturbed(&timings), 11.0);
        assert_eq!(undisturbed(&[3.0]), 3.0);
        assert_eq!(undisturbed(&[]), 0.0);
    }
}
