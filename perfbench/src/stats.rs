//! Order statistics over timing samples.

/// Minimum, median and maximum of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    /// Panics on an empty sample or a NaN (bugs in this benchmark).
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let mid = s.len() / 2;
        let median = if s.len() % 2 == 1 {
            s[mid]
        } else {
            (s[mid - 1] + s[mid]) / 2.0
        };
        Self {
            min: s[0],
            median,
            max: s[s.len() - 1],
        }
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Spread::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_odd_and_even_samples() {
        assert_eq!(
            Spread::of(&[3.0, 1.0, 2.0]),
            Spread {
                min: 1.0,
                median: 2.0,
                max: 3.0
            }
        );
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }
}
