//! The benchmark's arithmetic: nearest-rank percentiles with their sample
//! counts, ratios that keep their base, and span self time.

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 100): the smallest sample such that
/// at least `q`% of the samples are at or below it, i.e. the sample at
/// 1-based rank `ceil(q/100 · n)` of the sorted samples. `None` for no
/// samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    Some(Percentile {
        value: sorted[index],
        samples: n,
    })
}

/// The nearest-rank median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 50.0).map_or(0.0, |p| p.value)
}

/// The arithmetic mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A ratio that remembers its base: every ratio the benchmark prints is
/// shown as `value (numerator / denominator)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// The numerator.
    pub num: f64,
    /// The denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// A ratio of `num` over `den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`, or 0 when the base is 0 (nothing to divide by: the
    /// printed base shows why).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `value (num / den)`, e.g. `0.5000 (3 / 6)`.
    pub fn describe(&self) -> String {
        format!("{:.4} ({} / {})", self.value(), self.num, self.den)
    }
}

/// Total length of the union of half-open `[start, end)` intervals.
pub fn union_length(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Self time of a span: its length minus the union of its children's
/// intervals, each clipped to the span (children may overlap each other,
/// and a child is never counted outside its parent).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    (end.saturating_sub(start)).saturating_sub(union_length(&clipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_sample_at_the_ceiling_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        let p50 = nearest_rank(&samples, 50.0).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 3.0,
                samples: 5
            }
        );
        // ceil(0.99 · 5) = 5: the largest sample.
        assert_eq!(nearest_rank(&samples, 99.0).unwrap().value, 5.0);
        // ceil(0.2 · 5) = 1: the smallest.
        assert_eq!(nearest_rank(&samples, 20.0).unwrap().value, 1.0);
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = nearest_rank(&samples, 99.0).unwrap();
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.samples, 100);
        let p50 = nearest_rank(&samples, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples), (50.0, 100));
        // An even count has no interpolation: the lower middle sample.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(
            nearest_rank(&[7.0], 99.0).unwrap(),
            Percentile {
                value: 7.0,
                samples: 1
            }
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // No children: the whole span.
        assert_eq!(self_time((5, 9), &[]), 4);
        // Children covering the span leave nothing.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn union_length_merges_touching_and_empty_intervals() {
        assert_eq!(union_length(&[(0, 5), (5, 10)]), 10);
        assert_eq!(union_length(&[(3, 3), (7, 2)]), 0);
        assert_eq!(union_length(&[(20, 30), (0, 10), (5, 12)]), 22);
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3.0, 6.0);
        assert_eq!(r.value(), 0.5);
        assert_eq!(r.describe(), "0.5000 (3 / 6)");
        let zero = Ratio::new(4.0, 0.0);
        assert_eq!(zero.value(), 0.0);
        assert_eq!(zero.describe(), "0.0000 (4 / 0)");
    }
}
