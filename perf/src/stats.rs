//! The benchmark's statistics: the fast-half mean per op index,
//! nearest-rank percentiles, accuracy digits, and span self time.
//!
//! Every timed number the driver reports is a statistic over rounds of one
//! identical, deterministic operation. On the shared host this benchmark
//! was designed on, slow-downs only ever add time and come in bursts, so
//! the slow tail of the samples is noise and the fast half is signal. The
//! spread *across distinct operations* (periods, chunks) is what carries
//! the p50 and the tail.

/// Mean of the fastest half (rounded up) of the samples. Against one-sided
/// burst noise it is steadier than the mean (which the bursts drag) and
/// than the minimum (which needs a burst-free gap as long as the op, and in
/// a busy spell there is none). `NaN` for an empty slice.
pub fn fast_half_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(values.len().div_ceil(2));
    sorted.iter().sum::<f64>() / sorted.len() as f64
}

/// `out[i]` = [`fast_half_mean`] over rounds of `rounds[r][i]`. Rounds must
/// all have the same length (they run the identical op sequence).
pub fn fast_half_per_op(rounds: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    for round in rounds {
        assert_eq!(round.len(), first.len(), "rounds run the same op sequence");
    }
    (0..first.len())
        .map(|i| fast_half_mean(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample with at
/// least `p` % of the samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Most digits an `f64` residual can certify; `digits(0.0)` reports this.
pub const MAX_DIGITS: f64 = 16.0;

/// Accuracy as decimal digits: `−log10(x)` clamped to `[0, MAX_DIGITS]`.
/// An exact zero is full precision; a non-finite or negative residual is no
/// precision at all.
pub fn digits(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 || x == f64::INFINITY {
        0.0
    } else if x == 0.0 {
        MAX_DIGITS
    } else {
        (-x.log10()).clamp(0.0, MAX_DIGITS)
    }
}

/// Across-round noise: median round wall-clock over the fastest round's.
/// 1.0 is a quiet host; the end-to-end metrics do not depend on it.
pub fn noise_ratio(round_walls: &[f64]) -> f64 {
    let min = round_walls.iter().copied().fold(f64::INFINITY, f64::min);
    if round_walls.is_empty() || min <= 0.0 {
        return 1.0;
    }
    median(round_walls) / min
}

/// One recorded interval for [`self_times`]: `(start, end, parent index)`.
pub type Interval = (u64, u64, Option<usize>);

/// Self time of every span: its duration minus the durations of its direct
/// children (children are recorded strictly inside their parent, so sibling
/// intervals never overlap and the subtraction is exact).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|&(s, e, _)| e - s).collect();
    for &(start, end, parent) in spans {
        if let Some(p) = parent {
            own[p] = own[p].saturating_sub(end - start);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_half_mean_drops_the_slow_tail() {
        // Four samples: the two fastest. Five: the three fastest.
        assert_eq!(fast_half_mean(&[4.0, 1.0, 9.0, 3.0]), 2.0);
        assert_eq!(fast_half_mean(&[4.0, 1.0, 9.0, 3.0, 100.0]), 8.0 / 3.0);
        assert_eq!(fast_half_mean(&[7.0]), 7.0);
        assert!(fast_half_mean(&[]).is_nan());
    }

    #[test]
    fn fast_half_is_taken_per_op_index() {
        let rounds = vec![
            vec![3.0, 10.0, 7.0],
            vec![2.0, 12.0, 7.5],
            vec![4.0, 9.0, 6.0],
            vec![9.0, 30.0, 6.5],
        ];
        assert_eq!(fast_half_per_op(&rounds), vec![2.5, 9.5, 6.25]);
        assert!(fast_half_per_op(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "same op sequence")]
    fn ragged_rounds_are_rejected() {
        fast_half_per_op(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 0.1), 15.0);
        // Even count: the lower middle, never an interpolated value.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn digits_clamps_zero_and_non_finite() {
        assert_eq!(digits(1e-3), 3.0);
        assert!((digits(2e-5) - 4.69897).abs() < 1e-5);
        assert_eq!(digits(0.0), MAX_DIGITS);
        assert_eq!(digits(1e-300), MAX_DIGITS);
        assert_eq!(digits(5.0), 0.0);
        assert_eq!(digits(f64::NAN), 0.0);
        assert_eq!(digits(f64::INFINITY), 0.0);
        assert_eq!(digits(-1e-3), 0.0);
    }

    #[test]
    fn noise_ratio_is_median_over_min() {
        assert_eq!(noise_ratio(&[2.0, 2.0, 2.0]), 1.0);
        assert_eq!(noise_ratio(&[2.0, 3.0, 4.0]), 1.5);
        assert_eq!(noise_ratio(&[]), 1.0);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > child [10,60] > grandchild [20,30]
        let spans = [(0, 100, None), (10, 60, Some(0)), (20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_subtracts_every_sibling() {
        // root [0,100] with siblings [0,25], [25,50], [90,100]
        let spans = [
            (0, 100, None),
            (0, 25, Some(0)),
            (25, 50, Some(0)),
            (90, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 25, 10]);
    }
}
