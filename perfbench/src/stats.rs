//! Summary statistics shared by every workload: quartiles, the tail
//! percentile rule and the failure ratio.

/// Highest percentile the tail may report, in tenths of a percent
/// (integers, so rank arithmetic is exact). Capping at p95 keeps the tail
/// of large samples off the rare host stalls that made p99 of `serve_hot`
/// spread by 25 % of its median over ten runs.
pub const TAIL_MAX: usize = 950;

/// Lowest percentile the tail may report (the median).
pub const TAIL_MIN: usize = 500;

/// Fewest samples that must lie beyond a percentile for it to be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Number of samples.
    pub samples: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Quartiles of `values`; `None` when there are none. A single sample is
/// its own median and quartiles.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some(Quartiles {
            samples: 1,
            q1: data[0],
            median: data[0],
            q3: data[0],
        }),
        _ => {
            // Python's integer arithmetic; delta may be negative, which
            // extrapolates for very small samples exactly as Python does
            let m = ld as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some(Quartiles {
                samples: ld,
                q1: cut(1),
                median: cut(2),
                q3: cut(3),
            })
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q.median)
}

/// 1-based nearest rank of the percentile `tenths` / 10 in `n` samples.
fn rank(tenths: usize, n: usize) -> usize {
    (tenths * n).div_ceil(1000)
}

/// Nearest-rank percentile of an ascending, non-empty slice, with the
/// percentile given in tenths of a percent: the smallest value with at
/// least that share of the samples at or below it.
pub fn percentile(sorted: &[f64], tenths: usize) -> f64 {
    sorted[rank(tenths, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The reported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was chosen.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The highest whole percentile from p50 to p95 with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it. Whole-percent steps make
/// the chosen percentile follow the sample count smoothly. A sample too
/// small for any of them reports its median. `None` when `sorted` is
/// empty.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let beyond = |tenths: usize| n - rank(tenths, n);
    let p = (TAIL_MIN..=TAIL_MAX)
        .rev()
        .step_by(10)
        .find(|&p| beyond(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_MIN);
    Some(Tail {
        percentile: p as f64 / 10.0,
        value: percentile(sorted, p),
        beyond: beyond(p),
    })
}

/// How one attempted operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and passed every output check.
    Ok,
    /// The system refused it (an error response).
    Refused(String),
    /// It completed, but an output check failed.
    Wrong(String),
}

/// Failed or refused operations over operations attempted (0 when none
/// were attempted).
pub fn fail_ratio(outcomes: &[Outcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let failed = outcomes.iter().filter(|o| **o != Outcome::Ok).count();
    failed as f64 / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let sorted = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 100 samples: p91 leaves 9 beyond, p90 leaves exactly 10
        let t = tail(&sorted(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 150 samples: p94 has rank 141, 9 beyond; p93 has rank 140
        let t = tail(&sorted(150)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (93.0, 140.0, 10));
        // 1000 samples stop at the p95 cap, 50 beyond
        let t = tail(&sorted(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 50));
        // 99 samples: p90 leaves only 9 (rank 90), so p89 (rank 89)
        let t = tail(&sorted(99)).unwrap();
        assert_eq!((t.percentile, t.beyond), (89.0, 10));
        // 209 samples: p95 has rank 199, exactly 10 beyond
        let t = tail(&sorted(209)).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 10));
        // too few for any rung: the median
        let t = tail(&sorted(5)).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 3.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 500), 20.0);
        assert_eq!(percentile(&v, 750), 30.0);
        assert_eq!(percentile(&v, 760), 40.0);
        assert_eq!(percentile(&v, 0), 10.0);
    }

    #[test]
    fn refusals_count_as_failures() {
        let outcomes = [
            Outcome::Ok,
            Outcome::Refused("topology too large".into()),
            Outcome::Ok,
            Outcome::Wrong("delivered 3 of 4".into()),
        ];
        assert_eq!(fail_ratio(&outcomes), 0.5);
        assert_eq!(fail_ratio(&[Outcome::Ok, Outcome::Ok]), 0.0);
        assert_eq!(fail_ratio(&[]), 0.0);
    }
}
