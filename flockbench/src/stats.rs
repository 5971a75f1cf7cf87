//! Order statistics over latency samples and per-episode values.

/// A percentile together with the evidence behind it, so every output can
/// state how many samples a tail estimate rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: u64,
    /// Samples the estimate was taken over.
    pub samples: usize,
    /// Samples strictly above the reported rank. The guide's rule is to
    /// trust a percentile only with at least ten beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
/// `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    Some(Percentile {
        value: sorted[idx],
        samples: n,
        beyond: n - 1 - idx,
    })
}

/// Median of unsorted values (mean of the middle two for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the benchmark contract's
/// definition of spread. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; `None` when the
/// spread cannot be computed (fewer than two values, or a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_value_and_sample_counts() {
        let v: Vec<u64> = (1..=200).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (100, 200, 100));
        let p95 = percentile(&v, 95.0).unwrap();
        assert_eq!((p95.value, p95.beyond), (190, 10));
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (198, 2));
        assert_eq!(percentile(&v, 100.0).unwrap().value, 200);
        assert_eq!(
            percentile(&[7], 99.0).unwrap(),
            Percentile {
                value: 7,
                samples: 1,
                beyond: 0
            }
        );
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([10, 30], n=4) == [5.0, 20.0, 35.0]
        assert_eq!(quartiles(&[30.0, 10.0]), Some((5.0, 35.0)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
