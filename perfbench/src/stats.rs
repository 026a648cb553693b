//! The statistics every benchmark number goes through: medians, a tail
//! percentile that is only reported when enough samples back it, geometric
//! means across kernels, the quartile spread of repeated runs, and the
//! verdict of a run series against a metric's regression bound.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, failures).
    Lower,
    /// Larger is better (throughput, noise budget).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistic of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
}

/// Percentiles tried for [`tail`], highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest-rank), or `None` when even
/// the median lacks them. A tail resting on fewer samples is noise on a
/// shared host, so it is withheld rather than printed.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        // The epsilon keeps float error (0.999 · 10000 = 9990.000000000002)
        // from pushing an exact rank up by one.
        let rank = ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// Geometric mean — how ratios and per-kernel times are averaged across
/// kernels of very different size.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean of non-positive value {x}");
            x.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match an external check.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Run-to-run spread: the interquartile distance as a share of the median.
/// One value has no spread.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, _, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / m.abs()
}

/// How a series of runs of a change compares with the parent's series on
/// one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// The parent's runs spread wider than the bound, so the comparison
    /// cannot resolve a change of that size.
    Unresolved,
    /// Within the bound and not a demonstrated gain.
    Unchanged,
    /// The change won at least nine pairs in ten over at least
    /// [`MIN_PAIRS`] pairs, and the medians differ by more than the
    /// parent's own interquartile spread.
    Improved,
}

impl Verdict {
    /// Lower-case label for tables.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
        }
    }
}

/// Run pairs a gain must rest on.
pub const MIN_PAIRS: usize = 10;

/// The signed change of the change's median against the parent's, as a
/// share of the parent's median, positive when it got *worse*.
pub fn worsening(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (mp, mc) = (median(parent), median(change));
    let delta = match better {
        Better::Lower => mc - mp,
        Better::Higher => mp - mc,
    };
    if mp == 0.0 {
        return if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        };
    }
    delta / mp.abs()
}

/// Classifies a change against its parent on one metric with regression
/// bound `bound` (a share of the parent's median), following the rules for
/// landing a change on one layer:
///
/// * a spread of the parent's runs wider than the bound leaves the metric
///   unresolved — unless every change run beats every parent run;
/// * otherwise a median worse by more than the bound is a regression;
/// * a gain needs at least [`MIN_PAIRS`] run pairs, the change winning at
///   least nine tenths of them (ties count for neither side), and a median
///   difference larger than the parent's interquartile distance;
/// * everything else is unchanged.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn classify(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |c: f64, p: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    if spread(parent) > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse = worsening(parent, change, better);
    if worse > bound {
        return Verdict::Regressed;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    let iqr = if parent.len() >= 2 {
        let (q1, _, q3) = quartiles(parent);
        q3 - q1
    } else {
        0.0
    };
    let gain = -worse * median(parent).abs();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > iqr {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None, "p50 of 19 leaves only 9 beyond");
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&twenty),
            Some(Tail {
                pct: 50.0,
                value: 10.0,
                beyond: 10
            })
        );
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many).unwrap().pct, 99.9);
    }

    #[test]
    fn geomean_averages_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 3.0, 6.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn classify_covers_every_verdict() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let scaled = |f: f64| parent.map(|p| p * f);
        // 20% slower with a 10% bound.
        let slower = scaled(1.2);
        assert_eq!(
            classify(&parent, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Same numbers.
        assert_eq!(
            classify(&parent, &parent, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 20% faster, every pair won…
        let faster = scaled(0.8);
        assert_eq!(
            classify(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        // …but not over fewer than ten pairs.
        assert_eq!(
            classify(&parent[..6], &faster[..6], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // The same "faster" numbers are a regression of a higher-is-better metric.
        assert_eq!(
            classify(&parent, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // A parent spreading wider than the bound cannot resolve a 5% move…
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 10.0];
        let moved = [10.5, 10.4, 10.6, 10.5, 10.5, 10.5];
        assert_eq!(
            classify(&noisy, &moved, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // …unless every change run beats every parent run.
        assert_eq!(
            classify(&noisy, &[7.0, 7.5], Better::Lower, 0.1),
            Verdict::Improved
        );
        // A small move inside the parent's own spread is not a gain.
        let nudge = scaled(0.998);
        assert_eq!(
            classify(&parent, &nudge, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }
}
