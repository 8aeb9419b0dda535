//! The benchmark's own arithmetic: order statistics over epoch times and
//! the ratios reported per submission and per epoch. Kept free of pool
//! types so the self-tests below can feed it hand-built inputs.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail statistic: the highest whole percentile `p` whose
/// nearest-rank value still has at least `beyond` samples ranked above
/// it. Returns `(p, value)`, or `None` when there are not more than
/// `beyond` samples.
///
/// Nearest rank: the `p`-th percentile of `n` sorted samples is the one
/// at 1-based rank `ceil(p·n/100)`, so `n - rank` samples lie beyond it.
pub fn tail_percentile(xs: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    let s = sorted(xs);
    // Largest p with ceil(p·n/100) <= n - beyond, i.e. p·n <= 100·(n - beyond).
    let p = (100 * (n - beyond) / n).min(100) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, s[rank - 1]))
}

/// Share of attempted submissions that failed: quarantined workers plus
/// honest workers rejected, over attempted submissions. Rejected
/// adversaries are correct outcomes and do not count.
pub fn failed_share(quarantined: u64, honest_rejected: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "no submissions attempted");
    (quarantined + honest_rejected) as f64 / attempted as f64
}

/// `total / count`, or 0 when nothing was counted (a layer the workload
/// bypasses reports 0 per submission or per epoch).
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// `part / whole`, or 0 for an empty whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Share of the traced epoch wall not covered by the sequential phase
/// spans: `(epoch - Σ phases) / epoch`. Near 0 when the spans account
/// for the epoch; negative only if spans overlap, which the sequential
/// phase driver rules out.
pub fn unattributed_share(epoch_s: f64, phases_s: &[f64]) -> f64 {
    ratio(epoch_s - phases_s.iter().sum::<f64>(), epoch_s)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the statistics must sort for themselves.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 11..=400 {
            let xs = ramp(n);
            let (p, v) = tail_percentile(&xs, 10).expect("enough samples");
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n}: p{p} leaves {beyond} beyond");
            // One percentile higher would leave fewer than ten (or p is 100).
            if p < 100 {
                let rank = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - rank < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tail_hand_checked_values() {
        // 30 samples: p66 sits at rank 20, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(&ramp(30), 10), Some((66, 20.0)));
        // 11 samples: only the minimum has ten beyond it.
        assert_eq!(tail_percentile(&ramp(11), 10), Some((9, 1.0)));
        // 1000 samples: p99 at rank 990.
        assert_eq!(tail_percentile(&ramp(1000), 10), Some((99, 990.0)));
        assert_eq!(tail_percentile(&ramp(10), 10), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failed_share_counts_quarantines_and_honest_rejections() {
        // 8 workers x 10 epochs, 2 quarantine events, 1 honest rejection.
        assert_eq!(failed_share(2, 1, 80), 3.0 / 80.0);
        assert_eq!(failed_share(0, 0, 80), 0.0);
    }

    #[test]
    fn per_submission_and_per_epoch_ratios() {
        // 3 epochs x 4 submissions moving 1200 protocol bytes in total.
        assert_eq!(per(1200.0, 12), 100.0);
        assert_eq!(per(7.0, 0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn unattributed_share_of_sequential_phases() {
        // Phases 0.2 + 0.5 + 0.2 + 0.05 of a 1.0 s epoch leave 5% uncovered.
        let share = unattributed_share(1.0, &[0.2, 0.5, 0.2, 0.05]);
        assert!((share - 0.05).abs() < 1e-12, "{share}");
        assert_eq!(unattributed_share(0.5, &[0.25, 0.25]), 0.0);
    }
}
