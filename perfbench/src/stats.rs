//! Summary statistics over latency and duration samples.

/// Nearest-rank percentile of `samples` (any order): the
/// `ceil(p/100 · N)`-th smallest value, 1-indexed. `p` lies in `(0, 100]`;
/// an empty sample gives `None`. Infinite samples (failed or missed
/// operations) sort last, so they count against every upper percentile.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Nearest-rank median (the lower middle value for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// Median over consecutive windows of `window` samples (in arrival order)
/// of each window's nearest-rank `p`-th percentile. A short last window
/// joins the one before it; fewer than `window` samples form one window.
/// Taking the median over windows keeps a burst of host interference in
/// one window from deciding the whole run's tail.
pub fn windowed_percentile(samples: &[f64], window: usize, p: f64) -> Option<f64> {
    let n_windows = (samples.len() / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..n_windows)
        .filter_map(|w| {
            let end = if w + 1 == n_windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            nearest_rank(&samples[w * window..end], p)
        })
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&s, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&s, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&s, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&s, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let a = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(nearest_rank(&a, 50.0), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th_value() {
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 99.0), Some(990.0));
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // Three windows of four: p100 per window is 4, 40, 8 -> median 8.
        let s = [
            1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0, 5.0, 6.0, 7.0, 8.0,
        ];
        assert_eq!(windowed_percentile(&s, 4, 100.0), Some(8.0));
        // A short tail joins the last full window: [5..8, 9] -> p100 is 9.
        let mut t = s.to_vec();
        t.push(9.0);
        assert_eq!(windowed_percentile(&t, 4, 100.0), Some(9.0));
        // Fewer samples than one window: a plain percentile.
        assert_eq!(windowed_percentile(&s[..3], 4, 50.0), Some(2.0));
        assert_eq!(windowed_percentile(&[], 4, 50.0), None);
    }

    #[test]
    fn failed_operations_count_against_the_tail() {
        let mut s: Vec<f64> = (1..=99).map(f64::from).collect();
        s.push(f64::INFINITY);
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        s.push(f64::INFINITY);
        assert_eq!(nearest_rank(&s, 99.0), Some(f64::INFINITY));
    }
}
