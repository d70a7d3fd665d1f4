//! Order statistics over measured samples, and estimate accuracy.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// The `p`-th percentile (0..=100) of `samples`, linearly interpolated
/// between the two nearest ranks. `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly beyond the `p`-th percentile — the count the
/// "at least ten samples beyond it" rule for tail percentiles reads.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    (samples.len() as f64 * (1.0 - p / 100.0)).floor() as usize
}

/// Average relative error of a ranking's estimates over the `k` largest
/// true flows that it reports, and its recall: the share of those `k`
/// flows it reports at all. Scoring the true heavy hitters keeps the
/// metric from being dominated by the occasional small flow a sketch
/// overestimates many times over.
pub fn are_top_k<K: Eq + Hash + Ord>(
    reported: &[(K, f64)],
    exact: &HashMap<K, u64>,
    k: usize,
) -> (f64, f64) {
    let mut truth: Vec<(&K, u64)> = exact.iter().map(|(key, &n)| (key, n)).collect();
    truth.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let top: HashSet<&K> = truth.iter().take(k).map(|t| t.0).collect();
    let (mut sum, mut hits) = (0.0, 0usize);
    for (key, est) in reported {
        if top.contains(key) {
            let x = exact[key] as f64;
            sum += (est - x).abs() / x;
            hits += 1;
        }
    }
    (sum / hits.max(1) as f64, hits as f64 / top.len().max(1) as f64)
}
