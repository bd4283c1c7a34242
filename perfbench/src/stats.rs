//! Order statistics, hashing and process probes shared by every workload.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least a `q`
/// fraction of the samples at or below it (`q` in `(0, 1]`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, over `segments` consecutive equal-count slices of
/// `values`, of each slice's `q` percentile: a tail estimate that a stall
/// confined to a minority of the slices cannot move.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn segmented_percentile(values: &[f64], q: f64, segments: usize) -> f64 {
    let per = (values.len() / segments.max(1)).max(1);
    let tails: Vec<f64> = values
        .chunks(per)
        .filter(|chunk| chunk.len() == per)
        .map(|chunk| percentile(chunk, q))
        .collect();
    median(&tails)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones computed over runs.
///
/// # Panics
///
/// Panics if fewer than two values are given.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    assert!(sorted.len() >= 2, "quartiles need at least two values");
    let m = sorted.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the spread measure the
/// benchmark's bounds are stated in.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a of a prediction vector.
pub fn prediction_hash(predictions: &[usize]) -> u64 {
    fnv1a(predictions.iter().map(|&p| p as u64))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
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
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&values, 0.001), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.5), 1.0);
    }

    #[test]
    fn segmented_percentile_ignores_a_minority_of_stalled_segments() {
        let mut values: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        // One segment of three carries a stall in its tail.
        values[50..54].fill(1e6);
        assert_eq!(percentile(&values, 0.99), 1e6);
        assert_eq!(segmented_percentile(&values, 0.99, 3), 98.0);
        // A trailing partial segment is dropped, not weighted.
        values.push(5e6);
        assert_eq!(segmented_percentile(&values, 0.99, 3), 98.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let values = [9.0, 10.0, 10.0, 11.0, 10.5];
        let scaled: Vec<f64> = values.iter().map(|v| v * 1000.0).collect();
        assert!((relative_iqr(&values) - relative_iqr(&scaled)).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn fnv1a_known_values() {
        // Empty input is the offset basis; order matters.
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(prediction_hash(&[1, 2]), prediction_hash(&[2, 1]));
        assert_eq!(prediction_hash(&[3, 4]), prediction_hash(&[3, 4]));
    }
}
