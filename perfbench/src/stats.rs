//! Order statistics over measured samples.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// beyond it among `count` samples: 50 when none does, 0 without samples.
pub fn tail_percentile(count: usize) -> f64 {
    if count == 0 {
        return 0.0;
    }
    TAIL_PERCENTILES
        .into_iter()
        .find(|pct| count as f64 * (1.0 - pct / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Share of the total of `values` carried by its largest 1% (at least one
/// value); 0 when the total is 0.
pub fn top_percent_share(values: &[f64]) -> f64 {
    let total: f64 = values.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let top = values.len().div_ceil(100);
    sorted[..top].iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(45), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 0.0);
    }

    #[test]
    fn top_share_of_a_heavy_tail() {
        let mut values = vec![1.0; 99];
        values.push(99.0);
        assert_eq!(top_percent_share(&values), 0.5);
    }
}
