//! Medians and quartiles over a handful of repeats.

/// Median of `v` (sorts in place). Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(v, n=4)` uses; with fewer than two samples both
/// are the sample itself.
pub fn quartiles(v: &mut [f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based; the index is clamped into the
        // sample and the fraction is not, exactly as Python does.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    (at(1), at(3))
}
