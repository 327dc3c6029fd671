//! Percentiles and the per-layer derivations the benchmark reports.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, one outlier decides the figure.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order) at `per_mille`
/// thousandths, e.g. `500` for the median and `990` for p99. Integer rank
/// arithmetic keeps the chosen sample exact at every sample count.
///
/// Returns `None` for an empty input, a `per_mille` outside `1..=999`, or
/// fewer than [`MIN_BEYOND`] samples beyond the chosen rank.
pub fn percentile(samples: &[f64], per_mille: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(1..1000).contains(&per_mille) {
        return None;
    }
    let rank = (n * per_mille).div_ceil(1000);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The smallest sample count for which [`percentile`] reports `per_mille`.
pub fn min_samples(per_mille: usize) -> usize {
    (1..)
        .find(|&n| n - (n * per_mille).div_ceil(1000) >= MIN_BEYOND)
        .expect("every percentile below 1000 is reachable")
}

/// The plain median of a handful of repeated measurements (such as set-up
/// times), with no tail rule: the middle value, or the mean of the two
/// middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The median over `slices` equal slices of `[0, span)` of the events per
/// second in each, given each event's time. Events at or past `span` are
/// not counted.
pub fn median_rate(times: &[f64], span: f64, slices: usize) -> f64 {
    assert!(slices > 0 && span > 0.0, "a rate needs a non-empty span");
    let width = span / slices as f64;
    let mut counts = vec![0usize; slices];
    for &t in times {
        if (0.0..span).contains(&t) {
            counts[((t / width) as usize).min(slices - 1)] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates).expect("at least one slice")
}

/// Per-hop handoff cost: the growth of a relay round trip from zero hops
/// to `hops` hops, spread over those hops.
pub fn hop_us(roundtrip0_us: f64, roundtrip_hops_us: f64, hops: u32) -> f64 {
    assert!(hops > 0, "a per-hop cost needs at least one hop");
    (roundtrip_hops_us - roundtrip0_us) / f64::from(hops)
}

/// Time a read spends waiting behind other work: its median under the
/// workload minus its median on an idle fabric. Not clamped, so an idle
/// workload reads as measurement noise around zero.
pub fn read_wait_us(loaded_p50_us: f64, idle_p50_us: f64) -> f64 {
    loaded_p50_us - idle_p50_us
}

/// Microseconds in a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
