//! Order statistics the rig reports: medians, nearest-rank percentiles,
//! and the tail percentile a sample count supports.

/// The percentile ladder for tail latency, highest first.
///
/// It stops at p99: on a shared two-core host p99.9 of a closed loop moved
/// by 80 % between identical runs (scheduler noise), which no bound covers.
const TAIL_LADDER: [(&str, usize); 3] = [("p99", 990), ("p90", 900), ("p75", 750)];

/// Samples a tail percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Sorts ascending (samples are finite timings; NaN would be a rig bug).
fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest rank (1-based) of the `per_mille`-th thousandth among `n`
/// samples, in whole numbers so that p99 of 1000 is rank 990 exactly.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice, the percentile given in
/// thousandths (`500` is the median); 0 for an empty slice.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of the ladder with at least ten (`MIN_BEYOND`)
/// samples beyond it among `n`, as `(label, thousandths)`; `None` when
/// even the lowest rung has too few.
pub fn supported_tail(n: usize) -> Option<(&'static str, usize)> {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, per_mille)| n >= MIN_BEYOND && n - rank(n, per_mille) >= MIN_BEYOND)
}

/// A latency sample reduced to what the rig prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples taken.
    pub count: usize,
    /// Interquartile mean (see [`interquartile_mean`]).
    pub mid: f64,
    /// The tail percentile's label (`p99`, ...), `max` when none is supported.
    pub tail_label: &'static str,
    /// The tail percentile's value (the maximum when none is supported).
    pub tail: f64,
}

/// Mean of the middle half of an ascending slice (ranks `n/4+1 ..= n-n/4`):
/// the median's robustness to outliers without its jumps. Closed-loop
/// latency is quantised — a batch becomes visible at the 4th, 5th or 6th
/// request round trip after its POST — so its median sits on one step and
/// moves by a whole step (20 %) when the mix of steps shifts a little; the
/// interquartile mean moves in proportion. On a smooth sample the two agree.
pub fn interquartile_mean(sorted: &[f64]) -> f64 {
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Geometric mean (0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Summarises one stream's time-ordered latency sample segment by segment:
/// the interquartile mean and the tail of each of `segments` equal chunks,
/// then over the chunks the lower quartile of the former and the median of
/// the latter. The tail is the highest percentile a single chunk supports,
/// or the chunk's maximum (label `max`) when it supports none — a library
/// stream is a handful of per-batch values, each already a median over
/// cycles, not a random sample.
///
/// On a shared host latency comes as a steady level plus bursts a second
/// or two long (per-second medians of one open-loop run: 4.1 4.1 4.4 4.1
/// 5.8 4.2 ...). Interference only ever adds time, so the level the system
/// holds shows in the quieter chunks: the lower-quartile chunk repeats
/// where a statistic of the pooled sample moves with how many bursts the
/// window caught. A slower code path moves every chunk, that one included.
pub fn summarize(samples: &[f64], segments: usize) -> LatencySummary {
    let chunk = samples.len().div_ceil(segments.max(1)).max(1);
    let smallest = samples.chunks(chunk).map(<[f64]>::len).min().unwrap_or(0);
    let (tail_label, per_mille) = supported_tail(smallest).unwrap_or(("max", 1000));
    let (mut mids, mut tails) = (Vec::new(), Vec::new());
    for part in samples.chunks(chunk) {
        let mut sorted = part.to_vec();
        sort(&mut sorted);
        mids.push(interquartile_mean(&sorted));
        tails.push(percentile(&sorted, per_mille));
    }
    sort(&mut mids);
    LatencySummary {
        count: samples.len(),
        mid: percentile(&mids, 250),
        tail_label,
        tail: median(&tails),
    }
}

/// Summarises a window of several streams: every stream by [`summarize`],
/// then the geometric mean over the streams. (A median over streams would
/// sit on the boundary between the fast and the slow ones — five BFS and
/// five PageRank configurations, one serial and one sharded tenant — and
/// jump between them from run to run.)
pub fn summarize_streams(streams: &[Vec<f64>], segments: usize) -> LatencySummary {
    let parts: Vec<LatencySummary> = streams
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| summarize(s, segments))
        .collect();
    LatencySummary {
        count: parts.iter().map(|p| p.count).sum(),
        mid: geometric_mean(&parts.iter().map(|p| p.mid).collect::<Vec<f64>>()),
        tail_label: parts
            .iter()
            .min_by_key(|p| p.count)
            .map_or("max", |p| p.tail_label),
        tail: geometric_mean(&parts.iter().map(|p| p.tail).collect::<Vec<f64>>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40).unwrap().0, "p75");
        assert_eq!(supported_tail(99).unwrap().0, "p75");
        assert_eq!(supported_tail(100).unwrap().0, "p90");
        assert_eq!(supported_tail(999).unwrap().0, "p90");
        assert_eq!(supported_tail(1_000).unwrap().0, "p99");
        assert_eq!(supported_tail(1_000_000).unwrap().0, "p99");
    }

    #[test]
    fn segment_summary_ignores_a_burst_that_a_pooled_percentile_follows() {
        // Five segments of 100 samples at level 10 (tail 12); the third
        // segment sits in a burst at level 30.
        let mut samples = Vec::new();
        for segment in 0..5 {
            let level = if segment == 2 { 30.0 } else { 10.0 };
            samples.extend((0..100).map(|i| if i % 10 == 9 { level + 2.0 } else { level }));
        }
        // Two of five segments disturbed: the lower quartile is untouched.
        samples[300..400].iter_mut().for_each(|v| *v += 20.0);
        let by_segment = summarize(&samples, 5);
        assert_eq!(
            (
                by_segment.count,
                by_segment.mid,
                by_segment.tail_label,
                by_segment.tail
            ),
            (500, 10.0, "p90", 10.0)
        );
        assert_eq!(
            summarize(&samples, 1).tail,
            30.0,
            "the pooled p90 lands in the burst"
        );
        assert_eq!(summarize(&[], 3).count, 0);
    }

    #[test]
    fn interquartile_mean_moves_in_proportion_where_the_median_jumps() {
        // Latencies quantised at 1.2 and 1.8: 49 % vs 51 % on the lower step.
        let mix = |low: usize| -> Vec<f64> {
            (0..100).map(|i| if i < low { 1.2 } else { 1.8 }).collect()
        };
        assert_eq!(
            (percentile(&mix(49), 500), percentile(&mix(51), 500)),
            (1.8, 1.2),
            "the median jumps a whole step"
        );
        let (a, b) = (interquartile_mean(&mix(49)), interquartile_mean(&mix(51)));
        assert!((a - b).abs() < 0.03 && a > b, "{a} vs {b}");
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn streams_combine_by_geometric_mean() {
        // A fast and a slow stream of four per-batch values each: too few
        // for a percentile, so the tail is the slowest batch.
        let window = summarize_streams(
            &[
                vec![1.0, 2.0, 3.0, 4.0],
                vec![100.0, 200.0, 300.0, 400.0],
                vec![],
            ],
            1,
        );
        assert_eq!((window.count, window.tail_label), (8, "max"));
        assert!(
            (window.mid - 25.0).abs() < 1e-9 && (window.tail - 40.0).abs() < 1e-9,
            "{window:?}"
        );
        assert_eq!(summarize_streams(&[], 1).mid, 0.0);
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples, 1);
        assert_eq!(
            (s.count, s.mid, s.tail_label, s.tail),
            (1000, 500.5, "p99", 990.0)
        );
        let few = summarize(&[3.0, 1.0, 2.0], 1);
        assert_eq!((few.tail_label, few.tail), ("max", 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
