//! Coincidence analysis: windowed counting, start–stop histograms, and
//! the coincidence-to-accidental ratio (CAR) — the §II–III figures of
//! merit.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::fit::try_fit_exponential_decay;
use qfc_mathkit::stats::Histogram;

use crate::events::TagStream;

/// Counts coincidences between two sorted streams: pairs with
/// `|t_b − t_a − offset| ≤ window/2`, each event used at most once
/// (greedy two-pointer matching).
///
/// # Panics
///
/// Panics if `window_ps < 0`.
pub fn count_coincidences(a: &TagStream, b: &TagStream, window_ps: i64, offset_ps: i64) -> u64 {
    assert!(window_ps >= 0, "window must be non-negative");
    let half = window_ps / 2;
    let (ta, tb) = (a.as_slice(), b.as_slice());
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < ta.len() && j < tb.len() {
        let delta = tb[j] - ta[i] - offset_ps;
        if delta < -half {
            j += 1;
        } else if delta > half {
            i += 1;
        } else {
            count += 1;
            i += 1;
            j += 1;
        }
    }
    qfc_obs::counter_add("coincidences_counted", count);
    count
}

/// Start–stop cross-correlation histogram of delays `t_b − t_a` within
/// `±range_ps`, binned at `bin_ps` — the §II time-resolved coincidence
/// measurement.
///
/// # Panics
///
/// Panics if `range_ps <= 0` or `bin_ps <= 0`.
pub fn cross_correlation_histogram(
    a: &TagStream,
    b: &TagStream,
    range_ps: i64,
    bin_ps: i64,
) -> Histogram {
    assert!(range_ps > 0, "range must be positive");
    assert!(bin_ps > 0, "bin width must be positive");
    let bins = cast::i64_to_usize((2 * range_ps / bin_ps).max(1));
    let lo = -(cast::to_f64(range_ps));
    let hi = cast::to_f64(range_ps);
    let (ta, tb) = (a.as_slice(), b.as_slice());

    // Shard the start tags into a fixed number of chunks (independent of
    // the thread count). Each shard runs a two-pointer sorted-merge
    // sweep over its slice of `ta` — both window edges advance
    // monotonically, so each `tb` comparison happens once per edge —
    // binning into a local count vector with the same float arithmetic
    // as `Histogram::add_weighted`. Bin counts merge by exact integer
    // addition, so the sharding cannot change the result.
    let chunk_size = ta.len().div_ceil(cast::u64_to_usize(qfc_runtime::SHOT_SHARDS)).max(1);
    let shards = qfc_runtime::par_chunks(ta, chunk_size, |_, chunk| {
        let mut counts = vec![0u64; bins];
        let mut overflow = 0u64;
        // (hi - lo) / bins reproduces Histogram::bin_width exactly.
        let width = (hi - lo) / cast::to_f64(bins);
        let first = match chunk.first() {
            Some(&t) => t,
            None => return (counts, overflow),
        };
        let mut win_lo = tb.partition_point(|&x| x < first - range_ps);
        let mut win_hi = win_lo;
        for &t in chunk {
            while win_lo < tb.len() && tb[win_lo] < t - range_ps {
                win_lo += 1;
            }
            if win_hi < win_lo {
                win_hi = win_lo;
            }
            while win_hi < tb.len() && tb[win_hi] <= t + range_ps {
                win_hi += 1;
            }
            for &tb_j in &tb[win_lo..win_hi] {
                let delta = cast::to_f64(tb_j - t);
                // Same in-range test and index arithmetic as
                // Histogram::add_weighted; delta == +range lands in the
                // overflow bucket there too ([lo, hi) bins).
                if delta >= hi {
                    overflow += 1;
                } else {
                    let idx = cast::f64_to_usize((delta - lo) / width);
                    counts[idx.min(bins - 1)] += 1;
                }
            }
        }
        (counts, overflow)
    });

    let mut counts = vec![0u64; bins];
    let mut overflow = 0u64;
    for (shard_counts, shard_overflow) in shards {
        for (dst, src) in counts.iter_mut().zip(&shard_counts) {
            *dst += src;
        }
        overflow += shard_overflow;
    }
    Histogram::from_parts(lo, hi, counts, 0, overflow)
}

/// Result of a CAR measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CarResult {
    /// True coincidences in the zero-delay window.
    pub coincidences: u64,
    /// Mean accidentals per window, from offset windows.
    pub accidentals: f64,
    /// Coincidence-to-accidental ratio. `f64::INFINITY` when no
    /// accidentals were observed.
    pub car: f64,
}

/// Measures the CAR: coincidences in the zero-delay window divided by the
/// mean of coincidences in `n_offsets` displaced windows (spaced by
/// `offset_step_ps`, starting one step away from zero delay).
///
/// # Panics
///
/// Panics if `n_offsets == 0` or `offset_step_ps <= window_ps`.
pub fn measure_car(
    a: &TagStream,
    b: &TagStream,
    window_ps: i64,
    offset_step_ps: i64,
    n_offsets: usize,
) -> CarResult {
    assert!(n_offsets > 0, "need at least one accidental window");
    assert!(
        offset_step_ps > window_ps,
        "offset step must exceed the window"
    );
    // The zero-delay window and every displaced window are independent
    // scans; run them all on the worker pool. Summing u64 counts is
    // exact, so the parallel split cannot perturb the result.
    let offsets: Vec<i64> = (0..=cast::usize_to_i64(n_offsets)).map(|k| k * offset_step_ps).collect();
    let counts = qfc_runtime::par_map(&offsets, |&off| count_coincidences(a, b, window_ps, off));
    let coincidences = counts[0];
    let acc_total: u64 = counts[1..].iter().sum();
    let accidentals = cast::to_f64(acc_total) / cast::to_f64(n_offsets);
    let car = if accidentals > 0.0 {
        cast::to_f64(coincidences) / accidentals
    } else if coincidences > 0 {
        f64::INFINITY
    } else {
        0.0
    };
    CarResult {
        coincidences,
        accidentals,
        car,
    }
}

/// Finds the relative delay between two streams by locating the peak of
/// their cross-correlation — the cable/path-length calibration every
/// real coincidence setup performs first.
///
/// Returns `None` when no correlation peak stands out (peak below
/// `3 + 2·√floor` over the median bin count).
pub fn find_delay(a: &TagStream, b: &TagStream, range_ps: i64, bin_ps: i64) -> Option<i64> {
    let hist = cross_correlation_histogram(a, b, range_ps, bin_ps);
    let (idx, peak) = hist.peak()?;
    let mut counts: Vec<u64> = hist.counts().to_vec();
    counts.sort_unstable();
    let median = cast::to_f64(counts[counts.len() / 2]);
    if (cast::to_f64(peak)) < median + 3.0 + 2.0 * median.sqrt() {
        return None;
    }
    Some(cast::f64_to_i64(hist.bin_center(idx)))
}

/// Result of extracting a photon-pair coherence time (and thus linewidth)
/// from a time-resolved coincidence histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinewidthResult {
    /// Fitted two-sided exponential decay constant, s.
    pub decay_time_s: f64,
    /// Inferred Lorentzian linewidth `Δν = 1/(2π·τ)`, Hz.
    pub linewidth_hz: f64,
    /// R² of the decay fit.
    pub r_squared: f64,
}

/// Fits the two-sided exponential decay of a coincidence histogram and
/// converts it to a linewidth — the §II analysis yielding Δν = 110 MHz.
///
/// The histogram's positive- and negative-delay wings are folded and fit
/// jointly; the baseline (mean of the outermost 10 % of bins) is
/// subtracted as the accidental floor.
///
/// # Errors
///
/// An empty histogram or a degenerate decay fit is a [`QfcError`], so a
/// supervisor can retry with longer integration.
pub fn try_extract_linewidth(hist: &Histogram) -> QfcResult<LinewidthResult> {
    let Some((peak_idx, _)) = hist.peak() else {
        return Err(QfcError::InsufficientData {
            context: "linewidth extraction: histogram has no counts".to_owned(),
        });
    };
    let bins = hist.bins();
    // Accidental floor from the edges.
    let edge = (bins / 10).max(1);
    let mut floor = 0.0;
    for i in 0..edge {
        floor += cast::to_f64(hist.count(i)) + cast::to_f64(hist.count(bins - 1 - i));
    }
    floor /= cast::to_f64(2 * edge);

    // Fold both wings around the peak.
    let mut t: Vec<f64> = Vec::new();
    let mut y: Vec<f64> = Vec::new();
    for i in 0..bins {
        let dt = (hist.bin_center(i) - hist.bin_center(peak_idx)).abs() * 1e-12; // ps → s
        let v = cast::to_f64(hist.count(i)) - floor;
        if v > 0.0 {
            t.push(dt);
            y.push(v);
        }
    }
    let fit = try_fit_exponential_decay(&t, &y)?;
    Ok(LinewidthResult {
        decay_time_s: fit.tau,
        linewidth_hz: 1.0 / (2.0 * std::f64::consts::PI * fit.tau),
        r_squared: fit.r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_mathkit::rng::{exponential, rng_from_seed};
    use rand::Rng;

    #[test]
    fn exact_coincidences_counted() {
        let a = TagStream::from_unsorted(vec![100, 200, 300]);
        let b = TagStream::from_unsorted(vec![105, 250, 301]);
        // Window ±10 ps: 100↔105 and 300↔301 match.
        assert_eq!(count_coincidences(&a, &b, 20, 0), 2);
        // Window ±1: only nothing (105−100 = 5 > 1, 301−300 = 1 ≤ 1... half = 0)
        assert_eq!(count_coincidences(&a, &b, 2, 0), 1);
    }

    #[test]
    fn each_event_used_once() {
        let a = TagStream::from_unsorted(vec![100]);
        let b = TagStream::from_unsorted(vec![99, 101, 102]);
        assert_eq!(count_coincidences(&a, &b, 10, 0), 1);
    }

    #[test]
    fn offset_window_finds_displaced_pairs() {
        let a = TagStream::from_unsorted(vec![100, 200]);
        let b = TagStream::from_unsorted(vec![1100, 1200]);
        assert_eq!(count_coincidences(&a, &b, 10, 0), 0);
        assert_eq!(count_coincidences(&a, &b, 10, 1000), 2);
    }

    #[test]
    fn histogram_centers_delays() {
        let a = TagStream::from_unsorted(vec![1000, 2000, 3000]);
        let b = TagStream::from_unsorted(vec![1050, 2050, 3050]);
        let h = cross_correlation_histogram(&a, &b, 500, 100);
        let (idx, count) = h.peak().expect("peak exists");
        assert_eq!(count, 3);
        assert!((h.bin_center(idx) - 50.0).abs() <= 50.0);
    }

    #[test]
    fn car_of_correlated_streams_is_high() {
        let mut rng = rng_from_seed(7);
        // 1000 correlated pairs + uniform noise on both channels.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..1000 {
            let t = (rng.gen::<f64>() * 1e12) as i64;
            a.push(t);
            b.push(t + 5);
        }
        for _ in 0..300 {
            a.push((rng.gen::<f64>() * 1e12) as i64);
            b.push((rng.gen::<f64>() * 1e12) as i64);
        }
        let sa = TagStream::from_unsorted(a);
        let sb = TagStream::from_unsorted(b);
        let r = measure_car(&sa, &sb, 200, 10_000, 10);
        assert!(r.coincidences >= 1000);
        assert!(r.car > 50.0, "CAR = {}", r.car);
    }

    #[test]
    fn car_of_uncorrelated_streams_near_one() {
        let mut rng = rng_from_seed(8);
        let a: Vec<i64> = (0..200_000).map(|_| (rng.gen::<f64>() * 1e12) as i64).collect();
        let b: Vec<i64> = (0..200_000).map(|_| (rng.gen::<f64>() * 1e12) as i64).collect();
        let sa = TagStream::from_unsorted(a);
        let sb = TagStream::from_unsorted(b);
        let r = measure_car(&sa, &sb, 1000, 100_000, 8);
        assert!((r.car - 1.0).abs() < 0.3, "CAR = {}", r.car);
    }

    #[test]
    fn linewidth_extraction_recovers_decay() {
        let mut rng = rng_from_seed(9);
        // Pairs with exponential |Δt| of τ = 1.45 ns (110 MHz linewidth).
        let tau_s = 1.45e-9;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..60_000 {
            let t = (rng.gen::<f64>() * 1e15) as i64;
            let dt = exponential(&mut rng, 1.0 / tau_s) * 1e12;
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            a.push(t);
            b.push(t + (sign * dt) as i64);
        }
        let h = cross_correlation_histogram(
            &TagStream::from_unsorted(a),
            &TagStream::from_unsorted(b),
            15_000,
            250,
        );
        let r = try_extract_linewidth(&h).expect("the histogram has a peak");
        assert!(
            (r.linewidth_hz - 110e6).abs() / 110e6 < 0.1,
            "Δν = {} MHz",
            r.linewidth_hz / 1e6
        );
        assert!(r.r_squared > 0.9);
    }

    #[test]
    fn find_delay_recovers_cable_offset() {
        let mut rng = rng_from_seed(10);
        let true_delay = 12_345i64;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..5_000 {
            let t = (rng.gen::<f64>() * 1e12) as i64;
            a.push(t);
            b.push(t + true_delay);
        }
        let sa = TagStream::from_unsorted(a);
        let sb = TagStream::from_unsorted(b);
        let found = find_delay(&sa, &sb, 50_000, 500).expect("clear peak");
        assert!((found - true_delay).abs() <= 500, "found {found}");
    }

    #[test]
    fn find_delay_rejects_uncorrelated_streams() {
        // Keep the accidental density low enough that a spurious ≥3-count
        // bin is a many-sigma event rather than a coin flip: 10k tags over
        // 1e12 ps give ~0.05 expected counts per 500 ps bin.
        let mut rng = rng_from_seed(11);
        let a: Vec<i64> = (0..10_000).map(|_| (rng.gen::<f64>() * 1e12) as i64).collect();
        let b: Vec<i64> = (0..10_000).map(|_| (rng.gen::<f64>() * 1e12) as i64).collect();
        let found = find_delay(
            &TagStream::from_unsorted(a),
            &TagStream::from_unsorted(b),
            50_000,
            500,
        );
        assert!(found.is_none(), "spurious delay {found:?}");
    }

    #[test]
    #[should_panic(expected = "offset step")]
    fn car_rejects_overlapping_offsets() {
        let s = TagStream::from_unsorted(vec![1, 2, 3]);
        let _ = measure_car(&s, &s, 100, 50, 3);
    }

    #[test]
    fn empty_streams_zero() {
        let e = TagStream::new();
        assert_eq!(count_coincidences(&e, &e, 100, 0), 0);
        let r = measure_car(&e, &e, 100, 1000, 3);
        assert_eq!(r.coincidences, 0);
        assert_eq!(r.car, 0.0);
    }
}
