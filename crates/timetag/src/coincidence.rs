//! Coincidence analysis: windowed counting, start–stop histograms, and
//! the coincidence-to-accidental ratio (CAR) — the §II–III figures of
//! merit.
//!
//! Windowed counting is one merge sweep per stream pair: a CAR's
//! zero-delay and displaced windows are counted together, in the same
//! pass that a single window costs (see [`measure_car`]).
//!
//! The sweep runs as two lanes stepped in lockstep. It cuts the start
//! tags at a quiet gap near their middle, one wider than the span of
//! delays any window can match, so that no stop tag is within reach of
//! start tags on both sides. Each lane then counts exactly the matches
//! the single sweep makes over its own start tags, and the counts add.
//! The second lane starts at the first stop tag not too early for its
//! first start tag, found by binary search. A stream pair with no quiet
//! gap runs as one lane. The two lanes' loop-carried chains are
//! independent, so they overlap on one core.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::fit::try_fit_exponential_decay;
use qfc_mathkit::stats::Histogram;

use crate::events::TagStream;

/// Counts coincidences between two sorted streams: pairs with
/// `|t_b − t_a − offset| ≤ window/2`, each event used at most once. Each
/// start tag of `a`, in order, takes the first stop tag of `b` in its
/// window that lies past the previous match (greedy matching).
///
/// # Panics
///
/// Panics if `window_ps < 0`.
pub fn count_coincidences(a: &TagStream, b: &TagStream, window_ps: i64, offset_ps: i64) -> u64 {
    let mut window = [OffsetWindow::at(offset_ps)];
    sweep_coincidences(a, b, window_ps, &mut window);
    window[0].count
}

/// One offset's state in a coincidence sweep.
#[derive(Debug)]
struct OffsetWindow {
    /// Delay `t_b − t_a` at the window's centre, ps.
    offset_ps: i64,
    /// Per lane of the sweep: one past the index of the last stop tag
    /// that lane matched at this offset.
    next: [usize; 2],
    /// Coincidences counted at this offset, over both lanes.
    count: u64,
}

impl OffsetWindow {
    fn at(offset_ps: i64) -> Self {
        Self {
            offset_ps,
            next: [0; 2],
            count: 0,
        }
    }
}

/// The stop tags, the reach and the per-offset state of one sweep,
/// shared by its lanes.
#[derive(Debug)]
struct Sweep<'a> {
    stops: &'a [i64],
    /// Half the coincidence window, ps.
    half: i64,
    /// Start of the first offset's window, ps.
    reach_lo: i64,
    /// End of the last offset's window, ps.
    reach_hi: i64,
    /// `reach_hi − reach_lo`, exact.
    span: u64,
    windows: &'a mut [OffsetWindow],
}

/// One lane of a sweep: the start tags `starts[i..]` still to match,
/// and the index `lo` of the first stop tag not too early for
/// `starts[i]`.
#[derive(Debug)]
struct Lane<'a> {
    starts: &'a [i64],
    i: usize,
    lo: usize,
    /// This lane's slot in each window's `next`.
    id: usize,
}

impl Sweep<'_> {
    fn live(&self, lane: &Lane) -> bool {
        lane.i < lane.starts.len() && lane.lo < self.stops.len()
    }

    /// Steps `first` and `second` in lockstep while both are live, then
    /// each alone to its end. With `BY_SIGN`, the sign bit of
    /// `d − reach_lo` tells a too-early stop tag, which the caller has
    /// checked with [`sign_decides_early`]; without it, `d < reach_lo` is
    /// compared outright.
    fn run<'a, const BY_SIGN: bool>(&mut self, mut first: Lane<'a>, mut second: Lane<'a>) {
        // qfc-lint: hot
        while self.live(&first) && self.live(&second) {
            self.step::<BY_SIGN>(&mut first);
            self.step::<BY_SIGN>(&mut second);
        }
        for lane in [&mut first, &mut second] {
            while self.live(lane) {
                self.step::<BY_SIGN>(lane);
            }
        }
    }

    /// One merge step of `lane`: counts the matches of its current start
    /// tag if a stop tag is within reach, then advances `lo` past a stop
    /// tag that is too early, or `i` past the start tag. The common case,
    /// no stop tag within reach, takes no data-dependent branch, and the
    /// rare walk is out of line, so the lanes' indices stay in registers.
    /// Taking "too early" from the sign bit instead of a comparison
    /// keeps no flag alive across the step.
    #[inline(always)]
    fn step<const BY_SIGN: bool>(&mut self, lane: &mut Lane) {
        let t = lane.starts[lane.i];
        let d = self.stops[lane.lo] - t;
        // `reach_lo ≤ d ≤ reach_hi` as one unsigned comparison: a `d`
        // below `reach_lo` wraps past `span`.
        let x = d.wrapping_sub(self.reach_lo);
        if x.cast_unsigned() <= self.span {
            self.walk_in_reach(t, lane.lo, lane.id);
        }
        let early = if BY_SIGN {
            cast::u64_to_usize(x.cast_unsigned() >> 63)
        } else {
            usize::from(d < self.reach_lo)
        };
        lane.lo += early;
        lane.i += early ^ 1;
    }

    /// Counts, for lane `lane`, the greedy matches of start tag `t` among
    /// the stop tags from index `lo` on that lie within reach.
    #[cold]
    #[inline(never)]
    fn walk_in_reach(&mut self, t: i64, lo: usize, lane: usize) {
        // `k` is the first offset whose window does not end before the
        // current delay.
        let mut k = 0;
        for (j, &s) in (lo..).zip(&self.stops[lo..]) {
            let d = s - t;
            if d > self.reach_hi {
                break;
            }
            while d > self.windows[k].offset_ps + self.half {
                k += 1;
            }
            let w = &mut self.windows[k];
            if d >= w.offset_ps - self.half && j >= w.next[lane] {
                w.count += 1;
                w.next[lane] = j + 1;
                // One match per start tag and offset: the rest of this
                // window lies before offset `k + 1`'s window.
                k += 1;
                if k == self.windows.len() {
                    break;
                }
            }
        }
    }
}

/// `true` when every delay `d = t_b − t_a` a sweep of `ta` against `tb`
/// forms has `d − reach_lo` inside i64, so that its sign bit tells
/// whether `d < reach_lo`.
///
/// Write `x = d − reach_lo`. A step with `x < 0` moves to the next stop
/// tag and raises `x` by at most the largest stop-tag gap, so to below
/// that gap; a step with `x ≥ 0` moves to the next start tag and lowers
/// `x` by at most the largest start-tag gap, so to no less than minus
/// that gap. The first lane starts at `x₀ = tb[0] − ta[0] − reach_lo`,
/// and the second at an `x` below one stop-tag gap or at most `x₀`. So
/// every `x` lies between `min(x₀, −span of ta)` and `max(x₀, span of
/// tb)`, inside i64 when `x₀` and both spans are.
fn sign_decides_early(ta: &[i64], tb: &[i64], reach_lo: i64) -> bool {
    let (Some(&a0), Some(&an), Some(&b0), Some(&bn)) =
        (ta.first(), ta.last(), tb.first(), tb.last())
    else {
        return true;
    };
    let max = i64::MAX.cast_unsigned();
    an.abs_diff(a0) <= max
        && bn.abs_diff(b0) <= max
        && i64::try_from(i128::from(b0) - i128::from(a0) - i128::from(reach_lo)).is_ok()
}

/// Where a sweep cuts its start tags into two lanes: the first index at
/// or past the middle whose gap to the previous start tag is wider than
/// `span`, or `starts.len()` when there is none.
fn quiet_cut(starts: &[i64], span: u64) -> usize {
    ((starts.len() / 2).max(1)..starts.len())
        .find(|&c| starts[c].abs_diff(starts[c - 1]) > span)
        .unwrap_or(starts.len())
}

/// Counts the greedy coincidences of `a` against `b` at each of the
/// ascending offsets of `windows`, in one merge sweep over both streams
/// that runs as two lanes.
///
/// At one offset, greedy matching pairs each start tag, in order, with
/// the first stop tag in its window whose index is past the last match;
/// a stop tag it passes over is too early for every later start tag. So
/// the count depends only on the in-window (start, stop) pairs, taken in
/// index order. The sweep visits, for each start tag `t`, exactly the
/// stop tags in `[t + reach_lo, t + reach_hi]`, where `reach_lo` is the
/// first offset − w/2 and `reach_hi` the last offset + w/2, in index
/// order, and keeps one "last matched index" per offset. Windows of
/// consecutive offsets are more than `w` apart, hence disjoint, so each
/// visited pair belongs to at most one offset: every count equals the
/// two-pointer count at that offset alone.
///
/// The start tags are cut in two at the first gap at or past their
/// middle that is wider than `reach_hi − reach_lo`, between `a = t_{c−1}`
/// and `a' = t_c`. No stop tag `s` is within reach of both: that would
/// need `s − a ≤ reach_hi` and `s − a' ≥ reach_lo`, so `a' − a ≤ reach_hi
/// − reach_lo`. Every stop tag the first lane visits therefore lies
/// before every stop tag the second lane visits, the "last matched
/// index" of each offset never crosses the cut, and each lane's counts
/// are the single sweep's counts over its own start tags. The second
/// lane starts at the first stop tag not too early for `a'`, where the
/// single sweep's stop pointer stops advancing at `a'`; if the first
/// lane runs out of stop tags, the second starts at the end too, just as
/// the single sweep would stop. The two lanes step in lockstep, so their
/// independent loop-carried chains overlap; with no such gap, the first
/// lane takes every start tag.
///
/// # Panics
///
/// Panics if `window_ps < 0`. Consecutive offsets must be more than
/// `window_ps` apart (checked in debug builds).
fn sweep_coincidences(
    a: &TagStream,
    b: &TagStream,
    window_ps: i64,
    windows: &mut [OffsetWindow],
) {
    assert!(window_ps >= 0, "window must be non-negative");
    debug_assert!(windows
        .windows(2)
        .all(|w| w[1].offset_ps - w[0].offset_ps > window_ps));
    let half = window_ps / 2;
    let (Some(first), Some(last)) = (windows.first(), windows.last()) else {
        return;
    };
    // A stop tag `t_b` can match start tag `t_a` at some offset only if
    // `t_b − t_a` lies in `[reach_lo, reach_hi]`.
    let (reach_lo, reach_hi) = (first.offset_ps - half, last.offset_ps + half);
    let span = reach_hi.abs_diff(reach_lo);
    let (ta, tb) = (a.as_slice(), b.as_slice());
    let cut = quiet_cut(ta, span);
    // The first stop tag not too early for the second lane's first start
    // tag, compared exactly.
    let tail_lo = ta.get(cut).map_or(tb.len(), |&t| {
        tb.partition_point(|&s| i128::from(s) - i128::from(t) < i128::from(reach_lo))
    });
    let first = Lane {
        starts: &ta[..cut],
        i: 0,
        lo: 0,
        id: 0,
    };
    let second = Lane {
        starts: ta,
        i: cut,
        lo: tail_lo,
        id: 1,
    };
    let mut sweep = Sweep {
        stops: tb,
        half,
        reach_lo,
        reach_hi,
        span,
        windows,
    };
    if sign_decides_early(ta, tb, reach_lo) {
        sweep.run::<true>(first, second);
    } else {
        sweep.run::<false>(first, second);
    }
    qfc_obs::counter_add(
        "coincidences_counted",
        sweep.windows.iter().map(|w| w.count).sum(),
    );
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
/// All `n_offsets + 1` windows are counted in one merge sweep over the
/// two streams; each count equals [`count_coincidences`] at that offset.
///
/// # Panics
///
/// Panics if `n_offsets == 0`, `offset_step_ps <= window_ps` or
/// `window_ps < 0`.
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
    let mut windows: Vec<OffsetWindow> = (0..=cast::usize_to_i64(n_offsets))
        .map(|k| OffsetWindow::at(k * offset_step_ps))
        .collect();
    sweep_coincidences(a, b, window_ps, &mut windows);
    let coincidences = windows[0].count;
    let acc_total: u64 = windows[1..].iter().map(|w| w.count).sum();
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
    use qfc_mathkit::rng::{rng_from_seed, standard_exponential};
    use rand::Rng;

    /// The greedy two-pointer scan at one offset: the reference the
    /// merge sweep must reproduce at every offset. Delays are taken in
    /// i128, so the reference stays exact at any timestamp and offset.
    fn two_pointer_oracle(a: &TagStream, b: &TagStream, window_ps: i64, offset_ps: i64) -> u64 {
        let half = i128::from(window_ps / 2);
        let (ta, tb) = (a.as_slice(), b.as_slice());
        let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
        while i < ta.len() && j < tb.len() {
            let delta = i128::from(tb[j]) - i128::from(ta[i]) - i128::from(offset_ps);
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
        count
    }

    /// Sweeps `a` against `b` at `offsets` and asserts that every count
    /// equals the two-pointer oracle's. Returns where the sweep cuts
    /// `a` into lanes (`a.len()` for one lane).
    fn assert_sweep_matches_oracle(
        a: &TagStream,
        b: &TagStream,
        window: i64,
        offsets: &[i64],
        case: &str,
    ) -> usize {
        let mut windows: Vec<OffsetWindow> =
            offsets.iter().map(|&off| OffsetWindow::at(off)).collect();
        sweep_coincidences(a, b, window, &mut windows);
        for w in &windows {
            assert_eq!(
                w.count,
                two_pointer_oracle(a, b, window, w.offset_ps),
                "{case}: window {window}, offset {} of {offsets:?}",
                w.offset_ps
            );
        }
        let half = window / 2;
        let span = (offsets[offsets.len() - 1] + half).abs_diff(offsets[0] - half);
        quiet_cut(a.as_slice(), span)
    }

    /// A draw in `0..n` (the modulo bias is irrelevant here).
    fn below(rng: &mut impl Rng, n: u64) -> u64 {
        rng.gen::<u64>() % n
    }

    /// Up to `max_len` tags in `[0, span)`: a small span gives dense
    /// streams with duplicate timestamps and many competing matches.
    fn random_stream(rng: &mut impl Rng, max_len: u64, span: i64) -> TagStream {
        let len = below(rng, max_len + 1);
        let span = span.unsigned_abs();
        TagStream::from_unsorted((0..len).map(|_| below(rng, span) as i64).collect())
    }

    /// One arm of a §II channel over `duration_ps`: 1 200 Hz of uniform
    /// dark counts plus the given correlated arrivals.
    fn paper_density_arm(rng: &mut impl Rng, duration_ps: i64, pairs: &[i64]) -> TagStream {
        let darks = 1_200 * duration_ps / 1_000_000_000_000;
        let span = duration_ps.unsigned_abs();
        let mut tags: Vec<i64> = (0..darks).map(|_| below(rng, span) as i64).collect();
        tags.extend_from_slice(pairs);
        TagStream::from_unsorted(tags)
    }

    #[test]
    fn sweep_matches_two_pointer_at_every_offset() {
        let mut rng = rng_from_seed(19);
        for case in 0..3_000 {
            let span = [1, 10, 100, 1_000, 100_000][case % 5];
            // Every 16th case leaves a stream empty.
            let max_len = if case % 16 == 0 { 0 } else { 200 };
            let a = random_stream(&mut rng, max_len, span);
            let b = random_stream(&mut rng, 200, span);
            let (a, b) = if case % 32 == 0 { (b, a) } else { (a, b) };
            // Window 0 and odd windows; consecutive offsets from the
            // tightest legal spacing (window + 1) up, negative and
            // positive.
            let window = [0, 1, 2, 7, 40][below(&mut rng, 5) as usize];
            let mut offset = below(&mut rng, 4 * span as u64) as i64 - 3 * span;
            let mut offsets = Vec::new();
            for _ in 0..=below(&mut rng, 12) {
                offsets.push(offset);
                offset += window + 1 + [0, 1, 5, 60][below(&mut rng, 4) as usize];
            }
            assert_sweep_matches_oracle(&a, &b, window, &offsets, &format!("case {case}"));
        }

        // The lane cut. Window 10 at offsets 0 and 20 reaches delays
        // −5‥25, a span of 30, so a gap of 31 or more cuts.
        let (window, offsets) = (10, [0, 20]);
        let check = |a: Vec<i64>, b: Vec<i64>, case: &str| {
            let (a, b) = (TagStream::from_unsorted(a), TagStream::from_unsorted(b));
            assert_sweep_matches_oracle(&a, &b, window, &offsets, case)
        };
        // A middle gap of exactly the span does not cut, though stop tag
        // 2025 lies within reach of both 2000 and 2030; the next gap does.
        let b = vec![5, 1003, 1020, 2000, 2025, 2045, 3030, 4050];
        let cut = check(
            vec![0, 1000, 2000, 2030, 3030, 4030],
            b,
            "middle gap of the span",
        );
        assert_eq!(cut, 4);
        // The same at one offset, where a wrong cut would count stop tag
        // 2005, within reach of 2000 and of 2010, twice.
        let a = TagStream::from_sorted(vec![0, 1000, 2000, 2010, 3010, 4010]);
        let b = TagStream::from_sorted(vec![3, 1004, 2005, 3012]);
        assert_eq!(
            assert_sweep_matches_oracle(&a, &b, 10, &[0], "one-offset gap of the span"),
            4
        );
        // One more and the middle gap cuts: 2025 is lane 1's, 2026 lane 2's.
        let b = vec![5, 1003, 1020, 2000, 2025, 2026, 2046, 3031, 4051];
        let cut = check(
            vec![0, 1000, 2000, 2031, 3031, 4031],
            b,
            "middle gap of span + 1",
        );
        assert_eq!(cut, 3);
        // A burst from before the middle to the end leaves one lane.
        let burst: Vec<i64> = (0..40).map(|k| 2_500 + 10 * k).collect();
        let a = [vec![0, 1000, 2000], burst.clone()].concat();
        let b: Vec<i64> = burst.iter().map(|t| t + 3).chain([7, 1021, 2500]).collect();
        let len = a.len();
        assert_eq!(check(a, b, "burst across the middle"), len);
        // A lone start tag, and a second lane past every stop tag.
        assert_eq!(check(vec![100], vec![95, 104, 120], "one start tag"), 1);
        let cut = check(
            vec![0, 1000, 2000, 3000],
            vec![3, 1010, 1500],
            "second lane ends at once",
        );
        assert_eq!(cut, 2);
        // Duplicate timestamps on both sides of the cut.
        let a = vec![100, 100, 100, 500, 500, 500];
        let b = vec![96, 100, 100, 105, 120, 495, 500, 500, 520, 525];
        assert_eq!(check(a, b, "duplicates around the cut"), 3);
        // Stop tags within reach of lane 1's last start tag, 200: its
        // window edges 195 and 225, and one just past them.
        let a = vec![0, 100, 200, 300, 1000, 1100];
        let b = vec![20, 195, 205, 215, 225, 226, 295, 1018];
        assert_eq!(check(a, b, "stop tags at lane 1's last reach"), 3);

        // Paper density: 1 200 Hz of darks per arm plus correlated pairs
        // 1.45 ns apart on average, at the §II CAR's 11 offsets and at
        // zero delay alone.
        let duration_ps = 16_000_000_000_000;
        let mut signal = Vec::new();
        let mut idler = Vec::new();
        for _ in 0..500 {
            let t = below(&mut rng, duration_ps as u64) as i64;
            let dt = (standard_exponential(&mut rng) * 1_450.0) as i64;
            signal.push(t);
            idler.push(if rng.gen::<bool>() { t + dt } else { t - dt });
        }
        let a = paper_density_arm(&mut rng, duration_ps, &signal);
        let b = paper_density_arm(&mut rng, duration_ps, &idler);
        assert!(a.len() > 19_000 && b.len() > 19_000);
        let car_offsets: Vec<i64> = (0..=10).map(|k| k * 24_000).collect();
        let cut = assert_sweep_matches_oracle(&a, &b, 8_000, &car_offsets, "paper density, CAR");
        assert!(cut < a.len(), "no cut at paper density");
        assert_sweep_matches_oracle(&a, &b, 8_000, &[0], "paper density, zero delay");

        // Where `d − reach_lo` leaves i64 the sign bit cannot decide, and
        // the sweep compares instead: here `−200 − (i64::MAX − 100)`.
        let (a, b) = (
            TagStream::from_sorted(vec![0, 10]),
            TagStream::from_sorted(vec![-200, i64::MAX - 100]),
        );
        assert!(!sign_decides_early(
            a.as_slice(),
            b.as_slice(),
            i64::MAX - 100
        ));
        assert_sweep_matches_oracle(&a, &b, 0, &[i64::MAX - 100], "offset near i64::MAX");
        assert_eq!(count_coincidences(&a, &b, 0, i64::MAX - 100), 1);
        // Start tags spanning more than i64 holds, with small delays.
        let a = TagStream::from_sorted(vec![-(1 << 62) - 5, 0, 10, (1 << 62) + 5]);
        let b = TagStream::from_sorted(vec![-(1 << 62) - 3, 3, 12, (1 << 62) + 6]);
        assert!(!sign_decides_early(a.as_slice(), b.as_slice(), -5));
        assert_sweep_matches_oracle(&a, &b, 10, &[0], "span past i64");
        assert_eq!(count_coincidences(&a, &b, 10, 0), 4);
    }

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
            let dt = standard_exponential(&mut rng) * tau_s * 1e12;
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
    #[should_panic(expected = "offset step")]
    fn car_rejects_overlapping_offsets() {
        let s = TagStream::from_unsorted(vec![1, 2, 3]);
        let _ = measure_car(&s, &s, 100, 50, 3);
    }

    #[test]
    fn empty_streams_zero() {
        let e = TagStream::default();
        assert_eq!(count_coincidences(&e, &e, 100, 0), 0);
        let r = measure_car(&e, &e, 100, 1000, 3);
        assert_eq!(r.coincidences, 0);
        assert_eq!(r.car, 0.0);
    }
}
