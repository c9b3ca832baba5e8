//! Vectorized spectral sweeps: structure-of-arrays batch evaluation of
//! the ring/FWM/pump models over wide parameter grids.
//!
//! Every parameter-scan figure (dispersion scans, the OPO power-law
//! threshold, channel-resolved comb spectra) is a pure map of a scalar
//! model over a grid. The scalar entry points ([`Microring::power_response`],
//! [`opo::output_power`], …) recompute
//! expensive per-device invariants — the Sellmeier/Cauchy group index,
//! the finesse `exp`/`sqrt`, the mode-grid dispersion — on *every* call.
//! The batch kernels in this module hoist those invariants out of the
//! loop once (through the very same scalar API, so the hoisted values
//! are bit-identical to what every scalar call would have computed) and
//! then replicate the remaining per-point arithmetic in plain indexed
//! `f64` slices with **exactly the scalar implementation's IEEE-754
//! operation sequence** — including the `±0.0` cross terms of
//! [`Complex64`](qfc_mathkit::complex::Complex64) division. IEEE
//! arithmetic is deterministic, so the batch output is byte-identical
//! (f64 bit pattern) to a point-by-point reference loop; the `*_scalar`
//! twins in this module *are* that reference loop, and the contract is
//! enforced by unit tests here and property tests in
//! `tests/determinism.rs`. `examples/design_sweep.rs` times the batch
//! kernels against the public-API loop, and `tests/alloc_scaling.rs`
//! holds them to less than one allocation per 100 grid points.
//!
//! Grids are chunked across the worker pool via
//! [`qfc_runtime::par_chunks`] with a fixed [`SWEEP_CHUNK`] layout, so
//! the split is independent of the thread count; the kernels are pure
//! (no RNG), which makes the result thread-count-invariant by
//! construction. Inner loops are annotated `// qfc-lint: hot` and carry
//! no per-point allocations or `Complex64` temporaries.
//!
//! ## Example
//!
//! ```
//! use qfc_photonics::ring::Microring;
//! use qfc_photonics::sweep::{self, BatchBuffers, SweepGrid};
//! use qfc_photonics::waveguide::Polarization;
//!
//! let ring = Microring::paper_device();
//! let f0 = ring.resonance(Polarization::Te, 3).hz();
//! let lw = ring.linewidth().hz();
//! let grid = SweepGrid::linspace(f0 - 5.0 * lw, f0 + 5.0 * lw, 1001);
//! let mut buf = BatchBuffers::new();
//! sweep::ring_power_response_batch(&ring, Polarization::Te, 3, &grid, &mut buf);
//! // Unity on resonance (grid midpoint), bit-identical to the scalar API.
//! assert!((buf.values()[500] - 1.0).abs() < 1e-9);
//! ```

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cast;

use crate::fwm;
use crate::opo;
use crate::ring::Microring;
use crate::units::{Frequency, Power};
use crate::waveguide::Polarization;

/// Fixed chunk size for [`qfc_runtime::par_chunks`] sweeps.
///
/// The chunk layout — and therefore the work decomposition — depends
/// only on the grid length, never on the thread count, so parallel
/// sweeps merge into the same byte sequence on any pool size. 1024
/// points amortize the per-chunk scheduling cost while keeping ~10⁵-
/// point grids spread over every realistic pool.
pub const SWEEP_CHUNK: usize = 1024;

/// A one-dimensional sweep grid: the sample points of a parameter scan.
///
/// Construct uniform grids with [`SweepGrid::linspace`] /
/// [`SweepGrid::try_linspace`] (which replicate the historical
/// `opo::transfer_curve` grid formula bit for bit) or wrap explicit
/// sample points with [`SweepGrid::from_points`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    points: Vec<f64>,
}

impl SweepGrid {
    /// Wraps explicit sample points (any spacing, any order).
    pub fn from_points(points: Vec<f64>) -> Self {
        Self { points }
    }

    /// Uniform grid of `n` points over `[min, max]`.
    ///
    /// Point `i` is `min + (max - min) * i / (n - 1)` — the exact
    /// expression (and IEEE operation order) the scalar
    /// [`opo::transfer_curve`] has always used, so sweeps rebuilt on
    /// this grid stay byte-identical to their point-by-point history.
    pub fn try_linspace(min: f64, max: f64, n: usize) -> QfcResult<Self> {
        if !(min.is_finite() && max.is_finite()) {
            return Err(QfcError::invalid("sweep grid endpoints must be finite"));
        }
        if n < 2 {
            return Err(QfcError::invalid("sweep grid needs at least two points"));
        }
        if max <= min {
            return Err(QfcError::invalid("sweep grid range must be increasing"));
        }
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            points.push(min + (max - min) * cast::to_f64(i) / cast::to_f64(n - 1));
        }
        Ok(Self { points })
    }

    /// Uniform grid of `n` points over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not finite and increasing or `n < 2`
    /// (see [`Self::try_linspace`]).
    pub fn linspace(min: f64, max: f64, n: usize) -> Self {
        match Self::try_linspace(min, max, n) {
            Ok(g) => g,
            Err(e) => panic!("{e}"), // qfc-lint: allow(panic-reachability) — documented panicking wrapper over the try_* twin (`# Panics` contract)
        }
    }

    /// The sample points.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Reusable structure-of-arrays output arena for batch sweeps.
///
/// Holds one flat `f64` buffer that every kernel resizes and fills;
/// reusing the same `BatchBuffers` across calls amortizes the single
/// allocation over an entire scan campaign.
#[derive(Debug, Clone, Default)]
pub struct BatchBuffers {
    values: Vec<f64>,
}

impl BatchBuffers {
    /// An empty arena (first kernel call sizes it).
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-sized for `n`-value sweeps.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
        }
    }

    /// The values written by the most recent kernel call.
    ///
    /// Layout: one value per grid point for the 1-D kernels; for
    /// [`pair_rate_channels_batch`] the buffer is channel-major
    /// (`values[(m - 1) * n_points + i]`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Resizes to `n` zeroed slots and hands out the write window.
    fn reset(&mut self, n: usize) -> &mut [f64] {
        self.values.clear();
        self.values.resize(n, 0.0);
        &mut self.values
    }
}

/// Runs `eval` over fixed-size chunks of `points` on the worker pool and
/// scatters the per-chunk rows into `out` in chunk order.
///
/// The chunk layout matches `points.chunks(SWEEP_CHUNK)` regardless of
/// the thread count, and `eval` must be pure, so the bytes written to
/// `out` are identical on any pool size. Per-chunk staging rows are
/// allocated *outside* the annotated hot loops.
fn eval_chunked<F>(points: &[f64], out: &mut [f64], eval: F)
where
    F: Fn(&[f64], &mut [f64]) + Sync,
{
    let rows = qfc_runtime::par_chunks(points, SWEEP_CHUNK, |_, chunk| {
        let mut row = vec![0.0f64; chunk.len()];
        eval(chunk, &mut row);
        row
    });
    let mut offset = 0usize;
    for row in rows {
        out[offset..offset + row.len()].copy_from_slice(&row);
        offset += row.len();
    }
}

/// Batch [`Microring::power_response`] of mode `m` over a frequency grid
/// (Hz): the normalized Lorentzian drop-port response at every point.
///
/// Byte-identical to [`ring_power_response_scalar`]. The linewidth and
/// resonance are hoisted through the scalar API; the inner loop
/// replicates `Complex64::real(½δν) / Complex64::new(½δν, Δ)` followed
/// by `norm_sqr` as plain `f64` ops, including the `±0.0` cross terms
/// of the complex multiply.
pub fn ring_power_response_batch(
    ring: &Microring,
    pol: Polarization,
    m: i32,
    freqs_hz: &SweepGrid,
    buf: &mut BatchBuffers,
) {
    let half = 0.5 * ring.linewidth().hz();
    let res = ring.resonance(pol, m).hz();
    let out = buf.reset(freqs_hz.len());
    eval_chunked(freqs_hz.points(), out, |chunk, row| {
        // qfc-lint: hot
        for (o, &f) in row.iter_mut().zip(chunk) {
            let det = f - res;
            let d = half * half + det * det;
            let ir = half / d;
            let ii = -det / d;
            let re = half * ir - 0.0 * ii;
            let im = half * ii + 0.0 * ir;
            *o = re * re + im * im;
        }
    });
}

/// Point-by-point reference for [`ring_power_response_batch`]: the
/// scalar oracle the batch kernel must match bit for bit.
pub fn ring_power_response_scalar(
    ring: &Microring,
    pol: Polarization,
    m: i32,
    freqs_hz: &SweepGrid,
    buf: &mut BatchBuffers,
) {
    let out = buf.reset(freqs_hz.len());
    for (o, &f) in out.iter_mut().zip(freqs_hz.points()) {
        *o = ring.power_response(pol, m, Frequency::from_hz(f));
    }
}

/// Batch [`opo::output_power`] over a pump-power grid (W): the full
/// OPO transfer curve (quadratic spontaneous floor below threshold,
/// linear depleted-pump branch above) at every point.
///
/// Byte-identical to [`opo_transfer_scalar`]. The threshold, slope
/// efficiency, drop transmission, linewidth, signal frequency and
/// nonlinear parameter are hoisted through the scalar API; the loop
/// replicates `below_threshold_output` and the branch arithmetic of
/// `opo::output_power` verbatim.
pub fn opo_transfer_batch(ring: &Microring, powers_w: &SweepGrid, buf: &mut BatchBuffers) {
    use crate::constants::PLANCK;
    let p_th = opo::threshold(ring).w();
    let gamma = ring
        .waveguide()
        .nonlinear_parameter(ring.resonance(Polarization::Te, 0).wavelength());
    let fe = ring.field_enhancement_power();
    let circ = ring.circumference();
    let lw = ring.linewidth().hz();
    let nu = ring.resonance(Polarization::Te, 1).hz();
    let drop = ring.drop_transmission_peak();
    let slope = opo::slope_efficiency(ring);
    let out = buf.reset(powers_w.len());
    eval_chunked(powers_w.points(), out, |chunk, row| {
        // qfc-lint: hot
        for (o, &p) in row.iter_mut().zip(chunk) {
            let pw = p.min(p_th);
            let xi = gamma * (pw * fe) * circ;
            let photon_rate = xi * xi * lw;
            let spont = photon_rate * PLANCK * nu * drop;
            *o = if p <= p_th {
                spont
            } else {
                spont + slope * (p - p_th)
            };
        }
    });
}

/// Point-by-point reference for [`opo_transfer_batch`].
pub fn opo_transfer_scalar(ring: &Microring, powers_w: &SweepGrid, buf: &mut BatchBuffers) {
    let out = buf.reset(powers_w.len());
    for (o, &p) in out.iter_mut().zip(powers_w.points()) {
        *o = opo::output_power(ring, Power::from_w(p)).w();
    }
}

/// SFWM spectral envelopes of channel pairs `1..=max_m` — the short
/// per-channel axis of a comb sweep.
///
/// The channel axis is at most a few dozen entries, so this calls the
/// scalar [`fwm::spectral_envelope`] directly (bit-identity is then a
/// tautology); the returned row is the hoisted per-channel invariant
/// that [`pair_rate_channels_batch`] reuses across every sweep point.
pub fn channel_envelopes(ring: &Microring, pol: Polarization, max_m: u32) -> Vec<f64> {
    (1..=max_m)
        .map(|m| fwm::spectral_envelope(ring, pol, m))
        .collect()
}

/// Batch [`fwm::pair_rate_cw`] for **all** channel pairs `1..=max_m` ×
/// **all** pump powers (W): the channel-resolved comb brightness on a
/// power grid.
///
/// The output is channel-major: `buf.values()[(m - 1) * n + i]` is the
/// pair rate of channel `m` at grid point `i` (`n = powers_w.len()`).
/// γ, FE², L, δν and each channel's spectral envelope are hoisted; the
/// loop replicates `ξ·ξ·δν·envelope` with the scalar operation order.
/// Byte-identical to [`pair_rate_channels_scalar`].
pub fn pair_rate_channels_batch(
    ring: &Microring,
    pol: Polarization,
    powers_w: &SweepGrid,
    max_m: u32,
    buf: &mut BatchBuffers,
) {
    let envelopes = channel_envelopes(ring, pol, max_m);
    let gamma = ring
        .waveguide()
        .nonlinear_parameter(ring.resonance(Polarization::Te, 0).wavelength());
    let fe = ring.field_enhancement_power();
    let circ = ring.circumference();
    let lw = ring.linewidth().hz();
    let n = powers_w.len();
    let out = buf.reset(envelopes.len() * n);
    for (k, &env) in envelopes.iter().enumerate() {
        let row_out = &mut out[k * n..(k + 1) * n];
        eval_chunked(powers_w.points(), row_out, |chunk, row| {
            // qfc-lint: hot
            for (o, &p) in row.iter_mut().zip(chunk) {
                let xi = gamma * (p * fe) * circ;
                *o = xi * xi * lw * env;
            }
        });
    }
}

/// Point-by-point reference for [`pair_rate_channels_batch`] (same
/// channel-major layout).
pub fn pair_rate_channels_scalar(
    ring: &Microring,
    pol: Polarization,
    powers_w: &SweepGrid,
    max_m: u32,
    buf: &mut BatchBuffers,
) {
    let n = powers_w.len();
    let out = buf.reset(cast::u32_to_usize(max_m) * n);
    for m in 1..=max_m {
        let k = cast::u32_to_usize(m - 1);
        for (o, &p) in out[k * n..(k + 1) * n].iter_mut().zip(powers_w.points()) {
            *o = fwm::pair_rate_cw(ring, pol, Power::from_w(p), m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_runtime::with_threads;

    fn ring() -> Microring {
        Microring::paper_device()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn linspace_replicates_transfer_curve_grid() {
        let r = ring();
        let pts = opo::transfer_curve(&r, Power::from_mw(1.0), Power::from_mw(40.0), 17);
        let grid = SweepGrid::linspace(1.0e-3, 40.0e-3, 17);
        for (gp, tp) in grid.points().iter().zip(&pts) {
            assert_eq!(gp.to_bits(), tp.pump_w.to_bits());
        }
    }

    #[test]
    fn try_linspace_rejects_bad_grids() {
        assert!(SweepGrid::try_linspace(0.0, 1.0, 1).is_err());
        assert!(SweepGrid::try_linspace(1.0, 1.0, 8).is_err());
        assert!(SweepGrid::try_linspace(2.0, 1.0, 8).is_err());
        assert!(SweepGrid::try_linspace(f64::NAN, 1.0, 8).is_err());
        let g = SweepGrid::try_linspace(0.0, 1.0, 2).expect("valid grid");
        assert_eq!(g.points(), &[0.0, 1.0]);
        assert!(!g.is_empty());
        assert_eq!(g.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_panics_on_single_point() {
        let _ = SweepGrid::linspace(0.0, 1.0, 1);
    }

    #[test]
    fn ring_response_batch_matches_scalar_bits() {
        let r = ring();
        let lw = r.linewidth().hz();
        for m in [-40, -7, 0, 3, 40] {
            let f0 = r.resonance(Polarization::Te, m).hz();
            let grid = SweepGrid::linspace(f0 - 8.0 * lw, f0 + 8.0 * lw, 1311);
            let mut batch = BatchBuffers::new();
            let mut scalar = BatchBuffers::new();
            ring_power_response_batch(&r, Polarization::Te, m, &grid, &mut batch);
            ring_power_response_scalar(&r, Polarization::Te, m, &grid, &mut scalar);
            assert_eq!(bits(batch.values()), bits(scalar.values()), "m = {m}");
        }
    }

    #[test]
    fn opo_transfer_batch_matches_scalar_bits_across_threshold() {
        let r = ring();
        let p_th = opo::threshold(&r).w();
        // Straddles the kink: both branches and the p == p_th boundary.
        let grid = SweepGrid::linspace(0.05 * p_th, 3.0 * p_th, 2501);
        let mut batch = BatchBuffers::new();
        let mut scalar = BatchBuffers::new();
        opo_transfer_batch(&r, &grid, &mut batch);
        opo_transfer_scalar(&r, &grid, &mut scalar);
        assert_eq!(bits(batch.values()), bits(scalar.values()));
    }

    #[test]
    fn pair_rate_channels_batch_matches_scalar_bits() {
        let r = ring();
        let grid = SweepGrid::linspace(1e-3, 20e-3, 97);
        let mut batch = BatchBuffers::new();
        let mut scalar = BatchBuffers::new();
        pair_rate_channels_batch(&r, Polarization::Te, &grid, 11, &mut batch);
        pair_rate_channels_scalar(&r, Polarization::Te, &grid, 11, &mut scalar);
        assert_eq!(batch.values().len(), 11 * 97);
        assert_eq!(bits(batch.values()), bits(scalar.values()));
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let r = ring();
        let f0 = r.resonance(Polarization::Te, 1).hz();
        let lw = r.linewidth().hz();
        // > 4 × SWEEP_CHUNK so the parallel path genuinely splits.
        let grid = SweepGrid::linspace(f0 - 5.0 * lw, f0 + 5.0 * lw, 4 * SWEEP_CHUNK + 37);
        let run = || {
            let mut buf = BatchBuffers::new();
            ring_power_response_batch(&r, Polarization::Te, 1, &grid, &mut buf);
            bits(buf.values())
        };
        let one = with_threads(1, run);
        assert_eq!(one, with_threads(4, run));
        assert_eq!(one, with_threads(8, run));
    }

    #[test]
    fn empty_grid_yields_empty_buffer() {
        let r = ring();
        let grid = SweepGrid::from_points(Vec::new());
        let mut buf = BatchBuffers::with_capacity(16);
        ring_power_response_batch(&r, Polarization::Te, 0, &grid, &mut buf);
        assert!(buf.values().is_empty());
    }
}
