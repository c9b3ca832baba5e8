//! The RρR maximum-likelihood engine over rank-1 projectors.
//!
//! Every measurement this workspace reconstructs — the Pauli product
//! settings of qubit tomography and any orthonormal-basis qudit
//! measurement — has outcome projectors that are rank-1 outer products
//! `|ψ⟩⟨ψ|`, and the engine never materializes them. This module holds
//! the engine's schedule and stop rule, shared by both paths, and the
//! qudit path's `R` build: [`ProjectorReprSet`] keeps the vectors `|ψ⟩`
//! of qudit bases, `d` entries per outcome instead of `d²`.
//! Expectations are the Hermitian quadratic form `⟨ψ|ρ|ψ⟩` over `ρ`'s
//! upper triangle ([`CMatrix::quadratic_form_hermitian`]), and the `R`
//! build is upper-triangle-only rank-1 updates
//! ([`CMatrix::ger_hermitian_upper_panels`]) with one mirror per sweep —
//! each at half the complex multiplies of its full-matrix form, every
//! access contiguous. Qubit settings take
//! [`try_mle_reconstruction`](crate::reconstruct::try_mle_reconstruction)
//! instead, whose `R` build contracts `ρ` one qubit at a time and forms no
//! outcome vector; its oracles are the single-vector forms
//! (`Setting::outcome_vector` with the quadratic form) and the dense leg of
//! the tests.
//!
//! **Panels.** The sweep reads its measured vectors four at a time, as
//! [`VectorPanels`]: four vectors' real and imaginary parts stored apart,
//! element by element. The panel kernels
//! ([`CMatrix::quadratic_forms_hermitian_panels`],
//! [`CMatrix::ger_hermitian_upper_panels`]) load one element of four
//! vectors as two contiguous rows and run the four lanes side by side.
//! Each lane evaluates its vector's single-vector expression tree, in the
//! same order, so the panels move no bit of any expectation, `R` or
//! iterate. Each sweep chunk fills its panels once per reconstruction
//! from the caller's set, and the engine keeps no other copy of the
//! vectors: a reconstruction's heap is one copy of its measured vectors
//! plus each chunk's `d × d` buffer.
//!
//! The `RρR` products run through the packed GEMM
//! ([`CMatrix::matmul_packed_into`]), and iterates are kept bitwise
//! Hermitian so the triangle kernels stay exact. The per-iteration sweep
//! is parallelized over fixed-size chunks with a chunk-index-ordered
//! merge, so results are bitwise identical at any thread count. Each
//! reconstruction runs in one [`qfc_runtime::par_team`] region: its
//! threads are spawned once, every sweep is one barrier step of that
//! team, and each chunk's buffers are built once, so an iteration
//! allocates nothing at any thread count.

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cast;
use qfc_mathkit::cmatrix::{CMatrix, GemmScratch};
use qfc_mathkit::complex::Complex64;
use qfc_mathkit::cvector::{CVector, VectorPanels};
use qfc_mathkit::hermitian::largest_eigenvalue_bound;
use qfc_quantum::qudit::BipartiteQudit;

use crate::reconstruct::{try_project_physical, MleOptions, MleResult};

/// Probability floor: expectations are clamped to this before dividing,
/// so empty-outcome projectors cannot blow up `R`.
pub(crate) const P_FLOOR: f64 = 1e-12;

/// Pairs per parallel sweep task. The chunk layout depends only on the
/// pair count — never on the thread count — so the partial-`R` merge
/// below is bitwise thread-invariant.
const SWEEP_CHUNK_PAIRS: usize = 64;

/// Chunk-layout rule: a problem with at least this much `pairs · d²`
/// work is cut into [`SWEEP_CHUNK_PAIRS`]-sized chunks; a smaller one is
/// a single chunk that sweeps inline on the caller, outside any team
/// step. The layout fixes the order in which partial `R` matrices are
/// summed, so it depends only on the problem size — never on the thread
/// count — and changing this value changes result bits.
pub(crate) const PAR_SWEEP_MIN_WORK: usize = 1 << 15;

/// Stopping rule of [`try_mle_repr`]: an iterate is returned once its
/// certified log-likelihood gap is at most this many nats of the count
/// likelihood — far below the statistical spread of any fidelity the
/// workspace reports from it.
pub const MLE_GAP_NATS: f64 = 0.5;

/// Over-relaxation schedule: `γ` grows by this factor after every
/// iteration that kept improving…
const GAMMA_GROWTH: f64 = 1.4;

/// …up to this cap.
const GAMMA_MAX: f64 = 8.0;

/// The rank-1 outcome vectors `|ψ⟩` of a list of measurements — the
/// qudit path's projector set, where each measurement is one
/// orthonormal basis.
#[derive(Debug, Clone)]
pub struct ProjectorReprSet {
    /// `vectors[s][o]` for setting `s`, outcome `o`.
    vectors: Vec<Vec<CVector>>,
    /// Hilbert-space dimension.
    dim: usize,
}

impl ProjectorReprSet {
    /// Rank-1 projectors from orthonormal measurement bases: each basis
    /// is a `d × d` unitary whose *columns* are the outcome vectors —
    /// the natural form for qudit tomography where each reconfiguration
    /// of the analyzer measures one complete orthonormal basis.
    ///
    /// # Errors
    ///
    /// [`QfcError::InsufficientData`] for an empty basis list,
    /// [`QfcError::InvalidParameter`] for non-square, mixed-dimension,
    /// or non-unitary (tolerance `1e-9`) bases.
    pub fn try_rank1_from_bases(bases: &[CMatrix]) -> QfcResult<Self> {
        let first = bases.first().ok_or_else(|| QfcError::InsufficientData {
            context: "rank-1 projector set needs at least one basis".to_owned(),
        })?;
        let dim = first.rows();
        let mut vectors = Vec::with_capacity(bases.len());
        for (b, basis) in bases.iter().enumerate() {
            if !basis.is_square() || basis.rows() != dim {
                return Err(QfcError::invalid(format!(
                    "basis {b} is {}x{}, expected {dim}x{dim}",
                    basis.rows(),
                    basis.cols()
                )));
            }
            if !basis.is_unitary(1e-9) {
                return Err(QfcError::invalid(format!(
                    "basis {b} is not unitary within 1e-9; its columns do not \
                     form an orthonormal outcome basis"
                )));
            }
            vectors.push((0..dim).map(|o| basis.col(o)).collect());
        }
        Ok(Self { vectors, dim })
    }

    /// Hilbert-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of settings covered.
    #[inline]
    pub fn settings(&self) -> usize {
        self.vectors.len()
    }

    /// Outcomes of setting `s`.
    #[inline]
    pub fn outcomes(&self, s: usize) -> usize {
        self.vectors[s].len()
    }

    /// The vector `|ψ⟩` of outcome `o` in setting `s`.
    #[inline]
    pub fn vector(&self, s: usize, o: usize) -> &CVector {
        &self.vectors[s][o]
    }
}

/// Splitmix-style hash to a unit-interval double — the deterministic
/// entropy source for synthetic bases and states (no RNG state, so the
/// construction is reproducible from `(dim, salt)` alone).
fn hash_unit(h: u64) -> f64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    cast::to_f64(z >> 11) / cast::to_f64(1u64 << 53)
}

/// Deterministic pseudo-random complex vector with entries in the unit
/// square centered on 0.
fn hashed_vector(dim: usize, salt: u64) -> CVector {
    let mut v = CVector::zeros(dim);
    for i in 0..dim {
        let k = cast::usize_to_u64(i).wrapping_mul(2).wrapping_add(salt << 8);
        v[i] = Complex64::new(hash_unit(k) - 0.5, hash_unit(k.wrapping_add(1)) - 0.5);
    }
    v
}

/// Orthonormalizes the columns of `m` by modified Gram–Schmidt with one
/// re-orthogonalization pass (needed for numerical orthogonality at
/// `d = 64`).
fn gram_schmidt_columns(m: &CMatrix) -> QfcResult<CMatrix> {
    let d = m.rows();
    let mut cols: Vec<CVector> = (0..d).map(|j| m.col(j)).collect();
    for j in 0..d {
        let (head, tail) = cols.split_at_mut(j);
        let v = &mut tail[0];
        for _ in 0..2 {
            for u in head.iter() {
                let proj = u.dot(v);
                for k in 0..d {
                    let w = v[k] - proj * u[k];
                    v[k] = w;
                }
            }
        }
        let n = v.norm();
        if n < 1e-8 {
            return Err(QfcError::SingularSystem {
                context: format!("Gram–Schmidt column {j} degenerated (norm {n:.2e})"),
            });
        }
        let inv = 1.0 / n;
        for k in 0..d {
            let w = v[k].scale(inv);
            v[k] = w;
        }
    }
    Ok(CMatrix::from_fn(d, d, |i, j| cols[j][i]))
}

/// `count` deterministic orthonormal measurement bases in dimension
/// `dim`: the computational basis first, then Gram–Schmidt
/// orthonormalizations of hash-seeded matrices. Reproducible from
/// `(dim, count, salt)` alone.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for `dim < 2` or `count == 0`;
/// [`QfcError::SingularSystem`] if a seeded matrix degenerates (not
/// observed for any tested `(dim, salt)`; guarded rather than assumed).
pub fn deterministic_bases(dim: usize, count: usize, salt: u64) -> QfcResult<Vec<CMatrix>> {
    if dim < 2 {
        return Err(QfcError::invalid(format!(
            "measurement bases need dimension ≥ 2 (got {dim})"
        )));
    }
    if count == 0 {
        return Err(QfcError::invalid("need at least one measurement basis"));
    }
    let mut out = Vec::with_capacity(count);
    out.push(CMatrix::identity(dim));
    for b in 1..count {
        let seed = salt
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            .wrapping_add(cast::usize_to_u64(b));
        let raw = CMatrix::from_fn(dim, dim, |i, j| {
            let k = cast::usize_to_u64(i * dim + j)
                .wrapping_mul(3)
                .wrapping_add(seed << 16);
            Complex64::new(hash_unit(k) - 0.5, hash_unit(k.wrapping_add(1)) - 0.5)
        });
        let u = gram_schmidt_columns(&raw)?;
        if !u.is_unitary(1e-9) {
            return Err(QfcError::non_finite("Gram–Schmidt basis orthonormalization"));
        }
        out.push(u);
    }
    Ok(out)
}

/// Deterministic synthetic rank-`rank` qudit state of dimension `dim`:
/// the reduced state of a bipartite pure state whose amplitude matrix
/// is a sum of `rank` hash-seeded outer products with a `1/(t+1)`
/// Schmidt-weight decay. Trace 1, Hermitian, PSD by construction
/// (`ρ = CC†` up to normalization via [`BipartiteQudit::reduced_a`]).
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for `dim` outside the supported qudit
/// range `2..=64` or `rank` outside `1..=dim`.
pub fn synthetic_low_rank_state(dim: usize, rank: usize, salt: u64) -> QfcResult<CMatrix> {
    if !(2..=64).contains(&dim) {
        return Err(QfcError::invalid(format!(
            "synthetic qudit dimension must be in 2..=64 (got {dim})"
        )));
    }
    if rank == 0 || rank > dim {
        return Err(QfcError::invalid(format!(
            "synthetic state rank must be in 1..={dim} (got {rank})"
        )));
    }
    let mut c = CMatrix::zeros(dim, dim);
    for t in 0..rank {
        let ts = cast::usize_to_u64(t);
        let g = hashed_vector(dim, salt.wrapping_add(ts.wrapping_mul(2).wrapping_add(1)));
        let h = hashed_vector(dim, salt.wrapping_add(ts.wrapping_mul(2).wrapping_add(2)));
        let w = 1.0 / cast::to_f64(cast::usize_to_u64(t + 1));
        for i in 0..dim {
            for j in 0..dim {
                c[(i, j)] += (g[i] * h[j]).scale(w);
            }
        }
    }
    Ok(BipartiteQudit::from_amplitude_matrix(&c).reduced_a())
}

/// Exact ("infinite statistics") outcome counts of `rho` under a
/// projector set: `round(scale · ⟨ψ|ρ|ψ⟩)` per outcome — the qudit
/// counterpart of [`crate::counts::exact_counts`].
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] if `rho` is not square of the set's
/// dimension.
pub fn exact_counts_repr(
    rho: &CMatrix,
    set: &ProjectorReprSet,
    scale: u64,
) -> QfcResult<Vec<Vec<u64>>> {
    if !rho.is_square() || rho.rows() != set.dim() {
        return Err(QfcError::invalid(format!(
            "state is {}x{}, projector set has dimension {}",
            rho.rows(),
            rho.cols(),
            set.dim()
        )));
    }
    let mut counts = Vec::with_capacity(set.settings());
    for s in 0..set.settings() {
        let row: Vec<u64> = (0..set.outcomes(s))
            .map(|o| {
                let p = rho.quadratic_form_hermitian(set.vector(s, o)).clamp(0.0, 1.0);
                cast::f64_to_u64((p * cast::to_f64(scale)).round())
            })
            .collect();
        counts.push(row);
    }
    Ok(counts)
}

/// The measured outcomes of a count table, in `(s, o)` order: every
/// outcome with a nonzero count, with its per-setting frequency.
pub(crate) struct Measured {
    /// `(s, o)` per measured outcome.
    pub(crate) outcomes: Vec<(usize, usize)>,
    /// Frequency `f = c / N_s` per measured outcome.
    pub(crate) freqs: Vec<f64>,
    /// Events per measured setting, `N̄`: `ℓ` weighs every measured
    /// setting equally and the count likelihood by its events, so `N̄`
    /// converts a gap in `ℓ` to nats of the latter.
    mean_events: f64,
}

impl Measured {
    /// The measured outcomes of `counts`.
    ///
    /// # Errors
    ///
    /// [`QfcError::SingularSystem`] for zero total events.
    pub(crate) fn try_new(counts: &[Vec<u64>]) -> QfcResult<Self> {
        let grand_total: u64 = counts.iter().map(|row| row.iter().sum::<u64>()).sum();
        if grand_total == 0 {
            return Err(QfcError::SingularSystem {
                context: "MLE reconstruction: zero total events (all-dark data)".to_owned(),
            });
        }
        let slots = counts.iter().map(Vec::len).sum();
        let mut outcomes = Vec::with_capacity(slots);
        let mut freqs = Vec::with_capacity(slots);
        let mut measured_settings = 0u64;
        for (s, row) in counts.iter().enumerate() {
            let total: u64 = row.iter().sum();
            if total == 0 {
                continue;
            }
            measured_settings += 1;
            for (o, &c) in row.iter().enumerate().filter(|&(_, &c)| c > 0) {
                outcomes.push((s, o));
                freqs.push(cast::to_f64(c) / cast::to_f64(total));
            }
        }
        Ok(Self {
            outcomes,
            freqs,
            mean_events: cast::to_f64(grand_total) / cast::to_f64(measured_settings),
        })
    }
}

/// One sweep task's working set — a slot of the reconstruction's team:
/// a fixed chunk of measured outcomes, their vectors as panels, and
/// every buffer the sweep writes. It is built once per reconstruction,
/// so an iteration allocates nothing.
///
/// The partial `R` is authoritative only on its diagonal and upper
/// triangle; [`build_r`] mirrors once after the merge.
struct SweepChunk<'a> {
    /// The chunk's outcome vectors, four to a panel, in `(s, o)` order.
    panels: VectorPanels,
    /// Frequency `f` per vector.
    freqs: &'a [f64],
    /// Per vector, the expectation `p` of the last sweep, then its `R`
    /// weight `f/p`.
    weights: Vec<f64>,
    /// Partial `R` of the last sweep.
    r_part: CMatrix,
    /// Partial log-likelihood `Σ f·ln p` of the last sweep.
    ll: f64,
}

impl SweepSlot for SweepChunk<'_> {
    /// One panel pass over `ρ` for every expectation, `ℓ` summed in pair
    /// order, and one panel pass over `R` for every rank-1 update.
    fn sweep(&mut self, rho: &CMatrix) {
        rho.quadratic_forms_hermitian_panels(&self.panels, &mut self.weights);
        self.ll = 0.0;
        // qfc-lint: hot
        for (w, &f) in self.weights.iter_mut().zip(self.freqs) {
            let p = w.max(P_FLOOR);
            self.ll += f * p.ln();
            *w = f / p;
        }
        self.r_part.fill_zero();
        self.r_part.ger_hermitian_upper_panels(&self.weights, &self.panels);
    }

    fn fold_into(&self, r: &mut CMatrix) -> f64 {
        r.add_scaled_assign(&self.r_part, 1.0);
        self.ll
    }
}

/// Splits the measured outcomes into sweep chunks by the
/// [`PAR_SWEEP_MIN_WORK`] layout rule — fixed [`SWEEP_CHUNK_PAIRS`]-sized
/// chunks for the worker team, or one chunk that sweeps inline — and
/// fills each chunk's panels with the outcome vectors of `set`. The
/// layout depends only on the problem, never on the thread count.
fn sweep_chunks<'a>(measured: &'a Measured, set: &ProjectorReprSet) -> Vec<SweepChunk<'a>> {
    let (pairs, dim) = (measured.freqs.len(), set.dim());
    let chunk_len = if pairs * dim * dim >= PAR_SWEEP_MIN_WORK {
        SWEEP_CHUNK_PAIRS
    } else {
        pairs.max(1)
    };
    measured
        .outcomes
        .chunks(chunk_len)
        .zip(measured.freqs.chunks(chunk_len))
        .map(|(outcomes, freqs)| {
            let mut panels = VectorPanels::zeros(dim, outcomes.len());
            for (k, &(s, o)) in outcomes.iter().enumerate() {
                panels.set(k, set.vector(s, o).as_slice());
            }
            SweepChunk {
                panels,
                freqs,
                weights: vec![0.0; freqs.len()],
                r_part: CMatrix::zeros(dim, dim),
                ll: 0.0,
            }
        })
        .collect()
}

/// One slot of a reconstruction's team: a fixed share of the `R` build,
/// with every buffer it writes.
pub(crate) trait SweepSlot: Send {
    /// Recomputes the slot's share of `R` and of `ℓ = Σ f·ln p` against
    /// `rho`, writing only the slot's own buffers.
    fn sweep(&mut self, rho: &CMatrix);

    /// Adds the last sweep's share of `R` to `r`, authoritative on the
    /// diagonal and upper triangle, and returns its share of `ℓ`.
    fn fold_into(&self, r: &mut CMatrix) -> f64;
}

/// Builds `R = Σ (f/p)·Π` into `r` and returns the log-likelihood
/// `Σ f·ln p`. Several slots sweep as one step of the reconstruction's
/// team, each into its own buffers; a single slot sweeps inline. The
/// slots' shares are summed in slot order, so the result is bitwise
/// identical at any thread count. `rho` moves into the team for the step
/// and comes back unchanged. One [`CMatrix::hermitianize_upper`] mirror
/// after the merge (O(d²/2) copies, no arithmetic) restores the full
/// Hermitian `R`.
fn build_r<S: SweepSlot>(
    team: &mut qfc_runtime::Team<'_, CMatrix, S>,
    rho: &mut CMatrix,
    r: &mut CMatrix,
) -> f64 {
    if team.slot_count() == 1 {
        team.for_each_slot(|_, slot| slot.sweep(rho));
    } else {
        team.step(rho);
    }
    r.fill_zero();
    let mut ll = 0.0;
    team.for_each_slot(|_, slot| ll += slot.fold_into(r));
    r.hermitianize_upper();
    ll
}

/// Rejects a dimension the engine's result type cannot hold.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] unless `dim` is a power of two ≥ 2.
pub(crate) fn check_dimension(dim: usize) -> QfcResult<()> {
    if dim < 2 || !dim.is_power_of_two() {
        return Err(QfcError::invalid(format!(
            "MLE result is a DensityMatrix: dimension must be a power of \
             two ≥ 2 (got {dim})"
        )));
    }
    Ok(())
}

/// The engine on prepared sweep slots: one team for the whole
/// reconstruction, every `R` build one step of it, and the schedule on
/// the calling thread between steps.
///
/// # Errors
///
/// As [`try_mle_repr`].
pub(crate) fn run_engine<S: SweepSlot>(
    dim: usize,
    measured: &Measured,
    slots: &mut [S],
    options: &MleOptions,
) -> QfcResult<MleResult> {
    let (rho, iterations, gap_nats, accelerated_steps) = qfc_runtime::par_team(
        slots,
        |rho: &CMatrix, _, slot: &mut S| slot.sweep(rho),
        |team| run_schedule(dim, measured, options, |rho, r| build_r(team, rho, r)),
    )?;
    finish(rho, iterations, gap_nats, accelerated_steps)
}

/// Iterative RρR maximum-likelihood reconstruction against a qudit
/// projector set — the workspace's one MLE engine, whose schedule and
/// stop rule
/// [`try_mle_reconstruction`](crate::reconstruct::try_mle_reconstruction)
/// runs on qubit settings with a factored `R` build.
///
/// Maximizes `ℓ(ρ) = Σ f·ln p` over density matrices, with `f` the
/// per-setting frequencies and `p = ⟨ψ|ρ|ψ⟩`. The `R = Σ (f/p)·|ψ⟩⟨ψ|`
/// build runs as a fixed-order chunked sweep over four-vector panels, and
/// the products through the packed GEMM.
///
/// **Schedule.** Starting from the maximally mixed state, each iteration
/// sets `ρ ← AρA / tr(AρA)` with `A = (1−γ)·I + γ·R/Σf`; `γ = 1` is the
/// classic `RρR` step. `γ` grows by 1.4 per iteration up to 8. A step
/// that lowers `ℓ` is rolled back and retaken at `γ = 1`, and a step
/// whose classic-equivalent update norm grew resets `γ` to 1.
///
/// **Stop.** `ℓ` is concave and `R` is its gradient, so for every state
/// `σ`, `ℓ(σ) − ℓ(ρ) ≤ tr(Rσ) − tr(Rρ) ≤ λ_max(R) − tr(Rρ)` (Glancy,
/// Knill & Girard, New J. Phys. 14, 095017, 2012). Scaled by the mean
/// events per measured setting `N̄`, this is a bound in nats of the count
/// likelihood on how far `ρ` can be from the maximum-likelihood state.
/// Every iteration reads it off the `R` of the current iterate, before
/// the `γ` mix, with [`largest_eigenvalue_bound`] (an upper bound, so
/// the certificate never understates the gap). The iterate is returned as
/// soon as the bound is at most [`MLE_GAP_NATS`], or when the budget runs
/// out, so [`MleResult::gap_nats`] certifies the returned state (the final
/// physical projection only clips round-off).
///
/// `counts[s][o]` are the events for outcome `o` of setting `s`;
/// frequencies are per-setting, and zero-frequency outcomes are skipped.
///
/// # Errors
///
/// * [`QfcError::InvalidParameter`] — count table shape does not match
///   the set, or the dimension is not a power of two ≥ 2 (the result
///   type is a `DensityMatrix`);
/// * [`QfcError::SingularSystem`] — zero total events, or an iteration
///   whose update annihilated the trace;
/// * [`QfcError::NonFinite`] — the update norm left the finite range.
pub fn try_mle_repr(
    set: &ProjectorReprSet,
    counts: &[Vec<u64>],
    options: &MleOptions,
) -> QfcResult<MleResult> {
    if counts.len() != set.settings() {
        return Err(QfcError::invalid(format!(
            "count table has {} row(s) for {} setting(s)",
            counts.len(),
            set.settings()
        )));
    }
    for (s, row) in counts.iter().enumerate() {
        if row.len() != set.outcomes(s) {
            return Err(QfcError::invalid(format!(
                "setting {s} has {} count slot(s) for {} outcome(s)",
                row.len(),
                set.outcomes(s)
            )));
        }
    }
    check_dimension(set.dim())?;
    let measured = Measured::try_new(counts)?;
    let mut chunks = sweep_chunks(&measured, set);
    run_engine(set.dim(), &measured, &mut chunks, options)
}

/// The schedule and stop rule of [`try_mle_repr`], from the maximally
/// mixed state. `build_r(ρ, R)` writes the full Hermitian `R` of `ρ` and
/// returns `ℓ(ρ)`: two in an iteration whose over-relaxed step is rolled
/// back, one otherwise. Returns the iterate, its iterations, its
/// certified gap and its over-relaxed steps.
fn run_schedule(
    dim: usize,
    measured: &Measured,
    options: &MleOptions,
    mut build_r: impl FnMut(&mut CMatrix, &mut CMatrix) -> f64,
) -> QfcResult<(CMatrix, usize, f64, usize)> {
    let mut rho = CMatrix::identity(dim).scale(1.0 / cast::to_f64(cast::usize_to_u64(dim)));
    let mut r = CMatrix::zeros(dim, dim);
    let mut r_rho = CMatrix::zeros(dim, dim);
    let mut next = CMatrix::zeros(dim, dim);
    let mut gemm = GemmScratch::new();
    let mut tridiagonal = CMatrix::zeros(dim, dim);
    let mut iterations = 0;
    let mut accelerated_steps = 0usize;
    // `R` sums one ≈identity resolution per measured setting, so its
    // fixed-point value is `fsum·I`; the identity mix is applied to
    // `R/fsum` so that `γ` measures the over-relaxation relative to a
    // unit classic step, and the normalization cancels in `tr(AρA)` at
    // `γ = 1`, which is why the unscaled classic step is the same map.
    // `A` is Hermitian, so the sandwich stays positive semidefinite for
    // any real `γ`. `prev` holds the iterate the current one was
    // produced from, so an overshoot can be rolled back for the price
    // of one extra R build.
    let fsum: f64 = measured.freqs.iter().sum();
    let mut prev = rho.clone();
    let mut gamma = 1.0f64;
    let mut ll_prev = f64::NEG_INFINITY;
    let mut update_prev = f64::INFINITY;
    // qfc-lint: hot
    loop {
        let mut ll = build_r(&mut rho, &mut r);
        if ll + 1e-12 * ll.abs().max(1.0) < ll_prev {
            // The over-relaxed step lost likelihood: restore the parent
            // iterate, fall back to a classic step, and rebuild R there.
            std::mem::swap(&mut rho, &mut prev);
            gamma = 1.0;
            ll = build_r(&mut rho, &mut r);
        }
        ll_prev = ll;
        let lambda_max = largest_eigenvalue_bound(&r, &mut tridiagonal);
        // `tr(Rρ)`, not `Σf`: the `P_FLOOR` clamp makes them differ.
        let gap = measured.mean_events * (lambda_max - r.trace_of_product(&rho).re);
        if gap <= MLE_GAP_NATS || iterations >= options.max_iterations {
            return Ok((rho, iterations, gap, accelerated_steps));
        }
        iterations += 1;
        if gamma > 1.0 {
            accelerated_steps += 1;
            r.scale_in_place(1.0 / fsum);
            r.lerp_identity_in_place(gamma);
        }
        prev.copy_from(&rho);
        r.matmul_packed_into(&rho, &mut r_rho, &mut gemm);
        r_rho.matmul_packed_into(&r, &mut next, &mut gemm);
        let tr = next.trace().re;
        if !(tr.is_finite() && tr > 0.0) {
            return Err(QfcError::SingularSystem {
                context: format!(
                    "RρR update annihilated the trace (tr = {tr}) at iteration {iterations}"
                ),
            });
        }
        next.scale_in_place(1.0 / tr);
        // RρR with Hermitian R, ρ is Hermitian up to round-off; mirroring
        // the upper triangle makes every iterate *bitwise* Hermitian,
        // which the expectation kernel relies on (it never reads the
        // lower half).
        next.hermitianize_upper();
        let update = next.frobenius_distance(&rho);
        if !update.is_finite() {
            return Err(QfcError::non_finite("RρR update norm"));
        }
        std::mem::swap(&mut rho, &mut next);
        // An over-relaxed step is ~γ× a classic step, so `update/γ` is the
        // classic-equivalent residual. Near the likelihood ridge the
        // iterate can oscillate with a stalled residual while the
        // likelihood is flat at FP resolution; dropping back to a classic
        // step there restores the monotone tail.
        let residual = update / gamma;
        gamma = if residual > update_prev {
            1.0
        } else {
            (gamma * GAMMA_GROWTH).min(GAMMA_MAX)
        };
        update_prev = residual;
    }
}

/// Counts the reconstruction and projects its iterate onto the physical
/// states: symmetrize, then clip round-off negativity.
fn finish(
    rho: CMatrix,
    iterations: usize,
    gap_nats: f64,
    accelerated_steps: usize,
) -> QfcResult<MleResult> {
    qfc_obs::counter_add("mle_iterations", cast::usize_to_u64(iterations));
    qfc_obs::counter_add(
        "mle_accelerated_steps",
        cast::usize_to_u64(accelerated_steps),
    );
    let dim = rho.rows();
    let herm = CMatrix::from_fn(dim, dim, |i, j| {
        (rho[(i, j)] + rho[(j, i)].conj()).scale(0.5)
    });
    let rho = try_project_physical(&herm)?;
    Ok(MleResult {
        rho,
        iterations,
        gap_nats,
        converged: gap_nats <= MLE_GAP_NATS,
        accelerated_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::try_mle_reconstruction;
    use crate::settings::{all_settings, Setting};
    use crate::stream::try_stream_counts_seeded;
    use qfc_quantum::bell::werner_state;
    use qfc_quantum::fidelity::state_fidelity;
    use qfc_quantum::multiphoton::noisy_four_photon;

    /// The outcome vectors of qubit settings as a projector set, so the
    /// qudit entry point and the dense leg below can run on qubit data.
    fn settings_set(settings: &[Setting]) -> ProjectorReprSet {
        ProjectorReprSet {
            vectors: settings
                .iter()
                .map(|s| (0..s.outcomes()).map(|o| s.outcome_vector(o)).collect())
                .collect(),
            dim: settings[0].outcomes(),
        }
    }

    /// The dense leg: the engine's schedule and stop with `R` and `ℓ` built
    /// from materialized `d × d` projectors `Π = |ψ⟩⟨ψ|` and `p = tr(ρ·Π)`,
    /// the reference the rank-1 panel sweep is checked against.
    fn dense_mle(set: &ProjectorReprSet, counts: &[Vec<u64>], options: &MleOptions) -> MleResult {
        let measured = Measured::try_new(counts).expect("measured outcomes");
        let projectors: Vec<CMatrix> = measured
            .outcomes
            .iter()
            .map(|&(s, o)| CMatrix::outer(set.vector(s, o), set.vector(s, o)))
            .collect();
        let build_r = |rho: &mut CMatrix, r: &mut CMatrix| {
            r.fill_zero();
            let mut ll = 0.0;
            for (projector, &f) in projectors.iter().zip(&measured.freqs) {
                let p = rho.trace_of_product(projector).re.max(P_FLOOR);
                ll += f * p.ln();
                r.add_scaled_assign(projector, f / p);
            }
            r.hermitianize_upper();
            ll
        };
        let (rho, iterations, gap, accelerated) =
            run_schedule(set.dim(), &measured, options, build_r).expect("dense leg");
        finish(rho, iterations, gap, accelerated).expect("dense projection")
    }

    #[test]
    fn bases_set_rejects_non_unitary() {
        let bad = CMatrix::from_real_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert!(matches!(
            ProjectorReprSet::try_rank1_from_bases(&[bad]).unwrap_err(),
            QfcError::InvalidParameter { .. }
        ));
        assert!(matches!(
            ProjectorReprSet::try_rank1_from_bases(&[]).unwrap_err(),
            QfcError::InsufficientData { .. }
        ));
    }

    #[test]
    fn deterministic_bases_are_unitary_and_reproducible() {
        for dim in [2, 5, 16] {
            let bases = deterministic_bases(dim, 4, 99).expect("bases");
            assert_eq!(bases.len(), 4);
            assert!(bases[0].approx_eq(&CMatrix::identity(dim), 0.0));
            for (b, u) in bases.iter().enumerate() {
                assert!(u.is_unitary(1e-10), "dim {dim} basis {b}");
            }
            let again = deterministic_bases(dim, 4, 99).expect("bases");
            for (u, v) in bases.iter().zip(&again) {
                assert!(u.approx_eq(v, 0.0));
            }
        }
        assert!(deterministic_bases(1, 3, 0).is_err());
        assert!(deterministic_bases(4, 0, 0).is_err());
    }

    #[test]
    fn synthetic_state_is_physical_low_rank() {
        let rho = synthetic_low_rank_state(16, 3, 7).expect("state");
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!(rho.is_hermitian(1e-12));
        // Positive semidefinite: ⟨v|ρ|v⟩ ≥ 0 on probe vectors.
        for salt in 0..4 {
            let v = hashed_vector(16, 1000 + salt);
            assert!(rho.sandwich(&v, &v).re > -1e-12);
        }
        // Rank ≤ 3: the state is CC† with C a sum of 3 outer products.
        let eig = qfc_mathkit::hermitian::eigh(&rho);
        let big = eig.eigenvalues.iter().filter(|&&x| x > 1e-9).count();
        assert!(big <= 3, "rank {big}");
        assert!(synthetic_low_rank_state(65, 1, 0).is_err());
        assert!(synthetic_low_rank_state(8, 0, 0).is_err());
    }

    #[test]
    fn exact_counts_repr_complete_per_basis() {
        let rho = synthetic_low_rank_state(8, 2, 3).expect("state");
        let bases = deterministic_bases(8, 3, 11).expect("bases");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
        let counts = exact_counts_repr(&rho, &set, 1_000_000).expect("counts");
        // Each orthonormal basis resolves the identity, so every
        // setting's probabilities sum to 1 up to rounding.
        for row in &counts {
            let total: u64 = row.iter().sum();
            assert!(total.abs_diff(1_000_000) <= 4, "{total}");
        }
    }

    /// Pairwise visibility the §V fast-demo channel model
    /// (`qfc_core::multiphoton::MultiPhotonConfig::fast_demo`: channel 1
    /// of the time-bin paper device at the four-fold pump factor) feeds
    /// the four-photon state.
    const FAST_DEMO_FOUR_PHOTON_VISIBILITY: f64 = 0.6822499505097467;

    #[test]
    fn rank1_and_dense_legs_agree_entrywise_on_paper_data() {
        // The `mle_reconstruction` golden fixture's data: a V = 0.83
        // Werner state, 500 shots per setting, seed 17.
        let bell = try_stream_counts_seeded(&werner_state(0.83, 0.0), &all_settings(2), 500, 17)
            .expect("counts");
        // The four-photon fast-demo data: 81 settings × 40 shots of the
        // fast-demo four-photon state, seed 13 (the `four_photon` fixture).
        let rho4 = noisy_four_photon(0.0, FAST_DEMO_FOUR_PHOTON_VISIBILITY, 0.08);
        let four = try_stream_counts_seeded(&rho4, &all_settings(4), 40, 13).expect("counts");
        for (name, data) in [("bell", &bell), ("four-photon", &four)] {
            let opts = MleOptions::default();
            let fast = try_mle_reconstruction(data, &opts).expect("rank-1 leg");
            let slow = dense_mle(&settings_set(&data.settings), &data.counts, &opts);
            assert_eq!(fast.iterations, slow.iterations, "{name}: iteration counts differ");
            let worst = fast
                .rho
                .as_matrix()
                .as_slice()
                .iter()
                .zip(slow.rho.as_matrix().as_slice())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(worst <= 1e-12, "{name}: max |Δρ| = {worst:e}");
            assert!(
                (fast.gap_nats - slow.gap_nats).abs() <= 1e-9,
                "{name}: gaps {} vs {}",
                fast.gap_nats,
                slow.gap_nats
            );
        }
    }

    #[test]
    fn rank1_and_dense_repr_legs_agree() {
        let rho = synthetic_low_rank_state(8, 2, 5).expect("state");
        let bases = deterministic_bases(8, 9, 21).expect("bases");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
        let counts = exact_counts_repr(&rho, &set, 200_000).expect("counts");
        let opts = MleOptions { max_iterations: 150 };
        let fast = try_mle_repr(&set, &counts, &opts).expect("rank1 leg");
        let dense = dense_mle(&set, &counts, &opts);
        let f = state_fidelity(&fast.rho, &dense.rho);
        assert!(f > 0.9999, "rank-1 vs dense-repr fidelity {f}");
        let f_truth = state_fidelity(&fast.rho, &qfc_quantum::density::DensityMatrix::from_matrix(rho).expect("truth"));
        assert!(f_truth > 0.99, "reconstruction vs truth fidelity {f_truth}");
    }

    #[test]
    fn rank1_mle_thread_invariant() {
        // 9 bases × 16 outcomes × d² is past PAR_SWEEP_MIN_WORK, so the
        // sweep is cut into three chunks and runs as team steps.
        let rho = synthetic_low_rank_state(16, 2, 9).expect("state");
        let bases = deterministic_bases(16, 9, 31).expect("bases");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
        let counts = exact_counts_repr(&rho, &set, 100_000).expect("counts");
        let bits = |m: &MleResult| -> Vec<u64> {
            m.rho
                .as_matrix()
                .as_slice()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect()
        };
        let opts = MleOptions { max_iterations: 60 };
        // Each R build is one `runtime.execute` step: one per iteration,
        // one more for the certificate of the returned iterate, and a
        // second in an iteration whose over-relaxed step is rolled back.
        let run = |threads: usize| {
            let collector = qfc_obs::Collector::new();
            let result = collector
                .install(|| qfc_runtime::with_threads(threads, || try_mle_repr(&set, &counts, &opts)))
                .expect("reconstruction");
            let snapshot = collector.snapshot();
            let steps = snapshot
                .spans
                .children
                .iter()
                .find(|span| span.name == "runtime.execute")
                .map_or(0, |span| span.calls);
            (result, steps)
        };
        let (one, one_steps) = run(1);
        let builds = cast::usize_to_u64(one.iterations + 1);
        assert!(one_steps >= builds);
        for threads in [2, 3, 8] {
            let (many, steps) = run(threads);
            let at = format!("at {threads} threads");
            assert_eq!(many.iterations, one.iterations, "{at}");
            assert_eq!(many.gap_nats.to_bits(), one.gap_nats.to_bits(), "{at}");
            assert_eq!(many.accelerated_steps, one.accelerated_steps, "{at}");
            assert_eq!(bits(&many), bits(&one), "{at}");
            assert_eq!(steps, one_steps, "{at}");
        }
        assert!(one.accelerated_steps > 0, "the schedule over-relaxed");
        assert!(
            one_steps > builds,
            "an over-relaxed step was rolled back: a second step in one iteration"
        );
    }

    /// The engine's objective `ℓ(ρ) = Σ f·ln max(p, P_FLOOR)` over the
    /// measured outcomes, evaluated outside the engine.
    fn log_likelihood(set: &ProjectorReprSet, counts: &[Vec<u64>], rho: &CMatrix) -> f64 {
        let mut ll = 0.0;
        for (s, row) in counts.iter().enumerate() {
            let total: u64 = row.iter().sum();
            for (o, &c) in row.iter().enumerate().filter(|&(_, &c)| c > 0) {
                let f = cast::to_f64(c) / cast::to_f64(total);
                ll += f * rho.quadratic_form_hermitian(set.vector(s, o)).max(P_FLOOR).ln();
            }
        }
        ll
    }

    /// Events per measured setting, `N̄`.
    fn mean_events(counts: &[Vec<u64>]) -> f64 {
        let measured = counts.iter().filter(|row| row.iter().sum::<u64>() > 0).count();
        let total: u64 = counts.iter().flatten().sum();
        cast::to_f64(total) / cast::to_f64(cast::usize_to_u64(measured))
    }

    /// The certificate is a valid bound on every iterate: for each cap `k`
    /// up to where the default run certifies, the engine returns `ρ_k`
    /// with the gap certified there, and that gap must be at least
    /// `N̄·(ℓ* − ℓ(ρ_k))`. `ℓ*` comes from a long run of the same data with
    /// every count scaled by 2²⁰: the frequencies, and so the whole
    /// trajectory, are bitwise the same, but `N̄` is 2²⁰ times larger, so
    /// that run stops only about 2²⁰ times closer to the maximum.
    #[test]
    fn certified_gap_bounds_the_likelihood_gap_at_every_iterate() {
        let pauli = settings_set(&all_settings(2));
        let bases = deterministic_bases(16, 9, 31).expect("bases");
        let qudit = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
        let werner = werner_state(0.9, 0.3);
        let pure = qfc_quantum::density::DensityMatrix::from_pure(&qfc_quantum::bell::bell_phi(0.4));
        let low_rank = synthetic_low_rank_state(16, 2, 9).expect("state");
        let cases = [
            (
                "d=4 Werner, 2000 shots",
                &pauli,
                try_stream_counts_seeded(&werner, &all_settings(2), 2000, 3)
                    .expect("counts")
                    .counts,
            ),
            // 12 shots: zero-count outcomes everywhere.
            (
                "d=4 Werner, 12 shots",
                &pauli,
                try_stream_counts_seeded(&werner, &all_settings(2), 12, 4)
                    .expect("counts")
                    .counts,
            ),
            // A pure state: whole outcomes never click, the MLE is rank-deficient.
            (
                "d=4 pure Bell, 500 shots",
                &pauli,
                try_stream_counts_seeded(&pure, &all_settings(2), 500, 5)
                    .expect("counts")
                    .counts,
            ),
            // About 20 events per basis: most of the 144 outcomes are empty.
            (
                "d=16 rank 2, 20 events per basis",
                &qudit,
                exact_counts_repr(&low_rank, &qudit, 20).expect("counts"),
            ),
        ];
        for (name, set, counts) in &cases {
            let nbar = mean_events(counts);
            let scaled: Vec<Vec<u64>> = counts
                .iter()
                .map(|row| row.iter().map(|&c| c << 20).collect())
                .collect();
            let long = try_mle_repr(set, &scaled, &MleOptions { max_iterations: 3000 })
                .expect("long run");
            let ll_star = log_likelihood(set, counts, long.rho.as_matrix());
            let converged = try_mle_repr(set, counts, &MleOptions::default()).expect("default run");
            assert!(converged.converged, "{name}: did not certify within 300 iterations");
            assert!(converged.gap_nats <= MLE_GAP_NATS, "{name}: {}", converged.gap_nats);
            for k in 0..=converged.iterations {
                let at_k = try_mle_repr(set, counts, &MleOptions { max_iterations: k })
                    .expect("capped run");
                let ll_k = log_likelihood(set, counts, at_k.rho.as_matrix());
                assert!(
                    at_k.gap_nats / nbar >= (ll_star - ll_k) - 1e-9 * ll_star.abs(),
                    "{name}, iterate {k}: certified {} nats < N̄·(ℓ* − ℓ) = {} nats",
                    at_k.gap_nats,
                    nbar * (ll_star - ll_k)
                );
            }
            let gap_bits = |threads: usize| {
                qfc_runtime::with_threads(threads, || try_mle_repr(set, counts, &MleOptions::default()))
                    .expect("run")
                    .gap_nats
                    .to_bits()
            };
            assert_eq!(gap_bits(1), gap_bits(4), "{name}: gap differs at 4 threads");
        }
    }

    #[test]
    fn rank1_mle_rejects_degenerate_inputs() {
        let bases = deterministic_bases(8, 2, 1).expect("bases");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
        // All-dark data.
        let dark = vec![vec![0u64; 8]; 2];
        assert!(matches!(
            try_mle_repr(&set, &dark, &MleOptions::default()).unwrap_err(),
            QfcError::SingularSystem { .. }
        ));
        // Malformed count table.
        let short = vec![vec![1u64; 8]];
        assert!(matches!(
            try_mle_repr(&set, &short, &MleOptions::default()).unwrap_err(),
            QfcError::InvalidParameter { .. }
        ));
        // Non-power-of-two dimension.
        let b3 = deterministic_bases(3, 2, 1).expect("bases");
        let s3 = ProjectorReprSet::try_rank1_from_bases(&b3).expect("set");
        let c3 = vec![vec![1u64; 3]; 2];
        let err = try_mle_repr(&s3, &c3, &MleOptions::default()).unwrap_err();
        assert!(err.to_string().contains("power of two"), "{err}");
    }
}
