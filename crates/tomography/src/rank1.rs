//! The RρR maximum-likelihood engine over rank-1 projectors.
//!
//! Every measurement this workspace reconstructs — the Pauli product
//! settings of qubit tomography and any orthonormal-basis qudit
//! measurement — has outcome projectors that are rank-1 outer products
//! `|ψ⟩⟨ψ|`. Materializing each as a dense `d × d` matrix makes one RρR
//! iteration stream `m·d²` complex entries through `tr(ρ·Π)` (a
//! stride-`d` column walk) and again through the `R` accumulation — at
//! `d = 64` with ~10³ projectors that is tens of megabytes of traffic
//! per iteration, far beyond any cache.
//!
//! This module keeps the *vectors* instead: [`ProjectorRepr::Rank1`]
//! stores `|ψ⟩` (shrinking the projector cache from `m·d²` to `m·d`
//! entries) and exploits the Hermitian structure of both operands —
//! expectations become the allocation-free quadratic form `⟨ψ|ρ|ψ⟩`
//! over `ρ`'s upper triangle ([`CMatrix::quadratic_form_hermitian`]),
//! and the `R` build becomes upper-triangle-only
//! [`CMatrix::ger_hermitian_upper`] rank-1 updates with a single
//! mirror per sweep — each at *half* the complex multiplies of their
//! full-matrix counterparts, every access contiguous. The `RρR`
//! products run through the packed GEMM
//! ([`CMatrix::matmul_packed_into`]), and iterates are kept bitwise
//! Hermitian so the triangle kernels stay exact. The per-iteration
//! sweep is parallelized over fixed-size pair chunks with a
//! chunk-index-ordered merge, so results are bitwise identical at any
//! thread count. Each reconstruction runs in one
//! [`qfc_runtime::par_team`] region: its threads are spawned once, every
//! sweep is one barrier step of that team, and each chunk's buffers are
//! built once, so an iteration allocates nothing at any thread count.
//!
//! [`try_mle_repr`] is the workspace's one MLE engine:
//! [`crate::reconstruct::try_mle_reconstruction`] builds the rank-1 set
//! of its settings and calls it. [`ProjectorRepr::Dense`] survives only
//! as the reference leg that tests and benches compare against.

use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cast;
use qfc_mathkit::cmatrix::{CMatrix, GemmScratch};
use qfc_mathkit::complex::Complex64;
use qfc_mathkit::cvector::CVector;
use qfc_quantum::qudit::BipartiteQudit;

use crate::reconstruct::{try_project_physical, MleAcceleration, MleOptions, MleResult};
use crate::settings::Setting;

/// Probability floor: expectations are clamped to this before dividing,
/// so empty-outcome projectors cannot blow up `R`.
const P_FLOOR: f64 = 1e-12;

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
const PAR_SWEEP_MIN_WORK: usize = 1 << 15;

/// One outcome projector, stored in whichever representation the
/// measurement admits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProjectorRepr {
    /// A general projector as a dense matrix — the reference leg that
    /// tests and benches compare the rank-1 representation against.
    Dense(CMatrix),
    /// A rank-1 projector `|ψ⟩⟨ψ|` stored as the vector `|ψ⟩` — `d`
    /// entries instead of `d²`.
    Rank1(CVector),
}

impl ProjectorRepr {
    /// Hilbert-space dimension the projector acts on.
    pub fn dim(&self) -> usize {
        match self {
            ProjectorRepr::Dense(m) => m.rows(),
            ProjectorRepr::Rank1(v) => v.dim(),
        }
    }

    /// Expectation `tr(ρ·Π)`. Dense projectors use the diagonal-only
    /// product trace; rank-1 projectors use the Hermitian quadratic form
    /// `⟨ψ|ρ|ψ⟩` ([`CMatrix::quadratic_form_hermitian`]) — contiguous,
    /// allocation-free, and half the complex multiplies of a full
    /// sandwich because only `ρ`'s upper triangle is read. The rank-1
    /// arm therefore requires `rho` to be Hermitian — density matrices
    /// always are, and the MLE driver below keeps its iterates bitwise
    /// Hermitian.
    pub fn expectation(&self, rho: &CMatrix) -> f64 {
        match self {
            ProjectorRepr::Dense(m) => rho.trace_of_product(m).re,
            ProjectorRepr::Rank1(v) => rho.quadratic_form_hermitian(v),
        }
    }

    /// Sweep-internal accumulation that keeps only `r`'s diagonal and
    /// upper triangle authoritative: the dense arm adds the full matrix
    /// (its upper triangle is correct either way), the rank-1 arm runs
    /// the half-work [`CMatrix::ger_hermitian_upper`] update. `build_r`
    /// mirrors the triangle once after the chunk merge, so callers of
    /// the driver always observe a full Hermitian `R`.
    fn accumulate_scaled_upper(&self, r: &mut CMatrix, w: f64) {
        match self {
            ProjectorRepr::Dense(m) => r.add_scaled_assign(m, w),
            ProjectorRepr::Rank1(v) => r.ger_hermitian_upper(w, v),
        }
    }

    /// The projector as a dense matrix (clones / materializes).
    pub fn to_dense_matrix(&self) -> CMatrix {
        match self {
            ProjectorRepr::Dense(m) => m.clone(),
            ProjectorRepr::Rank1(v) => CMatrix::outer(v, v),
        }
    }
}

/// Outcome projectors for a list of measurement settings, in
/// representation form.
#[derive(Debug, Clone)]
pub struct ProjectorReprSet {
    /// `reprs[s][o]` for setting `s`, outcome `o`.
    reprs: Vec<Vec<ProjectorRepr>>,
    /// Hilbert-space dimension.
    dim: usize,
}

impl ProjectorReprSet {
    /// Rank-1 projectors for qubit tomography settings, via
    /// [`Setting::outcome_vector`] Kronecker chains — `m·d` stored
    /// entries where dense projectors would store `m·d²`.
    ///
    /// # Errors
    ///
    /// [`QfcError::InsufficientData`] for an empty setting list,
    /// [`QfcError::InvalidParameter`] for mixed-arity settings.
    pub fn try_rank1_from_settings(settings: &[Setting]) -> QfcResult<Self> {
        let first = settings.first().ok_or_else(|| QfcError::InsufficientData {
            context: "rank-1 projector set needs at least one setting".to_owned(),
        })?;
        let n = first.qubits();
        let mut reprs = Vec::with_capacity(settings.len());
        for (s, setting) in settings.iter().enumerate() {
            if setting.qubits() != n {
                return Err(QfcError::invalid(format!(
                    "mixed-arity setting list: setting {s} measures {} qubit(s) \
                     but setting 0 measures {n}",
                    setting.qubits()
                )));
            }
            reprs.push(
                (0..setting.outcomes())
                    .map(|o| ProjectorRepr::Rank1(setting.outcome_vector(o)))
                    .collect(),
            );
        }
        Ok(Self { reprs, dim: 1 << n })
    }

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
        let mut reprs = Vec::with_capacity(bases.len());
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
            reprs.push(
                (0..dim)
                    .map(|o| ProjectorRepr::Rank1(basis.col(o)))
                    .collect(),
            );
        }
        Ok(Self { reprs, dim })
    }

    /// The same set with every projector materialized as a dense
    /// matrix — the reference leg for A/B checks and benchmarks of the
    /// rank-1 representation.
    pub fn to_dense(&self) -> Self {
        Self {
            reprs: self
                .reprs
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|r| ProjectorRepr::Dense(r.to_dense_matrix()))
                        .collect()
                })
                .collect(),
            dim: self.dim,
        }
    }

    /// Hilbert-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of settings covered.
    #[inline]
    pub fn settings(&self) -> usize {
        self.reprs.len()
    }

    /// Outcomes of setting `s`.
    #[inline]
    pub fn outcomes(&self, s: usize) -> usize {
        self.reprs[s].len()
    }

    /// The representation of outcome `o` in setting `s`.
    #[inline]
    pub fn repr(&self, s: usize, o: usize) -> &ProjectorRepr {
        &self.reprs[s][o]
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
/// projector set: `round(scale · tr(ρ·Π))` per outcome — the qudit
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
                let p = set.repr(s, o).expectation(rho).clamp(0.0, 1.0);
                cast::f64_to_u64((p * cast::to_f64(scale)).round())
            })
            .collect();
        counts.push(row);
    }
    Ok(counts)
}

/// One sweep task's working set — a slot of the reconstruction's team:
/// a fixed chunk of `(projector, frequency)` pairs plus every buffer the
/// sweep writes — the partial `R`, the expectations, the rank-1 update
/// list and its vectors. It is built once per reconstruction, so an
/// iteration allocates nothing.
///
/// The partial `R` is authoritative only on its diagonal and upper
/// triangle (rank-1 pairs skip the lower half); [`build_r`] mirrors once
/// after the merge.
struct SweepChunk<'a> {
    /// The chunk's pairs, in `(s, o)` order.
    pairs: &'a [(&'a ProjectorRepr, f64)],
    /// `|ψ⟩` per pair when every pair is rank-1; empty otherwise.
    vecs: Vec<&'a CVector>,
    /// Expectation `p` per pair (rank-1 chunks only).
    ps: Vec<f64>,
    /// `(f/p, |ψ⟩)` per pair (rank-1 chunks only); the weights are
    /// rewritten by every sweep.
    updates: Vec<(f64, &'a CVector)>,
    /// Partial `R` of the last sweep.
    r_part: CMatrix,
    /// Partial log-likelihood `Σ f·ln p` of the last sweep.
    ll: f64,
}

impl<'a> SweepChunk<'a> {
    fn new(pairs: &'a [(&'a ProjectorRepr, f64)], dim: usize) -> Self {
        let vecs: Option<Vec<&CVector>> = pairs
            .iter()
            .map(|&(repr, _)| match repr {
                ProjectorRepr::Rank1(v) => Some(v),
                ProjectorRepr::Dense(_) => None,
            })
            .collect();
        let vecs = vecs.unwrap_or_default();
        Self {
            pairs,
            ps: vec![0.0; vecs.len()],
            updates: vecs.iter().map(|&v| (0.0, v)).collect(),
            vecs,
            r_part: CMatrix::zeros(dim, dim),
            ll: 0.0,
        }
    }

    /// Recomputes the partial `R` and log-likelihood against `rho`.
    ///
    /// All-rank-1 chunks (the common case — sets built by the public
    /// constructors are homogeneous) take a blocked fast path:
    /// expectations via [`CMatrix::quadratic_forms_hermitian`] and the
    /// `R` accumulation via [`CMatrix::ger_hermitian_upper_batch`], four
    /// pairs per pass over `ρ` / `R`. Both batch kernels are bitwise
    /// identical to their per-pair forms and the log-likelihood is summed
    /// in pair order, so the fast path produces exactly the bits of the
    /// generic loop below.
    fn sweep(&mut self, rho: &CMatrix) {
        let Self {
            pairs,
            vecs,
            ps,
            updates,
            r_part,
            ll,
        } = self;
        r_part.fill_zero();
        *ll = 0.0;
        if vecs.len() == pairs.len() {
            rho.quadratic_forms_hermitian(vecs, ps);
            // qfc-lint: hot
            let terms = pairs.iter().zip(ps.iter_mut()).zip(updates.iter_mut());
            for ((&(_, f), p), update) in terms {
                *p = p.max(P_FLOOR);
                *ll += f * p.ln();
                update.0 = f / *p;
            }
            r_part.ger_hermitian_upper_batch(updates);
            return;
        }
        // qfc-lint: hot
        for &(repr, f) in pairs.iter() {
            let p = repr.expectation(rho).max(P_FLOOR);
            *ll += f * p.ln();
            repr.accumulate_scaled_upper(r_part, f / p);
        }
    }
}

/// Splits the pairs into sweep chunks by the [`PAR_SWEEP_MIN_WORK`]
/// layout rule: fixed [`SWEEP_CHUNK_PAIRS`]-sized chunks for the worker
/// team, or one chunk that sweeps inline. The layout depends only on
/// the problem, never on the thread count.
fn sweep_chunks<'a>(pairs: &'a [(&'a ProjectorRepr, f64)], dim: usize) -> Vec<SweepChunk<'a>> {
    let chunk_len = if pairs.len() * dim * dim >= PAR_SWEEP_MIN_WORK {
        SWEEP_CHUNK_PAIRS
    } else {
        pairs.len().max(1)
    };
    pairs
        .chunks(chunk_len)
        .map(|chunk| SweepChunk::new(chunk, dim))
        .collect()
}

/// Builds `R = Σ (f/p)·Π` into `r` and returns the log-likelihood
/// `Σ f·ln p`. Several chunks sweep as one step of the reconstruction's
/// team, each into its own buffers, and their partial `R` matrices are
/// summed in chunk-index order, so the result is bitwise identical at
/// any thread count. `rho` moves into the team for the step and comes
/// back unchanged. The sweep accumulates only the upper triangle for
/// rank-1 pairs; one [`CMatrix::hermitianize_upper`] mirror after the
/// merge (O(d²/2) copies, no arithmetic) restores the full Hermitian `R`.
fn build_r(
    team: &mut qfc_runtime::Team<'_, CMatrix, SweepChunk<'_>>,
    rho: &mut CMatrix,
    r: &mut CMatrix,
) -> f64 {
    let mut ll = 0.0;
    if team.slot_count() == 1 {
        team.for_each_slot(|_, chunk| {
            chunk.sweep(rho);
            r.copy_from(&chunk.r_part);
            ll = chunk.ll;
        });
    } else {
        team.step(rho);
        r.fill_zero();
        team.for_each_slot(|_, chunk| {
            r.add_scaled_assign(&chunk.r_part, 1.0);
            ll += chunk.ll;
        });
    }
    r.hermitianize_upper();
    ll
}

/// Iterative RρR maximum-likelihood reconstruction against a
/// representation projector set — the workspace's one MLE engine.
///
/// `ρ_{k+1} ∝ R ρ_k R` with `R = Σ_{s,o} (f_{s,o}/p_{s,o})·Π_{s,o}`,
/// starting from the maximally mixed state. For informationally complete
/// data this converges to the maximum-likelihood physical state.
/// Expectations run through [`ProjectorRepr::expectation`], the `R`
/// build through a fixed-order chunked sweep, and the `RρR` products
/// through the packed GEMM. [`MleAcceleration`] picks the classic or the
/// likelihood-gated over-relaxed schedule.
///
/// `counts[s][o]` are the events for outcome `o` of setting `s`;
/// frequencies are per-setting, and zero-frequency outcomes are skipped.
///
/// # Errors
///
/// * [`QfcError::InvalidParameter`] — count table shape does not match
///   the set, the dimension is not a power of two ≥ 2 (the result type
///   is a `DensityMatrix`), or the accelerated schedule is malformed;
/// * [`QfcError::SingularSystem`] — zero total events, or an iteration
///   whose update annihilated the trace;
/// * [`QfcError::NonFinite`] — the update norm left the finite range.
pub fn try_mle_repr(
    set: &ProjectorReprSet,
    counts: &[Vec<u64>],
    options: &MleOptions,
) -> QfcResult<MleResult> {
    let dim = set.dim();
    if dim < 2 || !dim.is_power_of_two() {
        return Err(QfcError::invalid(format!(
            "MLE result is a DensityMatrix: dimension must be a power of \
             two ≥ 2 (got {dim})"
        )));
    }
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
    let grand_total: u64 = counts.iter().map(|row| row.iter().sum::<u64>()).sum();
    if grand_total == 0 {
        return Err(QfcError::SingularSystem {
            context: "MLE reconstruction: zero total events (all-dark data)".to_owned(),
        });
    }
    // `Some((max_step, growth))` for the over-relaxed schedule.
    let schedule = match options.acceleration {
        MleAcceleration::Classic => None,
        MleAcceleration::Accelerated { max_step, growth } => {
            if !(max_step >= 1.0 && max_step.is_finite() && growth >= 1.0 && growth.is_finite()) {
                return Err(QfcError::invalid(format!(
                    "accelerated MLE schedule needs finite max_step ≥ 1 and \
                     growth ≥ 1 (got max_step = {max_step}, growth = {growth})"
                )));
            }
            Some((max_step, growth))
        }
    };

    // (projector, frequency) pairs in (s, o) order, f > 0 only.
    let mut pairs: Vec<(&ProjectorRepr, f64)> =
        Vec::with_capacity(counts.iter().map(Vec::len).sum());
    for (s, row) in counts.iter().enumerate() {
        let total: u64 = row.iter().sum();
        if total == 0 {
            continue;
        }
        for (o, &c) in row.iter().enumerate() {
            if c > 0 {
                pairs.push((
                    set.repr(s, o),
                    cast::to_f64(c) / cast::to_f64(total),
                ));
            }
        }
    }
    let mut chunks = sweep_chunks(&pairs, dim);

    // One team for the whole reconstruction: every R build below is one
    // step of it (two in an iteration whose over-relaxed step is rolled
    // back), and the loop itself runs on the calling thread between steps.
    let (rho, iterations, final_update, accelerated_steps) = qfc_runtime::par_team(
        &mut chunks,
        |rho: &CMatrix, _, chunk: &mut SweepChunk<'_>| chunk.sweep(rho),
        |team| {
            let mut rho =
                CMatrix::identity(dim).scale(1.0 / cast::to_f64(cast::usize_to_u64(dim)));
            let mut r = CMatrix::zeros(dim, dim);
            let mut r_rho = CMatrix::zeros(dim, dim);
            let mut next = CMatrix::zeros(dim, dim);
            let mut gemm = GemmScratch::new();
            let mut iterations = 0;
            let mut final_update = f64::INFINITY;
            let mut accelerated_steps = 0usize;
            // Over-relaxation state: `ρ ← AρA / tr(AρA)` with
            // `A = (1−γ)·I + γ·R/fsum`. `A` is Hermitian, so the sandwich stays
            // positive semidefinite for any real `γ`. `R` sums one ≈identity
            // resolution per measured setting, so its fixed-point value is
            // `fsum·I`; the identity mix is applied to `R/fsum` so that `γ`
            // measures the over-relaxation relative to a unit classic step, and
            // the normalization cancels in `tr(AρA)` at `γ = 1`, which is why
            // the unscaled classic step is the same map. `prev` holds the iterate
            // the current one was produced from, so an overshoot can be rolled
            // back for the price of one extra R build.
            let fsum: f64 = pairs.iter().map(|&(_, f)| f).sum();
            let mut prev = rho.clone();
            let mut gamma = 1.0f64;
            let mut ll_prev = f64::NEG_INFINITY;
            let mut update_prev = f64::INFINITY;
            // qfc-lint: hot
            for _ in 0..options.max_iterations {
                iterations += 1;
                let mut ll = build_r(team, &mut rho, &mut r);
                if schedule.is_some() {
                    if ll + 1e-12 * ll.abs().max(1.0) < ll_prev {
                        // The over-relaxed step lost likelihood: restore the
                        // parent iterate, fall back to a classic step, and
                        // rebuild R there.
                        std::mem::swap(&mut rho, &mut prev);
                        gamma = 1.0;
                        ll = build_r(team, &mut rho, &mut r);
                    }
                    ll_prev = ll;
                    if gamma > 1.0 {
                        accelerated_steps += 1;
                        r.scale_in_place(1.0 / fsum);
                        r.lerp_identity_in_place(gamma);
                    }
                    prev.copy_from(&rho);
                }
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
                // RρR with Hermitian R, ρ is Hermitian up to round-off;
                // mirroring the upper triangle makes every iterate *bitwise*
                // Hermitian, which the rank-1 expectation kernel relies on (it
                // never reads the lower half).
                next.hermitianize_upper();
                final_update = next.frobenius_distance(&rho);
                if !final_update.is_finite() {
                    return Err(QfcError::non_finite("RρR update norm"));
                }
                std::mem::swap(&mut rho, &mut next);
                if let Some((max_step, growth)) = schedule {
                    // An over-relaxed step is ~γ× a classic step, so the raw
                    // update norm says nothing about progress across different
                    // γ; `update/γ` is the classic-equivalent residual. Near the
                    // likelihood ridge the iterate can oscillate with a stalled
                    // residual while the likelihood is flat at FP resolution —
                    // dropping back to a classic step there restores the monotone
                    // tail. Once the residual clears the tolerance, the next step
                    // is forced classic as well, so the update that terminates
                    // the loop is a genuine (unamplified) one.
                    let residual = final_update / gamma;
                    if residual > update_prev || residual < options.tolerance {
                        gamma = 1.0;
                    } else {
                        gamma = (gamma * growth).min(max_step);
                    }
                    update_prev = residual;
                }
                if final_update < options.tolerance {
                    break;
                }
            }
            Ok((rho, iterations, final_update, accelerated_steps))
        },
    )?;
    qfc_obs::counter_add("mle_iterations", cast::usize_to_u64(iterations));
    qfc_obs::counter_add(
        "mle_accelerated_steps",
        cast::usize_to_u64(accelerated_steps),
    );
    // Numerical cleanup: symmetrize and clip round-off negativity.
    let herm = CMatrix::from_fn(dim, dim, |i, j| {
        (rho[(i, j)] + rho[(j, i)].conj()).scale(0.5)
    });
    let rho = try_project_physical(&herm)?;
    Ok(MleResult {
        rho,
        iterations,
        converged: final_update < options.tolerance,
        final_update,
        accelerated_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::simulate_counts_seeded;
    use crate::settings::all_settings;
    use crate::stream::try_stream_counts_seeded;
    use qfc_quantum::bell::werner_state;
    use qfc_quantum::fidelity::state_fidelity;
    use qfc_quantum::multiphoton::noisy_four_photon;

    #[test]
    fn rank1_set_matches_dense_projectors() {
        let settings = all_settings(2);
        let set = ProjectorReprSet::try_rank1_from_settings(&settings).expect("build");
        assert_eq!(set.dim(), 4);
        assert_eq!(set.settings(), 9);
        for (s, setting) in settings.iter().enumerate() {
            assert_eq!(set.outcomes(s), 4);
            for o in 0..4 {
                let outer = set.repr(s, o).to_dense_matrix();
                assert!(
                    outer.approx_eq(&setting.outcome_projector(o), 1e-13),
                    "setting {s} outcome {o}"
                );
            }
        }
    }

    #[test]
    fn rank1_set_rejects_empty_and_mixed_arity() {
        assert!(matches!(
            ProjectorReprSet::try_rank1_from_settings(&[]).unwrap_err(),
            QfcError::InsufficientData { .. }
        ));
        use crate::settings::PauliBasis;
        let mixed = [
            Setting::from_bases(&[PauliBasis::Z]),
            Setting::from_bases(&[PauliBasis::Z, PauliBasis::X]),
        ];
        assert!(matches!(
            ProjectorReprSet::try_rank1_from_settings(&mixed).unwrap_err(),
            QfcError::InvalidParameter { .. }
        ));
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
        let bell = simulate_counts_seeded(&werner_state(0.83, 0.0), &all_settings(2), 500, 17);
        // The four-photon fast-demo data: 81 settings × 40 shots of the
        // fast-demo four-photon state, seed 13 (the `four_photon` fixture).
        let rho4 = noisy_four_photon(0.0, FAST_DEMO_FOUR_PHOTON_VISIBILITY, 0.08);
        let four = try_stream_counts_seeded(&rho4, &all_settings(4), 40, 13).expect("counts");
        for (name, data) in [("bell", &bell), ("four-photon", &four)] {
            let set = ProjectorReprSet::try_rank1_from_settings(&data.settings).expect("set");
            let dense = set.to_dense();
            for acceleration in [MleAcceleration::Classic, MleAcceleration::accelerated()] {
                let opts = MleOptions {
                    acceleration,
                    ..MleOptions::default()
                };
                let fast = try_mle_repr(&set, &data.counts, &opts).expect("rank-1 leg");
                let slow = try_mle_repr(&dense, &data.counts, &opts).expect("dense leg");
                assert_eq!(
                    fast.iterations, slow.iterations,
                    "{name} {acceleration:?}: iteration counts differ"
                );
                let worst = fast
                    .rho
                    .as_matrix()
                    .as_slice()
                    .iter()
                    .zip(slow.rho.as_matrix().as_slice())
                    .map(|(a, b)| (*a - *b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    worst <= 1e-12,
                    "{name} {acceleration:?}: max |Δρ| = {worst:e}"
                );
            }
        }
    }

    #[test]
    fn rank1_and_dense_repr_legs_agree() {
        let rho = synthetic_low_rank_state(8, 2, 5).expect("state");
        let bases = deterministic_bases(8, 9, 21).expect("bases");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
        let counts = exact_counts_repr(&rho, &set, 200_000).expect("counts");
        let opts = MleOptions {
            max_iterations: 150,
            tolerance: 1e-9,
            acceleration: MleAcceleration::accelerated(),
        };
        let fast = try_mle_repr(&set, &counts, &opts).expect("rank1 leg");
        let dense = try_mle_repr(&set.to_dense(), &counts, &opts).expect("dense leg");
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
        for acceleration in [MleAcceleration::Classic, MleAcceleration::accelerated()] {
            let opts = MleOptions {
                max_iterations: 60,
                acceleration,
                ..MleOptions::default()
            };
            // Each R build is one `runtime.execute` step; a rolled-back
            // over-relaxed iteration makes two.
            let run = |threads: usize| {
                let collector = qfc_obs::Collector::new();
                let result = collector
                    .install(|| {
                        qfc_runtime::with_threads(threads, || try_mle_repr(&set, &counts, &opts))
                    })
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
            assert!(one_steps >= cast::usize_to_u64(one.iterations), "{acceleration:?}");
            for threads in [2, 3, 8] {
                let (many, steps) = run(threads);
                let at = format!("{acceleration:?} at {threads} threads");
                assert_eq!(many.iterations, one.iterations, "{at}");
                assert_eq!(many.final_update.to_bits(), one.final_update.to_bits(), "{at}");
                assert_eq!(many.accelerated_steps, one.accelerated_steps, "{at}");
                assert_eq!(bits(&many), bits(&one), "{at}");
                assert_eq!(steps, one_steps, "{at}");
            }
            if acceleration != MleAcceleration::Classic {
                assert!(one.accelerated_steps > 0, "the schedule over-relaxed");
                assert!(
                    one_steps > cast::usize_to_u64(one.iterations),
                    "an over-relaxed step was rolled back: a second step in one iteration"
                );
            }
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
