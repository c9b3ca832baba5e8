//! The qubit path's `R` build, contracted one qubit at a time.
//!
//! Every outcome vector of a Pauli product setting is a Kronecker product
//! `|ψ⟩ = |e₀⟩ ⊗ |e₁⟩ ⊗ … ⊗ |eₙ₋₁⟩` of single-qubit eigenstates, each one
//! of six: `|±⟩`, `|±i⟩`, `|0⟩`, `|1⟩`. So `⟨ψ|ρ|ψ⟩` can be taken one
//! qubit at a time: contracting `ρ`'s leading qubit with `|e₀⟩` leaves the
//! `d/2 × d/2` block `⟨e₀|ρ|e₀⟩`, which every outcome whose first qubit
//! projects on `|e₀⟩` shares, and so on down to a scalar. The measured
//! outcomes form a trie over their label sequences: at the §V four-qubit
//! grid, `16×16 → 6` blocks of `8×8 → 36` of `4×4 → 216` of `2×2 → 1 296`
//! expectations.
//!
//! **Forward pass.** Each node's block is
//! `Σ_ab conj(Π[a][b])·P_ab` over the four half-size blocks `P_ab` of its
//! parent, with `Π = |e⟩⟨e|` the node's single-qubit projector. The leaves
//! are the expectations `p`; `ℓ = Σ f·ln p` and the weights `f/p` are
//! taken there, with the weights of one leaf (duplicate settings) summed
//! in `(s, o)` order.
//!
//! **Adjoint pass.** `R = Σ (f/p)·|ψ⟩⟨ψ|`, and `|ψ⟩⟨ψ| = Π₀ ⊗ Π₁ ⊗ …`, so
//! the weights fold back the same way: a parent's blocks gather
//! `P_ab += Π[a][b]·G` from each child's folded block `G`, level by level,
//! into the first level's blocks, which the driver expands into `R`.
//!
//! A sweep at the four-qubit grid is about 25 k complex multiply-adds in
//! blocks of at most `8×8`, against about 300 k for the 1 296 rank-1
//! vectors, and no outcome vector is ever formed. The projector entries
//! are the exact `0`, `1`, `±1/2` and `±i/2` rather than products of
//! `1/√2`, so the sweep's bits differ from the vector form's by round-off.
//!
//! **Slots.** The trie is cut at its first level: a problem past
//! [`PAR_SWEEP_MIN_WORK`] gets one team slot per first-qubit eigenstate,
//! a smaller one a single slot that sweeps inline. Each slot holds every
//! level of its subtrees and writes only its own buffers; the driver
//! expands the first-level blocks into `R` and sums `ℓ` in label order, so
//! the bits do not depend on the thread count. `R`'s bits do not depend on
//! the cut either, because the first-level blocks are written, not summed.
//! `ℓ`'s do: one slot sums it in `(s, o)` order, a split sums it per first
//! label, and `ℓ` feeds the schedule's rollback test, so moving the cut
//! can move the iterates.

use qfc_faults::QfcResult;
use qfc_mathkit::cast;
use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::{Complex64, C_ZERO};

use crate::rank1::{check_dimension, run_engine, Measured, SweepSlot, PAR_SWEEP_MIN_WORK, P_FLOOR};
use crate::reconstruct::{MleOptions, MleResult};
use crate::settings::{PauliBasis, Setting};

/// Single-qubit eigenstate labels, `2·basis + outcome`.
const LABELS: usize = 6;

/// `½`, the magnitude of every off-diagonal projector entry.
const H: f64 = 0.5;

/// The projector `Π = |e⟩⟨e|` of each label as its exact entries
/// `e_a·conj(e_b)`, row-major `[Π₀₀, Π₀₁, Π₁₀, Π₁₁]`: `|±⟩`,
/// `|±i⟩ = (|0⟩ ± i|1⟩)/√2`, `|0⟩`, `|1⟩`.
const PROJECTORS: [[Complex64; 4]; LABELS] = [
    [c(H, 0.0), c(H, 0.0), c(H, 0.0), c(H, 0.0)],
    [c(H, 0.0), c(-H, 0.0), c(-H, 0.0), c(H, 0.0)],
    [c(H, 0.0), c(0.0, -H), c(0.0, H), c(H, 0.0)],
    [c(H, 0.0), c(0.0, H), c(0.0, -H), c(H, 0.0)],
    [c(1.0, 0.0), c(0.0, 0.0), c(0.0, 0.0), c(0.0, 0.0)],
    [c(0.0, 0.0), c(0.0, 0.0), c(0.0, 0.0), c(1.0, 0.0)],
];

/// Shorthand for the table above.
const fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

/// Label of the eigenstate of `basis` for outcome bit `bit`.
fn label(basis: PauliBasis, bit: usize) -> usize {
    let b = match basis {
        PauliBasis::X => 0,
        PauliBasis::Y => 1,
        PauliBasis::Z => 2,
    };
    2 * b + bit
}

/// `child = Σ_ab conj(Π_ab)·P_ab`: the `h × h` block `⟨e|P|e⟩` of the
/// `2h × 2h` row-major `parent` on its leading qubit, for the eigenstate
/// of `label`.
fn contract(parent: &[Complex64], label: usize, child: &mut [Complex64], h: usize) {
    let k = PROJECTORS[label].map(Complex64::conj);
    let m = 2 * h;
    // qfc-lint: hot
    for (i, out) in child.chunks_exact_mut(h).enumerate() {
        let (p00, p01) = parent[i * m..(i + 1) * m].split_at(h);
        let (p10, p11) = parent[(h + i) * m..(h + i + 1) * m].split_at(h);
        for ((((o, &a), &b), &u), &v) in out.iter_mut().zip(p00).zip(p01).zip(p10).zip(p11) {
            // Diagonal blocks, then off-diagonal ones: the mirror entry
            // adds the conjugate products in the same order, so a
            // bitwise Hermitian parent gives a bitwise Hermitian child.
            *o = (k[0] * a + k[3] * v) + (k[1] * b + k[2] * u);
        }
    }
}

/// `P_ab += Π_ab·G`: the adjoint of [`contract`], folding the `h × h`
/// block `g` of a child with eigenstate `label` into the `2h × 2h`
/// row-major `parent`.
fn expand(g: &[Complex64], label: usize, parent: &mut [Complex64], h: usize) {
    let pi = &PROJECTORS[label];
    let m = 2 * h;
    // qfc-lint: hot
    for (i, g) in g.chunks_exact(h).enumerate() {
        let (top, bottom) = parent.split_at_mut((h + i) * m);
        let (p00, p01) = top[i * m..(i + 1) * m].split_at_mut(h);
        let (p10, p11) = bottom[..m].split_at_mut(h);
        for (j, &g) in g.iter().enumerate() {
            p00[j] += pi[0] * g;
            p01[j] += pi[1] * g;
            p10[j] += pi[2] * g;
            p11[j] += pi[3] * g;
        }
    }
}

/// [`contract`] onto a leaf, where only the real part is needed: the
/// expectation `Σ_ab Re(conj(Π_ab)·P_ab)` of the `2 × 2` row-major
/// `parent`.
fn expectation(parent: &[Complex64], label: usize) -> f64 {
    let pi = &PROJECTORS[label];
    let term = |k: Complex64, z: Complex64| k.re * z.re + k.im * z.im;
    (term(pi[0], parent[0]) + term(pi[3], parent[3]))
        + (term(pi[1], parent[1]) + term(pi[2], parent[2]))
}

/// [`expand`] from a leaf: `P_ab += Π_ab·w` for the real weight `w`, into
/// the `2 × 2` row-major `parent`.
fn fold_leaf(w: f64, label: usize, parent: &mut [Complex64]) {
    for (p, k) in parent.iter_mut().zip(PROJECTORS[label]) {
        *p += k.scale(w);
    }
}

/// One slot of the reconstruction's team: a contiguous range of the
/// trie's first-level nodes with all their descendants, the measured
/// outcomes under them, and every buffer the sweep writes. It is built
/// once per reconstruction, so a sweep allocates nothing.
struct Forest {
    /// Per level `q` (after contracting qubits `0..=q`): each node's
    /// parent, as an index into level `q − 1` of this slot (`0`, the
    /// state itself, at `q = 0`), and its label.
    links: Vec<Vec<(usize, usize)>>,
    /// Per level `q`: the nodes' `side × side` blocks, `side = d/2^(q+1)`,
    /// one after another — the contracted state after the forward pass,
    /// the folded weights after the adjoint pass.
    blocks: Vec<Vec<Complex64>>,
    /// Per measured outcome under this slot, in `(s, o)` order: its leaf.
    leaves: Vec<usize>,
    /// Frequency `f` per measured outcome, in the same order.
    freqs: Vec<f64>,
    /// Per leaf, the summed weight `f/p` of the last sweep.
    weights: Vec<f64>,
    /// Partial log-likelihood `Σ f·ln p` of the last sweep.
    ll: f64,
    /// Dimension of the state.
    dim: usize,
}

impl Forest {
    /// Side of the blocks at level `q`.
    fn side(&self, q: usize) -> usize {
        self.dim >> (q + 1)
    }

    /// The forward pass: every level's blocks from `rho`, down to the
    /// leaves' expectations.
    fn forward(&mut self, rho: &CMatrix) {
        for q in 0..self.blocks.len() {
            let side = self.side(q);
            let (above, below) = self.blocks.split_at_mut(q);
            let parents = above.last().map_or(rho.as_slice(), Vec::as_slice);
            let step = 4 * side * side;
            if side == 1 {
                // The leaves, the widest level, in one loop of scalar
                // kernels; a leaf is a Hermitian block's diagonal entry,
                // so only its real part is formed.
                // qfc-lint: hot
                for (&(parent, label), leaf) in self.links[q].iter().zip(below[0].iter_mut()) {
                    *leaf = Complex64::real(expectation(&parents[parent * 4..][..4], label));
                }
                continue;
            }
            for (&(parent, label), child) in self.links[q]
                .iter()
                .zip(below[0].chunks_exact_mut(side * side))
            {
                contract(
                    &parents[parent * step..(parent + 1) * step],
                    label,
                    child,
                    side,
                );
            }
        }
    }

    /// `ℓ` and the weights at the leaves, then the adjoint pass: the
    /// weights folded back up to the first level's blocks.
    fn adjoint(&mut self) {
        let levels = self.blocks.len();
        let leaves = &mut self.blocks[levels - 1];
        self.weights.fill(0.0);
        self.ll = 0.0;
        // qfc-lint: hot
        for (&leaf, &f) in self.leaves.iter().zip(&self.freqs) {
            let p = leaves[leaf].re.max(P_FLOOR);
            self.ll += f * p.ln();
            self.weights[leaf] += f / p;
        }
        for (g, &w) in leaves.iter_mut().zip(&self.weights) {
            *g = Complex64::real(w);
        }
        for q in (1..levels).rev() {
            let side = self.side(q);
            let (above, below) = self.blocks.split_at_mut(q);
            let parents = &mut above[q - 1];
            parents.fill(C_ZERO);
            let step = 4 * side * side;
            if side == 1 {
                // qfc-lint: hot
                for (&(parent, label), w) in self.links[q].iter().zip(&below[0]) {
                    fold_leaf(w.re, label, &mut parents[parent * 4..][..4]);
                }
                continue;
            }
            for (&(parent, label), g) in
                self.links[q].iter().zip(below[0].chunks_exact(side * side))
            {
                expand(
                    g,
                    label,
                    &mut parents[parent * step..(parent + 1) * step],
                    side,
                );
            }
        }
    }
}

impl SweepSlot for Forest {
    /// The forward pass down to the expectations, then the adjoint pass
    /// back up to the slot's first-level blocks of `R`.
    fn sweep(&mut self, rho: &CMatrix) {
        self.forward(rho);
        self.adjoint();
    }

    /// Expands the slot's first-level blocks into `r` in node order.
    fn fold_into(&self, r: &mut CMatrix) -> f64 {
        let side = self.side(0);
        for (&(_, label), g) in self.links[0]
            .iter()
            .zip(self.blocks[0].chunks_exact(side * side))
        {
            expand(g, label, r.as_mut_slice(), side);
        }
        self.ll
    }
}

/// The trie of the measured outcomes of `settings` (all of one arity,
/// checked by the caller), cut into team slots: one per first-level node
/// when `split`, else one.
fn forests(settings: &[Setting], measured: &Measured, split: bool) -> Vec<Forest> {
    let n = settings.first().map_or(0, Setting::qubits);
    let dim = 1usize << n;
    let base = |levels: usize| LABELS.pow(cast::usize_to_u32(levels));
    // Each measured outcome's label sequence as a base-6 code, most
    // significant qubit first, so a node's prefix is a quotient.
    let codes: Vec<usize> = measured
        .outcomes
        .iter()
        .map(|&(s, o)| {
            settings[s]
                .0
                .iter()
                .enumerate()
                .fold(0, |code, (q, &basis)| {
                    code * LABELS + label(basis, (o >> (n - 1 - q)) & 1)
                })
        })
        .collect();
    // Level `q`'s nodes: the distinct prefixes of `q + 1` labels, sorted,
    // so each first-level node's descendants are contiguous on every level.
    // The leaf level is the sorted distinct codes; each level above takes
    // the quotients of the one below, which come sorted, so it only drops
    // repeats and holds no more than its own nodes.
    let mut levels: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut leaf_level = codes.clone();
    leaf_level.sort_unstable();
    leaf_level.dedup();
    levels.push(leaf_level);
    while let Some(child) = levels.last().filter(|_| levels.len() < n) {
        let mut prefixes: Vec<usize> = Vec::new();
        for code in child.iter().map(|&code| code / LABELS) {
            if prefixes.last() != Some(&code) {
                prefixes.push(code);
            }
        }
        levels.push(prefixes);
    }
    levels.reverse();
    let tops: Vec<(usize, usize)> = if split {
        levels[0].iter().map(|&t| (t, t)).collect()
    } else {
        vec![(0, LABELS - 1)]
    };
    tops.into_iter()
        .map(|(lo, hi)| {
            let ranges: Vec<std::ops::Range<usize>> = levels
                .iter()
                .enumerate()
                .map(|(q, codes)| {
                    let top = |code: usize| code / base(q);
                    codes.partition_point(|&code| top(code) < lo)
                        ..codes.partition_point(|&code| top(code) <= hi)
                })
                .collect();
            let links: Vec<Vec<(usize, usize)>> = (0..n)
                .map(|q| {
                    levels[q][ranges[q].clone()]
                        .iter()
                        .map(|&code| {
                            let parent = if q == 0 {
                                0
                            } else {
                                levels[q - 1].partition_point(|&p| p < code / LABELS)
                                    - ranges[q - 1].start
                            };
                            (parent, code % LABELS)
                        })
                        .collect()
                })
                .collect();
            let blocks = (0..n)
                .map(|q| vec![C_ZERO; links[q].len() * (dim >> (q + 1)).pow(2)])
                .collect();
            let leaf_level = &levels[n - 1];
            let (leaves, freqs): (Vec<usize>, Vec<f64>) = codes
                .iter()
                .zip(&measured.freqs)
                .filter(|&(&code, _)| (lo..=hi).contains(&(code / base(n - 1))))
                .map(|(&code, &f)| {
                    (
                        leaf_level.partition_point(|&c| c < code) - ranges[n - 1].start,
                        f,
                    )
                })
                .unzip();
            Forest {
                weights: vec![0.0; links[n - 1].len()],
                links,
                blocks,
                leaves,
                freqs,
                ll: 0.0,
                dim,
            }
        })
        .collect()
}

/// The engine of [`try_mle_repr`](crate::rank1::try_mle_repr) on the
/// Pauli product settings `settings` (validated, one count row each),
/// with the factored `R` build of this module.
///
/// # Errors
///
/// As [`try_mle_reconstruction`](crate::reconstruct::try_mle_reconstruction).
pub(crate) fn try_mle_settings(
    settings: &[Setting],
    counts: &[Vec<u64>],
    options: &MleOptions,
) -> QfcResult<MleResult> {
    let dim = 1usize << settings.first().map_or(0, Setting::qubits);
    check_dimension(dim)?;
    let mut measured = Measured::try_new(counts)?;
    let split = measured.freqs.len() * dim * dim >= PAR_SWEEP_MIN_WORK;
    let mut slots = forests(settings, &measured, split);
    // The trie holds the outcomes from here on: free their `(s, o)`
    // table before the schedule allocates its work matrices.
    drop(std::mem::take(&mut measured.outcomes));
    run_engine(dim, &measured, &mut slots, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank1::synthetic_low_rank_state;
    use crate::settings::all_settings;
    use crate::stream::try_stream_counts_seeded;
    use qfc_mathkit::cvector::CVector;
    use qfc_quantum::multiphoton::noisy_four_photon;

    #[test]
    fn projector_table_matches_the_eigenstates() {
        for basis in PauliBasis::ALL {
            for bit in 0..2 {
                let dense = basis.projector(u8::from(bit == 1));
                for (k, &entry) in PROJECTORS[label(basis, bit)].iter().enumerate() {
                    let (a, b) = (k / 2, k % 2);
                    assert!(
                        entry.approx_eq(dense[(a, b)], 1e-15),
                        "{basis:?} {bit} [{a}][{b}]"
                    );
                }
            }
        }
    }

    /// The single-vector forms of the sweep: `p = ⟨ψ|ρ|ψ⟩` per measured
    /// outcome, `R = Σ (f/p)·|ψ⟩⟨ψ|` and `ℓ = Σ f·ln p`.
    fn vector_sweep(
        settings: &[Setting],
        measured: &Measured,
        rho: &CMatrix,
    ) -> (Vec<f64>, CMatrix, f64) {
        let dim = rho.rows();
        let mut r = CMatrix::zeros(dim, dim);
        let mut ll = 0.0;
        let mut ps = Vec::new();
        for (&(s, o), &f) in measured.outcomes.iter().zip(&measured.freqs) {
            let psi: CVector = settings[s].outcome_vector(o);
            let p = rho.quadratic_form_hermitian(&psi);
            ps.push(p);
            let p = p.max(P_FLOOR);
            ll += f * p.ln();
            r.ger_assign(f / p, &psi, &psi);
        }
        (ps, r, ll)
    }

    /// Runs the factored sweep of every slot against `rho` and returns
    /// each measured outcome's expectation, read off the leaves between
    /// the two passes, `R` and `ℓ`.
    fn factored_sweep(
        settings: &[Setting],
        measured: &Measured,
        rho: &CMatrix,
        split: bool,
    ) -> (Vec<f64>, CMatrix, f64) {
        let mut slots = forests(settings, measured, split);
        for slot in &mut slots {
            slot.forward(rho);
        }
        // A split puts each first-qubit label in its own slot, in label
        // order; each slot lists its outcomes in `(s, o)` order.
        let n = settings[0].qubits();
        let top = |&(s, o): &(usize, usize)| label(settings[s].0[0], (o >> (n - 1)) & 1);
        let mut tops: Vec<usize> = measured.outcomes.iter().map(top).collect();
        tops.sort_unstable();
        tops.dedup();
        let mut cursor = vec![0; slots.len()];
        let ps = measured
            .outcomes
            .iter()
            .map(|outcome| {
                let i = if split {
                    tops.partition_point(|&t| t < top(outcome))
                } else {
                    0
                };
                let slot = &slots[i];
                let leaf = slot.leaves[cursor[i]];
                cursor[i] += 1;
                let p = slot.blocks[n - 1][leaf];
                assert_eq!(p.im, 0.0, "a leaf expectation is real");
                p.re
            })
            .collect();
        let dim = rho.rows();
        let mut r = CMatrix::zeros(dim, dim);
        let mut ll = 0.0;
        for slot in &mut slots {
            slot.adjoint();
            ll += slot.fold_into(&mut r);
        }
        r.hermitianize_upper();
        (ps, r, ll)
    }

    fn check(name: &str, settings: &[Setting], counts: &[Vec<u64>], rho: &CMatrix) {
        let measured = Measured::try_new(counts).expect("measured");
        let (p_ref, r_ref, ll_ref) = vector_sweep(settings, &measured, rho);
        let scale = r_ref.max_abs();
        let mut bits = Vec::new();
        for split in [false, true] {
            let (p, r, ll) = factored_sweep(settings, &measured, rho, split);
            for (k, (a, b)) in p.iter().zip(&p_ref).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-13 * b.abs().max(1e-3),
                    "{name}: p[{k}] {a} vs {b}"
                );
            }
            let worst = r
                .as_slice()
                .iter()
                .zip(r_ref.as_slice())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(
                worst <= 1e-13 * scale,
                "{name}: max |ΔR| = {worst:e} on max |R| = {scale}"
            );
            assert!(
                (ll - ll_ref).abs() <= 1e-13 * ll_ref.abs().max(1.0),
                "{name}: ℓ {ll} vs {ll_ref}"
            );
            bits.push(
                r.as_slice()
                    .iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(bits[0], bits[1], "{name}: the slot cut moved R's bits");
    }

    #[test]
    fn factored_sweep_matches_the_vector_forms() {
        for n in 1..=4 {
            let dim = 1usize << n;
            // Bitwise Hermitian, as the engine keeps its iterates.
            let mut rho = synthetic_low_rank_state(dim, dim, 40 + n as u64).expect("state");
            rho.hermitianize_upper();
            let settings = all_settings(n);
            // Full grid, every outcome measured.
            let full: Vec<Vec<u64>> = settings
                .iter()
                .enumerate()
                .map(|(s, setting)| {
                    (0..setting.outcomes())
                        .map(|o| 1 + ((s * 7 + o * 3) % 5) as u64)
                        .collect()
                })
                .collect();
            check(&format!("{n} qubits, full grid"), &settings, &full, &rho);
            // Zero-count outcomes and a dark setting.
            let sparse: Vec<Vec<u64>> = full
                .iter()
                .enumerate()
                .map(|(s, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(o, &c)| if s == 1 || (s + o) % 3 == 0 { 0 } else { c })
                        .collect()
                })
                .collect();
            check(
                &format!("{n} qubits, zero counts"),
                &settings,
                &sparse,
                &rho,
            );
            // A subset of settings, the last one listed twice.
            let mut subset: Vec<Setting> = settings.iter().step_by(2).cloned().collect();
            subset.push(subset[subset.len() - 1].clone());
            subset.push(subset[0].clone());
            let counts: Vec<Vec<u64>> = subset
                .iter()
                .enumerate()
                .map(|(s, setting)| {
                    (0..setting.outcomes())
                        .map(|o| 2 + ((s * 5 + o) % 4) as u64)
                        .collect()
                })
                .collect();
            check(
                &format!("{n} qubits, subset with duplicates"),
                &subset,
                &counts,
                &rho,
            );
        }
    }

    #[test]
    fn factored_mle_is_bitwise_thread_invariant_on_four_qubits() {
        let rho = noisy_four_photon(0.0, 0.68, 0.08);
        let data = try_stream_counts_seeded(&rho, &all_settings(4), 60, 31).expect("counts");
        let opts = MleOptions::default();
        let bits = |m: &MleResult| -> Vec<u64> {
            m.rho
                .as_matrix()
                .as_slice()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect()
        };
        let run = |threads: usize| {
            let collector = qfc_obs::Collector::new();
            let result = collector
                .install(|| {
                    qfc_runtime::with_threads(threads, || {
                        try_mle_settings(&data.settings, &data.counts, &opts)
                    })
                })
                .expect("reconstruction");
            let steps = collector
                .snapshot()
                .spans
                .children
                .iter()
                .find(|span| span.name == "runtime.execute")
                .map_or(0, |span| span.calls);
            (result, steps)
        };
        let (one, one_steps) = run(1);
        assert!(one.converged, "gap {}", one.gap_nats);
        // The four-qubit problem is past the inline threshold: every R
        // build is one team step.
        assert!(
            one_steps > cast::usize_to_u64(one.iterations),
            "{one_steps} steps"
        );
        for threads in [2, 3, 8] {
            let (many, steps) = run(threads);
            let at = format!("at {threads} threads");
            assert_eq!(many.iterations, one.iterations, "{at}");
            assert_eq!(many.gap_nats.to_bits(), one.gap_nats.to_bits(), "{at}");
            assert_eq!(many.accelerated_steps, one.accelerated_steps, "{at}");
            assert_eq!(bits(&many), bits(&one), "{at}");
            assert_eq!(steps, one_steps, "{at}");
        }
    }
}
