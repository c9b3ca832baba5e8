//! Large-d qudit tomography A/B: dense projector representation vs the
//! rank-1 + packed-GEMM fast path, at d = 16 (17 bases, 200 iterations)
//! and d = 64 (16 bases, 120 iterations).
//!
//! Prints, per dimension, the interleaved best-of-3 wall time of both
//! legs of the same reconstruction driver, the speedup, and the
//! reconstruction fidelity against the synthetic truth state — the
//! measured numbers quoted in README "Large-d tomography" and
//! DESIGN.md §17.
//!
//! Run from the workspace root:
//! `cargo run --release --example qudit_tomography_scale`

use std::time::Instant;

use qfc::quantum::density::DensityMatrix;
use qfc::quantum::fidelity::state_fidelity;
use qfc::tomography::rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
use qfc::tomography::reconstruct::MleOptions;

fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

fn main() {
    // Both legs pinned to one worker: the ratio isolates the kernels
    // and the projector representation, not the thread pool.
    for &(dim, rank, n_bases, max_iterations) in &[(16usize, 3usize, 17usize, 200usize), (64, 4, 16, 120)] {
        let rho = synthetic_low_rank_state(dim, rank, 41).expect("qudit dims are supported");
        let bases = deterministic_bases(dim, n_bases, 77).expect("bases orthonormalize");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("bases are unitary");
        let dense_set = set.to_dense();
        let counts = exact_counts_repr(&rho, &set, 1_000_000).expect("state matches set");
        let opts = MleOptions { max_iterations };

        let mut best_dense = f64::INFINITY;
        let mut best_rank1 = f64::INFINITY;
        let mut result = None;
        for _ in 0..3 {
            let (ms_dense, dense) = time_ms(|| {
                qfc::runtime::with_threads(1, || {
                    try_mle_repr(&dense_set, &counts, &opts).expect("dense leg reconstructs")
                })
            });
            best_dense = best_dense.min(ms_dense);
            let (ms_rank1, fast) = time_ms(|| {
                qfc::runtime::with_threads(1, || {
                    try_mle_repr(&set, &counts, &opts).expect("rank-1 leg reconstructs")
                })
            });
            best_rank1 = best_rank1.min(ms_rank1);
            let f_legs = state_fidelity(&dense.rho, &fast.rho);
            assert!(f_legs > 0.9999, "legs disagree: fidelity {f_legs}");
            result = Some(fast);
        }
        let fast = result.expect("three reps ran");
        let truth = DensityMatrix::from_matrix(rho).expect("truth state is physical");
        let fid = state_fidelity(&fast.rho, &truth);
        println!(
            "d={dim:<3} bases={n_bases:<3} projectors={:<5} iterations={:<4} \
             gap={:.3} nat converged={} fidelity={fid:.6}",
            n_bases * dim,
            fast.iterations,
            fast.gap_nats,
            fast.converged,
        );
        println!(
            "      dense leg {best_dense:>10.1} ms | rank-1 + packed {best_rank1:>10.1} ms \
             | speedup {:.2}x",
            best_dense / best_rank1
        );
    }
}
