//! Large-d qudit tomography timing: the rank-1 RρR engine at d = 16
//! (17 bases, 200 iterations) and d = 64 (16 bases, 120 iterations).
//!
//! Prints, per dimension, the best-of-3 wall time of one reconstruction
//! on one worker, its time per iteration, and the reconstruction
//! fidelity against the synthetic truth state — the measured numbers
//! quoted in README "Large-d tomography" and DESIGN.md §17.
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

fn main() {
    // One worker: the time measures the kernels, not the thread pool.
    for &(dim, rank, n_bases, max_iterations) in &[(16usize, 3usize, 17usize, 200usize), (64, 4, 16, 120)] {
        let rho = synthetic_low_rank_state(dim, rank, 41).expect("qudit dims are supported");
        let bases = deterministic_bases(dim, n_bases, 77).expect("bases orthonormalize");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("bases are unitary");
        let counts = exact_counts_repr(&rho, &set, 1_000_000).expect("state matches set");
        let opts = MleOptions { max_iterations };

        let mut best_ms = f64::INFINITY;
        let mut result = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let fast = qfc::runtime::with_threads(1, || {
                try_mle_repr(&set, &counts, &opts).expect("rank-1 engine reconstructs")
            });
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
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
            "      rank-1 engine {best_ms:>10.1} ms | {:.3} ms per iteration",
            best_ms / fast.iterations.max(1) as f64
        );
    }
}
