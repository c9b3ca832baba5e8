//! Degenerate-data hardening of the tomography pipeline, end to end:
//!
//! * every `try_*` reconstruction entry point returns a typed
//!   [`QfcError`] — never panics — on all-zero counts, empty setting
//!   lists, mixed-arity setting lists, and malformed count tables;
//! * the supervisor's fallback degrades gracefully: degenerate data
//!   that defeats the MLE *and* linear inversion surfaces as an error,
//!   while recoverable data falls back and records it;
//! * a zero-iteration budget is legal and reports `converged: false`;
//! * the streaming count accumulator is byte-identical at 1, 4, and 8
//!   worker threads, on arbitrary (state, shots, seed) draws — the
//!   invariant that makes count shards a safe campaign decomposition
//!   unit.

use proptest::prelude::*;
use qfc::core::supervisor::reconstruct_with_fallback;
use qfc::faults::{HealthReport, QfcError, RecoveryAction};
use qfc::quantum::bell::werner_state;
use qfc::runtime::with_threads;
use qfc::tomography::counts::TomographyData;
use qfc::tomography::reconstruct::{try_linear_inversion, try_mle_reconstruction, MleOptions};
use qfc::tomography::settings::{all_settings, PauliBasis, Setting};
use qfc::tomography::stream::{try_stream_counts_seeded, CountAccumulator};

/// All-dark data: settings present, every histogram zero.
fn all_dark(qubits: usize) -> TomographyData {
    let settings = all_settings(qubits);
    TomographyData {
        counts: settings.iter().map(|s| vec![0u64; s.outcomes()]).collect(),
        settings,
    }
}

fn mixed_arity() -> TomographyData {
    TomographyData {
        settings: vec![
            Setting::from_bases(&[PauliBasis::Z]),
            Setting::from_bases(&[PauliBasis::Z, PauliBasis::X]),
        ],
        counts: vec![vec![5, 3], vec![1, 1, 1, 1]],
    }
}

#[test]
fn all_zero_counts_yield_singular_system_not_panic() {
    let err = try_mle_reconstruction(&all_dark(2), &MleOptions::default()).unwrap_err();
    assert!(matches!(err, QfcError::SingularSystem { .. }), "{err}");
}

#[test]
fn empty_setting_list_yields_insufficient_data() {
    let empty = TomographyData {
        settings: vec![],
        counts: vec![],
    };
    let err = try_mle_reconstruction(&empty, &MleOptions::default()).unwrap_err();
    assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");
    let err = try_linear_inversion(&empty).unwrap_err();
    assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");
    let err = empty.try_qubits().unwrap_err();
    assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");
}

#[test]
fn mixed_arity_settings_yield_insufficient_data() {
    let data = mixed_arity();
    let err = try_mle_reconstruction(&data, &MleOptions::default()).unwrap_err();
    assert!(err.to_string().contains("mixed-arity"), "{err}");
    // Linear inversion used to zip-truncate Pauli-string compatibility
    // checks over mixed lists; it must reject them instead.
    let err = try_linear_inversion(&data).unwrap_err();
    assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");
}

#[test]
fn malformed_count_table_yields_invalid_parameter() {
    let settings = all_settings(1);
    let data = TomographyData {
        counts: vec![vec![1, 2]; settings.len() + 1],
        settings,
    };
    let err = data.validate().unwrap_err();
    assert!(matches!(err, QfcError::InvalidParameter { .. }), "{err}");
}

#[test]
fn zero_iteration_budget_is_legal_and_unconverged() {
    let truth = werner_state(0.83, 0.0);
    let data = try_stream_counts_seeded(&truth, &all_settings(2), 500, 5).expect("counts");
    let opts = MleOptions { max_iterations: 0 };
    let result = try_mle_reconstruction(&data, &opts).expect("legal budget");
    assert_eq!(result.iterations, 0);
    assert!(!result.converged);
}

#[test]
fn supervisor_fallback_surfaces_degenerate_data_as_error() {
    // All-dark data defeats MLE (zero grand total) and then linear
    // inversion too (every setting total is zero → informationally
    // incomplete): the supervisor must hand back an error, not panic.
    let mut health = HealthReport::pristine();
    let err = reconstruct_with_fallback(&all_dark(2), &MleOptions::default(), &mut health)
        .unwrap_err();
    assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");
    assert!(
        health
            .recovery_actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::Fallback { from, .. } if from == "MLE")),
        "fallback must be recorded before linear inversion is attempted"
    );
}

#[test]
fn streaming_accumulator_overflow_is_an_error() {
    let settings = all_settings(1);
    let mut acc = CountAccumulator::try_new(&settings).expect("valid settings");
    acc.absorb_histogram(0, &[u64::MAX, 0]).expect("first shard");
    let err = acc.absorb_histogram(0, &[1, 0]).unwrap_err();
    assert!(matches!(err, QfcError::InvalidParameter { .. }), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streaming accumulation gives the same counts at 1, 4, and 8
    /// worker threads: each setting draws from its own split seed, so
    /// the pool size never reaches the counts.
    #[test]
    fn streaming_counts_byte_identical_across_thread_counts(
        visibility in 0.5f64..1.0,
        dephasing in 0.0f64..0.3,
        shots in 1u64..4096,
        seed in 0u64..u64::MAX,
    ) {
        let truth = werner_state(visibility, dephasing);
        let settings = all_settings(2);
        let stream = |threads| {
            with_threads(threads, || try_stream_counts_seeded(&truth, &settings, shots, seed))
                .expect("valid settings")
        };
        let reference = stream(1);
        for threads in [4usize, 8] {
            prop_assert_eq!(
                &stream(threads),
                &reference,
                "stream at {} threads drifted from 1 thread",
                threads
            );
        }
    }
}
