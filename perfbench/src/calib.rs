//! Host-speed calibration. On a shared VM the same code runs up to 2×
//! slower for seconds to minutes at a time, on both vCPUs alike, and
//! medians over a run cannot remove a drift that lasts minutes. So the
//! benchmark times a fixed kernel of its own before and after every
//! set-up and every run, and reports each time at the reference speed.
//!
//! The kernel is a 16 × 16 complex matrix product, the shape of the
//! tomography kernels. Its time over [`REF_MS`] is the host's slowness.
//! Workloads follow it to different degrees: a run's time goes as
//! slowness^β, with β = 1 for dense complex arithmetic and less for
//! integer and memory work. Each workload states its β
//! (`Bench::slowness_exponent`), and a time is divided by the mean
//! slowness around it raised to β. Each β is the log-log slope of run
//! time on slowness over all runs of 15 to 20 processes of the workload
//! (`multiphoton` 0.70, `heralded` 0.375, `campaign-heralded` 0.52),
//! divided by the `multiphoton` slope to undo the attenuation that the
//! kernel's own timing noise causes, and rounded to a quarter.
//!
//! The kernel is the benchmark's own code, so no change to the program
//! moves it. Never change it, `REF_MS` or a β either, or calibrated
//! figures stop comparing across commits.

use std::hint::black_box;
use std::time::Instant;

const N: usize = 16;
/// Matrix products per timing.
const REPS: usize = 150;
/// Timings per sample; the sample is their median, so one interrupt
/// does not move it.
const TIMINGS: usize = 5;

/// The kernel's sample at the reference speed, ms: its time on a 2-vCPU
/// Intel Xeon VM in that host's fast periods. Only a scale: on another
/// host every calibrated figure moves by the same factor.
pub const REF_MS: f64 = 0.80;

/// `REPS` products of two fixed 16 × 16 complex matrices, accumulated.
fn kernel() -> f64 {
    let a: Vec<(f64, f64)> = (0..N * N)
        .map(|k| ((k % 7) as f64 * 0.1, (k % 5) as f64 * -0.05))
        .collect();
    let b: Vec<(f64, f64)> = (0..N * N)
        .map(|k| ((k % 3) as f64 * 0.2, (k % 11) as f64 * 0.03))
        .collect();
    let mut c = vec![(0.0, 0.0); N * N];
    for _ in 0..REPS {
        // Opaque inputs, so no product is hoisted out of the loop.
        let (a, b) = (black_box(&a), black_box(&b));
        for i in 0..N {
            for k in 0..N {
                let (xr, xi) = a[i * N + k];
                for j in 0..N {
                    let (yr, yi) = b[k * N + j];
                    let e = &mut c[i * N + j];
                    e.0 += xr * yr - xi * yi;
                    e.1 += xr * yi + xi * yr;
                }
            }
        }
    }
    c.iter().map(|e| e.0 + e.1).sum()
}

/// Host slowness now: the kernel's median time over its reference time.
/// 1 at the reference speed, 2 when the host runs at half of it.
pub fn slowness() -> f64 {
    let mut ms: Vec<f64> = (0..TIMINGS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[TIMINGS / 2] / REF_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's work is fixed: the same sum on every call.
    #[test]
    fn kernel_is_deterministic() {
        let sum = kernel();
        assert_eq!(sum, kernel());
        assert!(sum.is_finite() && sum != 0.0);
    }

    #[test]
    fn slowness_is_positive() {
        let s = slowness();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
