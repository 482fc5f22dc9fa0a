//! Host-speed calibration.
//!
//! The host this benchmark runs on is shared. For minutes at a time other
//! tenants slow branchy, allocation-heavy solver code to 1.1–1.7× its quiet
//! speed — every round of a run, so no statistic over the run's own rounds
//! can see past it — while tight arithmetic loops barely notice. The
//! wall-clock metrics are therefore reported in *calibrated seconds*: the
//! measured time divided by how much slower than nominal a fixed reference
//! kernel ran, interleaved with the ops, in the same rounds.
//!
//! One slice of the kernel is ~13 ms of projected-gradient solves of
//! pseudo-random 6-variable box QPs with Armijo backtracking on
//! heap-allocated vectors: the instruction mix of the branch subproblems
//! (small dense loops, clamps, data-dependent branches, short-lived
//! allocations), which is what makes it slow down when the solvers do. It
//! shares no code with the library, so a change to the library cannot move
//! it, and its inputs are fixed, so it always does the same work. After
//! every op the driver runs slices for about 15 % of the op's own duration,
//! so that long ops and short ops are covered alike.
//!
//! On a quiet host the factor is 1.00 ± 0.03 and the calibrated numbers are
//! the raw ones. `bench.calibration` reports the factor and
//! `bench.raw_round_s` the uncalibrated `round_s`.

use crate::stats::fast_half_mean;
use std::time::Instant;

/// Fast-half mean of [`slice`] on the quiet design host (2.1 GHz Xeon
/// guest, release build). Calibrated seconds are seconds on that host.
pub const NOMINAL_S: f64 = 0.0133;

/// Share of an op's duration spent on kernel slices after it.
const COVERAGE: f64 = 0.15;
/// Most slices after one op (a 1 s op gets these).
const MAX_SLICES: usize = 10;

/// Box QPs solved per slice.
const PROBLEMS: usize = 3_000;
const N: usize = 6;

fn next(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

fn objective(q: &[f64], c: &[f64], x: &[f64]) -> f64 {
    let mut value = 0.0;
    for i in 0..N {
        let row: f64 = (0..N).map(|j| q[i * N + j] * x[j]).sum();
        value += x[i] * (0.5 * row + c[i]);
    }
    value
}

/// Run one slice of the reference kernel; returns its wall-clock in seconds.
pub fn slice() -> f64 {
    let start = Instant::now();
    let mut state = 7u64;
    let mut checksum = 0.0;
    for _ in 0..PROBLEMS {
        let mut q = vec![0.0f64; N * N];
        for i in 0..N {
            for j in 0..i {
                let r = 0.3 * (next(&mut state) - 0.5);
                q[i * N + j] = r;
                q[j * N + i] = r;
            }
            q[i * N + i] = 2.0 + i as f64;
        }
        let c: Vec<f64> = (0..N).map(|_| 4.0 * next(&mut state) - 2.0).collect();
        let mut x = vec![0.0f64; N];
        for _ in 0..30 {
            let g: Vec<f64> = (0..N)
                .map(|i| c[i] + (0..N).map(|j| q[i * N + j] * x[j]).sum::<f64>())
                .collect();
            let stationarity = (0..N)
                .map(|i| ((x[i] - g[i]).clamp(-1.0, 1.0) - x[i]).abs())
                .fold(0.0, f64::max);
            if stationarity < 1e-8 {
                break;
            }
            let f0 = objective(&q, &c, &x);
            let mut alpha = 1.0;
            loop {
                let trial: Vec<f64> = (0..N)
                    .map(|i| (x[i] - alpha * g[i]).clamp(-1.0, 1.0))
                    .collect();
                let decrease: f64 = (0..N).map(|i| g[i] * (trial[i] - x[i])).sum();
                if objective(&q, &c, &trial) <= f0 + 1e-4 * decrease || alpha < 1e-8 {
                    x = trial;
                    break;
                }
                alpha *= 0.5;
            }
        }
        checksum += x[0];
    }
    std::hint::black_box(checksum);
    start.elapsed().as_secs_f64()
}

/// Slices to run after an op that took `op_seconds`: [`COVERAGE`] of its
/// duration, at least one, at most [`MAX_SLICES`].
pub fn slices_after(op_seconds: f64) -> usize {
    let wanted = (COVERAGE * op_seconds / NOMINAL_S).ceil();
    (wanted as usize).clamp(1, MAX_SLICES)
}

/// Factor that turns measured seconds into calibrated seconds: nominal ÷
/// the fast-half mean of the slices sampled alongside the rounds, the same
/// statistic the ops use. Below 1 when the host ran slow; 1 when there are
/// no samples.
pub fn factor(slices: &[f64]) -> f64 {
    if slices.is_empty() {
        1.0
    } else {
        NOMINAL_S / fast_half_mean(slices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_the_fast_half() {
        // Fast half of four samples: the two at 2x nominal.
        let slow = [
            2.0 * NOMINAL_S,
            9.0 * NOMINAL_S,
            2.0 * NOMINAL_S,
            5.0 * NOMINAL_S,
        ];
        assert_eq!(factor(&slow), 0.5);
        assert_eq!(factor(&[NOMINAL_S]), 1.0);
        assert_eq!(factor(&[]), 1.0);
    }

    #[test]
    fn coverage_scales_with_the_op() {
        assert_eq!(slices_after(0.000_02), 1);
        assert_eq!(slices_after(0.05), 1);
        assert_eq!(slices_after(0.3), 4);
        assert_eq!(slices_after(30.0), MAX_SLICES);
    }

    #[test]
    fn a_slice_takes_time() {
        assert!(slice() > 0.0);
    }
}
