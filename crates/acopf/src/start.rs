//! Cold-start and warm-start handling.
//!
//! Section IV-B of the paper initializes both solvers from the same flat
//! point: real and reactive generation and voltage magnitudes at the midpoint
//! of their bounds, angles at zero (reference angle fixed to zero). Section
//! IV-C warm-starts each time period from the previous period's solution and
//! enforces a generator ramp limit of 2 % of the upper real-power bound per
//! period.

use crate::solution::OpfSolution;
use gridsim_grid::Network;

/// The paper's cold start: midpoints of bounds for dispatch and voltage
/// magnitude, zero angles.
pub fn cold_start(net: &Network) -> OpfSolution {
    OpfSolution {
        vm: (0..net.nbus)
            .map(|b| 0.5 * (net.vmin[b] + net.vmax[b]))
            .collect(),
        va: vec![0.0; net.nbus],
        pg: (0..net.ngen)
            .map(|g| 0.5 * (net.pmin[g] + net.pmax[g]))
            .collect(),
        qg: (0..net.ngen)
            .map(|g| 0.5 * (net.qmin[g] + net.qmax[g]))
            .collect(),
    }
}

/// Generator real-power bounds tightened by a ramp limit around the previous
/// dispatch: `|pg_{t+1} − pg_t| ≤ ramp_fraction · pmax`, intersected with the
/// static bounds. Returns `(pmin_t, pmax_t)`.
pub fn ramp_limited_bounds(
    net: &Network,
    previous_pg: &[f64],
    ramp_fraction: f64,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(previous_pg.len(), net.ngen);
    let mut lo = Vec::with_capacity(net.ngen);
    let mut hi = Vec::with_capacity(net.ngen);
    for (g, &pg) in previous_pg.iter().enumerate() {
        let ramp = ramp_fraction * net.pmax[g];
        lo.push((pg - ramp).max(net.pmin[g]));
        hi.push((pg + ramp).min(net.pmax[g]));
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_is_midpoint_of_bounds() {
        let net = gridsim_grid::case9().compile().unwrap();
        let s = cold_start(&net);
        for b in 0..net.nbus {
            assert!((s.vm[b] - 1.0).abs() < 1e-12); // (0.9 + 1.1)/2
            assert_eq!(s.va[b], 0.0);
        }
        for g in 0..net.ngen {
            assert!((s.pg[g] - 0.5 * (net.pmin[g] + net.pmax[g])).abs() < 1e-12);
            assert!((s.qg[g] - 0.0).abs() < 1e-12); // symmetric q bounds
        }
    }

    #[test]
    fn ramp_bounds_shrink_around_previous_dispatch() {
        let net = gridsim_grid::case9().compile().unwrap();
        let prev = vec![1.0, 1.5, 0.8];
        let (lo, hi) = ramp_limited_bounds(&net, &prev, 0.02);
        for g in 0..net.ngen {
            let ramp = 0.02 * net.pmax[g];
            assert!(lo[g] >= net.pmin[g] - 1e-12);
            assert!(hi[g] <= net.pmax[g] + 1e-12);
            assert!(hi[g] - lo[g] <= 2.0 * ramp + 1e-12);
            assert!(lo[g] <= prev[g] + 1e-12);
            assert!(hi[g] >= prev[g] - 1e-12);
        }
    }

    #[test]
    fn ramp_bounds_respect_static_limits_at_extremes() {
        let net = gridsim_grid::case9().compile().unwrap();
        // Previous dispatch at pmax: the upper ramp bound must not exceed it.
        let prev: Vec<f64> = net.pmax.clone();
        let (_, hi) = ramp_limited_bounds(&net, &prev, 0.02);
        for (hig, pmaxg) in hi.iter().zip(&net.pmax) {
            assert!(hig <= &(pmaxg + 1e-12));
        }
    }
}
