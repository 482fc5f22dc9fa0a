//! Backend conformance: the executable form of the determinism contract.
//!
//! Historically the bitwise Parallel≡Sequential checks were scattered
//! across the kernel, solver, and scheduler test suites, each pinning one
//! backend pair to one geometry. This module hoists them into one harness
//! parameterized over `LaunchBackend` implementors, so a new backend is
//! held to the *entire* contract — both launch granularities and the
//! segmented reduction, masked and unmasked, on chunk-boundary-hostile
//! sizes, and the group launch on segments of 1, `W − 1`, `W` and `W + 1`
//! elements for group widths `W` of 1 to 3 — before it may be selected by
//! [`ExecutionMode::Auto`](crate::ExecutionMode::Auto).
//!
//! Two entry points:
//!
//! * `assert_backend_conformance` (in this module's tests) drives a bare
//!   `LaunchBackend` over raw slices against `SequentialBackend` — use
//!   this for a backend under development (step 3 of the guide in the
//!   `backend` module);
//! * [`assert_device_conformance`] drives a [`Device`] through the public
//!   launch API against `Device::sequential()`, additionally checking the
//!   billing stream (launch counts, live-element block accounting, no
//!   phantom transfers).
//!
//! The data is deterministic (a fixed multiplicative generator), so a
//! conformance failure reproduces exactly; sizes are chosen to straddle
//! the vectorized backend's chunk boundary and to exercise empty buffers,
//! single elements, and ragged remainders.

use crate::buffer::DeviceBuffer;
use crate::device::Device;
use std::sync::Arc;

/// Whole-buffer lengths the device sweep launches as one segment (none
/// when empty): empty, single, chunk-straddling (the vectorized backend
/// chunks by 64), and large enough that the parallel backend genuinely
/// fans out.
const LENGTHS: &[usize] = &[0, 1, 7, 63, 64, 65, 129, 1000, 4096];

/// Segment geometries `(seg_len, mask)` the masked paths sweep; segment
/// lengths are chunk-hostile on purpose.
fn segment_cases() -> Vec<(usize, Vec<bool>)> {
    vec![
        (1, vec![true; 5]),
        (7, vec![true, false, true, false]),
        (63, vec![false, true, true]),
        (64, vec![true, false, true]),
        (65, vec![true, true, false, true]),
        (100, vec![false, false, false]),
        (257, vec![true; 3]),
    ]
}

/// Deterministic pseudo-random doubles: fixed recurrence, no RNG crate,
/// includes signed zeros and denormal-adjacent magnitudes so `max` folds
/// see order-sensitive values.
fn data(n: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let v = (u - 0.5) * 2.0e3;
            // Sprinkle exact signed zeros through the stream.
            if i % 97 == 13 {
                0.0
            } else if i % 97 == 29 {
                -0.0
            } else {
                v
            }
        })
        .collect()
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} diverged ({g} vs {w})"
        );
    }
}

/// A map kernel with inlineable straight-line arithmetic (the shape the
/// vectorized backend targets) that still depends on the global index, so
/// index plumbing errors change bits.
fn map_kernel(i: usize, x: &mut f64) {
    *x = (*x * 1.000_000_11 + i as f64 * 1e-9).sin() * 1.7 - 0.3;
}

/// Group widths the group launches sweep: one element per block, the
/// branch kernel's two lanes, and a width that divides none of the even
/// segment lengths.
const GROUPS: &[usize] = &[1, 2, 3];

/// Segment geometries `(seg_len, mask)` the group launches sweep, on top of
/// [`segment_cases`]: no segment at all (an empty buffer), and segments of
/// 1 to 4 elements — `W − 1`, `W` and `W + 1` for every width in
/// [`GROUPS`] — with inactive segments between active ones.
fn group_cases() -> Vec<(usize, Vec<bool>)> {
    let mut cases = vec![(1, vec![])];
    for seg_len in 1..=4 {
        cases.push((seg_len, vec![true, false, true, true, false]));
        cases.push((seg_len, vec![false, true]));
    }
    cases.extend(segment_cases());
    cases
}

/// A "blocked" kernel: iterative per-element work standing in for the
/// TRON subproblem solves.
fn block_kernel(i: usize, x: &mut f64) {
    let mut acc = *x;
    for k in 0..16 {
        acc = (acc + (i + k) as f64 * 1e-6).cos() * 0.9 + 0.1;
    }
    *x = acc;
}

/// [`block_kernel`] on each element of a group that starts at global index
/// `start`.
fn group_kernel(start: usize, group: &mut [f64]) {
    for (j, x) in group.iter_mut().enumerate() {
        block_kernel(start + j, x);
    }
}

/// The kernel that fills a group launch's visit log — per element, how
/// many groups held it and the global index its group gave it — asserting
/// that every group holds 1 to `group` elements of one segment.
fn visit_kernel(seg_len: usize, group: usize) -> impl Fn(usize, &mut [(usize, usize)]) + Sync {
    move |start, elements| {
        let n = elements.len();
        assert!(
            (1..=group).contains(&n),
            "a group of {n} elements (width {group})"
        );
        assert_eq!(
            start / seg_len,
            (start + n - 1) / seg_len,
            "group [{start}, {}) straddles a segment boundary (seg_len {seg_len})",
            start + n
        );
        for (j, (count, index)) in elements.iter_mut().enumerate() {
            *count += 1;
            *index = start + j;
        }
    }
}

/// Assert that a group launch visited each element of each active segment
/// exactly once, under its own global index, and no element of an inactive
/// one.
fn assert_visits(visits: &[(usize, usize)], seg_len: usize, active: &[bool], what: &str) {
    for (i, &(count, index)) in visits.iter().enumerate() {
        if active[i / seg_len] {
            assert_eq!((count, index), (1, i), "{what}: element {i} visits");
        } else {
            assert_eq!(count, 0, "{what}: inactive element {i} was touched");
        }
    }
}

/// Max-reduction score whose stream contains NaN and signed-zero entries:
/// `f64::max` is scheduling-sensitive through exactly those, so any
/// combine-order violation changes bits.
fn score(i: usize, x: &f64) -> f64 {
    if i % 251 == 17 {
        f64::NAN
    } else {
        x * 1.000_001 + i as f64 * 1e-12
    }
}

/// Assert that `device` conforms through the public [`Device`] launch API:
/// bitwise-identical results to `Device::sequential()` *and* an identical
/// billing stream — same launch counts, same live-element block counts,
/// and no transfers recorded during kernels.
pub fn assert_device_conformance(device: &Device) {
    let reference = Device::sequential();
    let label = device.backend().label();

    for &n in LENGTHS {
        let host = data(n, 11);
        let mut got = DeviceBuffer::from_host(Arc::clone(device.stats()), &host);
        let mut want = DeviceBuffer::from_host(Arc::clone(reference.stats()), &host);
        let before = (device.stats().snapshot(), reference.stats().snapshot());

        device.launch_map("conf_map", &mut got, map_kernel);
        reference.launch_map("conf_map", &mut want, map_kernel);
        device.launch_blocks("conf_blocks", &mut got, block_kernel);
        reference.launch_blocks("conf_blocks", &mut want, block_kernel);
        assert_bits_eq(
            got.as_slice(),
            want.as_slice(),
            &format!("{label}: device maps n={n}"),
        );

        let dg = device.stats().snapshot().since(&before.0);
        let dw = reference.stats().snapshot().since(&before.1);
        assert_eq!(
            dg.total_transfers(),
            0,
            "{label}: kernels must not transfer"
        );
        for name in ["conf_map", "conf_blocks"] {
            assert_eq!(
                dg.kernels[name].launches, dw.kernels[name].launches,
                "{label}: {name} launch count n={n}"
            );
            assert_eq!(
                dg.kernels[name].blocks, dw.kernels[name].blocks,
                "{label}: {name} block billing n={n}"
            );
        }
    }

    for (seg_len, active) in segment_cases() {
        let host = data(seg_len * active.len(), 12);
        let mut got = DeviceBuffer::from_host(Arc::clone(device.stats()), &host);
        let mut want = DeviceBuffer::from_host(Arc::clone(reference.stats()), &host);
        let before = (device.stats().snapshot(), reference.stats().snapshot());

        device.launch_map_segments("conf_seg", &mut got, seg_len, &active, map_kernel);
        reference.launch_map_segments("conf_seg", &mut want, seg_len, &active, map_kernel);
        device.launch_blocks_segments(
            "conf_seg_blocks",
            &mut got,
            seg_len,
            &active,
            2,
            group_kernel,
        );
        reference.launch_blocks_segments(
            "conf_seg_blocks",
            &mut want,
            seg_len,
            &active,
            2,
            group_kernel,
        );
        assert_bits_eq(
            got.as_slice(),
            want.as_slice(),
            &format!("{label}: device segments seg_len={seg_len}"),
        );

        let gm = device.reduce_max_segments("conf_seg_max", &got, seg_len, &active, score);
        let wm = reference.reduce_max_segments("conf_seg_max", &want, seg_len, &active, score);
        for (s, (g, w)) in gm.iter().zip(&wm).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{label}: device seg reduce seg {s} (seg_len={seg_len})"
            );
        }

        // Masked launches bill only live elements, identically on every
        // backend.
        let live = active.iter().filter(|&&a| a).count() as u64 * seg_len as u64;
        let dg = device.stats().snapshot().since(&before.0);
        let dw = reference.stats().snapshot().since(&before.1);
        for name in ["conf_seg", "conf_seg_blocks", "conf_seg_max"] {
            assert_eq!(
                dg.kernels[name].blocks, live,
                "{label}: {name} must bill live elements only (seg_len={seg_len})"
            );
            assert_eq!(dg.kernels[name].blocks, dw.kernels[name].blocks);
        }
    }

    // Group launches: every element of an active segment in exactly one
    // group of 1 to `group` elements of its segment, nothing of an inactive
    // segment, and one block billed per live element.
    for (seg_len, active) in group_cases() {
        for &group in GROUPS {
            let what = format!("{label}: group launch seg_len={seg_len} group={group}");
            let n = seg_len * active.len();
            let mut visits = DeviceBuffer::from_host(Arc::clone(device.stats()), &vec![(0, 0); n]);
            let before = device.stats().snapshot();
            let kernel = visit_kernel(seg_len, group);
            device.launch_blocks_segments(
                "conf_groups",
                &mut visits,
                seg_len,
                &active,
                group,
                kernel,
            );
            assert_visits(visits.as_slice(), seg_len, &active, &what);
            let billed = device.stats().snapshot().since(&before);
            let live = active.iter().filter(|&&a| a).count() as u64 * seg_len as u64;
            assert_eq!(
                billed.kernels["conf_groups"].blocks, live,
                "{what}: billing"
            );
            assert_eq!(
                billed.kernels["conf_groups"].launches, 1,
                "{what}: launches"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LaunchBackend, ParallelBackend, SequentialBackend, VectorizedBackend};

    /// Assert that `backend` is bitwise identical to [`SequentialBackend`] on
    /// every launch geometry and reduction of the [`LaunchBackend`] contract.
    /// Panics with the offending geometry and element on divergence.
    fn assert_backend_conformance<B: LaunchBackend>(backend: &B) {
        let reference = SequentialBackend;
        let label = backend.mode().label();

        for (seg_len, active) in segment_cases() {
            let n = seg_len * active.len();
            // Masked map and masked group launches: bitwise identity AND
            // inactive segments untouched (frozen-state contract).
            let original = data(n, 5);
            let (mut got, mut want) = (original.clone(), original.clone());
            backend.launch_segments(&mut got, seg_len, &active, map_kernel);
            reference.launch_segments(&mut want, seg_len, &active, map_kernel);
            for &group in GROUPS {
                backend.launch_groups(&mut got, seg_len, &active, group, group_kernel);
                reference.launch_groups(&mut want, seg_len, &active, group, group_kernel);
            }
            assert_bits_eq(&got, &want, &format!("{label}: launches seg_len={seg_len}"));
            for (i, (g, o)) in got.iter().zip(&original).enumerate() {
                if !active[i / seg_len] {
                    assert_eq!(
                        g.to_bits(),
                        o.to_bits(),
                        "{label}: inactive element {i} was touched (seg_len={seg_len})"
                    );
                }
            }

            // Masked per-segment reduction: NaN for inactive segments, bitwise
            // identity for active ones.
            let buf = data(n, 6);
            let got = backend.reduce_max_segments(&buf, seg_len, &active, score);
            let want = reference.reduce_max_segments(&buf, seg_len, &active, score);
            assert_eq!(got.len(), active.len());
            for (s, (g, w)) in got.iter().zip(&want).enumerate() {
                if active[s] {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{label}: reduce_max_segments seg {s} (seg_len={seg_len})"
                    );
                } else {
                    assert!(
                        g.is_nan() && w.is_nan(),
                        "{label}: inactive seg {s} must reduce to NaN"
                    );
                }
            }
        }

        for (seg_len, active) in group_cases() {
            for &group in GROUPS {
                let mut visits = vec![(0, 0); seg_len * active.len()];
                backend.launch_groups(
                    &mut visits,
                    seg_len,
                    &active,
                    group,
                    visit_kernel(seg_len, group),
                );
                let what = format!("{label}: launch_groups seg_len={seg_len} group={group}");
                assert_visits(&visits, seg_len, &active, &what);
            }
        }

        // Determinism with itself: a second identical run reproduces the
        // first bit for bit (no hidden scheduling dependence).
        let buf = data(10_000, 7);
        let active = [true; 4];
        let first = backend.reduce_max_segments(&buf, 2500, &active, score);
        let second = backend.reduce_max_segments(&buf, 2500, &active, score);
        assert_bits_eq(
            &first,
            &second,
            &format!("{label}: reduce_max_segments is not self-deterministic"),
        );
    }

    /// The reference trivially conforms to itself — guards the harness
    /// against asserting something no backend can satisfy.
    #[test]
    fn sequential_backend_conforms() {
        assert_backend_conformance(&SequentialBackend);
        assert_device_conformance(&Device::sequential());
    }

    #[test]
    fn parallel_backend_conforms() {
        assert_backend_conformance(&ParallelBackend);
        assert_device_conformance(&Device::parallel());
    }

    #[test]
    fn vectorized_backend_conforms() {
        assert_backend_conformance(&VectorizedBackend);
        assert_device_conformance(&Device::vectorized());
    }

    /// Whatever `Auto` resolves to in this environment also conforms —
    /// the gate that keeps `Auto` from ever selecting an unproven scheme.
    #[test]
    fn auto_resolved_device_conforms() {
        assert_device_conformance(&Device::auto());
    }

    /// A deliberately broken backend (the segmented reduction scores with
    /// segment-local instead of global indices) must be rejected — the
    /// harness has teeth.
    #[test]
    #[should_panic(expected = "reduce_max_segments")]
    fn local_index_reduction_fails_conformance() {
        use crate::backend::{ExecutionMode, LaunchBackend};

        struct LocalIndexReduce;
        impl LaunchBackend for LocalIndexReduce {
            fn mode(&self) -> ExecutionMode {
                ExecutionMode::Sequential
            }
            fn launch_segments<T: Send, F: Fn(usize, &mut T) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                f: F,
            ) {
                SequentialBackend.launch_segments(buf, s, a, f)
            }
            fn launch_groups<T: Send, F: Fn(usize, &mut [T]) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                g: usize,
                f: F,
            ) {
                SequentialBackend.launch_groups(buf, s, a, g, f)
            }
            fn reduce_max_segments<T: Sync, F: Fn(usize, &T) -> f64 + Sync>(
                &self,
                buf: &[T],
                s: usize,
                a: &[bool],
                f: F,
            ) -> Vec<f64> {
                // Violates the contract: `f` must see the global index.
                SequentialBackend.reduce_max_segments(buf, s, a, |i, x| f(i % s, x))
            }
        }
        assert_backend_conformance(&LocalIndexReduce);
    }
}
