//! Backend conformance: the executable form of the determinism contract.
//!
//! Historically the bitwise Parallel≡Sequential checks were scattered
//! across the kernel, solver, and scheduler test suites, each pinning one
//! backend pair to one geometry. This module hoists them into one harness
//! parameterized over `LaunchBackend` implementors, so a new backend is
//! held to the *entire* contract — all three launch shapes, masked and
//! unmasked, on chunk-boundary-hostile sizes, and the group and scoring
//! launches on empty buffers and on segments of 1 to 4 elements (`W − 1`,
//! `W` and `W + 1` for group widths `W` of 1 to 3) and of
//! `VECTOR_CHUNK − 1`, `VECTOR_CHUNK` and `VECTOR_CHUNK + 1` — before it
//! may be selected by [`ExecutionMode::Auto`](crate::ExecutionMode::Auto).
//! One clause pins the closure arguments of all three segmented shapes:
//! every element, and every group's first element, is handed its own
//! segment (slot) and index within the segment, on segments shorter than,
//! as long as and longer than the parallel backend's pool chunk, with
//! segments switched off in the middle of the buffer.
//!
//! Two entry points:
//!
//! * `assert_backend_conformance` (in this module's tests) drives a bare
//!   `LaunchBackend` over raw slices against `SequentialBackend` — use
//!   this for a backend under development (step 3 of the guide in the
//!   `backend` module);
//! * [`assert_device_conformance`] drives a [`Device`] through the public
//!   launch API against `Device::sequential()` and against host-side
//!   references, additionally checking the billing stream (launch counts,
//!   live-element block accounting, no phantom transfers), and holds the
//!   device's backend to the slot/index clause.
//!
//! The data is deterministic (a fixed multiplicative generator), so a
//! conformance failure reproduces exactly; sizes are chosen to straddle
//! the vectorized backend's chunk boundary and to exercise empty buffers,
//! single elements, and ragged remainders.

use crate::backend::{LaunchBackend, Windows};
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
/// vectorized backend targets) that still depends on the element's slot
/// `s` and index `j`, so index plumbing errors change bits.
fn map_kernel(s: usize, j: usize, x: &mut f64) {
    *x = (*x * 1.000_000_11 + j as f64 * 1e-9 + s as f64 * 1e-4).sin() * 1.7 - 0.3;
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
fn block_kernel(s: usize, j: usize, x: &mut f64) {
    let mut acc = *x;
    for k in 0..16 {
        acc = (acc + (j + k) as f64 * 1e-6 + s as f64 * 1e-3).cos() * 0.9 + 0.1;
    }
    *x = acc;
}

/// The window geometries the group launches sweep for a launch segment of
/// `seg_len` elements: one value per element filling its window segment,
/// two per element behind a prefix and before a suffix, and eight per
/// element behind a prefix (the branch kernel's shape).
fn window_cases(seg_len: usize) -> [Windows; 3] {
    [
        Windows {
            seg_len,
            offset: 0,
            width: 1,
        },
        Windows {
            seg_len: 3 + 2 * seg_len + 1,
            offset: 3,
            width: 2,
        },
        Windows {
            seg_len: 5 + 8 * seg_len,
            offset: 5,
            width: 8,
        },
    ]
}

/// [`block_kernel`] on each element of a group of slot `s` that starts at
/// index `first`, each element writing a value derived from its result into
/// each value of its window.
fn group_kernel(s: usize, first: usize, group: &mut [f64], window: &mut [f64]) {
    let width = window.len() / group.len();
    for (j, (x, w)) in group
        .iter_mut()
        .zip(window.chunks_exact_mut(width))
        .enumerate()
    {
        block_kernel(s, first + j, x);
        for (c, wc) in w.iter_mut().enumerate() {
            *wc += *x * (c as f64 + 1.0);
        }
    }
}

/// One entry of a visit log: how many times a launch handed over the
/// element (or wrote the window value), and the last slot and index it was
/// handed with.
type Visit = (usize, usize, usize);

/// Log one visit of `(s, j)` into `v`.
fn visit(v: &mut Visit, s: usize, j: usize) {
    *v = (v.0 + 1, s, j);
}

/// The kernel that fills a group launch's visit log — per element, how
/// many groups held it and the slot and index its group gave it; per window
/// value, how many elements wrote it and which — asserting that every
/// group holds 1 to `group` elements of one segment and a window of
/// `width` values per element.
fn visit_kernel(
    seg_len: usize,
    group: usize,
    width: usize,
) -> impl Fn(usize, usize, &mut [Visit], &mut [Visit]) + Sync {
    move |s, first, elements, window| {
        let n = elements.len();
        assert!(
            (1..=group).contains(&n),
            "a group of {n} elements (width {group})"
        );
        assert!(
            first + n <= seg_len,
            "group [{first}, {}) of slot {s} overruns its segment (seg_len {seg_len})",
            first + n
        );
        assert_eq!(window.len(), n * width, "group [{first}, +{n}) window");
        for (j, (e, w)) in elements
            .iter_mut()
            .zip(window.chunks_exact_mut(width))
            .enumerate()
        {
            visit(e, s, first + j);
            w.iter_mut().for_each(|v| visit(v, s, first + j));
        }
    }
}

/// Assert that a launch visited each element of each active segment exactly
/// once, under its own slot and index, and no element of an inactive
/// segment.
fn assert_visits(visits: &[Visit], seg_len: usize, active: &[bool], what: &str) {
    for (i, &(count, s, j)) in visits.iter().enumerate() {
        if active[i / seg_len] {
            assert_eq!(
                (count, s, j),
                (1, i / seg_len, i % seg_len),
                "{what}: element {i} visits"
            );
        } else {
            assert_eq!(count, 0, "{what}: inactive element {i} was touched");
        }
    }
}

/// Assert that a group launch wrote each value of an active segment's
/// windows exactly once, as the element that owns it, and no value of an
/// inactive segment's windows or outside the windows.
fn assert_window_visits(
    window_log: &[Visit],
    seg_len: usize,
    active: &[bool],
    windows: Windows,
    what: &str,
) {
    for (k, &(writes, s, j)) in window_log.iter().enumerate() {
        let (slot, at) = (k / windows.seg_len, k % windows.seg_len);
        let in_window = at >= windows.offset && at < windows.offset + seg_len * windows.width;
        if active[slot] && in_window {
            let want = (at - windows.offset) / windows.width;
            assert_eq!(
                (writes, s, j),
                (1, slot, want),
                "{what}: window value {k} writes"
            );
        } else {
            assert_eq!(writes, 0, "{what}: window value {k} was touched");
        }
    }
}

/// Segment geometries `(seg_len, mask)` the slot/index clause sweeps, on
/// top of [`group_cases`]: segments of 1, `PARALLEL_CHUNK − 1`,
/// `PARALLEL_CHUNK`, `PARALLEL_CHUNK + 1` and 257 elements, some 3 000 of
/// them in all (so that the parallel backend fans out over many pool
/// chunks), all active and with segments switched off in the middle of the
/// buffer.
fn slot_cases() -> Vec<(usize, Vec<bool>)> {
    let mut cases = group_cases();
    for seg_len in [1usize, 63, 64, 65, 257] {
        let segments = (3000 / seg_len).max(4);
        let middle = segments / 3..2 * segments / 3;
        cases.push((seg_len, vec![true; segments]));
        let mask = (0..segments).map(|s| !middle.contains(&s) || s % 3 == 0);
        cases.push((seg_len, mask.collect()));
    }
    cases
}

/// The slot/index clause: on every geometry of [`slot_cases`], all three
/// segmented shapes hand each element of an active segment — the group
/// launch each group's first element, for every group width and window
/// geometry — its own slot and index, visit it exactly once and touch
/// nothing of an inactive segment; a group's window is exactly its
/// elements'.
pub(crate) fn assert_slot_indices<B: LaunchBackend>(backend: &B) {
    let label = backend.mode().label();
    for (seg_len, active) in slot_cases() {
        let n = seg_len * active.len();
        let what = |shape: &str| format!("{label}: {shape} slot/index seg_len={seg_len}");

        let mut visits = vec![(0, 0, 0); n];
        backend.launch_segments(&mut visits, seg_len, &active, |s, j, v| visit(v, s, j));
        assert_visits(&visits, seg_len, &active, &what("launch_segments"));

        let mut visits = vec![(0, 0, 0); n];
        backend.launch_segments_max(&mut visits, seg_len, &active, |s, j, v| {
            visit(v, s, j);
            [0.0]
        });
        assert_visits(&visits, seg_len, &active, &what("launch_segments_max"));

        for &group in GROUPS {
            for windows in window_cases(seg_len) {
                let mut visits = vec![(0, 0, 0); n];
                let mut window_log = vec![(0, 0, 0); windows.seg_len * active.len()];
                backend.launch_groups(
                    &mut visits,
                    seg_len,
                    &active,
                    group,
                    &mut window_log,
                    windows,
                    visit_kernel(seg_len, group, windows.width),
                );
                let what = format!("{} group={group} {windows:?}", what("launch_groups"));
                assert_visits(&visits, seg_len, &active, &what);
                assert_window_visits(&window_log, seg_len, &active, windows, &what);
            }
        }
    }
}

/// Max-reduction score whose stream contains NaN and signed-zero entries:
/// `f64::max` is scheduling-sensitive through exactly those, so any
/// combine-order violation changes bits.
fn score(s: usize, j: usize, x: f64) -> f64 {
    if (s * 7 + j) % 251 == 17 {
        f64::NAN
    } else {
        x * 1.000_001 + j as f64 * 1e-12 + s as f64 * 1e-9
    }
}

/// The scoring launch's kernel: it updates its element and returns two
/// scores of the element's old value — [`score`] and its negation — except
/// in every third segment, whose scores are all NaN, so that index order,
/// passing over NaN and the empty-max convention each change bits when
/// broken.
fn scored_kernel(s: usize, j: usize, x: &mut f64) -> [f64; 2] {
    let old = *x;
    map_kernel(s, j, x);
    if s % 3 == 2 {
        [f64::NAN; 2]
    } else {
        [score(s, j, old), -score(s, j, old)]
    }
}

/// What the scoring launch must return on `host`: per active segment, the
/// index-order `f64::max` fold from `−∞` of each score, `0.0` where no
/// score is a number; NaN per inactive segment.
fn scored_reference(host: &[f64], seg_len: usize, active: &[bool]) -> Vec<[f64; 2]> {
    (0..active.len())
        .map(|s| {
            if !active[s] {
                return [f64::NAN; 2];
            }
            let mut maxima = [f64::NEG_INFINITY; 2];
            for (j, x) in host[s * seg_len..(s + 1) * seg_len].iter().enumerate() {
                let scores = scored_kernel(s, j, &mut x.clone());
                for (m, v) in maxima.iter_mut().zip(scores) {
                    *m = m.max(v);
                }
            }
            maxima.map(|m| if m == f64::NEG_INFINITY { 0.0 } else { m })
        })
        .collect()
}

/// Assert that per-segment maxima agree bit for bit (NaN with NaN).
fn assert_maxima_eq(got: &[[f64; 2]], want: &[[f64; 2]], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: one result per segment");
    for (s, (g, w)) in got.iter().zip(want).enumerate() {
        for c in 0..2 {
            assert!(
                g[c].to_bits() == w[c].to_bits() || (g[c].is_nan() && w[c].is_nan()),
                "{what}: segment {s} score {c}: {} vs {}",
                g[c],
                w[c]
            );
        }
    }
}

/// Assert that `device` conforms through the public [`Device`] launch API:
/// bitwise-identical results to `Device::sequential()` and to the host
/// references, *and* an identical billing stream — same launch counts,
/// same live-element block counts, and no transfers recorded during
/// kernels.
pub fn assert_device_conformance(device: &Device) {
    let reference = Device::sequential();
    let label = device.backend().label();
    assert_slot_indices(&device.exec);

    for &n in LENGTHS {
        let host = data(n, 11);
        let mut got = DeviceBuffer::from_host(Arc::clone(device.stats()), &host);
        let mut want = DeviceBuffer::from_host(Arc::clone(reference.stats()), &host);
        let before = (device.stats().snapshot(), reference.stats().snapshot());

        let map = |i, x: &mut f64| map_kernel(0, i, x);
        let block = |i, x: &mut f64| block_kernel(0, i, x);
        device.launch_map("conf_map", &mut got, map);
        reference.launch_map("conf_map", &mut want, map);
        device.launch_blocks("conf_blocks", &mut got, block);
        reference.launch_blocks("conf_blocks", &mut want, block);
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
        let windows = window_cases(seg_len)[1];
        let out_host = data(windows.seg_len * active.len(), 13);
        let mut got = DeviceBuffer::from_host(Arc::clone(device.stats()), &host);
        let mut want = DeviceBuffer::from_host(Arc::clone(reference.stats()), &host);
        let mut got_out = DeviceBuffer::from_host(Arc::clone(device.stats()), &out_host);
        let mut want_out = DeviceBuffer::from_host(Arc::clone(reference.stats()), &out_host);
        let before = (device.stats().snapshot(), reference.stats().snapshot());

        device.launch_map_segments("conf_seg", &mut got, seg_len, &active, map_kernel);
        reference.launch_map_segments("conf_seg", &mut want, seg_len, &active, map_kernel);
        for (dev, buf, out) in [
            (device, &mut got, &mut got_out),
            (&reference, &mut want, &mut want_out),
        ] {
            dev.launch_blocks_segments(
                "conf_seg_blocks",
                buf,
                seg_len,
                &active,
                2,
                out,
                windows,
                group_kernel,
            );
        }
        let kernel = scored_kernel;
        let gm = device.launch_map_segments_max("conf_seg_max", &mut got, seg_len, &active, kernel);
        let wm =
            reference.launch_map_segments_max("conf_seg_max", &mut want, seg_len, &active, kernel);
        let what = format!("{label}: device segments seg_len={seg_len}");
        assert_bits_eq(got.as_slice(), want.as_slice(), &what);
        assert_bits_eq(got_out.as_slice(), want_out.as_slice(), &what);
        assert_maxima_eq(&gm, &wm, &what);

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
        assert_eq!(
            dg.total_transfers(),
            0,
            "{label}: kernels must not transfer"
        );
    }

    // Scoring launches: each active segment's maxima are the index-order
    // fold, its elements updated once, and an inactive segment reads NaN
    // and keeps its values.
    for (seg_len, active) in group_cases() {
        let n = seg_len * active.len();
        let live = active.iter().filter(|&&a| a).count() as u64 * seg_len as u64;
        let what = format!("{label}: scoring launch seg_len={seg_len} {active:?}");
        let host = data(n, 14);
        let mut buf = DeviceBuffer::from_host(Arc::clone(device.stats()), &host);
        let before = device.stats().snapshot();
        let maxima =
            device.launch_map_segments_max("conf_max", &mut buf, seg_len, &active, scored_kernel);
        assert_maxima_eq(&maxima, &scored_reference(&host, seg_len, &active), &what);
        let mut updated = host.clone();
        for (i, x) in updated.iter_mut().enumerate() {
            if active[i / seg_len] {
                map_kernel(i / seg_len, i % seg_len, x);
            }
        }
        assert_bits_eq(buf.as_slice(), &updated, &what);
        let billed = device.stats().snapshot().since(&before);
        assert_eq!(billed.kernels["conf_max"].blocks, live, "{what}: billing");
        assert_eq!(billed.kernels["conf_max"].launches, 1, "{what}: launches");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        segment_runs, ParallelBackend, SequentialBackend, VectorizedBackend, PARALLEL_CHUNK,
        PARALLEL_MIN_CHUNKS,
    };
    use rayon::prelude::*;

    /// Assert that `backend` hands every element its own slot and index and
    /// is bitwise identical to [`SequentialBackend`] on every launch
    /// geometry of the [`LaunchBackend`] contract. Panics with the offending
    /// geometry and element on divergence.
    fn assert_backend_conformance<B: LaunchBackend>(backend: &B) {
        let reference = SequentialBackend;
        let label = backend.mode().label();
        assert_slot_indices(backend);

        for (seg_len, active) in group_cases() {
            let n = seg_len * active.len();
            // Masked map and masked group launches: bitwise identity AND
            // inactive segments untouched in both buffers (frozen-state
            // contract).
            let original = data(n, 5);
            let (mut got, mut want) = (original.clone(), original.clone());
            backend.launch_segments(&mut got, seg_len, &active, map_kernel);
            reference.launch_segments(&mut want, seg_len, &active, map_kernel);
            for &group in GROUPS {
                for windows in window_cases(seg_len) {
                    let out_original = data(windows.seg_len * active.len(), 8);
                    let (mut got_out, mut want_out) = (out_original.clone(), out_original.clone());
                    backend.launch_groups(
                        &mut got,
                        seg_len,
                        &active,
                        group,
                        &mut got_out,
                        windows,
                        group_kernel,
                    );
                    reference.launch_groups(
                        &mut want,
                        seg_len,
                        &active,
                        group,
                        &mut want_out,
                        windows,
                        group_kernel,
                    );
                    let what = format!("{label}: launch_groups seg_len={seg_len} {windows:?}");
                    assert_bits_eq(&got_out, &want_out, &what);
                    for (k, (g, o)) in got_out.iter().zip(&out_original).enumerate() {
                        if !active[k / windows.seg_len] {
                            assert_eq!(g.to_bits(), o.to_bits(), "{what}: inactive value {k}");
                        }
                    }
                }
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

            // Masked scoring launch: NaN for inactive segments, the
            // index-order fold for active ones, each element updated once.
            let host = data(n, 6);
            let (mut got, mut want) = (host.clone(), host.clone());
            let got_max = backend.launch_segments_max(&mut got, seg_len, &active, scored_kernel);
            let want_max =
                reference.launch_segments_max(&mut want, seg_len, &active, scored_kernel);
            let what = format!("{label}: launch_segments_max seg_len={seg_len}");
            assert_maxima_eq(&got_max, &want_max, &what);
            assert_maxima_eq(&got_max, &scored_reference(&host, seg_len, &active), &what);
            assert_bits_eq(&got, &want, &what);
        }

        // Determinism with itself: a second identical run reproduces the
        // first bit for bit (no hidden scheduling dependence).
        let host = data(10_000, 7);
        let active = [true; 4];
        let first = backend.launch_segments_max(&mut host.clone(), 2500, &active, scored_kernel);
        let second = backend.launch_segments_max(&mut host.clone(), 2500, &active, scored_kernel);
        assert_maxima_eq(
            &first,
            &second,
            &format!("{label}: launch_segments_max is not self-deterministic"),
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

    /// A deliberately broken backend (the scoring launch hands each element
    /// its global index instead of its index in the slot) must be rejected —
    /// the harness has teeth.
    #[test]
    #[should_panic(expected = "launch_segments_max")]
    fn global_index_scoring_fails_conformance() {
        struct GlobalIndexScores;
        impl LaunchBackend for GlobalIndexScores {
            fn mode(&self) -> crate::ExecutionMode {
                crate::ExecutionMode::Sequential
            }
            fn launch_segments<T: Send, F: Fn(usize, usize, &mut T) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                f: F,
            ) {
                SequentialBackend.launch_segments(buf, s, a, f)
            }
            #[allow(clippy::too_many_arguments)]
            fn launch_groups<T: Send, U: Send, F: Fn(usize, usize, &mut [T], &mut [U]) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                g: usize,
                out: &mut [U],
                w: Windows,
                f: F,
            ) {
                SequentialBackend.launch_groups(buf, s, a, g, out, w, f)
            }
            fn launch_segments_max<
                T: Send,
                F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
                const N: usize,
            >(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                f: F,
            ) -> Vec<[f64; N]> {
                // Violates the contract: `f` must see the index in the slot.
                SequentialBackend
                    .launch_segments_max(buf, s, a, |slot, j, x| f(slot, slot * s + j, x))
            }
        }
        assert_backend_conformance(&GlobalIndexScores);
    }

    /// A deliberately broken parallel launch (each pool chunk seeds its slot
    /// and index from the chunk's number instead of its first element's)
    /// must be rejected by the slot/index clause.
    #[test]
    #[should_panic(expected = "launch_segments slot/index")]
    fn misseeded_chunks_fail_conformance() {
        struct MisseededChunks;
        impl LaunchBackend for MisseededChunks {
            fn mode(&self) -> crate::ExecutionMode {
                crate::ExecutionMode::Parallel
            }
            fn launch_segments<T: Send, F: Fn(usize, usize, &mut T) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                f: F,
            ) {
                // Violates the contract: chunk `c` starts at element
                // `c · PARALLEL_CHUNK`.
                buf.par_chunks_mut(PARALLEL_CHUNK)
                    .with_min_len(PARALLEL_MIN_CHUNKS)
                    .enumerate()
                    .for_each(|(c, chunk)| segment_runs(chunk, c, s, a, &f));
            }
            #[allow(clippy::too_many_arguments)]
            fn launch_groups<T: Send, U: Send, F: Fn(usize, usize, &mut [T], &mut [U]) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                g: usize,
                out: &mut [U],
                w: Windows,
                f: F,
            ) {
                ParallelBackend.launch_groups(buf, s, a, g, out, w, f)
            }
            fn launch_segments_max<
                T: Send,
                F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
                const N: usize,
            >(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                f: F,
            ) -> Vec<[f64; N]> {
                ParallelBackend.launch_segments_max(buf, s, a, f)
            }
        }
        assert_backend_conformance(&MisseededChunks);
    }

    /// A deliberately broken group launch (every window cut from the start
    /// of its segment, ignoring the offset) must be rejected too.
    #[test]
    #[should_panic(expected = "launch_groups")]
    fn misplaced_windows_fail_conformance() {
        struct MisplacedWindows;
        impl LaunchBackend for MisplacedWindows {
            fn mode(&self) -> crate::ExecutionMode {
                crate::ExecutionMode::Sequential
            }
            fn launch_segments<T: Send, F: Fn(usize, usize, &mut T) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                f: F,
            ) {
                SequentialBackend.launch_segments(buf, s, a, f)
            }
            #[allow(clippy::too_many_arguments)]
            fn launch_groups<T: Send, U: Send, F: Fn(usize, usize, &mut [T], &mut [U]) + Sync>(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                g: usize,
                out: &mut [U],
                w: Windows,
                f: F,
            ) {
                // Violates the contract: the windows start at `offset`.
                let w = Windows { offset: 0, ..w };
                SequentialBackend.launch_groups(buf, s, a, g, out, w, f)
            }
            fn launch_segments_max<
                T: Send,
                F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
                const N: usize,
            >(
                &self,
                buf: &mut [T],
                s: usize,
                a: &[bool],
                f: F,
            ) -> Vec<[f64; N]> {
                SequentialBackend.launch_segments_max(buf, s, a, f)
            }
        }
        assert_backend_conformance(&MisplacedWindows);
    }
}
