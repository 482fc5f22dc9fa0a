//! Workspace-level entry point for the backend conformance suite.
//!
//! The harness itself lives in `gridsim_batch::conformance` so backend
//! authors can run it from unit tests while a backend is still private;
//! this suite re-runs it through the public `Device` API for every
//! shipped backend — plus the `Auto`-resolved device, so whatever mode
//! `GRIDSIM_BACKEND` (or the core count) selects on this machine is the
//! mode that gets certified in CI. Two more tests drive the group launch
//! with windows and the scoring launch against in-test references.

use gridsim_batch::{assert_device_conformance, Device, DeviceBuffer, ExecutionMode, Windows};
use std::sync::Arc;

#[test]
fn sequential_device_conforms() {
    assert_device_conformance(&Device::sequential());
}

#[test]
fn parallel_device_conforms() {
    assert_device_conformance(&Device::parallel());
}

#[test]
fn vectorized_device_conforms() {
    assert_device_conformance(&Device::vectorized());
}

/// The device the rest of the workspace constructs by default: `Auto`,
/// resolved through the `GRIDSIM_BACKEND` override and the worker count.
/// This is the test the CI backend matrix sweeps.
#[test]
fn auto_resolved_device_conforms() {
    let device = Device::auto();
    assert_ne!(device.backend(), ExecutionMode::Auto, "auto must resolve");
    assert_eq!(device.backend(), ExecutionMode::Auto.resolve());
    assert_device_conformance(&device);
}

/// Every device the workspace can build: the three pinned backends and the
/// `Auto`-resolved one.
fn devices() -> [Device; 4] {
    [
        Device::sequential(),
        Device::parallel(),
        Device::vectorized(),
        Device::auto(),
    ]
}

/// The group launch with windows, through the public API: every element of
/// an active segment is visited once, in a group of its own segment handed
/// its slot and first index, and given exactly its own window of the second buffer (behind a prefix and
/// before a suffix); inactive segments and the values outside the windows
/// stay untouched in both buffers. Segments of 1, 2, 63 and 65 elements
/// (the vectorized backend works in chunks of 64) and an empty launch.
#[test]
fn windowed_group_launch_hands_each_element_its_own_window() {
    for device in devices() {
        for seg_len in [1usize, 2, 63, 65] {
            for (active, group, width) in [
                (vec![true, false, true], 2, 3),
                (vec![false, true, true, true], 3, 1),
                (vec![], 2, 2),
            ] {
                let windows = Windows {
                    seg_len: 2 + width * seg_len + 1,
                    offset: 2,
                    width,
                };
                let what = format!("{}: seg_len {seg_len} {active:?}", device.backend());
                let stats = Arc::clone(device.stats());
                let mut elements =
                    DeviceBuffer::from_host(stats.clone(), &vec![0usize; seg_len * active.len()]);
                let mut out =
                    DeviceBuffer::from_host(stats, &vec![0usize; windows.seg_len * active.len()]);
                device.launch_blocks_segments(
                    "windows",
                    &mut elements,
                    seg_len,
                    &active,
                    group,
                    &mut out,
                    windows,
                    |s, first, group_elements, window| {
                        assert!(group_elements.len() <= group, "{what}: group size");
                        assert!(first + group_elements.len() <= seg_len, "{what}: segment");
                        let start = s * seg_len + first;
                        for (j, (e, w)) in group_elements
                            .iter_mut()
                            .zip(window.chunks_exact_mut(width))
                            .enumerate()
                        {
                            *e += start + j + 1;
                            w.iter_mut().for_each(|v| *v += start + j + 1);
                        }
                    },
                );
                for (i, &e) in elements.as_slice().iter().enumerate() {
                    let want = if active[i / seg_len] { i + 1 } else { 0 };
                    assert_eq!(e, want, "{what}: element {i}");
                }
                for (k, &v) in out.as_slice().iter().enumerate() {
                    let (s, at) = (k / windows.seg_len, k % windows.seg_len);
                    let inside = (2..2 + width * seg_len).contains(&at);
                    let want = if active[s] && inside {
                        s * seg_len + (at - 2) / width + 1
                    } else {
                        0
                    };
                    assert_eq!(v, want, "{what}: window value {k}");
                }
            }
        }
    }
}

/// The scoring launch through the public API: each element updated once,
/// each active segment's maxima the index-order `f64::max` fold from −∞ of
/// its scores (so NaN scores are passed over and an all-NaN segment reads
/// 0.0), an inactive segment NaN and untouched. Segments of 1, 2, 63 and
/// 65 elements and an empty launch.
#[test]
fn scored_launch_folds_each_segment_in_index_order() {
    for device in devices() {
        for seg_len in [1usize, 2, 63, 65] {
            for active in [vec![true, false, true, true], vec![]] {
                let what = format!("{}: seg_len {seg_len} {active:?}", device.backend());
                let n = seg_len * active.len();
                // Signed zeros and NaN scores in every segment, and segment
                // 2 all NaN.
                let host: Vec<f64> = (0..n)
                    .map(|i| match i % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => ((i * 37) % 11) as f64 - 5.0,
                    })
                    .collect();
                let score = |i: usize, x: f64| {
                    if i / seg_len == 2 || i % 7 == 3 {
                        f64::NAN
                    } else {
                        x
                    }
                };
                let mut buf = DeviceBuffer::from_host(Arc::clone(device.stats()), &host);
                let maxima = device.launch_map_segments_max(
                    "scores",
                    &mut buf,
                    seg_len,
                    &active,
                    |s, j, x| {
                        let i = s * seg_len + j;
                        let old = *x;
                        *x = old * 2.0 + 1.0;
                        [score(i, old), -score(i, old)]
                    },
                );
                assert_eq!(maxima.len(), active.len(), "{what}");
                for (s, max) in maxima.iter().enumerate() {
                    let segment = s * seg_len..(s + 1) * seg_len;
                    if !active[s] {
                        assert!(
                            max.iter().all(|m| m.is_nan()),
                            "{what}: inactive segment {s}"
                        );
                        continue;
                    }
                    for (c, sign) in [1.0, -1.0].into_iter().enumerate() {
                        let fold = segment
                            .clone()
                            .map(|i| sign * score(i, host[i]))
                            .fold(f64::NEG_INFINITY, f64::max);
                        let want = if fold == f64::NEG_INFINITY { 0.0 } else { fold };
                        assert_eq!(
                            max[c].to_bits(),
                            want.to_bits(),
                            "{what}: segment {s} score {c}"
                        );
                    }
                }
                for (i, (x, h)) in buf.as_slice().iter().zip(&host).enumerate() {
                    let want = if active[i / seg_len] {
                        h * 2.0 + 1.0
                    } else {
                        *h
                    };
                    assert_eq!(x.to_bits(), want.to_bits(), "{what}: element {i}");
                }
            }
        }
    }
}
