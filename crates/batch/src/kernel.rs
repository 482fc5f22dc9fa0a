//! Kernel launch APIs.
//!
//! A *kernel* is a named unit of device work. Every launch is a masked
//! launch over equally sized segments (one segment per scenario), in one of
//! three shapes:
//!
//! * [`Device::launch_map_segments`] — one thread per element; used for the
//!   closed-form bus and outer-multiplier updates, which the paper
//!   implements by launching as many threads as there are elements.
//! * [`Device::launch_blocks_segments`] — one thread block per group of up
//!   to `group` consecutive elements of a segment, handed the group's
//!   windows of a second buffer ([`Windows`]); used for the generator
//!   updates and the batch TRON branch solves (each block solving its
//!   group's branch subproblems in lock-step, one per lane), which write
//!   their consensus values `u` into their own windows in the launch that
//!   computes them.
//! * [`Device::launch_map_segments_max`] — one thread per element whose
//!   closure also returns scores, folded into per-segment maxima without
//!   copying data back to the host; used for the consensus pass, which
//!   updates `v`, `z` and `y` and scores the residuals that decide
//!   convergence in the same sweep (a fused map + `cub::DeviceSegmentedReduce`).
//!
//! Each segmented launch hands its closure the element's segment (the
//! scenario slot) and its index within the segment — a group launch, the
//! group's first element's — so a kernel finds its slot's data without a
//! lookup of its own. [`Device::launch_map`] and [`Device::launch_blocks`]
//! launch a whole buffer as one active segment and hand their closure the
//! element's index in it.
//!
//! Every method here is backend-agnostic: the iteration scheme lives behind
//! the [`LaunchBackend`] trait the device resolved at construction, and this
//! layer owns the buffer bookkeeping — length assertions, live-element
//! accounting and billing each launch to [`crate::DeviceStats`]. A kernel's
//! name is a `&'static str` (a literal at every launch site): the stats
//! find its entry by the name's address, so billing a launch costs two
//! clock reads and a short scan under a lock.

use crate::backend::{LaunchBackend, Windows};
use crate::buffer::DeviceBuffer;
use crate::device::Device;
use std::time::Instant;

impl Device {
    /// Launch a kernel with one thread per element of `buf`. The closure
    /// receives the element index and a mutable reference to the element;
    /// read-only data can be captured by the closure.
    pub fn launch_map<T, F>(&self, name: &'static str, buf: &mut DeviceBuffer<T>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let (seg_len, active) = whole(buf);
        self.launch_map_segments(name, buf, seg_len, active, |_, i, x| f(i, x));
    }

    /// Launch a kernel with one thread block per element of `states`, under
    /// the mental model "one block per subproblem" (the paper's ExaTron
    /// launch geometry). Unlike [`Self::launch_map`], the closure is expected
    /// to do substantial per-element work, so scheduling backends fan out at
    /// single-element granularity: even a handful of blocks spreads across
    /// the worker pool instead of falling below the cheap-kernel sequential
    /// threshold.
    pub fn launch_blocks<T, F>(&self, name: &'static str, states: &mut DeviceBuffer<T>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let (seg_len, active) = whole(states);
        // No second buffer: each block's window is one zero-sized value, so
        // the window buffer allocates nothing.
        let mut none = vec![(); states.len()];
        let windows = Windows {
            seg_len,
            offset: 0,
            width: 1,
        };
        let start = check_segments(states, seg_len, active);
        self.exec.launch_groups(
            states.as_mut_slice(),
            seg_len,
            active,
            1,
            &mut none,
            windows,
            |_, i, block, _| f(i, &mut block[0]),
        );
        self.bill(name, seg_len, active, start);
    }

    /// Launch a kernel over a scenario-major buffer holding `active.len()`
    /// equally-sized segments of `seg_len` elements each, skipping the
    /// segments whose mask entry is `false`. This is the batched-driver
    /// analogue of [`Self::launch_map`]: one launch spans `K × n` elements,
    /// and converged scenarios stop consuming kernel work (the recorded block
    /// count only counts elements of active segments). The closure receives
    /// the element's segment, its index within the segment and the element.
    pub fn launch_map_segments<T, F>(
        &self,
        name: &'static str,
        buf: &mut DeviceBuffer<T>,
        seg_len: usize,
        active: &[bool],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, usize, &mut T) + Sync,
    {
        let start = check_segments(buf, seg_len, active);
        self.exec
            .launch_segments(buf.as_mut_slice(), seg_len, active, f);
        self.bill(name, seg_len, active, start);
    }

    /// One thread *block* per group of up to `group` consecutive elements
    /// of an active segment, handed the group's elements and their windows
    /// of `out`; the segmented analogue of [`Self::launch_blocks`], used for
    /// the batched component updates spanning all scenarios in one launch —
    /// each branch block solving its group's subproblems in lock-step — that
    /// write their share of a consensus buffer as they compute it. The
    /// groups are each segment's consecutive chunks of `group` elements
    /// (the last one shorter), so a group never spans two segments and
    /// never reaches into an inactive one; `out` holds one segment of
    /// `windows.seg_len` values per segment, and [`Windows`] places each
    /// element's `windows.width` values in it, so no two groups share a
    /// value. The closure receives the group's segment, the index of its
    /// first element within the segment, the group and its window.
    /// Scheduling backends fan out at
    /// single-group granularity, and the launch is billed one block per
    /// live element of `states`, whatever the grouping.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_blocks_segments<T, U, F>(
        &self,
        name: &'static str,
        states: &mut DeviceBuffer<T>,
        seg_len: usize,
        active: &[bool],
        group: usize,
        out: &mut DeviceBuffer<U>,
        windows: Windows,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, usize, &mut [T], &mut [U]) + Sync,
    {
        assert!(group > 0, "groups must be non-empty");
        assert!(windows.width > 0, "windows must be non-empty");
        assert_eq!(
            out.len(),
            windows.seg_len * active.len(),
            "window buffer length must equal windows.seg_len * segments"
        );
        assert!(
            windows.offset + seg_len * windows.width <= windows.seg_len,
            "windows [{}, {}) overrun a window segment of {} values",
            windows.offset,
            windows.offset + seg_len * windows.width,
            windows.seg_len
        );
        let start = check_segments(states, seg_len, active);
        self.exec.launch_groups(
            states.as_mut_slice(),
            seg_len,
            active,
            group,
            out.as_mut_slice(),
            windows,
            f,
        );
        self.bill(name, seg_len, active, start);
    }

    /// One thread per element of the active segments, as
    /// [`Self::launch_map_segments`], whose closure also returns `N` scores;
    /// returns one `[f64; N]` per segment holding each score's maximum over
    /// the segment, `f64::NAN` for segments whose mask entry is `false`
    /// (their elements are not even visited). A maximum is the index-order
    /// `f64::max` fold from `−∞` (a NaN score is passed over), and a segment
    /// with no number reads `0.0`. No host transfer is recorded: the maxima
    /// are a handful of scalars produced on the device, the way a fused map
    /// and `cub::DeviceSegmentedReduce` would leave them. Backends may
    /// evaluate scores in any order but fold each segment in index order
    /// (the determinism contract in `backend.rs`), so the result is bitwise
    /// identical across every conforming backend.
    pub fn launch_map_segments_max<T, F, const N: usize>(
        &self,
        name: &'static str,
        buf: &mut DeviceBuffer<T>,
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<[f64; N]>
    where
        T: Send,
        F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
    {
        let start = check_segments(buf, seg_len, active);
        let maxima = self
            .exec
            .launch_segments_max(buf.as_mut_slice(), seg_len, active, f);
        self.bill(name, seg_len, active, start);
        maxima
    }

    /// Bill a launch over the live elements of `active` that began at
    /// `start`.
    fn bill(&self, name: &'static str, seg_len: usize, active: &[bool], start: Instant) {
        let live = active.iter().filter(|&&a| a).count() as u64 * seg_len as u64;
        self.stats.record_launch(name, live, start.elapsed());
    }
}

/// Check a segmented launch's geometry; the launch starts now.
fn check_segments<T>(buf: &DeviceBuffer<T>, seg_len: usize, active: &[bool]) -> Instant {
    assert!(seg_len > 0, "segments must be non-empty");
    assert_eq!(
        buf.len(),
        seg_len * active.len(),
        "buffer length must equal seg_len * segments"
    );
    Instant::now()
}

/// A whole buffer as segments: one active segment, or none when empty.
fn whole<T>(buf: &DeviceBuffer<T>) -> (usize, &'static [bool]) {
    if buf.is_empty() {
        (1, &[])
    } else {
        (buf.len(), &[true])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn devices() -> Vec<Device> {
        vec![
            Device::parallel(),
            Device::sequential(),
            Device::vectorized(),
        ]
    }

    #[test]
    fn launch_map_applies_to_every_element() {
        for dev in devices() {
            let mut buf =
                DeviceBuffer::from_host(Arc::clone(dev.stats()), &(0..1000).collect::<Vec<i64>>());
            dev.launch_map("double", &mut buf, |i, x| {
                *x *= 2;
                assert_eq!(*x, 2 * i as i64);
            });
            assert!(buf
                .as_slice()
                .iter()
                .enumerate()
                .all(|(i, &x)| x == 2 * i as i64));
            let snap = dev.stats().snapshot();
            assert_eq!(snap.kernels["double"].launches, 1);
            assert_eq!(snap.kernels["double"].blocks, 1000);
        }
    }

    #[test]
    fn all_backends_agree_on_maps() {
        let host: Vec<f64> = (0..512).map(|i| i as f64 * 0.25).collect();
        let mut results = Vec::new();
        for dev in devices() {
            let mut buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &host);
            dev.launch_map("sin", &mut buf, |_, x| *x = x.sin() * 3.0 + 1.0);
            results.push(buf.to_host());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn segmented_launch_skips_inactive_segments() {
        for dev in devices() {
            let mut buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &vec![0.0f64; 4 * 2000]);
            let active = [true, false, true, false];
            dev.launch_map_segments("seg_inc", &mut buf, 2000, &active, |s, j, x| {
                *x = (s * 2000 + j) as f64 + 1.0;
            });
            for (i, &x) in buf.as_slice().iter().enumerate() {
                if active[i / 2000] {
                    assert_eq!(x, i as f64 + 1.0);
                } else {
                    assert_eq!(x, 0.0, "inactive element {i} was touched");
                }
            }
            // Only active elements count as launched blocks.
            let snap = dev.stats().snapshot();
            assert_eq!(snap.kernels["seg_inc"].blocks, 2 * 2000);
        }
    }

    #[test]
    fn scored_launch_folds_each_segment_and_skips_inactive_ones() {
        let host: Vec<f64> = (0..3 * 1500)
            .map(|i| ((i * 31) % 97) as f64 - 48.0)
            .collect();
        for dev in devices() {
            let mut buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &host);
            let maxes = dev.launch_map_segments_max(
                "seg_max",
                &mut buf,
                1500,
                &[true, false, true],
                |_, _, x| {
                    *x = -*x;
                    [x.abs(), *x]
                },
            );
            assert_eq!(maxes.len(), 3);
            assert!(
                maxes[1].iter().all(|m| m.is_nan()),
                "inactive segment must be NaN"
            );
            for s in [0usize, 2] {
                let seg = &host[s * 1500..(s + 1) * 1500];
                let abs = seg
                    .iter()
                    .map(|x| x.abs())
                    .fold(f64::NEG_INFINITY, f64::max);
                let neg = seg.iter().map(|x| -x).fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(maxes[s][0].to_bits(), abs.to_bits());
                assert_eq!(maxes[s][1].to_bits(), neg.to_bits());
            }
            for (i, (x, h)) in buf.as_slice().iter().zip(&host).enumerate() {
                let want = if i / 1500 == 1 { *h } else { -h };
                assert_eq!(x.to_bits(), want.to_bits(), "element {i}");
            }
            assert_eq!(dev.stats().snapshot().kernels["seg_max"].blocks, 2 * 1500);
        }
    }

    #[test]
    fn segmented_ops_agree_across_backends_bitwise() {
        let host: Vec<f64> = (0..4 * 1024).map(|i| (i as f64 * 0.11).sin()).collect();
        let active = [true, true, false, true];
        let seq = Device::sequential();
        let mut buf_seq = DeviceBuffer::from_host(Arc::clone(seq.stats()), &host);
        let kernel = |_: usize, _: usize, x: &mut f64| *x = x.cos() * 1.7 - 0.3;
        let scored = |_: usize, _: usize, x: &mut f64| {
            *x = x.sin();
            [*x]
        };
        seq.launch_map_segments("k", &mut buf_seq, 1024, &active, kernel);
        let ms = seq.launch_map_segments_max("m", &mut buf_seq, 1024, &active, scored);
        for dev in [Device::parallel(), Device::vectorized()] {
            let mut buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &host);
            dev.launch_map_segments("k", &mut buf, 1024, &active, kernel);
            let m = dev.launch_map_segments_max("m", &mut buf, 1024, &active, scored);
            assert_eq!(buf.as_slice(), buf_seq.as_slice());
            for (a, b) in m.iter().zip(&ms) {
                assert_eq!(a[0].to_bits(), b[0].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "seg_len * segments")]
    fn segmented_launch_length_mismatch_panics() {
        let dev = Device::sequential();
        let mut buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &[1.0f64; 10]);
        dev.launch_map_segments("bad", &mut buf, 4, &[true, true], |_, _, _| {});
    }

    #[test]
    fn no_transfers_recorded_during_kernels() {
        let dev = Device::auto();
        let stats = Arc::clone(dev.stats());
        let mut buf = DeviceBuffer::from_host(stats.clone(), &vec![1.0f64; 128]);
        let before = stats.snapshot();
        for _ in 0..10 {
            dev.launch_map("inc", &mut buf, |_, x| *x += 1.0);
            let _ = dev.launch_map_segments_max("norm", &mut buf, 128, &[true], |_, _, x| [*x]);
        }
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.total_transfers(), 0, "kernels must not transfer");
        assert_eq!(delta.kernels["inc"].launches, 10);
    }
}
