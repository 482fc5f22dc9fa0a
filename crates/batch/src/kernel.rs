//! Kernel launch APIs.
//!
//! A *kernel* is a named unit of device work. Two launch geometries cover
//! everything the solvers need:
//!
//! * [`Device::launch_map`] — one thread per element; used for the
//!   closed-form generator / bus / z / multiplier updates, which the paper
//!   implements by launching as many threads as there are elements.
//! * [`Device::launch_blocks`] — one thread block per element of a state
//!   array; used for the batch TRON branch solves, where each block owns one
//!   branch subproblem.
//!
//! Both have a segmented, masked form ([`Device::launch_map_segments`],
//! [`Device::launch_blocks_segments`]) spanning many scenarios in one launch;
//! the ADMM fleet launches only those. The per-segment reduction
//! ([`Device::reduce_max_segments`]) covers the residual-norm computations
//! that decide convergence without copying data back to the host.
//!
//! Every method here is backend-agnostic: the iteration scheme lives behind
//! the [`LaunchBackend`] trait the device resolved at
//! construction, and this layer only owns the buffer bookkeeping — length
//! assertions and live-element accounting for masked launches.

use crate::backend::LaunchBackend;
use crate::buffer::DeviceBuffer;
use crate::device::Device;
use std::time::Instant;

impl Device {
    /// Launch a kernel with one thread per element of `buf`. The closure
    /// receives the element index and a mutable reference to the element;
    /// read-only data can be captured by the closure.
    pub fn launch_map<T, F>(&self, name: &str, buf: &mut DeviceBuffer<T>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.launch_impl(name, buf, usize::MAX, f);
    }

    /// Shared body of the whole-buffer launches; `min_len` is the parallel
    /// scheduling granularity (`usize::MAX` keeps the default cheap-kernel
    /// threshold, `1` fans out block-per-subproblem work).
    fn launch_impl<T, F>(&self, name: &str, buf: &mut DeviceBuffer<T>, min_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let start = Instant::now();
        let n = buf.len() as u64;
        self.exec.launch(buf.as_mut_slice(), min_len, f);
        self.exec.bill(&self.stats, name, n, start);
    }

    /// Launch a kernel with one thread block per element of `states`, under
    /// the mental model "one block per subproblem" (the paper's ExaTron
    /// launch geometry). Unlike [`Self::launch_map`], the closure is expected
    /// to do substantial per-element work, so scheduling backends fan out at
    /// single-element granularity: even a handful of blocks spreads across
    /// the worker pool instead of falling below the cheap-kernel sequential
    /// threshold.
    pub fn launch_blocks<T, F>(&self, name: &str, states: &mut DeviceBuffer<T>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.launch_impl(name, states, 1, f);
    }

    /// Launch a kernel over a scenario-major buffer holding `active.len()`
    /// equally-sized segments of `seg_len` elements each, skipping the
    /// segments whose mask entry is `false`. This is the batched-driver
    /// analogue of [`Self::launch_map`]: one launch spans `K × n` elements,
    /// and converged scenarios stop consuming kernel work (the recorded block
    /// count only counts elements of active segments). The closure receives
    /// the *global* element index.
    pub fn launch_map_segments<T, F>(
        &self,
        name: &str,
        buf: &mut DeviceBuffer<T>,
        seg_len: usize,
        active: &[bool],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.launch_segments_impl(name, buf, seg_len, active, usize::MAX, f);
    }

    /// Shared body of the segmented launches; `min_len` is the parallel
    /// scheduling granularity (`usize::MAX` keeps the default cheap-kernel
    /// threshold, `1` fans out block-per-subproblem work).
    fn launch_segments_impl<T, F>(
        &self,
        name: &str,
        buf: &mut DeviceBuffer<T>,
        seg_len: usize,
        active: &[bool],
        min_len: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        assert!(seg_len > 0, "segments must be non-empty");
        assert_eq!(
            buf.len(),
            seg_len * active.len(),
            "buffer length must equal seg_len * segments"
        );
        let start = Instant::now();
        let live_segments = active.iter().filter(|&&a| a).count();
        let live = live_segments as u64 * seg_len as u64;
        self.exec
            .launch_segments(buf.as_mut_slice(), seg_len, active, min_len, f);
        self.exec.bill(&self.stats, name, live, start);
    }

    /// One thread *block* per element of the active segments; the segmented
    /// analogue of [`Self::launch_blocks`], used for the batched TRON branch
    /// solves spanning all scenarios in one launch. Schedules at
    /// single-element granularity like [`Self::launch_blocks`].
    pub fn launch_blocks_segments<T, F>(
        &self,
        name: &str,
        states: &mut DeviceBuffer<T>,
        seg_len: usize,
        active: &[bool],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.launch_segments_impl(name, states, seg_len, active, 1, f);
    }

    /// Per-segment max-reduction over a scenario-major buffer: returns one
    /// value per segment, `f64::NAN` for segments whose mask entry is
    /// `false` (their elements are not even visited). No host transfer is
    /// recorded: the result is a handful of scalars produced on the device,
    /// mirroring a `cub::DeviceSegmentedReduce` call. Backends may evaluate
    /// scores in any order but fold each segment in index order (the
    /// determinism contract in [`crate::backend`]), so the result is bitwise
    /// identical across every conforming backend.
    pub fn reduce_max_segments<T, F>(
        &self,
        name: &str,
        buf: &DeviceBuffer<T>,
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<f64>
    where
        T: Sync,
        F: Fn(usize, &T) -> f64 + Sync,
    {
        assert!(seg_len > 0, "segments must be non-empty");
        assert_eq!(
            buf.len(),
            seg_len * active.len(),
            "buffer length must equal seg_len * segments"
        );
        let start = Instant::now();
        let result = self
            .exec
            .reduce_max_segments(buf.as_slice(), seg_len, active, f);
        let live = active.iter().filter(|&&a| a).count() as u64 * seg_len as u64;
        self.exec.bill(&self.stats, name, live, start);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
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
            dev.launch_map_segments("seg_inc", &mut buf, 2000, &active, |i, x| {
                *x = i as f64 + 1.0;
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
    fn segmented_reduce_matches_whole_segment_reduce() {
        let host: Vec<f64> = (0..3 * 1500)
            .map(|i| ((i * 31) % 97) as f64 - 48.0)
            .collect();
        for dev in devices() {
            let buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &host);
            let maxes =
                dev.reduce_max_segments("seg_max", &buf, 1500, &[true, false, true], |_, x| {
                    x.abs()
                });
            assert_eq!(maxes.len(), 3);
            assert!(maxes[1].is_nan(), "inactive segment must be NaN");
            for s in [0usize, 2] {
                let expect = host[s * 1500..(s + 1) * 1500]
                    .iter()
                    .map(|x| x.abs())
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(maxes[s].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn segmented_ops_agree_across_backends_bitwise() {
        let host: Vec<f64> = (0..4 * 1024).map(|i| (i as f64 * 0.11).sin()).collect();
        let active = [true, true, false, true];
        let seq = Device::sequential();
        let mut buf_seq = DeviceBuffer::from_host(Arc::clone(seq.stats()), &host);
        let kernel = |_: usize, x: &mut f64| *x = x.cos() * 1.7 - 0.3;
        seq.launch_map_segments("k", &mut buf_seq, 1024, &active, kernel);
        let ms = seq.reduce_max_segments("m", &buf_seq, 1024, &active, |_, x| *x);
        for dev in [Device::parallel(), Device::vectorized()] {
            let mut buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &host);
            dev.launch_map_segments("k", &mut buf, 1024, &active, kernel);
            assert_eq!(buf.as_slice(), buf_seq.as_slice());
            let m = dev.reduce_max_segments("m", &buf, 1024, &active, |_, x| *x);
            for (a, b) in m.iter().zip(&ms) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "seg_len * segments")]
    fn segmented_launch_length_mismatch_panics() {
        let dev = Device::sequential();
        let mut buf = DeviceBuffer::from_host(Arc::clone(dev.stats()), &[1.0f64; 10]);
        dev.launch_map_segments("bad", &mut buf, 4, &[true, true], |_, _| {});
    }

    #[test]
    fn no_transfers_recorded_during_kernels() {
        let dev = Device::new(DeviceConfig::default());
        let stats = Arc::clone(dev.stats());
        let mut buf = DeviceBuffer::from_host(stats.clone(), &vec![1.0f64; 128]);
        let before = stats.snapshot();
        for _ in 0..10 {
            dev.launch_map("inc", &mut buf, |_, x| *x += 1.0);
            let _ = dev.reduce_max_segments("norm", &buf, 128, &[true], |_, x| *x);
        }
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.total_transfers(), 0, "kernels must not transfer");
        assert_eq!(delta.kernels["inc"].launches, 10);
    }
}
