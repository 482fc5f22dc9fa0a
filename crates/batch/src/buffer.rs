//! Device-resident buffers with explicit, counted host↔device transfers.

use crate::stats::DeviceStats;
use std::sync::Arc;

/// An array that lives in "device memory". Creating one from host data or
/// copying it back are the only operations that count as transfers; kernels
/// access the contents in place for free — exactly the cost model the paper's
/// "entirely on GPUs, without any data transfer" design targets.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    stats: Arc<DeviceStats>,
}

impl<T: Clone> DeviceBuffer<T> {
    /// Allocate a device buffer by copying host data (counts one
    /// host-to-device transfer).
    pub fn from_host(stats: Arc<DeviceStats>, host: &[T]) -> Self {
        stats.record_h2d(std::mem::size_of_val(host));
        DeviceBuffer {
            data: host.to_vec(),
            stats,
        }
    }

    /// Copy the contents back to the host (counts one device-to-host
    /// transfer).
    pub fn to_host(&self) -> Vec<T> {
        self.stats
            .record_d2h(self.data.len() * std::mem::size_of::<T>());
        self.data.clone()
    }

    /// Copy host data into the sub-range starting at `offset` (counts one
    /// transfer of the range's bytes). The streaming scheduler uses this to
    /// re-seed one scenario slot without re-uploading the whole batch.
    pub fn upload_range(&mut self, offset: usize, host: &[T]) {
        assert!(
            offset + host.len() <= self.data.len(),
            "upload_range [{}, {}) out of bounds for buffer of length {}",
            offset,
            offset + host.len(),
            self.data.len()
        );
        self.stats.record_h2d(std::mem::size_of_val(host));
        self.data[offset..offset + host.len()].clone_from_slice(host);
    }

    /// Copy the sub-range `[offset, offset + len)` back to the host (counts
    /// one transfer of the range's bytes). The streaming scheduler uses this
    /// to extract one finished scenario without draining the whole batch.
    pub fn to_host_range(&self, offset: usize, len: usize) -> Vec<T> {
        assert!(
            offset + len <= self.data.len(),
            "to_host_range [{}, {}) out of bounds for buffer of length {}",
            offset,
            offset + len,
            self.data.len()
        );
        self.stats.record_d2h(len * std::mem::size_of::<T>());
        self.data[offset..offset + len].to_vec()
    }
}

impl<T> DeviceBuffer<T> {
    /// Copy one field, `field`, of each element of the sub-range
    /// `[offset, offset + len)` back to the host (counts one transfer of the
    /// fields' bytes: a strided copy, like `cudaMemcpy2D` with the element
    /// as its pitch). The scheduler reads a finished scenario's multipliers
    /// out of its consensus states this way.
    pub fn to_host_range_with<U>(
        &self,
        offset: usize,
        len: usize,
        field: impl Fn(&T) -> U,
    ) -> Vec<U> {
        assert!(
            offset + len <= self.data.len(),
            "to_host_range_with [{}, {}) out of bounds for buffer of length {}",
            offset,
            offset + len,
            self.data.len()
        );
        self.stats.record_d2h(len * std::mem::size_of::<U>());
        self.data[offset..offset + len].iter().map(field).collect()
    }
}

impl<T: Default + Clone> DeviceBuffer<T> {
    /// Allocate a zero-initialized buffer directly on the device (no
    /// transfer: `cudaMalloc` + in-kernel initialization).
    pub fn zeroed(stats: Arc<DeviceStats>, len: usize) -> Self {
        DeviceBuffer {
            data: vec![T::default(); len],
            stats,
        }
    }
}

impl<T> DeviceBuffer<T> {
    /// Length of the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device-side view (free; used by kernel launches).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable device-side view (free; used by kernel launches).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_host_counts_one_h2d() {
        let stats = Arc::new(DeviceStats::default());
        let buf = DeviceBuffer::from_host(stats.clone(), &[1.0f64, 2.0, 3.0]);
        assert_eq!(buf.len(), 3);
        let snap = stats.snapshot();
        assert_eq!(snap.host_to_device_transfers, 1);
        assert_eq!(snap.host_to_device_bytes, 24);
        assert_eq!(snap.device_to_host_transfers, 0);
    }

    #[test]
    fn to_host_counts_one_d2h() {
        let stats = Arc::new(DeviceStats::default());
        let buf = DeviceBuffer::from_host(stats.clone(), &[5u32; 10]);
        let back = buf.to_host();
        assert_eq!(back, vec![5u32; 10]);
        let snap = stats.snapshot();
        assert_eq!(snap.device_to_host_transfers, 1);
        assert_eq!(snap.device_to_host_bytes, 40);
    }

    #[test]
    fn field_reads_count_the_field_bytes() {
        let stats = Arc::new(DeviceStats::default());
        let buf = DeviceBuffer::from_host(stats.clone(), &[(1u8, 2.0f64), (3, 4.0), (5, 6.0)]);
        assert_eq!(buf.to_host_range_with(1, 2, |e| e.1), vec![4.0, 6.0]);
        let snap = stats.snapshot();
        assert_eq!(snap.device_to_host_transfers, 1);
        assert_eq!(snap.device_to_host_bytes, 16);
    }

    #[test]
    fn zeroed_allocation_is_transfer_free() {
        let stats = Arc::new(DeviceStats::default());
        let buf: DeviceBuffer<f64> = DeviceBuffer::zeroed(stats.clone(), 100);
        assert_eq!(buf.len(), 100);
        assert!(buf.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(stats.snapshot().total_transfers(), 0);
    }

    #[test]
    fn device_side_mutation_is_free() {
        let stats = Arc::new(DeviceStats::default());
        let mut buf = DeviceBuffer::from_host(stats.clone(), &[0.0f64; 4]);
        let before = stats.snapshot();
        for x in buf.as_mut_slice() {
            *x += 1.0;
        }
        let after = stats.snapshot();
        assert_eq!(after.since(&before).total_transfers(), 0);
        assert!(buf.as_slice().iter().all(|&x| x == 1.0));
    }
}
