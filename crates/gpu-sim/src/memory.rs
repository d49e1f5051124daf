//! Simulated device global memory.
//!
//! A [`DeviceBuffer`] is a typed allocation in one GPU's global memory. The
//! allocation is tracked against the device's capacity (so oversubscription
//! fails like a real `cudaMalloc` would — the paper's Case 2 motivation is
//! precisely problems that do not fit in a single GPU's memory), and the
//! backing storage is host RAM, which lets tests inspect results directly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{SimError, SimResult};

/// Marker trait for element types that can live in simulated device memory.
///
/// Blanket-implemented for every `Copy + Send + Sync + Default + Debug`
/// type: the integer and float primitives, and the struct pair elements
/// the operator-generic pipeline scans (segmented head-flag pairs, the
/// gated recurrence's affine pairs) — any plain-old-data type a CUDA
/// kernel could hold in registers.
pub trait DeviceCopy: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {}
impl<T: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static> DeviceCopy for T {}

/// Shared capacity tracker for one device's global memory.
///
/// Buffers hold a clone; dropping a buffer returns its bytes to the pool.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    used: Arc<AtomicUsize>,
    capacity: usize,
}

impl MemoryTracker {
    /// Create a tracker for a device with `capacity` bytes of global memory.
    pub fn new(capacity: usize) -> Self {
        MemoryTracker { used: Arc::new(AtomicUsize::new(0)), capacity }
    }

    /// Bytes currently allocated on the device.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity - self.used().min(self.capacity)
    }

    fn reserve(&self, bytes: usize) -> SimResult<()> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            if cur + bytes > self.capacity {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    in_use: cur,
                    capacity: self.capacity,
                });
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(observed) => cur = observed,
            }
        }
    }

    fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A typed allocation in simulated device global memory.
///
/// Created through [`crate::gpu::Gpu::alloc`] (zero-initialised),
/// [`crate::gpu::Gpu::alloc_from`] (host-to-device copy) or
/// [`crate::gpu::Gpu::adopt`] (an owned host vector, moved in). Kernel code
/// reads and writes it through the [`crate::block::BlockCtx`] accessors,
/// which charge memory-transaction counters; host code uses
/// [`DeviceBuffer::host_view`], [`DeviceBuffer::copy_to_host`] and
/// [`DeviceBuffer::into_host`] freely.
#[derive(Debug)]
pub struct DeviceBuffer<T: DeviceCopy> {
    data: Vec<T>,
    gpu_id: usize,
    tracker: MemoryTracker,
}

impl<T: DeviceCopy> DeviceBuffer<T> {
    pub(crate) fn new(gpu_id: usize, tracker: MemoryTracker, data: Vec<T>) -> SimResult<Self> {
        tracker.reserve(std::mem::size_of::<T>() * data.len())?;
        Ok(DeviceBuffer { data, gpu_id, tracker })
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the allocation in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.data.len()
    }

    /// Identifier of the GPU owning this allocation.
    pub fn gpu_id(&self) -> usize {
        self.gpu_id
    }

    /// Read-only host-side view of the device data (a "host mapping" used by
    /// tests and by simulated DMA transfers).
    pub fn host_view(&self) -> &[T] {
        &self.data
    }

    /// Mutable host-side view, used to stage input data ("host-to-device
    /// copy") and by simulated DMA transfers.
    pub fn host_view_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copy the buffer's contents to a fresh host vector.
    pub fn copy_to_host(&self) -> Vec<T> {
        self.data.clone()
    }

    /// Free the allocation and hand its contents to the host without a
    /// copy: the device-to-host transfer of a buffer nothing reads again.
    /// The bytes go back to the tracker here, once; the buffer then drops
    /// empty, so [`Drop`] releases nothing more.
    pub fn into_host(mut self) -> Vec<T> {
        self.tracker.release(self.size_bytes());
        std::mem::take(&mut self.data)
    }

    /// Overwrite the buffer from a host slice.
    ///
    /// # Panics
    /// Panics if `src.len() != self.len()`, like a mis-sized `cudaMemcpy`.
    pub fn copy_from_host(&mut self, src: &[T]) {
        assert_eq!(
            src.len(),
            self.data.len(),
            "host-to-device copy size mismatch: {} vs {}",
            src.len(),
            self.data.len()
        );
        self.data.copy_from_slice(src);
    }

    /// Fill the whole buffer with one value.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }
}

impl<T: DeviceCopy> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.tracker.release(self.size_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accounts_allocations_and_drops() {
        let tracker = MemoryTracker::new(1024);
        assert_eq!(tracker.available(), 1024);
        let buf = DeviceBuffer::<i32>::new(0, tracker.clone(), vec![0; 100]).unwrap();
        assert_eq!(tracker.used(), 400);
        assert_eq!(buf.size_bytes(), 400);
        drop(buf);
        assert_eq!(tracker.used(), 0);
    }

    #[test]
    fn allocation_beyond_capacity_fails() {
        let tracker = MemoryTracker::new(100);
        let err = DeviceBuffer::<i32>::new(0, tracker.clone(), vec![0; 100]).unwrap_err();
        match err {
            SimError::OutOfMemory { requested, capacity, .. } => {
                assert_eq!(requested, 400);
                assert_eq!(capacity, 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn second_allocation_respects_remaining_space() {
        let tracker = MemoryTracker::new(1000);
        let _a = DeviceBuffer::<u8>::new(0, tracker.clone(), vec![0; 600]).unwrap();
        assert!(DeviceBuffer::<u8>::new(0, tracker.clone(), vec![0; 600]).is_err());
        let _b = DeviceBuffer::<u8>::new(0, tracker.clone(), vec![0; 400]).unwrap();
        assert_eq!(tracker.available(), 0);
    }

    #[test]
    fn host_copies_round_trip() {
        let tracker = MemoryTracker::new(1 << 20);
        let mut buf = DeviceBuffer::<i32>::new(3, tracker, vec![0; 4]).unwrap();
        buf.copy_from_host(&[1, 2, 3, 4]);
        assert_eq!(buf.copy_to_host(), vec![1, 2, 3, 4]);
        assert_eq!(buf.gpu_id(), 3);
        buf.fill(7);
        assert_eq!(buf.host_view(), &[7, 7, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_host_copy_panics() {
        let tracker = MemoryTracker::new(1 << 20);
        let mut buf = DeviceBuffer::<i32>::new(0, tracker, vec![0; 4]).unwrap();
        buf.copy_from_host(&[1, 2, 3]);
    }
}
