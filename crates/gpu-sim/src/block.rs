//! Per-block kernel execution context.
//!
//! A kernel body in this simulator is a Rust closure invoked once per thread
//! block, receiving a [`BlockCtx`]. The context exposes the facilities a
//! CUDA block has — block/grid coordinates, shared memory, `__syncthreads`,
//! warp shuffles, and coalesced global-memory accessors — and charges the
//! launch's [`CostCounters`] as they are used, so the timing model can
//! convert the execution into simulated time.
//!
//! Warp-cooperative style: per-lane register state is held in
//! [`LaneArray`]s (`[T; 32]`) and warp-wide operations are single calls, so
//! kernels read like the warp-synchronous CUDA code the paper describes.

use crate::counters::CostCounters;
use crate::vecload::{transactions, AccessWidth};
use crate::warp::{self, LaneArray, WARP_SIZE};

/// Execution context handed to the kernel closure for each thread block.
pub struct BlockCtx<'a, T: crate::memory::DeviceCopy> {
    /// Block coordinates `(bx, by)` within the grid. In the paper's
    /// convention `bx` indexes blocks within one problem and `by` indexes
    /// problems (§2.1).
    pub block_idx: (usize, usize),
    /// Grid dimensions `(Bx, By)`.
    pub grid_dim: (usize, usize),
    /// Block dimensions `(Lx, Ly)` in threads.
    pub block_dim: (usize, usize),
    /// Vectorized access width used for global memory (int4 by default).
    pub width: AccessWidth,
    shared: &'a mut [T],
    counters: &'a mut CostCounters,
}

impl<'a, T: crate::memory::DeviceCopy> BlockCtx<'a, T> {
    pub(crate) fn new(
        block_idx: (usize, usize),
        grid_dim: (usize, usize),
        block_dim: (usize, usize),
        width: AccessWidth,
        shared: &'a mut [T],
        counters: &'a mut CostCounters,
    ) -> Self {
        BlockCtx { block_idx, grid_dim, block_dim, width, shared, counters }
    }

    /// Linearised block index (`by * Bx + bx`).
    pub fn flat_block_idx(&self) -> usize {
        self.block_idx.1 * self.grid_dim.0 + self.block_idx.0
    }

    /// Threads per block (`Lx * Ly`).
    pub fn threads(&self) -> usize {
        self.block_dim.0 * self.block_dim.1
    }

    /// Warps per block (threads rounded up to warp granularity).
    pub fn warps(&self) -> usize {
        self.threads().div_ceil(WARP_SIZE)
    }

    /// Number of shared-memory elements available to this block.
    pub fn shared_len(&self) -> usize {
        self.shared.len()
    }

    // ---- synchronisation -------------------------------------------------

    /// `__syncthreads()`: block-wide barrier. Purely a cost event here —
    /// blocks execute their warps to completion in order, so the functional
    /// semantics are already sequentially consistent.
    pub fn sync_threads(&mut self) {
        self.counters.syncs += 1;
    }

    // ---- warp shuffles ---------------------------------------------------

    /// Warp-wide `__shfl_up_sync`; charges one shuffle instruction.
    pub fn shfl_up(&mut self, vals: &LaneArray<T>, delta: usize) -> LaneArray<T> {
        self.counters.shuffles += 1;
        warp::shfl_up(vals, delta)
    }

    /// Warp-wide `__shfl_down_sync`; charges one shuffle instruction.
    pub fn shfl_down(&mut self, vals: &LaneArray<T>, delta: usize) -> LaneArray<T> {
        self.counters.shuffles += 1;
        warp::shfl_down(vals, delta)
    }

    /// Warp-wide `__shfl_xor_sync`; charges one shuffle instruction.
    pub fn shfl_xor(&mut self, vals: &LaneArray<T>, mask: usize) -> LaneArray<T> {
        self.counters.shuffles += 1;
        warp::shfl_xor(vals, mask)
    }

    /// Warp-wide `__shfl_sync` broadcast; charges one shuffle instruction.
    pub fn shfl_idx(&mut self, vals: &LaneArray<T>, src_lane: usize) -> LaneArray<T> {
        self.counters.shuffles += 1;
        warp::shfl_idx(vals, src_lane)
    }

    /// Warp-wide `__shfl_sync` with per-lane source indices (the general
    /// CUDA form); charges one shuffle instruction.
    pub fn shfl_gather(&mut self, vals: &LaneArray<T>, srcs: &LaneArray<usize>) -> LaneArray<T> {
        self.counters.shuffles += 1;
        warp::shfl_gather(vals, srcs)
    }

    // ---- shared memory ---------------------------------------------------

    /// Single-thread shared-memory store (e.g. lane 31 publishing a warp
    /// sum). Charges one shared-memory operation.
    pub fn sh_write(&mut self, idx: usize, value: T) {
        self.counters.shared_stores += 1;
        self.shared[idx] = value;
    }

    /// Single-thread shared-memory load. Charges one shared-memory
    /// operation.
    pub fn sh_read(&mut self, idx: usize) -> T {
        self.counters.shared_loads += 1;
        self.shared[idx]
    }

    /// Warp-coalesced shared-memory store of a full lane array starting at
    /// `base`. Charges one shared-memory operation (conflict-free access).
    pub fn sh_write_warp(&mut self, base: usize, vals: &LaneArray<T>) {
        self.counters.shared_stores += 1;
        self.shared[base..base + WARP_SIZE].copy_from_slice(vals);
    }

    /// Warp-coalesced shared-memory load of a full lane array starting at
    /// `base`. Charges one shared-memory operation.
    pub fn sh_read_warp(&mut self, base: usize) -> LaneArray<T> {
        self.counters.shared_loads += 1;
        let mut out: LaneArray<T> = [T::default(); WARP_SIZE];
        out.copy_from_slice(&self.shared[base..base + WARP_SIZE]);
        out
    }

    // ---- global memory ---------------------------------------------------

    /// Warp-coalesced global-memory read: copies `out.len()` consecutive
    /// elements from `src[base..]` into `out`.
    ///
    /// Charges load transactions for the byte footprint and load
    /// instructions according to the configured [`AccessWidth`].
    ///
    /// # Panics
    /// Panics ("illegal address") if the range exceeds `src`.
    pub fn read_global(&mut self, src: &[T], base: usize, out: &mut [T]) {
        assert!(
            base + out.len() <= src.len(),
            "illegal address: global read [{}, {}) beyond buffer of {} elements",
            base,
            base + out.len(),
            src.len()
        );
        out.copy_from_slice(&src[base..base + out.len()]);
        self.charge_global_read(out.len());
    }

    /// Warp-coalesced global-memory write of `vals` to `dst[base..]`.
    ///
    /// # Panics
    /// Panics ("illegal address") if the range exceeds `dst`.
    pub fn write_global(&mut self, dst: &mut [T], base: usize, vals: &[T]) {
        assert!(
            base + vals.len() <= dst.len(),
            "illegal address: global write [{}, {}) beyond buffer of {} elements",
            base,
            base + vals.len(),
            dst.len()
        );
        dst[base..base + vals.len()].copy_from_slice(vals);
        self.charge_global_write(vals.len());
    }

    /// Single-element global read (uncoalesced; one full transaction), used
    /// for spine/look-back style accesses.
    pub fn read_global_one(&mut self, src: &[T], idx: usize) -> T {
        assert!(idx < src.len(), "illegal address: global read at {idx} of {}", src.len());
        self.counters.gld_instructions += 1;
        self.counters.gld_transactions += 1;
        src[idx]
    }

    /// Single-element global write (uncoalesced; one full transaction).
    pub fn write_global_one(&mut self, dst: &mut [T], idx: usize, value: T) {
        assert!(idx < dst.len(), "illegal address: global write at {idx} of {}", dst.len());
        self.counters.gst_instructions += 1;
        self.counters.gst_transactions += 1;
        dst[idx] = value;
    }

    /// Charge the cost of a coalesced read of `elems` elements without
    /// moving data (for modelling redundant passes a baseline performs).
    pub fn charge_global_read(&mut self, elems: usize) {
        self.counters.gld_transactions += transactions(elems, std::mem::size_of::<T>());
        self.counters.gld_instructions +=
            self.width.instructions_for(elems.div_ceil(WARP_SIZE)) * warps_touched(elems);
    }

    /// Charge the cost of a coalesced write of `elems` elements without
    /// moving data.
    pub fn charge_global_write(&mut self, elems: usize) {
        self.counters.gst_transactions += transactions(elems, std::mem::size_of::<T>());
        self.counters.gst_instructions +=
            self.width.instructions_for(elems.div_ceil(WARP_SIZE)) * warps_touched(elems);
    }

    // ---- arithmetic ------------------------------------------------------

    /// Charge `n` warp-level arithmetic instructions (scan-operator
    /// applications, index math the model should account for).
    pub fn alu(&mut self, n: u64) {
        self.counters.alu_ops += n;
    }

    /// Charge `n` shuffle instructions without moving data (for kernels
    /// whose lane exchange is computed functionally at a coarser grain).
    pub fn charge_shuffles(&mut self, n: u64) {
        self.counters.shuffles += n;
    }

    /// Charge shared-memory traffic without moving data (for kernels whose
    /// staging is computed functionally at a coarser grain — e.g. the
    /// pre-shuffle baseline libraries' shared-memory scans).
    pub fn charge_shared(&mut self, loads: u64, stores: u64) {
        self.counters.shared_loads += loads;
        self.counters.shared_stores += stores;
    }

    /// Read-only view of the counters accumulated so far in this launch.
    pub fn counters(&self) -> &CostCounters {
        self.counters
    }
}

fn warps_touched(elems: usize) -> u64 {
    elems.div_ceil(WARP_SIZE).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (Vec<i32>, CostCounters) {
        (vec![0i32; 64], CostCounters::new())
    }

    fn with_ctx<R>(f: impl FnOnce(&mut BlockCtx<'_, i32>) -> R) -> (R, CostCounters) {
        let (mut shared, mut counters) = ctx_parts();
        let mut ctx =
            BlockCtx::new((2, 1), (4, 2), (128, 1), AccessWidth::Vec4, &mut shared, &mut counters);
        let r = f(&mut ctx);
        (r, counters)
    }

    #[test]
    fn indices_and_dims() {
        let ((), _) = with_ctx(|ctx| {
            assert_eq!(ctx.flat_block_idx(), 4 + 2);
            assert_eq!(ctx.threads(), 128);
            assert_eq!(ctx.warps(), 4);
            assert_eq!(ctx.shared_len(), 64);
        });
    }

    #[test]
    fn global_read_charges_transactions_and_instructions() {
        let src: Vec<i32> = (0..256).collect();
        let (out, c) = with_ctx(|ctx| {
            let mut out = vec![0i32; 128];
            ctx.read_global(&src, 64, &mut out);
            out
        });
        assert_eq!(out[0], 64);
        assert_eq!(out[127], 191);
        // 128 i32 = 512 bytes = 4 transactions.
        assert_eq!(c.gld_transactions, 4);
        // 4 warps x 1 elem/lane with vec4 width -> 4 instructions (1/warp).
        assert_eq!(c.gld_instructions, 4);
    }

    #[test]
    fn global_write_charges_store_side() {
        let (dst, c) = with_ctx(|ctx| {
            let mut dst = vec![0i32; 64];
            ctx.write_global(&mut dst, 0, &[7i32; 32]);
            dst
        });
        assert_eq!(&dst[..32], &[7; 32]);
        assert_eq!(&dst[32..], &[0; 32]);
        assert_eq!(c.gst_transactions, 1);
        assert_eq!(c.gld_transactions, 0);
    }

    #[test]
    #[should_panic(expected = "illegal address")]
    fn out_of_bounds_read_panics() {
        let src = vec![0i32; 16];
        with_ctx(|ctx| {
            let mut out = vec![0i32; 32];
            ctx.read_global(&src, 0, &mut out);
        });
    }

    #[test]
    #[should_panic(expected = "illegal address")]
    fn out_of_bounds_single_write_panics() {
        with_ctx(|ctx| {
            let mut dst = vec![0i32; 4];
            ctx.write_global_one(&mut dst, 4, 1);
        });
    }

    #[test]
    fn single_element_access_is_one_transaction() {
        let src = vec![5i32; 8];
        let (v, c) = with_ctx(|ctx| ctx.read_global_one(&src, 3));
        assert_eq!(v, 5);
        assert_eq!(c.gld_transactions, 1);
        assert_eq!(c.gld_instructions, 1);
    }

    #[test]
    fn shared_memory_ops_charge_counters() {
        let ((), c) = with_ctx(|ctx| {
            ctx.sh_write(3, 42);
            assert_eq!(ctx.sh_read(3), 42);
            let lane: LaneArray<i32> = std::array::from_fn(|i| i as i32);
            ctx.sh_write_warp(32, &lane);
            let back = ctx.sh_read_warp(32);
            assert_eq!(back[31], 31);
        });
        assert_eq!(c.shared_stores, 2);
        assert_eq!(c.shared_loads, 2);
    }

    #[test]
    fn shuffles_and_sync_charge_counters() {
        let ((), c) = with_ctx(|ctx| {
            let lane: LaneArray<i32> = std::array::from_fn(|i| i as i32);
            let up = ctx.shfl_up(&lane, 1);
            assert_eq!(up[1], 0);
            let _ = ctx.shfl_down(&lane, 1);
            let _ = ctx.shfl_xor(&lane, 4);
            let _ = ctx.shfl_idx(&lane, 0);
            ctx.sync_threads();
            ctx.alu(10);
        });
        assert_eq!(c.shuffles, 4);
        assert_eq!(c.syncs, 1);
        assert_eq!(c.alu_ops, 10);
    }

    #[test]
    fn scalar_width_charges_more_instructions() {
        let src: Vec<i32> = (0..128).collect();
        let mut shared = vec![0i32; 4];
        let mut counters = CostCounters::new();
        let mut ctx =
            BlockCtx::new((0, 0), (1, 1), (32, 1), AccessWidth::Scalar, &mut shared, &mut counters);
        let mut out = vec![0i32; 128];
        ctx.read_global(&src, 0, &mut out);
        // 4 elems/lane scalar -> 4 instructions per warp x 4 warps touched.
        assert_eq!(counters.gld_instructions, 16);
        // Transactions identical to vec4: 512 B = 4.
        assert_eq!(counters.gld_transactions, 4);
    }
}
