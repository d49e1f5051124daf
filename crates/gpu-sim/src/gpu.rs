//! The simulated GPU: device spec + global memory + a running clock +
//! kernel launch engine.

use crate::block::BlockCtx;
use crate::counters::CostCounters;
use crate::device::DeviceSpec;
use crate::error::{SimError, SimResult};
use crate::grid::LaunchConfig;
use crate::host;
use crate::memory::{DeviceBuffer, DeviceCopy, MemoryTracker};
use crate::occupancy::{occupancy, Occupancy};
use crate::timing::{KernelTime, TimingModel};

/// Grids smaller than this stay one run in [`Gpu::launch_blocks`]: the
/// thread-spawn overhead dominates tiny launches.
const PARALLEL_BLOCK_THRESHOLD: usize = 8;

/// Statistics returned by one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Counters charged by the kernel's blocks.
    pub counters: CostCounters,
    /// Occupancy achieved by the block configuration.
    pub occupancy: Occupancy,
    /// Timing decomposition.
    pub time: KernelTime,
}

impl KernelStats {
    /// Total simulated duration of the launch.
    pub fn seconds(&self) -> f64 {
        self.time.total()
    }
}

/// One simulated GPU.
///
/// Owns a memory tracker (allocations are [`DeviceBuffer`]s that debit it),
/// a running clock and counter total of everything that consumed simulated
/// time, and the launch engine that executes kernels block by block. What
/// ran when is the execution graph's record (the `interconnect` crate);
/// the clock only sums.
///
/// Blocks within a launch execute sequentially in row-major order
/// (`by` outer, `bx` inner), which makes chained-scan algorithms (each block
/// reading its predecessor's published aggregate) deterministic. Separate
/// `Gpu`s are independent and `Send`, so a multi-GPU run can execute each
/// GPU on its own host thread.
#[derive(Debug)]
pub struct Gpu {
    id: usize,
    spec: DeviceSpec,
    tracker: MemoryTracker,
    /// Simulated seconds of every launch and [`Gpu::charge`], added in
    /// the order they happened.
    clock: f64,
    /// Field-wise sum of every launch's counters.
    counters: CostCounters,
    timing: TimingModel,
    /// Fault-injection slow-SM multiplier: every kernel launch takes
    /// `throttle` times longer (1.0 = healthy).
    throttle: f64,
    /// Fault-injection eviction flag: once set, every launch fails with
    /// [`SimError::DeviceLost`].
    evicted: bool,
}

impl Gpu {
    /// Create GPU `id` with the given device spec.
    pub fn new(id: usize, spec: DeviceSpec) -> Self {
        let tracker = MemoryTracker::new(spec.global_mem_bytes);
        Gpu {
            id,
            spec,
            tracker,
            clock: 0.0,
            counters: CostCounters::default(),
            timing: TimingModel::default(),
            throttle: 1.0,
            evicted: false,
        }
    }

    /// Create a whole node of `count` identical GPUs (ids `0..count`).
    pub fn node(count: usize, spec: &DeviceSpec) -> Vec<Gpu> {
        (0..count).map(|i| Gpu::new(i, spec.clone())).collect()
    }

    /// This GPU's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The memory tracker (used/available bytes).
    pub fn memory(&self) -> &MemoryTracker {
        &self.tracker
    }

    /// The timing model (tunable before running experiments).
    pub fn timing_mut(&mut self) -> &mut TimingModel {
        &mut self.timing
    }

    /// Total simulated time charged to this GPU: the seconds of every
    /// launch and every [`Gpu::charge`], added in the order they happened.
    /// Overlap is *not* discounted here; stream-aware makespans come from
    /// the execution-graph scheduler in the `interconnect` crate.
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    /// Field-wise sum of the counters of every launch so far.
    pub fn counters(&self) -> CostCounters {
        self.counters
    }

    /// Slow every SM by `factor` (≥ 1.0): subsequent kernel launches take
    /// `factor` times longer. The functional result of each kernel is
    /// unchanged — throttling is a timing-only fault.
    ///
    /// # Panics
    /// If `factor` is not finite or is below 1.0 (a speed-up is not a fault).
    pub fn set_sm_throttle(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 1.0, "throttle factor must be ≥ 1.0, got {factor}");
        self.throttle = factor;
    }

    /// The current slow-SM multiplier (1.0 when healthy).
    pub fn sm_throttle(&self) -> f64 {
        self.throttle
    }

    /// Evict this device: every subsequent launch fails with
    /// [`SimError::DeviceLost`], mimicking a GPU falling off the bus
    /// mid-batch. Existing allocations and the clock are preserved so the
    /// planner can still read the time already spent.
    pub fn evict(&mut self) {
        self.evicted = true;
    }

    /// Whether this device has been evicted.
    pub fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// Allocate a zero-initialised device buffer of `len` elements.
    pub fn alloc<T: DeviceCopy>(&self, len: usize) -> SimResult<DeviceBuffer<T>> {
        DeviceBuffer::new(self.id, self.tracker.clone(), vec![T::default(); len])
    }

    /// Allocate a device buffer initialised from host data
    /// (a host-to-device copy).
    pub fn alloc_from<T: DeviceCopy>(&self, data: &[T]) -> SimResult<DeviceBuffer<T>> {
        DeviceBuffer::new(self.id, self.tracker.clone(), data.to_vec())
    }

    /// Adopt an owned host vector as a device buffer, without copying it.
    /// The reservation — and the [`SimError::OutOfMemory`] past capacity —
    /// is exactly [`Gpu::alloc_from`]'s for the same data; only the host
    /// copy is gone.
    pub fn adopt<T: DeviceCopy>(&self, data: Vec<T>) -> SimResult<DeviceBuffer<T>> {
        DeviceBuffer::new(self.id, self.tracker.clone(), data)
    }

    /// Launch a kernel: run `kernel` once per block of `cfg`'s grid,
    /// validate the configuration, account costs and advance the clock.
    ///
    /// The closure receives a fresh [`BlockCtx`] per block; shared memory is
    /// zero-initialised for each block (deterministic simulation; real CUDA
    /// leaves it undefined, so kernels must not rely on this).
    pub fn launch<T, F>(&mut self, cfg: &LaunchConfig, mut kernel: F) -> SimResult<KernelStats>
    where
        T: DeviceCopy,
        F: FnMut(&mut BlockCtx<'_, T>),
    {
        if self.evicted {
            return Err(SimError::DeviceLost { gpu: self.id });
        }
        cfg.validate(&self.spec, std::mem::size_of::<T>())?;
        let occ = occupancy(&self.spec, &cfg.block_resources(std::mem::size_of::<T>()));

        let mut counters = CostCounters { launches: 1, ..Default::default() };
        let mut shared = vec![T::default(); cfg.shared_elems];

        for by in 0..cfg.grid.1 {
            for bx in 0..cfg.grid.0 {
                shared.fill(T::default());
                let mut ctx = BlockCtx::new(
                    (bx, by),
                    cfg.grid,
                    cfg.block,
                    cfg.width,
                    &mut shared,
                    &mut counters,
                );
                kernel(&mut ctx);
            }
        }

        Ok(self.finish_launch(cfg, occ, counters))
    }

    /// Launch a kernel whose blocks are *independent* — no block reads
    /// another block's output — and may therefore execute on parallel host
    /// threads.
    ///
    /// `out` is the launch's output window, split evenly into one disjoint
    /// chunk per block in row-major flat block order (block `(bx, by)` gets
    /// chunk `by·gx + bx`); the kernel receives each block's chunk as its
    /// second argument and must address it block-locally. Every block gets
    /// fresh zeroed shared memory and its own counter ledger; ledgers are
    /// merged in flat block order (field-wise `u64` sums, so the totals
    /// equal a serial run's exactly) and timing is derived from the merged
    /// counters — results, counters and simulated times are all
    /// bit-identical to running the same blocks sequentially through
    /// [`Gpu::launch`].
    ///
    /// Small grids run on the calling thread; the parallel split only pays
    /// for itself when there are enough blocks to amortise thread spawns.
    /// A larger grid is cut into one contiguous run of blocks per thread
    /// [`host::width`] allows, which is one inside a fan worker: a launch
    /// made under a wider fan (a group's GPUs, a router's shards) runs its
    /// blocks serially.
    pub fn launch_blocks<T, F>(
        &mut self,
        cfg: &LaunchConfig,
        out: &mut [T],
        kernel: F,
    ) -> SimResult<KernelStats>
    where
        T: DeviceCopy,
        F: Fn(&mut BlockCtx<'_, T>, &mut [T]) + Sync,
    {
        if self.evicted {
            return Err(SimError::DeviceLost { gpu: self.id });
        }
        cfg.validate(&self.spec, std::mem::size_of::<T>())?;
        let occ = occupancy(&self.spec, &cfg.block_resources(std::mem::size_of::<T>()));

        let blocks = cfg.grid.0 * cfg.grid.1;
        if !out.len().is_multiple_of(blocks) {
            return Err(SimError::InvalidLaunch(format!(
                "output window of {} elements does not split evenly over {blocks} blocks",
                out.len()
            )));
        }
        let chunk = out.len() / blocks;
        let grid = cfg.grid;
        // Each run reuses one shared-memory buffer across its blocks,
        // refilled to the zero-initialised state between blocks — same
        // semantics as a fresh allocation per block, without the per-block
        // allocation.
        let run_block = |b: usize, chunk_out: &mut [T], shared: &mut [T]| -> CostCounters {
            let mut counters = CostCounters::default();
            shared.fill(T::default());
            let mut ctx = BlockCtx::new(
                (b % grid.0, b / grid.0),
                grid,
                cfg.block,
                cfg.width,
                shared,
                &mut counters,
            );
            kernel(&mut ctx, chunk_out);
            counters
        };

        // Contiguous block runs, one per host thread the caller may fan out
        // to; `split_at_mut` hands each run exactly its blocks' chunks, so
        // runs share nothing.
        let runs = if chunk == 0 || blocks < PARALLEL_BLOCK_THRESHOLD {
            1
        } else {
            host::width().min(blocks)
        };
        let per = blocks.div_ceil(runs);
        let mut rest = &mut *out;
        let items: Vec<_> = (0..blocks)
            .step_by(per)
            .map(|b0| {
                let count = per.min(blocks - b0);
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(count * chunk);
                rest = tail;
                (b0..b0 + count, mine)
            })
            .collect();
        let mut counters = CostCounters { launches: 1, ..Default::default() };
        for part in host::fan_out(items, |(run, mine)| {
            let mut acc = CostCounters::default();
            let mut shared = vec![T::default(); cfg.shared_elems];
            for (j, b) in run.enumerate() {
                acc += run_block(b, &mut mine[j * chunk..(j + 1) * chunk], &mut shared);
            }
            acc
        }) {
            counters += part;
        }

        Ok(self.finish_launch(cfg, occ, counters))
    }

    /// Batched per-block simulation: run the concatenated blocks of `batch`
    /// identically-shaped members through one simulator pass instead of one
    /// pass (validation, occupancy, thread-scope, clock advance) per member.
    ///
    /// `cfg` describes a *single member's* grid `(Bx, By)`; the members'
    /// blocks concatenate along the y-dimension into a combined grid
    /// `(Bx, By·batch)`, exactly the paper's `(Bx, G)` batch convention —
    /// member `m`'s blocks are grid rows `m·By .. (m+1)·By`, and the kernel
    /// observes them through `BlockCtx::block_idx` as if the combined grid
    /// had been launched directly. This is how a coalesced serving launch
    /// simulates its members: one pass over the concatenated blocks,
    /// outputs bit-identical to simulating each member's grid alone
    /// (blocks are independent, so concatenation adds no coupling), and
    /// counters and timing bit-identical to a hand-combined
    /// [`Gpu::launch_blocks`] launch.
    pub fn launch_blocks_batch<T, F>(
        &mut self,
        cfg: &LaunchConfig,
        batch: usize,
        out: &mut [T],
        kernel: F,
    ) -> SimResult<KernelStats>
    where
        T: DeviceCopy,
        F: Fn(&mut BlockCtx<'_, T>, &mut [T]) + Sync,
    {
        if batch == 0 {
            return Err(SimError::InvalidLaunch(format!(
                "{}: batched launch of zero members",
                cfg.label
            )));
        }
        let mut combined = cfg.clone();
        combined.grid.1 = cfg.grid.1.checked_mul(batch).ok_or_else(|| {
            SimError::InvalidLaunch(format!(
                "{}: grid rows {} x batch {batch} overflows",
                cfg.label, cfg.grid.1
            ))
        })?;
        self.launch_blocks(&combined, out, kernel)
    }

    /// Price the merged counters of a finished launch, advance the clock
    /// and the counter total, and package the stats — the epilogue shared
    /// by the serial and parallel launch engines.
    fn finish_launch(
        &mut self,
        cfg: &LaunchConfig,
        occ: Occupancy,
        counters: CostCounters,
    ) -> KernelStats {
        let mut time = self.timing.kernel_time(&self.spec, cfg, &occ, &counters);
        if self.throttle != 1.0 {
            // A slow-SM fault stretches every component uniformly, so
            // `time.total()` scales by exactly the throttle factor.
            time.launch *= self.throttle;
            time.memory *= self.throttle;
            time.compute *= self.throttle;
            time.chain *= self.throttle;
        }
        self.clock += time.total();
        self.counters += counters;
        KernelStats { counters, occupancy: occ, time }
    }

    /// Charge externally-computed seconds to this GPU's clock (memory
    /// transfers and collectives are timed by the interconnect crate).
    pub fn charge(&mut self, seconds: f64) {
        self.clock += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::WARP_SIZE;

    fn gpu() -> Gpu {
        Gpu::new(0, DeviceSpec::tesla_k80())
    }

    #[test]
    fn node_creates_numbered_gpus() {
        let gpus = Gpu::node(4, &DeviceSpec::tesla_k80());
        assert_eq!(gpus.len(), 4);
        assert_eq!(gpus[3].id(), 3);
    }

    #[test]
    fn alloc_tracks_memory() {
        let g = gpu();
        let buf = g.alloc::<i32>(1024).unwrap();
        assert_eq!(buf.len(), 1024);
        assert_eq!(g.memory().used(), 4096);
        drop(buf);
        assert_eq!(g.memory().used(), 0);
    }

    #[test]
    fn alloc_from_copies_host_data() {
        let g = gpu();
        let buf = g.alloc_from(&[1i32, 2, 3]).unwrap();
        assert_eq!(buf.host_view(), &[1, 2, 3]);
        assert_eq!(buf.gpu_id(), 0);
    }

    #[test]
    fn adopting_reserves_what_a_copy_would_without_copying() {
        let data: Vec<i64> = (0..1000).collect();
        let (copied, adopted) = (gpu(), gpu());
        let copy = copied.alloc_from(&data).unwrap();
        let ptr = data.as_ptr();
        let buf = adopted.adopt(data).unwrap();
        assert_eq!(adopted.memory().used(), copied.memory().used());
        assert_eq!(adopted.memory().used(), 8000);
        assert_eq!(buf.host_view(), copy.host_view());
        assert_eq!(buf.host_view().as_ptr(), ptr, "the vector itself became device memory");
        drop(buf);
        assert_eq!(adopted.memory().used(), 0);
    }

    #[test]
    fn adopting_past_capacity_is_out_of_memory() {
        let mut spec = DeviceSpec::tesla_k80();
        spec.global_mem_bytes = 1000;
        let g = Gpu::new(0, spec);
        let _held = g.adopt(vec![0u8; 600]).unwrap();
        match g.adopt(vec![0u8; 600]).unwrap_err() {
            SimError::OutOfMemory { requested, in_use, capacity } => {
                assert_eq!((requested, in_use, capacity), (600, 600, 1000));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(g.memory().used(), 600, "a refused adoption reserves nothing");
    }

    #[test]
    fn into_host_hands_the_data_back_and_releases_it_once() {
        let g = gpu();
        let other = g.alloc::<i32>(100).unwrap();
        let prior = g.memory().used();
        let buf = g.adopt(vec![5i32, 6, 7, 8]).unwrap();
        assert_eq!(g.memory().used(), prior + 16);
        let ptr = buf.host_view().as_ptr();
        let host = buf.into_host();
        assert_eq!(host, vec![5, 6, 7, 8]);
        assert_eq!(host.as_ptr(), ptr, "moved out, not copied");
        assert_eq!(g.memory().used(), prior, "released exactly once");
        drop(other);
        assert_eq!(g.memory().used(), 0, "the consumed buffer's drop released nothing more");
    }

    /// A trivial "copy" kernel: each block copies its 128-element chunk.
    #[test]
    fn launch_runs_every_block_and_charges_its_time() {
        let mut g = gpu();
        let src: Vec<i32> = (0..1024).collect();
        let input = g.alloc_from(&src).unwrap();
        let mut output = g.alloc::<i32>(1024).unwrap();

        let cfg = LaunchConfig::new("copy", (8, 1), (128, 1)).regs(16);
        let stats = g
            .launch::<i32, _>(&cfg, |ctx| {
                let base = ctx.block_idx.0 * 128;
                let mut tmp = [0i32; 128];
                ctx.read_global(input.host_view(), base, &mut tmp);
                ctx.write_global(output.host_view_mut(), base, &tmp);
            })
            .unwrap();

        assert_eq!(output.host_view(), src.as_slice());
        assert_eq!(stats.counters.launches, 1);
        // 1024 i32 = 4 KiB each way = 32 transactions each way.
        assert_eq!(stats.counters.gld_transactions, 32);
        assert_eq!(stats.counters.gst_transactions, 32);
        assert!(stats.seconds() > 0.0);
        assert_eq!(g.elapsed().to_bits(), stats.seconds().to_bits());
        assert_eq!(g.counters(), stats.counters);
    }

    #[test]
    fn blocks_execute_in_row_major_order() {
        let mut g = gpu();
        let order = std::cell::RefCell::new(Vec::new());
        let cfg = LaunchConfig::new("order", (2, 2), (WARP_SIZE, 1)).regs(16);
        g.launch::<i32, _>(&cfg, |ctx| {
            order.borrow_mut().push(ctx.block_idx);
        })
        .unwrap();
        assert_eq!(order.into_inner(), vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn shared_memory_is_zeroed_per_block() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("smem", (3, 1), (WARP_SIZE, 1)).shared_elems(8).regs(16);
        g.launch::<i32, _>(&cfg, |ctx| {
            assert_eq!(ctx.sh_read(0), 0, "shared memory must start zeroed for each block");
            ctx.sh_write(0, 99);
        })
        .unwrap();
    }

    #[test]
    fn invalid_launch_is_rejected_without_running() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("bad", (0, 0), (128, 1));
        let ran = std::cell::Cell::new(false);
        let err = g.launch::<i32, _>(&cfg, |_| ran.set(true));
        assert!(err.is_err());
        assert!(!ran.get());
        assert_eq!(g.elapsed(), 0.0);
        assert_eq!(g.counters(), CostCounters::default());
    }

    #[test]
    fn charge_advances_the_clock() {
        let mut g = gpu();
        g.charge(0.5);
        g.charge(0.25);
        assert_eq!(g.elapsed(), 0.75);
        assert_eq!(g.counters(), CostCounters::default(), "a charge runs no kernel");
    }

    /// The clock is the left-to-right sum of every launch and charge, the
    /// counter total the field-wise sum of the launches, and a launch that
    /// fails on an evicted GPU changes neither.
    #[test]
    fn clock_and_counters_sum_launches_and_charges_in_order() {
        let mut g = gpu();
        let input = g.alloc_from(&[3i32; 512]).unwrap();
        let copy = LaunchConfig::new("copy", (4, 1), (128, 1)).regs(16);
        let noop = LaunchConfig::new("noop", (1, 1), (WARP_SIZE, 1)).regs(16);
        let read = |ctx: &mut BlockCtx<'_, i32>| {
            let mut tmp = [0i32; 128];
            ctx.read_global(input.host_view(), ctx.block_idx.0 * 128, &mut tmp);
        };
        let a = g.launch::<i32, _>(&copy, read).unwrap();
        g.charge(1.0e-6);
        let b = g.launch::<i32, _>(&noop, |_| {}).unwrap();
        g.charge(3.0e-7);
        let mut out = vec![0i32; 512];
        let c = g.launch_blocks::<i32, _>(&copy, &mut out, |ctx, _| read(ctx)).unwrap();

        let sum = 0.0 + a.seconds() + 1.0e-6 + b.seconds() + 3.0e-7 + c.seconds();
        assert_eq!(g.elapsed().to_bits(), sum.to_bits());
        assert_eq!(g.counters(), a.counters + b.counters + c.counters);
        assert_eq!(g.counters().launches, 3);

        let (clock, counters) = (g.elapsed(), g.counters());
        g.evict();
        assert!(g.launch::<i32, _>(&copy, read).is_err());
        assert!(g.launch_blocks::<i32, _>(&copy, &mut out, |ctx, _| read(ctx)).is_err());
        assert_eq!(g.elapsed().to_bits(), clock.to_bits());
        assert_eq!(g.counters(), counters);
    }

    #[test]
    fn throttle_scales_kernel_time_exactly() {
        let cfg = LaunchConfig::new("k", (8, 1), (128, 1)).regs(16);
        let mut healthy = gpu();
        let t0 = healthy.launch::<i32, _>(&cfg, |_| {}).unwrap().seconds();
        let mut slow = gpu();
        slow.set_sm_throttle(3.0);
        let t1 = slow.launch::<i32, _>(&cfg, |_| {}).unwrap().seconds();
        assert!((t1 / t0 - 3.0).abs() < 1e-12, "t1/t0 = {}", t1 / t0);
        assert_eq!(slow.sm_throttle(), 3.0);
    }

    #[test]
    fn throttle_does_not_change_kernel_results() {
        let src: Vec<i32> = (0..256).collect();
        let run = |throttle: f64| {
            let mut g = gpu();
            if throttle > 1.0 {
                g.set_sm_throttle(throttle);
            }
            let input = g.alloc_from(&src).unwrap();
            let mut output = g.alloc::<i32>(256).unwrap();
            let cfg = LaunchConfig::new("copy", (2, 1), (128, 1)).regs(16);
            g.launch::<i32, _>(&cfg, |ctx| {
                let base = ctx.block_idx.0 * 128;
                let mut tmp = [0i32; 128];
                ctx.read_global(input.host_view(), base, &mut tmp);
                ctx.write_global(output.host_view_mut(), base, &tmp);
            })
            .unwrap();
            output.host_view().to_vec()
        };
        assert_eq!(run(1.0), run(7.5));
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1.0")]
    fn speedup_throttle_is_rejected() {
        gpu().set_sm_throttle(0.5);
    }

    #[test]
    fn evicted_gpu_rejects_launches_but_keeps_its_clock() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("k", (1, 1), (WARP_SIZE, 1)).regs(16);
        g.launch::<i32, _>(&cfg, |_| {}).unwrap();
        let before = g.elapsed();
        assert!(!g.is_evicted());
        g.evict();
        assert!(g.is_evicted());
        let err = g.launch::<i32, _>(&cfg, |_| {}).unwrap_err();
        assert_eq!(err, crate::SimError::DeviceLost { gpu: 0 });
        assert!(err.to_string().contains("GPU 0"));
        assert_eq!(g.elapsed(), before, "a failed launch must not consume time");
    }

    /// The parallel block engine matches a serial `launch` run of the
    /// same kernel bit for bit: outputs, counters, and simulated time.
    #[test]
    fn launch_blocks_matches_serial_launch() {
        let src: Vec<i32> = (0..4096).collect();
        let blocks = 32usize;
        let chunk = src.len() / blocks;

        // Serial engine: blocks write disjoint windows of one output.
        let mut serial_gpu = gpu();
        let input = serial_gpu.alloc_from(&src).unwrap();
        let mut serial_out = serial_gpu.alloc::<i32>(src.len()).unwrap();
        let cfg = LaunchConfig::new("copy", (blocks, 1), (128, 1)).regs(16);
        let serial_stats = serial_gpu
            .launch::<i32, _>(&cfg, |ctx| {
                let base = ctx.block_idx.0 * chunk;
                let mut tmp = vec![0i32; chunk];
                ctx.read_global(input.host_view(), base, &mut tmp);
                for v in &mut tmp {
                    *v += 1;
                }
                ctx.write_global(serial_out.host_view_mut(), base, &tmp);
            })
            .unwrap();

        // Parallel engine: same kernel addressed block-locally.
        let mut par_gpu = gpu();
        let input = par_gpu.alloc_from(&src).unwrap();
        let mut par_out = vec![0i32; src.len()];
        let par_stats = par_gpu
            .launch_blocks::<i32, _>(&cfg, &mut par_out, |ctx, out| {
                let base = ctx.block_idx.0 * chunk;
                let mut tmp = vec![0i32; chunk];
                ctx.read_global(input.host_view(), base, &mut tmp);
                for v in &mut tmp {
                    *v += 1;
                }
                ctx.write_global(out, 0, &tmp);
            })
            .unwrap();

        assert_eq!(par_out, serial_out.host_view());
        assert_eq!(par_stats.counters, serial_stats.counters);
        assert_eq!(par_stats.counters.launches, 1);
        assert_eq!(par_stats.seconds().to_bits(), serial_stats.seconds().to_bits());
    }

    /// One batched pass over four members' concatenated blocks produces the
    /// same bytes as four per-member passes, and the same stats as a
    /// hand-combined grid.
    #[test]
    fn batched_blocks_match_per_member_passes() {
        let members = 4usize;
        let rows = 2usize; // grid rows per member
        let chunk = 64usize;
        let src: Vec<i32> = (0..(members * rows * chunk) as i32).collect();
        let member_cfg = LaunchConfig::new("scan", (1, rows), (chunk, 1)).regs(16);
        fn kernel(input: &[i32]) -> impl Fn(&mut BlockCtx<'_, i32>, &mut [i32]) + Sync + '_ {
            let chunk = 64usize;
            move |ctx: &mut BlockCtx<'_, i32>, out: &mut [i32]| {
                let base = (ctx.block_idx.1 * ctx.grid_dim.0 + ctx.block_idx.0) * chunk;
                let mut acc = 0i64;
                for i in 0..chunk {
                    acc += i64::from(ctx.read_global_one(input, base + i));
                    ctx.write_global_one(out, i, acc as i32);
                }
            }
        }

        // Per-member reference: one pass per member over its own slice.
        let mut reference = Vec::new();
        let mut ref_counters = CostCounters::default();
        for m in 0..members {
            let mut g = gpu();
            let slice = &src[m * rows * chunk..(m + 1) * rows * chunk];
            let mut out = vec![0i32; slice.len()];
            let stats = g.launch_blocks::<i32, _>(&member_cfg, &mut out, kernel(slice)).unwrap();
            reference.extend_from_slice(&out);
            ref_counters += stats.counters;
        }

        // Batched: one pass over the concatenation.
        let mut g = gpu();
        let mut out = vec![0i32; src.len()];
        let stats =
            g.launch_blocks_batch::<i32, _>(&member_cfg, members, &mut out, kernel(&src)).unwrap();
        assert_eq!(out, reference, "batched outputs must be bit-identical");
        assert_eq!(stats.counters.launches, 1, "one simulator pass, not {members}");
        assert_eq!(g.counters(), stats.counters);
        // All non-launch work is the sum of the members'.
        assert_eq!(stats.counters.gld_transactions, ref_counters.gld_transactions);
        assert_eq!(stats.counters.gst_transactions, ref_counters.gst_transactions);

        // And it is exactly the hand-combined grid `(Bx, By·batch)`.
        let combined = LaunchConfig::new("scan", (1, rows * members), (chunk, 1)).regs(16);
        let mut g2 = gpu();
        let mut out2 = vec![0i32; src.len()];
        let s2 = g2.launch_blocks::<i32, _>(&combined, &mut out2, kernel(&src)).unwrap();
        assert_eq!(out2, out);
        assert_eq!(s2.counters, stats.counters);
        assert_eq!(s2.seconds().to_bits(), stats.seconds().to_bits());
    }

    #[test]
    fn batched_blocks_reject_zero_members() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("k", (1, 1), (WARP_SIZE, 1)).regs(16);
        let mut out = vec![0i32; 4];
        let err = g.launch_blocks_batch::<i32, _>(&cfg, 0, &mut out, |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("zero members"));
        assert_eq!(g.elapsed(), 0.0);
    }

    #[test]
    fn launch_blocks_rejects_uneven_output_window() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("k", (3, 1), (WARP_SIZE, 1)).regs(16);
        let mut out = vec![0i32; 16]; // 16 % 3 != 0
        let err = g.launch_blocks::<i32, _>(&cfg, &mut out, |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("split evenly"));
        assert_eq!(g.elapsed(), 0.0);
    }

    /// Two GPUs can run launches on separate host threads.
    #[test]
    fn gpus_are_send() {
        let mut gpus = Gpu::node(2, &DeviceSpec::tesla_k80());
        crossbeam_utils_scope(&mut gpus);

        fn crossbeam_utils_scope(gpus: &mut [Gpu]) {
            std::thread::scope(|s| {
                for g in gpus.iter_mut() {
                    s.spawn(move || {
                        let cfg = LaunchConfig::new("noop", (1, 1), (32, 1)).regs(16);
                        g.launch::<i32, _>(&cfg, |_| {}).unwrap();
                    });
                }
            });
        }
        assert!(gpus.iter().all(|g| g.elapsed() > 0.0));
    }
}
