//! Property-based tests of the simulator's core invariants.

use gpu_sim::{
    occupancy::{occupancy, BlockResources},
    vecload, warp, DeviceSpec, Gpu, LaunchConfig, WARP_SIZE,
};
use proptest::prelude::*;

fn devices() -> impl Strategy<Value = DeviceSpec> {
    prop::sample::select(vec![DeviceSpec::tesla_k80(), DeviceSpec::maxwell()])
}

proptest! {
    /// Occupancy never exceeds any architectural limit.
    #[test]
    fn occupancy_respects_all_limits(
        device in devices(),
        warps in 1usize..=32,
        regs in 1usize..=255,
        smem in 0usize..=48 * 1024,
    ) {
        let res = BlockResources {
            warps_per_block: warps,
            regs_per_thread: regs,
            shared_bytes_per_block: smem,
        };
        let occ = occupancy(&device, &res);
        prop_assert!(occ.blocks_per_sm <= device.max_blocks_per_sm);
        prop_assert!(occ.warps_per_sm <= device.max_warps_per_sm);
        prop_assert!(occ.warp_occupancy <= 1.0 + 1e-12);
        let regs_used = occ.blocks_per_sm * warps * device.warp_size * regs;
        prop_assert!(regs_used <= device.registers_per_sm);
        let smem_used = occ.blocks_per_sm * smem;
        prop_assert!(smem_used <= device.shared_mem_per_sm || smem == 0);
    }

    /// More shared memory per block never increases the resident blocks.
    #[test]
    fn occupancy_monotonic_in_shared_memory(
        device in devices(),
        warps in 1usize..=8,
        smem_a in 0usize..=24 * 1024,
        extra in 0usize..=24 * 1024,
    ) {
        let mk = |smem| BlockResources {
            warps_per_block: warps,
            regs_per_thread: 32,
            shared_bytes_per_block: smem,
        };
        let a = occupancy(&device, &mk(smem_a));
        let b = occupancy(&device, &mk(smem_a + extra));
        prop_assert!(b.blocks_per_sm <= a.blocks_per_sm);
    }

    /// `shfl_up` moves lane `i - delta` into lane `i` and leaves the
    /// lanes below `delta` as they were.
    #[test]
    fn shfl_up_shifts_by_delta(
        vals in prop::array::uniform32(any::<i32>()),
        delta in 0usize..WARP_SIZE,
    ) {
        let up = warp::shfl_up(&vals, delta);
        for (i, &got) in up.iter().enumerate() {
            let src = if i < delta { i } else { i - delta };
            prop_assert_eq!(got, vals[src], "lane {}", i);
        }
    }

    /// Transaction counts are monotone in the element count and exact for
    /// multiples of a transaction.
    #[test]
    fn transactions_monotone(elems in 0usize..100_000, extra in 0usize..1024) {
        let a = vecload::transactions(elems, 4);
        let b = vecload::transactions(elems + extra, 4);
        prop_assert!(b >= a);
        prop_assert_eq!(vecload::transactions(elems * 32, 4), (elems as u64) * 32 * 4 / 128);
    }

    /// A copy kernel moves data exactly and charges symmetric traffic.
    #[test]
    fn copy_kernel_roundtrip(len_blocks in 1usize..16, seed in any::<i32>()) {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let n = len_blocks * 128;
        let data: Vec<i32> = (0..n).map(|i| (i as i32).wrapping_mul(seed)).collect();
        let input = gpu.alloc_from(&data).unwrap();
        let mut output = gpu.alloc::<i32>(n).unwrap();
        let cfg = LaunchConfig::new("copy", (len_blocks, 1), (128, 1)).regs(16);
        let stats = gpu.launch::<i32, _>(&cfg, |ctx| {
            let base = ctx.block_idx.0 * 128;
            ctx.read_global(input.host_view(), base, &mut output.host_view_mut()[base..base + 128]);
            ctx.charge_global_write(128);
        }).unwrap();
        prop_assert_eq!(output.host_view(), &data[..]);
        prop_assert_eq!(stats.counters.gld_transactions, stats.counters.gst_transactions);
        prop_assert_eq!(stats.counters.gld_transactions as usize, n * 4 / 128);
    }

    /// Simulated kernel time is monotone in memory traffic.
    #[test]
    fn time_monotone_in_traffic(extra_reads in 0usize..10_000) {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let cfg = LaunchConfig::new("t", (256, 1), (128, 1)).regs(32);
        let base = gpu.launch::<i32, _>(&cfg, |ctx| {
            ctx.charge_global_read(4096);
        }).unwrap();
        let more = gpu.launch::<i32, _>(&cfg, |ctx| {
            ctx.charge_global_read(4096 + extra_reads * 32);
        }).unwrap();
        prop_assert!(more.seconds() >= base.seconds());
    }
}
