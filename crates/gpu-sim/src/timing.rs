//! The timing model: cost counters → simulated seconds.
//!
//! The scan is "a memory-bound problem in current GPU architectures" (§3.1),
//! so the dominant term is global-memory traffic divided by the bandwidth
//! the launch can actually extract. Bandwidth extraction is derated by two
//! multiplicative efficiency terms:
//!
//! * **Residency efficiency** — how close the per-SM warp occupancy is to
//!   the saturation point. Kepler reaches peak streaming bandwidth around
//!   50% occupancy (Volkov's observation cited under Premise 1), so a launch
//!   at or above `saturation_occupancy` gets full bandwidth.
//! * **Grid efficiency** — whether the grid has enough warps to occupy all
//!   SMs at the saturation level at all. This is what Premise 3 manipulates
//!   through the `K` parameter: too few blocks in Stage 2 under-fill the
//!   device.
//!
//! Compute (ALU + shuffle + shared-memory) time is modelled as overlapping
//! with memory time: the kernel takes the maximum of the two, plus the fixed
//! launch overhead. Serial-chain kernels additionally pay a per-block
//! propagation latency.

use crate::counters::CostCounters;
use crate::device::DeviceSpec;
use crate::grid::LaunchConfig;
use crate::occupancy::Occupancy;

/// Converts counters into simulated kernel time for a device.
///
/// Stateless apart from the tunable chain-propagation latency; create once
/// per [`crate::gpu::Gpu`].
#[derive(Debug, Clone)]
pub struct TimingModel {
    /// Latency for one hop of a serial block chain (decoupled look-back /
    /// chained-scan predecessor wait), in seconds.
    pub chain_hop_latency: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        // ~100 ns per look-back hop: one L2 round trip on Kepler.
        TimingModel { chain_hop_latency: 100.0e-9 }
    }
}

/// Decomposition of one kernel's simulated time, returned for
/// inspection by the breakdown harness (Fig. 14) and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Fixed launch overhead, in seconds.
    pub launch: f64,
    /// Global-memory streaming time at the achieved efficiency, in
    /// seconds.
    pub memory: f64,
    /// Compute-side time (ALU + shuffle + shared memory), in seconds.
    pub compute: f64,
    /// Serial-chain propagation time, in seconds (zero for non-chained
    /// kernels).
    pub chain: f64,
    /// Combined bandwidth-extraction efficiency in `(0, 1]`
    /// (dimensionless fraction of peak bandwidth).
    pub efficiency: f64,
}

impl KernelTime {
    /// Total simulated duration of the kernel, in seconds: launch
    /// overhead plus the larger of the (overlapping) memory and compute
    /// phases, plus chain propagation.
    pub fn total(&self) -> f64 {
        self.launch + self.memory.max(self.compute) + self.chain
    }
}

impl TimingModel {
    /// Compute the simulated time of one kernel launch.
    pub fn kernel_time(
        &self,
        device: &DeviceSpec,
        cfg: &LaunchConfig,
        occ: &Occupancy,
        counters: &CostCounters,
    ) -> KernelTime {
        let efficiency = self.efficiency(device, cfg, occ);

        let memory =
            counters.global_bytes() as f64 / (device.mem_bandwidth * efficiency * cfg.bw_derate);

        // Compute throughputs scale with how much of the device the grid
        // fills, identically to the memory path.
        let compute = counters.alu_ops as f64 / (device.instr_throughput * efficiency)
            + counters.shuffles as f64 / (device.shuffle_throughput * efficiency)
            + counters.shared_ops() as f64 / (device.shared_throughput * efficiency);

        let chain =
            if cfg.serial_chain { cfg.grid_blocks() as f64 * self.chain_hop_latency } else { 0.0 };

        KernelTime { launch: device.launch_overhead, memory, compute, chain, efficiency }
    }

    /// Combined bandwidth-extraction efficiency for a launch: the product of
    /// residency efficiency (per-SM occupancy vs. the saturation point) and
    /// grid efficiency (enough warps to fill every SM to saturation).
    pub fn efficiency(&self, device: &DeviceSpec, cfg: &LaunchConfig, occ: &Occupancy) -> f64 {
        let sat_warps_per_sm = device.saturation_occupancy * device.max_warps_per_sm as f64;
        let residency = (occ.warps_per_sm as f64 / sat_warps_per_sm).min(1.0);

        let grid_warps = (cfg.grid_blocks() * cfg.warps_per_block()) as f64;
        let sat_warps_device = sat_warps_per_sm * device.num_sms as f64;
        let grid_fill = (grid_warps / sat_warps_device).min(1.0);

        // Floor the efficiency: even a single warp extracts a few percent of
        // peak bandwidth rather than an infinitesimal amount.
        (residency * grid_fill).max(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::occupancy;

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    fn occ_for(device: &DeviceSpec, cfg: &LaunchConfig) -> Occupancy {
        occupancy(device, &cfg.block_resources(4))
    }

    /// A big, well-configured streaming launch reaches full efficiency.
    #[test]
    fn saturated_launch_gets_full_bandwidth() {
        let d = k80();
        let cfg = LaunchConfig::new("k", (4096, 1), (128, 1)).shared_elems(32).regs(64);
        let occ = occ_for(&d, &cfg);
        let model = TimingModel::default();
        assert!((model.efficiency(&d, &cfg, &occ) - 1.0).abs() < 1e-12);

        // Moving 1 GiB at 170 GB/s should take ~6.3 ms plus launch overhead.
        let counters = CostCounters { gld_transactions: (1u64 << 30) / 128, ..Default::default() };
        let t = model.kernel_time(&d, &cfg, &occ, &counters);
        let expected = (1u64 << 30) as f64 / d.mem_bandwidth;
        assert!((t.memory - expected).abs() / expected < 1e-9);
        assert!(t.total() > t.memory, "launch overhead must be added");
    }

    /// A single-block launch (the paper's Stage 2) is heavily derated.
    #[test]
    fn tiny_grid_is_derated() {
        let d = k80();
        let cfg = LaunchConfig::new("stage2", (1, 1), (128, 1)).shared_elems(32).regs(64);
        let occ = occ_for(&d, &cfg);
        let model = TimingModel::default();
        let eff = model.efficiency(&d, &cfg, &occ);
        // 4 warps / (0.5 * 64 * 13) warps needed ≈ 0.0096.
        assert!(eff < 0.02, "one block must not saturate the device, eff={eff}");
        assert!(eff >= 0.01, "efficiency floor applies");
    }

    #[test]
    fn memory_and_compute_overlap() {
        let d = k80();
        let cfg = LaunchConfig::new("k", (4096, 1), (128, 1)).regs(64);
        let occ = occ_for(&d, &cfg);
        let model = TimingModel::default();
        let counters =
            CostCounters { gld_transactions: 1_000_000, alu_ops: 10, ..Default::default() };
        let t = model.kernel_time(&d, &cfg, &occ, &counters);
        // Memory dominates; total = launch + memory.
        assert!(t.memory > t.compute);
        assert!((t.total() - (t.launch + t.memory)).abs() < 1e-15);
    }

    #[test]
    fn chain_latency_charged_per_block() {
        let d = k80();
        let cfg = LaunchConfig::new("chained", (1000, 1), (128, 1)).serial_chain();
        let occ = occ_for(&d, &cfg);
        let model = TimingModel::default();
        let t = model.kernel_time(&d, &cfg, &occ, &CostCounters::default());
        assert!((t.chain - 1000.0 * model.chain_hop_latency).abs() < 1e-12);
    }

    #[test]
    fn bw_derate_slows_memory_proportionally() {
        let d = k80();
        let occ_cfg = LaunchConfig::new("k", (4096, 1), (128, 1)).regs(64);
        let occ = occ_for(&d, &occ_cfg);
        let counters = CostCounters { gld_transactions: 1 << 20, ..Default::default() };
        let model = TimingModel::default();
        let full = model.kernel_time(&d, &occ_cfg, &occ, &counters);
        let derated_cfg = LaunchConfig::new("k", (4096, 1), (128, 1)).regs(64).bw_derate(0.5);
        let derated = model.kernel_time(&d, &derated_cfg, &occ, &counters);
        assert!((derated.memory / full.memory - 2.0).abs() < 1e-9);
    }

    #[test]
    fn low_occupancy_derates_bandwidth() {
        let d = k80();
        // 1 warp/block, 256 regs: 16 blocks/SM, 16 warps/SM = 25% occupancy,
        // half the 50% saturation point -> efficiency 0.5 on a big grid.
        let cfg = LaunchConfig::new("k", (4096, 1), (32, 1)).regs(256);
        let occ = occ_for(&d, &cfg);
        let model = TimingModel::default();
        let eff = model.efficiency(&d, &cfg, &occ);
        assert!((eff - 0.5).abs() < 1e-9, "eff={eff}");
    }
}
