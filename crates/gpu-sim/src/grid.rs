//! Kernel launch configuration and validation.

use crate::device::DeviceSpec;
use crate::error::{SimError, SimResult};
use crate::occupancy::BlockResources;
use crate::vecload::AccessWidth;
use crate::warp::WARP_SIZE;

/// Configuration of one kernel launch — the `<<<grid, block, smem>>>`
/// triple plus the model inputs the simulator needs (declared register
/// usage, access width, chained-dependency flag).
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Human-readable kernel name, used in launch errors
    /// (e.g. `"stage1:chunk-reduce"`).
    pub label: String,
    /// Grid dimensions `(Bx, By)`. In the paper's batch convention `Bx` is
    /// blocks-per-problem and `By` is problems-per-kernel (§2.1).
    pub grid: (usize, usize),
    /// Block dimensions `(Lx, Ly)` in threads.
    pub block: (usize, usize),
    /// Shared memory per block, in *elements* of the launch's element type.
    pub shared_elems: usize,
    /// Declared register usage per thread, an input to the occupancy model
    /// (a real kernel's usage is decided by the compiler; the paper's
    /// Premise 2 keeps it below 64).
    pub regs_per_thread: usize,
    /// Vectorized global access width (int4 in the paper's kernels).
    pub width: AccessWidth,
    /// When true, blocks form a serial dependency chain (each block consumes
    /// its predecessor's result, as in chained-scan designs like LightScan
    /// or CUB's decoupled look-back). The timing model adds a per-block
    /// chain-propagation latency.
    pub serial_chain: bool,
    /// Bandwidth derate factor in `(0, 1]` modelling algorithm-level access
    /// inefficiency (strided/uncoalesced patterns of some baselines). `1.0`
    /// for fully coalesced kernels.
    pub bw_derate: f64,
}

impl LaunchConfig {
    /// A fully-coalesced launch with the given label, grid and block shape.
    pub fn new(label: impl Into<String>, grid: (usize, usize), block: (usize, usize)) -> Self {
        LaunchConfig {
            label: label.into(),
            grid,
            block,
            shared_elems: 0,
            regs_per_thread: 32,
            width: AccessWidth::Vec4,
            serial_chain: false,
            bw_derate: 1.0,
        }
    }

    /// Set the shared-memory allocation (in elements).
    pub fn shared_elems(mut self, elems: usize) -> Self {
        self.shared_elems = elems;
        self
    }

    /// Set the declared per-thread register usage.
    pub fn regs(mut self, regs: usize) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Set the vectorized access width.
    pub fn width(mut self, width: AccessWidth) -> Self {
        self.width = width;
        self
    }

    /// Mark the launch as a serial block chain.
    pub fn serial_chain(mut self) -> Self {
        self.serial_chain = true;
        self
    }

    /// Set the bandwidth derate factor.
    ///
    /// # Panics
    /// Panics if `derate` is not in `(0, 1]`.
    pub fn bw_derate(mut self, derate: f64) -> Self {
        assert!(derate > 0.0 && derate <= 1.0, "bw_derate must be in (0, 1], got {derate}");
        self.bw_derate = derate;
        self
    }

    /// Total number of blocks in the grid.
    pub fn grid_blocks(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> usize {
        self.block.0 * self.block.1
    }

    /// Warps per block (threads rounded up to warp granularity).
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block().div_ceil(WARP_SIZE)
    }

    /// The block resource usage for the occupancy calculator, given the
    /// element size of the launch.
    pub fn block_resources(&self, elem_bytes: usize) -> BlockResources {
        BlockResources {
            warps_per_block: self.warps_per_block().max(1),
            regs_per_thread: self.regs_per_thread,
            shared_bytes_per_block: self.shared_elems * elem_bytes,
        }
    }

    /// Validate the configuration against device limits.
    pub fn validate(&self, device: &DeviceSpec, elem_bytes: usize) -> SimResult<()> {
        if self.grid_blocks() == 0 {
            return Err(SimError::InvalidLaunch(format!(
                "{}: empty grid {:?}",
                self.label, self.grid
            )));
        }
        if self.threads_per_block() == 0 {
            return Err(SimError::InvalidLaunch(format!(
                "{}: empty block {:?}",
                self.label, self.block
            )));
        }
        if self.threads_per_block() > device.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "{}: block of {} threads exceeds device limit {}",
                self.label,
                self.threads_per_block(),
                device.max_threads_per_block
            )));
        }
        let smem_bytes = self.shared_elems * elem_bytes;
        if smem_bytes > device.shared_mem_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "{}: {} B of shared memory exceeds per-block limit {} B",
                self.label, smem_bytes, device.shared_mem_per_block
            )));
        }
        if self.regs_per_thread > device.max_regs_per_thread {
            return Err(SimError::InvalidLaunch(format!(
                "{}: {} registers/thread exceeds device limit {}",
                self.label, self.regs_per_thread, device.max_regs_per_thread
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = LaunchConfig::new("k", (8, 4), (128, 1))
            .shared_elems(32)
            .regs(64)
            .width(AccessWidth::Scalar)
            .serial_chain()
            .bw_derate(0.5);
        assert_eq!(cfg.grid_blocks(), 32);
        assert_eq!(cfg.threads_per_block(), 128);
        assert_eq!(cfg.warps_per_block(), 4);
        assert_eq!(cfg.shared_elems, 32);
        assert!(cfg.serial_chain);
        assert_eq!(cfg.bw_derate, 0.5);
        assert_eq!(cfg.width, AccessWidth::Scalar);
    }

    #[test]
    fn paper_config_validates() {
        // The paper's premise configuration: 128 threads (l=7), s<=5 for i32.
        let cfg = LaunchConfig::new("stage1", (1024, 16), (128, 1)).shared_elems(32).regs(64);
        assert!(cfg.validate(&k80(), 4).is_ok());
    }

    #[test]
    fn empty_grid_rejected() {
        let cfg = LaunchConfig::new("k", (0, 1), (128, 1));
        assert!(matches!(cfg.validate(&k80(), 4), Err(SimError::InvalidLaunch(_))));
    }

    #[test]
    fn oversized_block_rejected() {
        let cfg = LaunchConfig::new("k", (1, 1), (2048, 1));
        assert!(cfg.validate(&k80(), 4).is_err());
    }

    #[test]
    fn oversized_shared_memory_rejected() {
        let cfg = LaunchConfig::new("k", (1, 1), (128, 1)).shared_elems(48 * 1024);
        assert!(cfg.validate(&k80(), 4).is_err(), "48K i32 = 192 KiB > 48 KiB limit");
    }

    #[test]
    fn excess_registers_rejected() {
        let cfg = LaunchConfig::new("k", (1, 1), (128, 1)).regs(256);
        assert!(cfg.validate(&k80(), 4).is_err());
    }

    #[test]
    #[should_panic(expected = "bw_derate")]
    fn zero_derate_panics() {
        let _ = LaunchConfig::new("k", (1, 1), (32, 1)).bw_derate(0.0);
    }

    #[test]
    fn two_dimensional_block_counts_threads() {
        // Stage 2 in the paper uses Ly > 1.
        let cfg = LaunchConfig::new("stage2", (1, 4), (32, 4));
        assert_eq!(cfg.threads_per_block(), 128);
        assert_eq!(cfg.warps_per_block(), 4);
        assert!(cfg.validate(&k80(), 4).is_ok());
    }
}
