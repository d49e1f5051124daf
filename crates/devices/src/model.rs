//! Device models: the hardware registry behind the simulator.
//!
//! A [`DeviceModel`] abstracts what the simulator needs from a piece of
//! hardware — parallel-unit count, clock, on-chip buffer capacity, a
//! per-element kernel cost model — and *lowers* onto the concrete
//! [`DeviceSpec`] the execution pipeline runs against. The legacy presets
//! ([`DevicePreset::TeslaK80`], [`DevicePreset::Maxwell`]) lower to exactly
//! the structs `gpu-sim` has always shipped, so every schedule built
//! through this registry is bit-identical to one built on the raw specs.
//!
//! The [`DevicePreset::Ascend910`] entry models a non-GPU accelerator: a
//! Da Vinci-style part whose AI cores stage tiles through an explicit
//! on-chip unified buffer rather than cached shared memory. Scans are pure
//! vector-unit work, so it lowers its vector and buffer rates onto a
//! [`DeviceSpec`] and runs on `gpu_sim`'s one timing model like every
//! other preset; its [`DeviceModel::validate_tile_bytes`] enforces the
//! buffer capacity that CUDA-style occupancy limits would otherwise hide.

use gpu_sim::DeviceSpec;

/// Error raised by device-model capacity checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A kernel tile does not fit the device's on-chip buffer.
    TileExceedsBuffer {
        /// Bytes the tile needs resident at once.
        requested: usize,
        /// On-chip capacity of one parallel unit, in bytes.
        capacity: usize,
        /// The device that rejected the tile.
        device: &'static str,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::TileExceedsBuffer { requested, capacity, device } => write!(
                f,
                "tile of {requested} bytes exceeds the {capacity}-byte on-chip buffer of {device}"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// What the simulator needs from a hardware model.
///
/// Implementations describe the machine in its own vocabulary (SMs or AI
/// cores, shared memory or unified buffer) and lower onto the common
/// [`DeviceSpec`] for execution. The contract: two models whose
/// [`DeviceModel::lower`] outputs are equal are scheduled identically — the
/// plan cache fingerprints the lowered spec, never the model.
pub trait DeviceModel {
    /// Short machine-readable slug (`"tesla_k80"`, `"v100"`, …) used by
    /// CLI flags, JSON reports and pool fingerprints.
    fn name(&self) -> &'static str;

    /// Number of independent parallel units: streaming multiprocessors on
    /// a GPU, AI cores on an Ascend-style part.
    fn parallel_units(&self) -> usize;

    /// Core clock in Hz.
    fn clock_hz(&self) -> f64;

    /// On-chip staging capacity of one parallel unit, in bytes: shared
    /// memory per SM, or the unified buffer per AI core.
    fn on_chip_bytes(&self) -> usize;

    /// Relative per-device throughput for lease weighting. The scan is
    /// memory-bound (§3.1), so the achievable memory bandwidth of the
    /// lowered spec is the canonical score; heterogeneous pools grant the
    /// subset maximizing `width · score`.
    fn throughput_score(&self) -> f64;

    /// Per-element streaming cost, in seconds: what one input element
    /// costs to move through the device at full efficiency. The
    /// first-order kernel cost model every preset agrees on.
    fn element_cost(&self, elem_bytes: usize) -> f64 {
        elem_bytes as f64 / self.throughput_score()
    }

    /// Lower onto the concrete spec the execution pipeline runs against.
    fn lower(&self) -> DeviceSpec;

    /// Check that a kernel tile of `bytes` fits the on-chip buffer of one
    /// parallel unit.
    fn validate_tile_bytes(&self, bytes: usize) -> Result<(), DeviceError> {
        let capacity = self.on_chip_bytes();
        if bytes > capacity {
            return Err(DeviceError::TileExceedsBuffer {
                requested: bytes,
                capacity,
                device: self.name(),
            });
        }
        Ok(())
    }
}

/// The registry of concrete hardware models.
///
/// `TeslaK80` and `Maxwell` lower to the exact structs
/// [`DeviceSpec::tesla_k80`] / [`DeviceSpec::maxwell`] return (pinned by
/// test), so the paper's goldens are reproduced byte-identically through
/// this registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DevicePreset {
    /// The paper's evaluation GPU: one GK210 die of a Tesla K80 (CC 3.7).
    TeslaK80,
    /// First-generation Maxwell (GTX Titan X, CC 5.2).
    Maxwell,
    /// Volta-generation Tesla V100 (GV100, CC 7.0).
    V100,
    /// Ampere-generation A100 (GA100, CC 8.0).
    A100,
    /// Ascend 910-style AI accelerator (Da Vinci cores with an explicit
    /// unified buffer).
    Ascend910,
}

impl DevicePreset {
    /// Every preset, in fixed registry order.
    pub fn all() -> [DevicePreset; 5] {
        [
            DevicePreset::TeslaK80,
            DevicePreset::Maxwell,
            DevicePreset::V100,
            DevicePreset::A100,
            DevicePreset::Ascend910,
        ]
    }

    /// Parse a slug produced by [`DeviceModel::name`].
    pub fn parse(name: &str) -> Option<DevicePreset> {
        Self::all().into_iter().find(|p| p.name() == name)
    }

    /// The lowered spec (alias for [`DeviceModel::lower`], convenient at
    /// call sites that hold the enum directly).
    pub fn spec(&self) -> DeviceSpec {
        self.lower()
    }
}

impl std::fmt::Display for DevicePreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl DeviceModel for DevicePreset {
    fn name(&self) -> &'static str {
        match self {
            DevicePreset::TeslaK80 => "tesla_k80",
            DevicePreset::Maxwell => "maxwell",
            DevicePreset::V100 => "v100",
            DevicePreset::A100 => "a100",
            DevicePreset::Ascend910 => "ascend910",
        }
    }

    fn parallel_units(&self) -> usize {
        self.lower().num_sms
    }

    fn clock_hz(&self) -> f64 {
        match self {
            DevicePreset::TeslaK80 => 0.82e9,
            DevicePreset::Maxwell => 1.0e9,
            DevicePreset::V100 => 1.53e9,
            DevicePreset::A100 => 1.41e9,
            DevicePreset::Ascend910 => AscendModel::ascend910().clock_hz,
        }
    }

    fn on_chip_bytes(&self) -> usize {
        self.lower().shared_mem_per_sm
    }

    fn throughput_score(&self) -> f64 {
        self.lower().mem_bandwidth
    }

    fn lower(&self) -> DeviceSpec {
        match self {
            DevicePreset::TeslaK80 => DeviceSpec::tesla_k80(),
            DevicePreset::Maxwell => DeviceSpec::maxwell(),
            DevicePreset::V100 => DeviceSpec {
                name: "Tesla V100 (GV100, CC 7.0)",
                compute_capability: (7, 0),
                warp_size: 32,
                num_sms: 80,
                max_blocks_per_sm: 32,
                max_warps_per_sm: 64,
                max_threads_per_block: 1024,
                registers_per_sm: 64 * 1024,
                max_regs_per_thread: 255,
                shared_mem_per_sm: 96 * 1024,
                shared_mem_per_block: 48 * 1024,
                global_mem_bytes: 16 * 1024 * 1024 * 1024,
                // 900 GB/s theoretical HBM2; ~810 GB/s achievable streaming.
                mem_bandwidth: 810.0e9,
                launch_overhead: 2.5e-6,
                // 80 SMs x 64 FP32 cores x 1.53 GHz, per warp instruction.
                instr_throughput: 80.0 * 64.0 * 1.53e9 / 32.0 * 4.0,
                shuffle_throughput: 80.0 * 32.0 * 1.53e9,
                shared_throughput: 80.0 * 32.0 * 1.53e9,
                saturation_occupancy: 0.25,
            },
            DevicePreset::A100 => DeviceSpec {
                name: "A100-SXM4-40GB (GA100, CC 8.0)",
                compute_capability: (8, 0),
                warp_size: 32,
                num_sms: 108,
                max_blocks_per_sm: 32,
                max_warps_per_sm: 64,
                max_threads_per_block: 1024,
                registers_per_sm: 64 * 1024,
                max_regs_per_thread: 255,
                shared_mem_per_sm: 164 * 1024,
                shared_mem_per_block: 160 * 1024,
                global_mem_bytes: 40usize * 1024 * 1024 * 1024,
                // 1555 GB/s theoretical HBM2e; ~1400 GB/s achievable.
                mem_bandwidth: 1400.0e9,
                launch_overhead: 2.5e-6,
                instr_throughput: 108.0 * 64.0 * 1.41e9 / 32.0 * 4.0,
                shuffle_throughput: 108.0 * 32.0 * 1.41e9,
                shared_throughput: 108.0 * 32.0 * 1.41e9,
                saturation_occupancy: 0.25,
            },
            DevicePreset::Ascend910 => AscendModel::ascend910().lower(),
        }
    }
}

/// An Ascend 910-style accelerator: Da Vinci AI cores staging tiles
/// through an explicit per-core unified buffer (no hardware-managed shared
/// memory). Each core also carries a matmul cube unit, which no scan here
/// uses, so only its SIMD vector unit is modelled.
#[derive(Debug, Clone, PartialEq)]
pub struct AscendModel {
    /// Number of Da Vinci AI cores.
    pub ai_cores: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Unified buffer per AI core, in bytes — the hard capacity every
    /// resident tile must fit ([`DeviceModel::validate_tile_bytes`]).
    pub unified_buffer_bytes: usize,
    /// SIMD lanes of one vector unit (fp32-equivalent).
    pub vector_lanes: usize,
    /// HBM capacity in bytes.
    pub hbm_bytes: usize,
    /// Achievable HBM streaming bandwidth, bytes per second.
    pub hbm_bandwidth: f64,
    /// Fixed task-launch overhead in seconds.
    pub launch_overhead: f64,
}

impl AscendModel {
    /// The Ascend 910 data points: 32 AI cores at 1.0 GHz, a 256 KiB
    /// unified buffer per core, 32 GiB of HBM at ~1 TB/s.
    pub fn ascend910() -> Self {
        AscendModel {
            ai_cores: 32,
            clock_hz: 1.0e9,
            unified_buffer_bytes: 256 * 1024,
            vector_lanes: 128,
            hbm_bytes: 32usize * 1024 * 1024 * 1024,
            hbm_bandwidth: 1000.0e9,
            launch_overhead: 2.0e-6,
        }
    }

    /// Aggregate vector-unit throughput, warp-equivalent instructions per
    /// second (one instruction covers 32 lanes, matching the simulator's
    /// warp-level counters).
    pub fn vector_throughput(&self) -> f64 {
        self.ai_cores as f64 * self.vector_lanes as f64 * self.clock_hz / 32.0
    }

    /// Aggregate unified-buffer access throughput, warp-equivalent
    /// accesses per second.
    pub fn buffer_throughput(&self) -> f64 {
        self.ai_cores as f64 * self.vector_lanes as f64 * self.clock_hz / 32.0
    }
}

impl DeviceModel for AscendModel {
    fn name(&self) -> &'static str {
        "ascend910"
    }

    fn parallel_units(&self) -> usize {
        self.ai_cores
    }

    fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    fn on_chip_bytes(&self) -> usize {
        self.unified_buffer_bytes
    }

    fn throughput_score(&self) -> f64 {
        self.hbm_bandwidth
    }

    /// Lower onto the simulator vocabulary: AI cores become SMs, the
    /// unified buffer becomes per-SM scratch, vector lanes set the
    /// instruction rates. The compute capability is a synthetic `(9, 1)`
    /// tag — there is no CUDA CC on this part; the tag only keeps the
    /// plan-cache [`DeviceSpec`] fingerprint distinct.
    fn lower(&self) -> DeviceSpec {
        DeviceSpec {
            name: "Ascend 910 (Da Vinci)",
            compute_capability: (9, 1),
            warp_size: 32,
            num_sms: self.ai_cores,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            max_threads_per_block: 1024,
            registers_per_sm: 128 * 1024,
            max_regs_per_thread: 255,
            shared_mem_per_sm: self.unified_buffer_bytes,
            shared_mem_per_block: self.unified_buffer_bytes / 2,
            global_mem_bytes: self.hbm_bytes,
            mem_bandwidth: self.hbm_bandwidth,
            launch_overhead: self.launch_overhead,
            instr_throughput: self.vector_throughput() * 4.0,
            shuffle_throughput: self.ai_cores as f64 * 32.0 * self.clock_hz,
            shared_throughput: self.buffer_throughput(),
            saturation_occupancy: 0.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The legacy presets lower to exactly the specs the simulator has
    /// always shipped — the conservativeness guarantee every K80 golden
    /// rests on.
    #[test]
    fn legacy_presets_lower_bit_identically() {
        assert_eq!(DevicePreset::TeslaK80.lower(), DeviceSpec::tesla_k80());
        assert_eq!(DevicePreset::Maxwell.lower(), DeviceSpec::maxwell());
    }

    #[test]
    fn slugs_round_trip() {
        for preset in DevicePreset::all() {
            assert_eq!(DevicePreset::parse(preset.name()), Some(preset));
            assert_eq!(preset.to_string(), preset.name());
        }
        assert_eq!(DevicePreset::parse("h100"), None);
    }

    #[test]
    fn newer_generations_score_higher() {
        let score = |p: DevicePreset| p.throughput_score();
        assert!(score(DevicePreset::TeslaK80) < score(DevicePreset::Maxwell));
        assert!(score(DevicePreset::Maxwell) < score(DevicePreset::V100));
        assert!(score(DevicePreset::V100) < score(DevicePreset::A100));
        // Per-element cost is the reciprocal view.
        let k80 = DevicePreset::TeslaK80.element_cost(4);
        let a100 = DevicePreset::A100.element_cost(4);
        assert!(a100 < k80);
    }

    #[test]
    fn ascend_tile_capacity_is_enforced() {
        let m = AscendModel::ascend910();
        assert!(m.validate_tile_bytes(256 * 1024).is_ok());
        let err = m.validate_tile_bytes(256 * 1024 + 1).unwrap_err();
        match err {
            DeviceError::TileExceedsBuffer { requested, capacity, device } => {
                assert_eq!(requested, 256 * 1024 + 1);
                assert_eq!(capacity, 256 * 1024);
                assert_eq!(device, "ascend910");
            }
        }
        assert!(err.to_string().contains("unified") || err.to_string().contains("on-chip"));
    }

    #[test]
    fn gpu_presets_fit_their_shared_memory() {
        for preset in DevicePreset::all() {
            assert!(preset.validate_tile_bytes(preset.on_chip_bytes()).is_ok());
            assert!(preset.validate_tile_bytes(preset.on_chip_bytes() + 1).is_err());
        }
    }

    #[test]
    fn model_vocabulary_matches_lowering() {
        let m = AscendModel::ascend910();
        let spec = m.lower();
        assert_eq!(spec.num_sms, m.parallel_units());
        assert_eq!(spec.shared_mem_per_sm, m.on_chip_bytes());
        assert_eq!(spec.mem_bandwidth, m.throughput_score());
        assert_eq!(spec.compute_capability, (9, 1), "synthetic non-CUDA tag");
        for preset in DevicePreset::all() {
            let spec = preset.lower();
            assert_eq!(spec.num_sms, preset.parallel_units());
            assert_eq!(spec.shared_mem_per_sm, preset.on_chip_bytes());
        }
    }
}
