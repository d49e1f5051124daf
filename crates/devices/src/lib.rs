//! # devices — the hardware model registry
//!
//! Single source of truth for what hardware the simulated cluster is made
//! of: device models (Kepler through Ampere GPUs, plus an Ascend-style AI
//! accelerator with an explicit on-chip unified buffer) and named
//! interconnect fabrics (PCIe trees, NVLink meshes, NVSwitch planes,
//! DGX-1/DGX-2 boxes).
//!
//! * [`model`] — the [`DeviceModel`] trait (what the simulator needs from
//!   a part: parallel-unit count, clock, on-chip capacity, per-element
//!   cost), the [`DevicePreset`] registry, and the [`AscendModel`]
//!   accelerator;
//! * [`fabric`] — the [`FabricPreset`] registry, lowering named
//!   topologies onto `interconnect` link resources via per-pair
//!   [`interconnect::LinkClass`] override matrices.
//!
//! Conservativeness contract: `DevicePreset::TeslaK80`/`Maxwell` lower to
//! exactly the historical [`gpu_sim::DeviceSpec`] presets, and
//! `FabricPreset::Pcie` builds exactly [`interconnect::Fabric::tsubame_kfc`]
//! — schedules planned through this registry on the legacy hardware are
//! bit-identical to the paper's goldens.

#![warn(missing_docs)]

pub mod fabric;
pub mod model;

pub use fabric::FabricPreset;
pub use model::{AscendModel, DeviceError, DeviceModel, DevicePreset};
