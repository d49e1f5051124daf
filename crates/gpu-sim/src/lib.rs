//! # gpu-sim — a functional, cost-accounted GPU simulator
//!
//! Software model of the CUDA execution environment used by the paper
//! *"Efficient Solving of Scan Primitive on Multi-GPU Systems"*
//! (Diéguez et al., IPPS 2018): Kepler-class GPUs with lockstep 32-lane
//! warps, shuffle instructions, per-block shared memory, per-SM residency
//! limits and 128-byte coalesced global-memory transactions.
//!
//! Kernels are Rust closures executed **functionally** — every lane's value
//! is really computed, so results can be verified bit-for-bit against a CPU
//! reference — while a [`counters::CostCounters`] ledger records the
//! hardware events (memory transactions, shuffles, shared-memory traffic,
//! arithmetic) that the [`timing::TimingModel`] converts into simulated
//! seconds.
//!
//! ## Quick tour
//!
//! ```
//! use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};
//!
//! let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
//! let input = gpu.alloc_from(&[1i32; 256]).unwrap();
//! let mut output = gpu.alloc::<i32>(256).unwrap();
//!
//! // One block of 128 threads doubles 256 elements.
//! let cfg = LaunchConfig::new("double", (1, 1), (128, 1)).regs(16);
//! gpu.launch::<i32, _>(&cfg, |ctx| {
//!     let mut tile = [0i32; 256];
//!     ctx.read_global(input.host_view(), 0, &mut tile);
//!     for v in &mut tile {
//!         *v *= 2;
//!     }
//!     ctx.alu((256 / 32) as u64);
//!     ctx.write_global(output.host_view_mut(), 0, &tile);
//! })
//! .unwrap();
//!
//! assert!(output.host_view().iter().all(|&v| v == 2));
//! assert!(gpu.elapsed() > 0.0); // simulated time was charged
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod counters;
pub mod device;
pub mod error;
pub mod event;
pub mod gpu;
pub mod grid;
pub mod host;
pub mod memory;
pub mod occupancy;
pub mod profile;
pub mod stream;
pub mod timing;
pub mod vecload;
pub mod warp;

pub use block::BlockCtx;
pub use counters::CostCounters;
pub use device::{DeviceSpec, TRANSACTION_BYTES};
pub use error::{SimError, SimResult};
pub use event::{Event, EventKind, EventLog, DEFAULT_STREAM};
pub use gpu::{Gpu, KernelStats};
pub use grid::LaunchConfig;
pub use memory::{DeviceBuffer, DeviceCopy, MemoryTracker};
pub use occupancy::{occupancy, BlockResources, Limiter, Occupancy, Table3Row};
pub use profile::{ProfileReport, ProfileRow};
pub use stream::{StreamGrant, StreamNamespace};
pub use timing::{KernelTime, TimingModel};
pub use vecload::AccessWidth;
pub use warp::{LaneArray, WARP_SIZE};
