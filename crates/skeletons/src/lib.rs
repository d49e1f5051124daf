//! # skeletons — BPLG-style parametrized scan kernels
//!
//! The paper implements its kernels "using BPLG CUDA skeletons, which are
//! carefully designed to attain high levels of efficiency in CUDA
//! architectures … designed with templates, enabling the generation, at
//! compile time, of tuned kernels according to the more suitable
//! `(s, p, l, K)` tuple" (§3.1).
//!
//! This crate is the Rust equivalent: composable, operator-generic building
//! blocks that the `scan-core` stage kernels assemble —
//!
//! * [`op`] — scan operators (monoids) and CPU references;
//! * [`tuple`](mod@tuple) — the validated `(s, p, l, K)` tuple;
//! * [`lf`] — the Ladner-Fischer network (Figure 1);
//! * [`reg_scan`] — per-thread `P`-element register tiles, views of one
//!   warp's slice (Figure 4, red);
//! * [`warp_scan`] — shuffle-based LF warp scan/reduce (Figure 4);
//! * [`shared_scan`] — the pre-shuffle shared-memory warp scan, kept for
//!   baselines and the shuffle-ablation bench;
//! * [`block_scan`] — the full block scan/reduce pipeline, run inside each
//!   iteration's output window;
//! * [`cascade`] — the `K`-iteration cascade carry (Figure 5).

#![warn(missing_docs)]
// Warp/worker-indexed loops mirror the CUDA kernels they model; iterator
// rewrites would obscure the lane/warp index arithmetic under test.
#![allow(clippy::needless_range_loop)]

pub mod block_scan;
pub mod cascade;
pub mod lf;
pub mod op;
pub mod reg_scan;
pub mod shared_scan;
pub mod tuple;
pub mod warp_scan;

pub use block_scan::{block_reduce, block_scan_exclusive, block_scan_inclusive};
pub use cascade::Cascade;
pub use op::{
    reference_exclusive, reference_inclusive, reference_reduce, Add, AffinePair, BitAnd, BitOr,
    BitPrimitive, BitXor, GatedOp, Max, Min, Mul, Numeric, ScanOp, Scannable, SegPair,
    SegmentedAdd,
};
pub use reg_scan::RegTile;
pub use tuple::{SplkTuple, TupleError, MAX_S_WITH_SHUFFLES};
pub use warp_scan::{
    warp_reduce, warp_scan_exclusive, warp_scan_exclusive_with_total, warp_scan_inclusive,
};
