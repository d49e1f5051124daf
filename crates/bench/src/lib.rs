//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §5 on the simulator:
//!
//! * [`experiments::Harness::fig9`] … `fig14` — the six evaluation figures;
//! * [`experiments::Harness::mw_sweep`] — the §5.2 M×W trade-off;
//! * [`experiments::Harness::k_sweep`] — the Premise 3 `K` ablation;
//! * Table 3 comes straight from [`gpu_sim::occupancy::table3`].
//!
//! The `figures` binary renders them as text tables. The library's own
//! wall-clock cost is measured by `perfbench/` (see its README) and by
//! `figures self`.

#![warn(missing_docs)]

pub mod experiments;
pub mod series;
pub mod serve_json;
pub mod workload;

pub use experiments::Harness;
pub use series::{average_speedups, geomean, mean, render_table, Series};
pub use serve_json::{
    bench_scan_json, bench_scan_rows, bench_serve_json, fabric_sweep_rows, serve_windows,
    sharded_windows, FabricSweep, ScanRow,
};
