//! Byte-stable assembly of the serving benchmark artifacts.
//!
//! `BENCH_serve.json` (and `BENCH_scan.json`) are committed goldens: two
//! runs with the same inputs must produce byte-identical files. The
//! `figures` binary and the regression test suite both build the bytes
//! through these functions, so the golden comparison tests exactly what
//! the benchmark writes.

use devices::{DevicePreset, FabricPreset};
use scan_serve::{
    Policy, Router, RouterConfig, ServeConfig, ServeReport, ServeRequest, Server, ShardedReport,
};

use crate::series::Series;
use crate::Harness;

/// Run `requests` through the unsharded server under every [`Policy`].
/// `devices` and `fabric` configure the pool's hardware ([`ServeConfig`]
/// semantics): an empty mix on [`FabricPreset::Pcie`] is the historical
/// homogeneous K80 pool, byte-identical to before the presets existed.
pub fn serve_windows(
    requests: &[ServeRequest],
    seed: u64,
    pool_gpus: usize,
    coalesce: bool,
    devices: &[(DevicePreset, usize)],
    fabric: FabricPreset,
) -> Vec<(Policy, ServeReport)> {
    Policy::all()
        .iter()
        .map(|&policy| {
            let mut config = ServeConfig::new(policy, seed);
            config.pool_gpus = pool_gpus;
            config.coalesce = coalesce;
            config.devices = devices.to_vec();
            config.fabric = fabric;
            (policy, Server::new(config).run(requests).expect("serve the window"))
        })
        .collect()
}

/// Run `requests` through a `shards`-way [`Router`] under every
/// [`Policy`] (hash placement, stealing on — the benchmark defaults).
///
/// `threads` selects the stepping engine ([`RouterConfig`] semantics:
/// 0 = auto, 1 = serial). The report — and so the JSON — is
/// byte-identical either way; the knob only changes how the window is
/// computed, which is exactly what CI's differential byte-compare pins.
pub fn sharded_windows(
    requests: &[ServeRequest],
    seed: u64,
    shards: usize,
    gpus_per_shard: usize,
    coalesce: bool,
    threads: usize,
) -> Vec<(Policy, ShardedReport)> {
    Policy::all()
        .iter()
        .map(|&policy| {
            let mut config = RouterConfig::new(shards, policy, seed);
            config.gpus_per_shard = gpus_per_shard;
            config.coalesce = coalesce;
            config.threads = threads;
            let router = Router::new(config).expect("valid shard topology");
            (policy, router.run(requests).expect("serve the sharded window"))
        })
        .collect()
}

/// The `"sharded"` section's inputs: `(shards, gpus_per_shard, windows)`.
pub type ShardedSection<'a> = (usize, usize, &'a [(Policy, ShardedReport)]);

/// Render the `BENCH_serve.json` bytes.
///
/// With `sharded = None` the output is exactly the historical unsharded
/// format (the committed golden); `Some((shards, gpus_per_shard, windows))`
/// appends a `"sharded"` section with the fleet-wide rollup per policy.
pub fn bench_serve_json(
    seed: u64,
    n_requests: usize,
    pool_gpus: usize,
    coalesce: bool,
    windows: &[(Policy, ServeReport)],
    sharded: Option<ShardedSection<'_>>,
) -> String {
    let entries: Vec<String> = windows
        .iter()
        .map(|(policy, report)| {
            let metrics = report.metrics.to_json().replace('\n', "\n    ");
            format!("    \"{}\": {metrics}", policy.name())
        })
        .collect();
    let sharded_section = sharded.map_or_else(String::new, |(shards, gpus, windows)| {
        let entries: Vec<String> = windows
            .iter()
            .map(|(policy, report)| {
                // Splice the per-shard p99 tail into the fleet rollup: each
                // shard's own 99th-percentile latency (simulated seconds),
                // in shard-id order, so CI can gate every shard — a fleet
                // rollup can hide one pathological shard behind the union.
                let per_shard: Vec<String> = report
                    .shards
                    .iter()
                    .map(|s| s.report.metrics.p99_latency.to_string())
                    .collect();
                let rollup = report.metrics.to_json();
                let rollup = rollup.strip_suffix("\n}").expect("rollup is a JSON object");
                let metrics = format!(
                    "{rollup},\n  \"per_shard_p99_latency_s\": [{}]\n}}",
                    per_shard.join(", ")
                )
                .replace('\n', "\n      ");
                format!("      \"{}\": {metrics}", policy.name())
            })
            .collect();
        format!(
            ",\n  \"sharded\": {{\n    \"shards\": {},\n    \"gpus_per_shard\": {},\n    \
             \"placement\": \"{}\",\n    \"policies\": {{\n{}\n    }}\n  }}",
            shards,
            gpus,
            windows.first().map_or("hash", |(_, r)| r.metrics.placement),
            entries.join(",\n")
        )
    });
    format!(
        "{{\n  \"seed\": {},\n  \"requests\": {},\n  \"pool_gpus\": {},\n  \
         \"coalesce\": {},\n  \"policies\": {{\n{}\n  }}{}\n}}\n",
        seed,
        n_requests,
        pool_gpus,
        coalesce,
        entries.join(",\n"),
        sharded_section
    )
}

/// One pinned `bench-scan` configuration's result row.
pub struct ScanRow {
    /// Configuration name (e.g. `"mps_w4_n16"`).
    pub name: &'static str,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Throughput in millions of elements per simulated second.
    pub melems_per_s: f64,
}

/// Run the pinned `bench-scan` configuration set (fixed 2^20-element
/// harness, verify on — deliberately independent of any CLI sweep flags).
pub fn bench_scan_rows() -> Vec<ScanRow> {
    let h = Harness { total_log2: 20, ..Harness::default() };
    let runs: Vec<(&'static str, Option<scan_core::ScanOutput<i32>>)> = vec![
        ("sp_n20", h.run_sp(20)),
        ("mps_w2_n18", h.run_mps(18, 2, 2, 1)),
        ("mps_w4_n16", h.run_mps(16, 4, 4, 1)),
        ("mps_w8_n14", h.run_mps(14, 8, 4, 2)),
        ("mppc_m2w4_n16", h.run_mppc(16, 4, 4, 1, 2)),
        ("mppc_m4w2_n15", h.run_mppc(15, 2, 2, 1, 4)),
    ];
    runs.into_iter()
        .map(|(name, out)| {
            let out = out.unwrap_or_else(|| panic!("pinned config {name} must run"));
            ScanRow {
                name,
                makespan_s: out.report.seconds(),
                melems_per_s: out.report.throughput() / 1e6,
            }
        })
        .collect()
}

/// One fabric preset's re-run of the Fig. 9/10 sweeps.
pub struct FabricSweep {
    /// Preset name ([`FabricPreset::name`]).
    pub fabric: &'static str,
    /// Fig. 9 (Scan-MPS, W ∈ {1, 2, 4, 8}) on this fabric.
    pub fig9: Vec<Series>,
    /// Fig. 10 (Scan-MP-PC) on this fabric.
    pub fig10: Vec<Series>,
}

/// Re-run the Fig. 9/10 sweeps on every benchmark fabric preset: the PCIe
/// tree (the committed baseline topology), the NVLink mesh, NVSwitch
/// all-to-all, and a DGX-2 chassis. Pinned at 2^18 elements per point
/// with verification on, independent of any CLI sweep flags, so two runs
/// produce identical series — the `"fabrics"` section of
/// `BENCH_scan.json`.
pub fn fabric_sweep_rows() -> Vec<FabricSweep> {
    [FabricPreset::Pcie, FabricPreset::Nvlink, FabricPreset::Nvswitch, FabricPreset::Dgx2]
        .into_iter()
        .map(|preset| {
            let h = Harness { total_log2: 18, fabric: Some(preset), ..Harness::default() };
            FabricSweep { fabric: preset.name(), fig9: h.fig9(), fig10: h.fig10() }
        })
        .collect()
}

fn series_json(series: &[Series], indent: &str) -> String {
    let entries: Vec<String> = series
        .iter()
        .map(|s| {
            let points: Vec<String> =
                s.points.iter().map(|&(n, v)| format!("[{n}, {v}]")).collect();
            format!("{indent}{{\"name\": \"{}\", \"points\": [{}]}}", s.name, points.join(", "))
        })
        .collect();
    entries.join(",\n")
}

/// Render the `BENCH_scan.json` bytes from the pinned rows.
///
/// With `fabrics = None` the output is exactly the historical format (the
/// committed golden); `Some(sweeps)` appends a `"fabrics"` section mapping
/// each preset name to its Fig. 9/10 series.
pub fn bench_scan_json(rows: &[ScanRow], fabrics: Option<&[FabricSweep]>) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"makespan_s\": {}, \"melems_per_s\": {}}}",
                r.name, r.makespan_s, r.melems_per_s
            )
        })
        .collect();
    let fabrics_section = fabrics.map_or_else(String::new, |sweeps| {
        let entries: Vec<String> = sweeps
            .iter()
            .map(|s| {
                format!(
                    "    \"{}\": {{\n      \"fig9\": [\n{}\n      ],\n      \"fig10\": \
                     [\n{}\n      ]\n    }}",
                    s.fabric,
                    series_json(&s.fig9, "        "),
                    series_json(&s.fig10, "        ")
                )
            })
            .collect();
        format!(",\n  \"fabrics\": {{\n{}\n  }}", entries.join(",\n"))
    });
    format!(
        "{{\n  \"total_log2\": 20,\n  \"configs\": [\n{}\n  ]{}\n}}\n",
        entries.join(",\n"),
        fabrics_section
    )
}
