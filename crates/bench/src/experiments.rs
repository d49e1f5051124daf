//! Experiment runners: one function per table/figure of the paper's
//! evaluation (§5). Each returns structured series so it can be rendered by
//! the `figures` binary, asserted on in tests, and recorded in
//! EXPERIMENTS.md.
//!
//! All runs verify their scan results against the CPU reference unless
//! `verify` is disabled; throughput numbers are **simulated** time from the
//! cost model (the paper's y-axes), not host wall-clock.

use baselines::{Cub, Cudpp, LightScan, ModernGpu, ScanLibrary, Thrust};
use devices::FabricPreset;
use gpu_sim::DeviceSpec;
use interconnect::Fabric;
use scan_core::{
    premises, verify::verify_batch, Breakdown, NodeConfig, ProblemParams, Proposal, ScanOutput,
    ScanRequest,
};
use skeletons::{Add, SplkTuple};

use crate::series::Series;
use crate::workload::uniform_input;

/// Shared configuration of a harness run.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The simulated device (Tesla K80 by default, as in Table 1).
    pub device: DeviceSpec,
    /// Total elements per data point: `G · N = 2^total_log2`. The paper
    /// uses 28; the default 22 preserves every shape at ~1/64 the runtime.
    pub total_log2: u32,
    /// Smallest problem size in the sweeps (13 in the paper).
    pub n_lo: u32,
    /// Verify every scan against the CPU reference.
    pub verify: bool,
    /// Workload seed.
    pub seed: u64,
    /// Interconnect the multi-GPU runs execute on. `None` (the default)
    /// builds the historical TSUBAME-KFC PCIe tree internally, exactly as
    /// before the fabric presets existed — byte-identical output; a preset
    /// reruns the same sweeps on that topology's link-class matrix.
    pub fabric: Option<FabricPreset>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            device: DeviceSpec::tesla_k80(),
            total_log2: 22,
            n_lo: 13,
            verify: true,
            seed: 0xC0FFEE,
            fabric: None,
        }
    }
}

/// Throughput in Melem/s of a finished run.
fn melems(out: &ScanOutput<i32>) -> f64 {
    out.report.throughput() / 1e6
}

impl Harness {
    /// The sweep's problem sizes.
    pub fn ns(&self) -> Vec<u32> {
        (self.n_lo..=self.total_log2).collect()
    }

    fn problem(&self, n: u32) -> ProblemParams {
        ProblemParams::fixed_total(self.total_log2, n)
    }

    fn input(&self, problem: ProblemParams) -> Vec<i32> {
        uniform_input(problem.total_elems(), self.seed ^ problem.n() as u64)
    }

    /// The fabric an `m`-node run executes on: the historical TSUBAME-KFC
    /// PCIe tree by default, or the configured preset sized for the same
    /// 8-GPU-per-node cluster.
    fn fabric(&self, m: usize) -> Fabric {
        match self.fabric {
            None => Fabric::tsubame_kfc(m),
            Some(preset) => preset.build_for_gpus(m * 8),
        }
    }

    /// The premise tuple with the default (largest admissible) `K` for
    /// `parts` GPUs per problem; `None` when infeasible.
    fn tuple_for(&self, problem: &ProblemParams, parts: usize) -> Option<SplkTuple> {
        let base = premises::derive_tuple(&self.device, 4, 0);
        premises::default_k(&self.device, problem, &base, parts).map(|k| base.with_k(k))
    }

    fn check(&self, problem: ProblemParams, input: &[i32], out: &ScanOutput<i32>) {
        if self.verify {
            if let Err(m) = verify_batch(Add, problem, input, &out.data) {
                panic!("{}: {m}", out.report.label);
            }
        }
    }

    /// `proposal` at size `n` on the `cfg` GPUs (`None` for Scan-SP),
    /// with the premise tuple for `parts` GPUs per problem; `None` if
    /// infeasible.
    fn run_proposal(
        &self,
        n: u32,
        proposal: Proposal,
        cfg: Option<NodeConfig>,
        parts: usize,
    ) -> Option<ScanOutput<i32>> {
        let problem = self.problem(n);
        let tuple = self.tuple_for(&problem, parts)?;
        let mut request = ScanRequest::new(Add, problem)
            .proposal(proposal)
            .device(self.device.clone())
            .tuple(tuple);
        if let Some(cfg) = cfg {
            request = request.devices(cfg).fabric(self.fabric(cfg.m()));
        }
        let input = self.input(problem);
        let out = request.run(&input).ok()?;
        self.check(problem, &input, &out);
        Some(out)
    }

    /// Scan-SP at size `n`; `None` if infeasible.
    pub fn run_sp(&self, n: u32) -> Option<ScanOutput<i32>> {
        self.run_proposal(n, Proposal::Sp, None, 1)
    }

    /// Scan-MPS at size `n` with `(w, v, y)` on one node.
    pub fn run_mps(&self, n: u32, w: usize, v: usize, y: usize) -> Option<ScanOutput<i32>> {
        self.run_proposal(n, Proposal::Mps, Some(NodeConfig::new(w, v, y, 1).ok()?), w)
    }

    /// Scan-MP-PC at size `n` with `(w, v, y)` over `m` nodes.
    pub fn run_mppc(
        &self,
        n: u32,
        w: usize,
        v: usize,
        y: usize,
        m: usize,
    ) -> Option<ScanOutput<i32>> {
        self.run_proposal(n, Proposal::Mppc, Some(NodeConfig::new(w, v, y, m).ok()?), v)
    }

    /// Multi-node Scan-MPS at size `n` with `(w, v, y)` over `m ≥ 2` nodes.
    pub fn run_multinode(
        &self,
        n: u32,
        w: usize,
        v: usize,
        y: usize,
        m: usize,
    ) -> Option<ScanOutput<i32>> {
        let cfg = NodeConfig::new(w, v, y, m).ok()?;
        self.run_proposal(n, Proposal::MpsMultinode, Some(cfg), w * m)
    }

    /// The best single-node proposal at size `n` — the paper picks, per
    /// data point, the `(W, V)` configuration that maximises performance.
    pub fn run_best_single_node(&self, n: u32) -> Option<ScanOutput<i32>> {
        let candidates = [
            self.run_mppc(n, 8, 4, 2, 1),
            self.run_mps(n, 4, 4, 1),
            self.run_mps(n, 8, 4, 2),
            self.run_mps(n, 2, 2, 1),
            self.run_sp(n),
        ];
        candidates
            .into_iter()
            .flatten()
            .min_by(|a, b| a.report.seconds().partial_cmp(&b.report.seconds()).unwrap())
    }

    /// A baseline library's batch run at size `n` (G invocations, or the
    /// library's native batch path).
    pub fn run_library(&self, lib: &dyn ScanLibrary<i32>, n: u32) -> ScanOutput<i32> {
        let problem = self.problem(n);
        let input = self.input(problem);
        let out = lib.batch_scan(&self.device, problem, &input).expect("library run failed");
        self.check(problem, &input, &out);
        out
    }

    /// Thrust with the paper's methodology: "better performance has been
    /// obtained invoking the non-segmented function G times [for small n]
    /// … For fairness, we use the option that achieves the best
    /// performance for each data point."
    pub fn run_thrust_best(&self, n: u32) -> ScanOutput<i32> {
        let problem = self.problem(n);
        let input = self.input(problem);
        let lib = Thrust::new(Add);
        let repeated = lib.batch_scan(&self.device, problem, &input).expect("thrust run");
        let segmented =
            lib.segmented_scan(&self.device, problem, &input).expect("thrust segmented");
        let best = if repeated.report.seconds() <= segmented.report.seconds() {
            repeated
        } else {
            segmented
        };
        self.check(problem, &input, &best);
        best
    }

    // --------------------------------------------------------------------
    // Figures
    // --------------------------------------------------------------------

    /// Figure 9: Scan-MPS throughput vs `n` for W ∈ {1, 2, 4, 8},
    /// `G = 2^total / N`.
    pub fn fig9(&self) -> Vec<Series> {
        let configs = [(1, 1, 1), (2, 2, 1), (4, 4, 1), (8, 4, 2)];
        configs
            .iter()
            .map(|&(w, v, y)| {
                let mut s = Series::new(format!("W={w}"));
                for n in self.ns() {
                    if let Some(out) = self.run_mps(n, w, v, y) {
                        s.push(n, melems(&out));
                    }
                }
                s
            })
            .collect()
    }

    /// Figure 10: Scan-MP-PC throughput vs `n` for (W=4, V=2) and
    /// (W=8, V=4). The paper omits the G=1 point ("n=28 is not shown since
    /// it is solved by a single PCI-e network"); we keep it, flagged by the
    /// group count in the label.
    pub fn fig10(&self) -> Vec<Series> {
        let configs = [(4, 2, 2), (8, 4, 2)];
        configs
            .iter()
            .map(|&(w, v, y)| {
                let mut s = Series::new(format!("W={w},V={v}"));
                for n in self.ns() {
                    if let Some(out) = self.run_mppc(n, w, v, y, 1) {
                        s.push(n, melems(&out));
                    }
                }
                s
            })
            .collect()
    }

    /// Figure 11: G = 1 comparison — our best multi-GPU proposal and
    /// Scan-SP vs the five libraries.
    #[allow(clippy::type_complexity)]
    pub fn fig11(&self) -> Vec<Series> {
        let single = Harness { total_log2: self.total_log2, ..self.clone() };
        let mut ours = Series::new("Ours (best W,V)");
        let mut sp = Series::new("Scan-SP");
        let mut libs: Vec<(Series, Box<dyn Fn(&Harness, u32) -> ScanOutput<i32>>)> = vec![
            (Series::new("CUDPP"), Box::new(|h: &Harness, n| h.g1_library(&Cudpp::new(Add), n))),
            (Series::new("Thrust"), Box::new(|h, n| h.g1_library(&Thrust::new(Add), n))),
            (Series::new("ModernGPU"), Box::new(|h, n| h.g1_library(&ModernGpu::new(Add), n))),
            (Series::new("CUB"), Box::new(|h, n| h.g1_library(&Cub::new(Add), n))),
            (Series::new("LightScan"), Box::new(|h, n| h.g1_library(&LightScan::new(Add), n))),
        ];
        for n in single.ns() {
            let g1 = Harness { total_log2: n, ..self.clone() };
            if let Some(out) = g1.run_best_single_node(n) {
                ours.push(n, melems(&out));
            }
            if let Some(out) = g1.run_sp(n) {
                sp.push(n, melems(&out));
            }
            for (series, run) in &mut libs {
                series.push(n, melems(&run(&g1, n)));
            }
        }
        let mut result = vec![ours, sp];
        result.extend(libs.into_iter().map(|(s, _)| s));
        result
    }

    fn g1_library(&self, lib: &dyn ScanLibrary<i32>, n: u32) -> ScanOutput<i32> {
        debug_assert_eq!(self.total_log2, n, "G = 1 harness");
        self.run_library(lib, n)
    }

    /// Figure 12: batch comparison at `G = 2^total / N` — our best proposal
    /// vs the libraries with their best batch strategy.
    pub fn fig12(&self) -> Vec<Series> {
        let mut ours = Series::new("Ours (best)");
        let mut cudpp = Series::new("CUDPP");
        let mut thrust = Series::new("Thrust");
        let mut mgpu = Series::new("ModernGPU");
        let mut cub = Series::new("CUB");
        let mut ls = Series::new("LightScan");
        for n in self.ns() {
            if let Some(out) = self.run_best_single_node(n) {
                ours.push(n, melems(&out));
            }
            cudpp.push(n, melems(&self.run_library(&Cudpp::new(Add), n)));
            thrust.push(n, melems(&self.run_thrust_best(n)));
            mgpu.push(n, melems(&self.run_library(&ModernGpu::new(Add), n)));
            cub.push(n, melems(&self.run_library(&Cub::new(Add), n)));
            ls.push(n, melems(&self.run_library(&LightScan::new(Add), n)));
        }
        vec![ours, cudpp, thrust, mgpu, cub, ls]
    }

    /// Figure 13: multi-node comparison — Scan-MPS over M=2 nodes vs the
    /// single-GPU libraries, `G = 2^total / N`.
    pub fn fig13(&self) -> Vec<Series> {
        let mut ours = Series::new("Ours (M=2,W=4)");
        let mut cudpp = Series::new("CUDPP");
        let mut thrust = Series::new("Thrust");
        let mut mgpu = Series::new("ModernGPU");
        let mut cub = Series::new("CUB");
        let mut ls = Series::new("LightScan");
        for n in self.ns() {
            if let Some(out) = self.run_multinode(n, 4, 4, 1, 2) {
                ours.push(n, melems(&out));
            }
            cudpp.push(n, melems(&self.run_library(&Cudpp::new(Add), n)));
            thrust.push(n, melems(&self.run_thrust_best(n)));
            mgpu.push(n, melems(&self.run_library(&ModernGpu::new(Add), n)));
            cub.push(n, melems(&self.run_library(&Cub::new(Add), n)));
            ls.push(n, melems(&self.run_library(&LightScan::new(Add), n)));
        }
        vec![ours, cudpp, thrust, mgpu, cub, ls]
    }

    /// Figure 14: per-phase breakdown of the M=2, W=4 multi-node run for
    /// each `n`, derived from the run's execution-graph node records.
    pub fn fig14(&self) -> Vec<(u32, Breakdown)> {
        self.ns()
            .into_iter()
            .filter_map(|n| {
                self.run_multinode(n, 4, 4, 1, 2).map(|out| {
                    let graph = out.report.graph.as_ref().expect("runs keep a graph");
                    (n, Breakdown::from_graph(graph))
                })
            })
            .collect()
    }

    /// §5.2's M×W sweep: all combinations with 8 GPUs total.
    pub fn mw_sweep(&self) -> Vec<Series> {
        let mut result = Vec::new();
        // (m, w, v, y); m = 1 runs single-node MPS.
        for &(m, w, v, y) in
            &[(1usize, 8usize, 4usize, 2usize), (2, 4, 4, 1), (4, 2, 2, 1), (8, 1, 1, 1)]
        {
            let mut s = Series::new(format!("M={m},W={w}"));
            for n in self.ns() {
                let out = if m == 1 {
                    self.run_mps(n, w, v, y)
                } else {
                    self.run_multinode(n, w, v, y, m)
                };
                if let Some(out) = out {
                    s.push(n, melems(&out));
                }
            }
            result.push(s);
        }
        result
    }

    /// Premise 3 ablation: Scan-SP duration vs `K` at one problem size.
    pub fn k_sweep(&self, n: u32) -> Vec<(u32, f64)> {
        let problem = self.problem(n);
        let base = premises::derive_tuple(&self.device, 4, 0);
        let space = premises::k_search_space(&self.device, &problem, &base, 1);
        let input = self.input(problem);
        let sp = ScanRequest::new(Add, problem).device(self.device.clone());
        space
            .into_iter()
            .filter_map(|k| {
                let out = sp.clone().tuple(base.with_k(k)).run(&input).ok()?;
                Some((k, out.report.seconds()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny harness: totals small enough for test-time functional runs.
    fn tiny() -> Harness {
        Harness { total_log2: 16, n_lo: 13, ..Default::default() }
    }

    #[test]
    fn fig9_shapes() {
        let series = tiny().fig9();
        assert_eq!(series.len(), 4);
        // W=1 samples every n; W=8 may skip infeasible small points.
        assert_eq!(series[0].points.len(), 4);
        assert!(series[3].points.len() >= 3);
        // The host-staging collapse: at the smallest n (max G), W=8 is far
        // below W=4.
        let n0 = 13;
        let w4 = series[2].at(n0).unwrap();
        let w8 = series[3].at(n0).unwrap();
        assert!(w8 < w4 / 2.0, "Fig 9: W=8 collapses at large G ({w8} vs {w4})");
    }

    #[test]
    fn fig10_mppc_beats_mps_at_w8() {
        let h = tiny();
        let mps = h.fig9();
        let mppc = h.fig10();
        // At the smallest n, MP-PC W=8 (pure P2P) must beat MPS W=8
        // (host-staged).
        let mps_w8 = mps[3].at(13).unwrap();
        let mppc_w8 = mppc[1].at(13).unwrap();
        assert!(mppc_w8 > mps_w8, "Fig 10 vs 9: {mppc_w8} vs {mps_w8}");
    }

    #[test]
    fn fig12_ours_wins_everywhere() {
        let series = tiny().fig12();
        let ours = &series[0];
        for lib in &series[1..] {
            for &(n, v) in &lib.points {
                let o = ours.at(n).expect("ours sampled everywhere");
                assert!(o > v, "Fig 12: ours must beat {} at n={n} ({o} vs {v})", lib.name);
            }
        }
    }

    #[test]
    fn fig11_library_ordering_holds() {
        let series = tiny().fig11();
        // Series order: ours, Scan-SP, CUDPP, Thrust, ModernGPU, CUB, LS.
        let at_top = |name: &str| {
            series
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.at(16))
                .unwrap_or_else(|| panic!("{name} missing at n=16"))
        };
        let cub = at_top("CUB");
        assert!(cub > at_top("CUDPP"), "CUB leads the libraries at G=1");
        assert!(cub > at_top("Thrust"));
        assert!(cub > at_top("LightScan"));
        assert!(at_top("CUDPP") > at_top("Thrust"), "Thrust trails CUDPP");
        // Ours never loses to the worst library anywhere.
        let ours = series.iter().find(|s| s.name.starts_with("Ours")).unwrap();
        let ls = series.iter().find(|s| s.name == "LightScan").unwrap();
        for &(n, v) in &ls.points {
            assert!(ours.at(n).unwrap() > v, "n={n}");
        }
    }

    #[test]
    fn fig14_breakdown_has_mpi_phases() {
        let rows = tiny().fig14();
        assert!(!rows.is_empty());
        for (n, b) in &rows {
            assert!(b.seconds_with_prefix("MPI_Gather") > 0.0, "n={n}: gather row missing");
            assert!(b.seconds_with_prefix("MPI_Scatter") > 0.0);
            assert!(b.seconds_with_prefix("MPI_Barrier") > 0.0);
            assert!(b.seconds_with_prefix("stage") > 0.0);
            let pct: f64 = b.rows.iter().map(|r| r.percent).sum();
            assert!((pct - 100.0).abs() < 1e-6, "n={n}: percentages sum to {pct}");
        }
    }

    #[test]
    fn fig9_w1_equals_scan_sp_shape() {
        // W=1 MPS degenerates to the single-GPU pipeline: same throughput
        // as Scan-SP within float noise.
        let h = tiny();
        let mps1 = h.run_mps(14, 1, 1, 1).unwrap();
        let sp = h.run_sp(14).unwrap();
        let ratio = mps1.report.seconds() / sp.report.seconds();
        assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn k_sweep_returns_candidates() {
        let sweep = tiny().k_sweep(16);
        assert!(sweep.len() >= 2, "several K values admissible");
        assert!(sweep.iter().all(|&(_, s)| s > 0.0));
    }

    #[test]
    fn mw_sweep_orders_m2_before_m8() {
        let h = tiny();
        let series = h.mw_sweep();
        let m2 = series.iter().find(|s| s.name == "M=2,W=4").unwrap();
        let m8 = series.iter().find(|s| s.name == "M=8,W=1").unwrap();
        let n = 14;
        let (t2, t8) = (m2.at(n).unwrap(), m8.at(n).unwrap());
        assert!(t2 > t8, "§5.2: M=2,W=4 beats M=8,W=1 ({t2} vs {t8})");
    }
}
