//! Heterogeneity acceptance harness for the `devices` subsystem:
//!
//! * every fabric preset runs every proposal bit-equal to the sequential
//!   CPU reference — topology changes *when* transfers cost, never *what*
//!   the scan computes;
//! * a homogeneous V100 pool on the PCIe tree reproduces the K80
//!   *schedule shape* (same nodes, kinds, deps and resources) with
//!   different timings — the plan depends on the problem and tuple, the
//!   clock on the `DeviceSpec`;
//! * a shared [`PlanCache`] never lets two device generations share an
//!   entry, even for identical request shapes.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::verify::verify_batch;
use multigpu_scan::scan::{GpuLease, ScanKind};
use multigpu_scan::PlanCache;

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

/// Every fabric preset × every proposal: the simulated schedule runs on
/// wildly different interconnects (host-staged PCIe trees, NVLink meshes,
/// all-to-all switches), but the output data must equal the sequential
/// CPU scan bit-for-bit in all of them.
#[test]
fn every_fabric_preset_runs_every_proposal_bit_equal_to_cpu() {
    let cases: Vec<(Proposal, Option<NodeConfig>, ProblemParams, usize)> = vec![
        (Proposal::Sp, None, ProblemParams::new(13, 2), 1),
        (Proposal::Mps, Some(NodeConfig::new(4, 4, 1, 1).unwrap()), ProblemParams::new(13, 2), 1),
        (Proposal::Mppc, Some(NodeConfig::new(4, 2, 2, 1).unwrap()), ProblemParams::new(13, 2), 1),
        (
            Proposal::MpsMultinode,
            Some(NodeConfig::new(4, 4, 1, 2).unwrap()),
            ProblemParams::new(14, 1),
            2,
        ),
        (Proposal::Case1, Some(NodeConfig::new(4, 4, 1, 1).unwrap()), ProblemParams::new(13, 3), 1),
    ];
    for preset in FabricPreset::all() {
        for (proposal, cfg, problem, nodes) in &cases {
            let input = pseudo(problem.total_elems());
            let mut req = ScanRequest::new(Add, *problem)
                .proposal(*proposal)
                .fabric(preset.build(*nodes))
                .tuple(SplkTuple::kepler_premises(0));
            if let Some(cfg) = cfg {
                req = req.devices(*cfg);
            }
            let out = req
                .run(&input)
                .unwrap_or_else(|e| panic!("{preset:?} x {proposal:?} must run: {e:?}"));
            verify_batch(Add, *problem, &input, &out.data)
                .unwrap_or_else(|e| panic!("{preset:?} x {proposal:?} diverges: {e:?}"));
        }
    }
}

/// A V100 runs the same *plan* as a K80 for the same problem, tuple and
/// node shape — node for node: same labels, kinds, dependencies and
/// resource claims. Only the clock differs: the faster part's makespan
/// must come out strictly smaller. This pins the contract that
/// `DeviceSpec` rates feed the timing model, never the planner.
#[test]
fn v100_on_pcie_reproduces_the_k80_schedule_shape() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let run = |device: DeviceSpec| {
        ScanRequest::new(Add, problem)
            .proposal(Proposal::Mps)
            .device(device)
            .fabric(Fabric::tsubame_kfc(1))
            .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
            .tuple(SplkTuple::kepler_premises(0))
            .trace(TraceOptions::full())
            .run(&input)
            .unwrap()
    };
    let k80 = run(DevicePreset::TeslaK80.lower());
    let v100 = run(DevicePreset::V100.lower());

    assert_eq!(k80.data, v100.data, "answers are device-independent");

    let a = k80.report.graph.as_ref().unwrap().nodes();
    let b = v100.report.graph.as_ref().unwrap().nodes();
    assert_eq!(a.len(), b.len(), "same node count");
    let mut some_timing_differs = false;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.label, y.label, "node {i} label");
        assert_eq!(x.kind, y.kind, "node {i} kind");
        assert_eq!(x.deps, y.deps, "node {i} dependencies");
        assert_eq!(x.resources, y.resources, "node {i} resources");
        if x.seconds.to_bits() != y.seconds.to_bits() {
            some_timing_differs = true;
        }
    }
    assert!(some_timing_differs, "different generations must time at least one node apart");
    assert!(
        v100.report.makespan < k80.report.makespan,
        "a V100 ({} s) must beat a K80 ({} s) on the same plan",
        v100.report.makespan,
        k80.report.makespan
    );
}

/// Two generations, one shared cache, identical launch shapes: each
/// generation misses once and owns its own entry (the device fingerprint
/// in the key keeps them apart), and each re-run hits only its own
/// generation's plan.
#[test]
fn plan_cache_never_shares_entries_across_generations() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let (fabric, policy) = (Fabric::tsubame_kfc(1), PipelinePolicy::default());
    let (tuple, kind) = (SplkTuple::kepler_premises(0), ScanKind::Inclusive);
    let lease = GpuLease::new(vec![0, 1, 2, 3], 0).unwrap();
    let run = |device: DeviceSpec| {
        let planned =
            cache.plan::<i32, Add>(&device, &fabric, &lease, problem, tuple, kind, &policy);
        planned.run(Add, &input).unwrap()
    };

    let v100_cold = run(DevicePreset::V100.lower());
    let a100_cold = run(DevicePreset::A100.lower());
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "same-shape requests on different generations must not share an entry"
    );
    assert!(
        a100_cold.run.makespan < v100_cold.run.makespan,
        "the entries really are different plans: an A100 outpaces a V100"
    );

    let v100_hot = run(DevicePreset::V100.lower());
    let a100_hot = run(DevicePreset::A100.lower());
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2), "each re-run hits its own");
    assert_eq!(v100_hot.data, v100_cold.data);
    assert_eq!(v100_hot.run.makespan.to_bits(), v100_cold.run.makespan.to_bits());
    assert_eq!(a100_hot.data, a100_cold.data);
    assert_eq!(a100_hot.run.makespan.to_bits(), a100_cold.run.makespan.to_bits());
}
