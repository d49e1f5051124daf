//! Golden-schedule regression tests: the exact schedules of the paper's
//! figure configurations, snapshotted node by node with every duration as
//! f64 hex bits. Any change to the timing model, the scheduler, or the
//! pipeline construction shows up as a byte-level diff here.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_schedules
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use multigpu_scan::fabric::{ExecGraph, Resource};
use multigpu_scan::prelude::*;

/// `proposal` of `Add` over `cfg` with the request defaults (K80, Kepler
/// premises at K = 1, TSUBAME-KFC fabric sized to `cfg`).
fn request(problem: ProblemParams, proposal: Proposal, cfg: NodeConfig) -> ScanRequest<Add> {
    ScanRequest::new(Add, problem).proposal(proposal).devices(cfg)
}

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

/// Render a scheduled graph deterministically: one line per node with the
/// phase, label, kind, and the duration/start/finish as hex-encoded f64
/// bits, then the makespan.
fn snapshot(label: &str, graph: &ExecGraph) -> String {
    let schedule = graph.schedule();
    let mut out = String::new();
    writeln!(out, "# {label}").unwrap();
    writeln!(out, "# nodes: {}", graph.nodes().len()).unwrap();
    for (i, node) in graph.nodes().iter().enumerate() {
        writeln!(
            out,
            "node {i} phase={} kind={:?} label={} seconds={:016x} start={:016x} finish={:016x}",
            node.phase,
            node.kind,
            node.label,
            node.seconds.to_bits(),
            schedule.start[i].to_bits(),
            schedule.finish[i].to_bits(),
        )
        .unwrap();
    }
    writeln!(out, "makespan={:016x}", schedule.makespan.to_bits()).unwrap();
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

/// Compare against the stored snapshot, or rewrite it under
/// `UPDATE_GOLDEN=1`. On mismatch, report the first differing line.
fn check(name: &str, rendered: String) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    if golden == rendered {
        return;
    }
    for (ln, (want, got)) in golden.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "schedule for `{name}` diverges from {path:?} at line {} \
             (run with UPDATE_GOLDEN=1 if the timing model changed intentionally)",
            ln + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "schedule for `{name}` has a different node count than {path:?}"
    );
}

/// Fig. 9 — Scan-MPS over increasing W on one node.
#[test]
fn fig9_mps_schedules_are_stable() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    for (w, v, y) in [(1, 1, 1), (2, 2, 1), (4, 4, 1), (8, 4, 2)] {
        let cfg = NodeConfig::new(w, v, y, 1).unwrap();
        let out = request(problem, Proposal::Mps, cfg).run(&input).unwrap();
        let graph = out.report.graph.as_ref().expect("MPS builds an execution graph");
        check(
            &format!("fig9_mps_w{w}v{v}y{y}"),
            snapshot(&format!("Fig. 9 Scan-MPS W={w} V={v} Y={y}, n=2^13 g=4"), graph),
        );
    }
}

/// Fig. 10 — Scan-MP-PC, the prioritized-communications groups.
#[test]
fn fig10_mppc_schedules_are_stable() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    for (w, v, y) in [(4, 2, 2), (8, 4, 2)] {
        let cfg = NodeConfig::new(w, v, y, 1).unwrap();
        let out = request(problem, Proposal::Mppc, cfg).run(&input).unwrap();
        let graph = out.report.graph.as_ref().expect("MP-PC builds an execution graph");
        check(
            &format!("fig10_mppc_w{w}v{v}y{y}"),
            snapshot(&format!("Fig. 10 Scan-MP-PC W={w} V={v} Y={y}, n=2^13 g=4"), graph),
        );
    }
}

/// Fig. 14 — the multi-node breakdown configuration (M=2, W=4).
#[test]
fn fig14_multinode_schedule_is_stable() {
    let problem = ProblemParams::new(14, 1);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 2).unwrap();
    let out = request(problem, Proposal::MpsMultinode, cfg).run(&input).unwrap();
    let graph = out.report.graph.as_ref().expect("multi-node builds an execution graph");
    check(
        "fig14_multinode_m2w4",
        snapshot("Fig. 14 Scan-MPS multi-node M=2 W=4, n=2^14 g=2", graph),
    );
}

/// The degraded-mode recovery schedule itself is also pinned: the
/// acceptance scenario's eviction replan must reproduce byte-identically.
#[test]
fn recovery_schedule_is_stable() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
    let out = request(problem, Proposal::Mps, cfg)
        .pipeline(PipelinePolicy::batched_barrier(4))
        .faults(FaultPlan::new(0xC0FFEE).evict_gpu(2, 1))
        .run(&input)
        .unwrap();
    let graph = out.report.graph.as_ref().unwrap();
    check(
        "recovery_mps_w4_evict_gpu2",
        snapshot("Scan-MPS W=4 with GPU 2 evicted at sub-batch 1 (seed 0xC0FFEE)", graph),
    );
}

/// Every fault-injected route, pinned node by node: a throttled Scan-SP,
/// Scan-MPS under the empty plan, throttle-only and evicting Scan-MP-PC
/// (whose group subgraphs are appended, so their phases number 0-9 where
/// the healthy run's merge has 0-4), and multi-node Scan-MPS over a
/// degraded InfiniBand link.
#[test]
fn faulted_schedules_are_stable() {
    let mppc = NodeConfig::new(4, 2, 2, 1).unwrap();
    let cases = [
        (
            "faulted_sp_throttle_gpu0",
            "Scan-SP with GPU 0 throttled 2x (seed 7), n=2^13 g=4",
            ProblemParams::new(13, 2),
            None,
            FaultPlan::new(7).throttle_gpu(0, 2.0),
        ),
        (
            "faulted_mps_w4_empty_plan",
            "Scan-MPS W=4 V=4 Y=1 under the empty plan, n=2^13 g=4",
            ProblemParams::new(13, 2),
            Some((Proposal::Mps, NodeConfig::new(4, 4, 1, 1).unwrap())),
            FaultPlan::none(),
        ),
        (
            "faulted_mppc_w4v2y2_throttle_gpu1",
            "Scan-MP-PC W=4 V=2 Y=2 with GPU 1 throttled 3x (seed 3), n=2^13 g=8",
            ProblemParams::new(13, 3),
            Some((Proposal::Mppc, mppc)),
            FaultPlan::new(3).throttle_gpu(1, 3.0),
        ),
        (
            "faulted_mppc_w4v2y2_evict_gpu4",
            "Scan-MP-PC W=4 V=2 Y=2 with GPU 4 evicted at sub-batch 0 (seed 5), n=2^13 g=8",
            ProblemParams::new(13, 3),
            Some((Proposal::Mppc, mppc)),
            FaultPlan::new(5).evict_gpu(4, 0),
        ),
        (
            "faulted_multinode_m2w4_ib_degraded",
            "Scan-MPS multi-node M=2 W=4 with IB link 0-1 degraded 8x (seed 9), n=2^14 g=2",
            ProblemParams::new(14, 1),
            Some((Proposal::MpsMultinode, NodeConfig::new(4, 4, 1, 2).unwrap())),
            FaultPlan::new(9).degrade_link(Resource::ib(0, 1), 8.0),
        ),
    ];
    for (name, label, problem, devices, plan) in cases {
        let input = pseudo(problem.total_elems());
        let req = match devices {
            None => ScanRequest::new(Add, problem),
            Some((proposal, cfg)) => request(problem, proposal, cfg),
        };
        let out = req.faults(plan).run(&input).unwrap();
        let graph = out.report.graph.as_ref().expect("faulted runs build an execution graph");
        check(name, snapshot(label, graph));
    }
}
