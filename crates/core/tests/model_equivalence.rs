//! Model-equivalence regression tests: the execution-graph scheduler must
//! reproduce the phase-synchronous model **bit-identically** for every
//! barrier-shaped run (so every figure of the paper is preserved), while
//! pipelined policies may only ever be faster.

use scan_core::{
    NodeConfig, PipelinePolicy, ProblemParams, Proposal, RunReport, ScanOutput, ScanRequest,
};
use skeletons::Add;

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 13) % 199) as i32 - 99).collect()
}

/// `proposal` of `Add` over `cfg` with the request defaults (K80, Kepler
/// premises, TSUBAME-KFC fabric) under `policy`.
fn run(
    proposal: Proposal,
    cfg: NodeConfig,
    policy: Option<PipelinePolicy>,
    problem: ProblemParams,
    input: &[i32],
) -> ScanOutput<i32> {
    let request = ScanRequest::new(Add, problem).proposal(proposal).devices(cfg);
    match policy {
        Some(policy) => request.pipeline(policy),
        None => request,
    }
    .run(input)
    .unwrap()
}

/// The scheduled makespan of a barrier-synchronous run must equal the old
/// sum-of-phase-maxima total bit for bit.
fn assert_bit_identical(report: &RunReport) {
    assert_eq!(
        report.makespan.to_bits(),
        report.timeline.total().to_bits(),
        "{}: schedule {} != phase sum {}",
        report.label,
        report.makespan,
        report.timeline.total()
    );
}

#[test]
fn scan_sp_makespan_is_bit_identical_to_phase_sum() {
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems());
    let out = ScanRequest::new(Add, problem).run(&input).unwrap();
    assert_bit_identical(&out.report);
}

#[test]
fn scan_mps_makespan_is_bit_identical_to_phase_sum() {
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems());
    for cfg in [NodeConfig::new(2, 2, 1, 1).unwrap(), NodeConfig::new(8, 4, 2, 1).unwrap()] {
        let out = run(Proposal::Mps, cfg, None, problem, &input);
        assert_bit_identical(&out.report);
    }
}

#[test]
fn scan_mppc_makespan_is_bit_identical_to_phase_sum() {
    // Groups are symmetric, so the merged graph's critical path equals the
    // phase-wise maximum composition the old model reported.
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems());
    let out = run(Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap(), None, problem, &input);
    assert_bit_identical(&out.report);
}

#[test]
fn scan_multinode_makespan_is_bit_identical_to_phase_sum() {
    let problem = ProblemParams::new(14, 2);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(4, 4, 1, 2).unwrap();
    let out = run(Proposal::MpsMultinode, cfg, None, problem, &input);
    assert_bit_identical(&out.report);
    assert_eq!(out.report.timeline.phases().len(), 7);
}

#[test]
fn scan_case1_makespan_is_bit_identical_to_phase_sum() {
    let problem = ProblemParams::new(12, 3);
    let input = pseudo(problem.total_elems());
    let out = run(Proposal::Case1, NodeConfig::new(4, 4, 1, 1).unwrap(), None, problem, &input);
    assert_bit_identical(&out.report);
}

#[test]
fn pipelined_mps_never_slower_and_w8_overlap_strictly_faster() {
    // Acceptance criterion: at W=8 (host-staged exchanges dominate), the
    // pipelined policy must produce a strictly lower makespan than the
    // batched barrier-synchronous equivalent of the same launches.
    let problem = ProblemParams::new(14, 3);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(8, 4, 2, 1).unwrap();
    let barrier =
        run(Proposal::Mps, cfg, Some(PipelinePolicy::batched_barrier(4)), problem, &input);
    let pipelined = run(Proposal::Mps, cfg, Some(PipelinePolicy::pipelined(4)), problem, &input);
    assert_eq!(barrier.data, pipelined.data, "policy must not change results");
    assert!(
        pipelined.report.makespan < barrier.report.makespan,
        "overlap must hide communication ({} vs {})",
        pipelined.report.makespan,
        barrier.report.makespan
    );
}

#[test]
fn pipelined_mppc_strictly_faster_than_barrier_at_w8() {
    // Acceptance criterion: MP-PC with overlap enabled must report a
    // strictly lower makespan than its barrier-synchronous equivalent at
    // W=8 (V=4, Y=2), with identical results.
    let problem = ProblemParams::new(13, 4);
    let input = pseudo(problem.total_elems());
    let cfg = NodeConfig::new(8, 4, 2, 1).unwrap();
    let barrier =
        run(Proposal::Mppc, cfg, Some(PipelinePolicy::batched_barrier(4)), problem, &input);
    let pipelined = run(Proposal::Mppc, cfg, Some(PipelinePolicy::pipelined(4)), problem, &input);
    assert_eq!(barrier.data, pipelined.data, "policy must not change results");
    assert!(
        pipelined.report.makespan < barrier.report.makespan,
        "overlap must hide the P2P exchange inside each group ({} vs {})",
        pipelined.report.makespan,
        barrier.report.makespan
    );
}
