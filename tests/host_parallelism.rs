//! Where a request fans out on the host never changes what it computes.
//! Run inside a fan worker (`host::as_worker`), every level of a request
//! runs serially on one thread; run outside, the request fans out at its
//! outermost parallel level: MP-PC's groups, a group's GPUs, or Sp's
//! blocks. Both must give the same data, makespan bits and graph.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::ScanOutput;
use multigpu_scan::sim::host;

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

/// Data, makespan bits, graph node labels and fault events.
fn fingerprint(out: &ScanOutput<i32>) -> (Vec<i32>, u64, Vec<String>, String) {
    let graph = out.report.graph.as_ref().expect("a proposal run keeps its graph");
    let labels = graph.nodes().iter().map(|n| n.label.clone()).collect();
    let faults = format!("{:?}", out.faults.as_ref().map(|f| &f.events));
    (out.data.clone(), out.report.makespan.to_bits(), labels, faults)
}

fn assert_fan_invariant(case: &str, problem: ProblemParams, request: ScanRequest<Add>) {
    let input = pseudo(problem.total_elems());
    let fanned = fingerprint(&request.run(&input).unwrap());
    let serial = fingerprint(&host::as_worker(|| {
        assert_eq!(host::width(), 1);
        request.run(&input).unwrap()
    }));
    assert_eq!(fanned.0, serial.0, "{case}: data");
    assert_eq!(fanned.1, serial.1, "{case}: makespan bits");
    assert_eq!(fanned.2, serial.2, "{case}: graph node labels");
    assert_eq!(fanned.3, serial.3, "{case}: fault events");
}

#[test]
fn mppc_is_bit_equal_inside_and_outside_a_fan_worker() {
    let problem = ProblemParams::new(15, 3);
    let request = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mppc)
        .devices(NodeConfig::new(8, 4, 2, 1).unwrap());
    assert_fan_invariant("mppc W=8 V=4", problem, request);
}

#[test]
fn faulted_mps_is_bit_equal_inside_and_outside_a_fan_worker() {
    let problem = ProblemParams::new(15, 2);
    let request = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .pipeline(PipelinePolicy::batched_barrier(4))
        .faults(FaultPlan::new(0xC0FFEE).evict_gpu(2, 1));
    assert_fan_invariant("faulted mps W=4", problem, request);
}

#[test]
fn sp_is_bit_equal_inside_and_outside_a_fan_worker() {
    let problem = ProblemParams::new(16, 2);
    assert_fan_invariant("sp", problem, ScanRequest::new(Add, problem));
}
