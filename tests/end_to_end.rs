//! End-to-end integration tests spanning all workspace crates: every
//! proposal, on every topology it supports, verified against the CPU
//! reference.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::verify::verify_batch;

fn pseudo(n: usize, seed: i64) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 48271 + seed) % 251) as i32 - 125).collect()
}

fn device() -> DeviceSpec {
    DeviceSpec::tesla_k80()
}

fn tuple_for(problem: &ProblemParams, parts: usize) -> SplkTuple {
    let base = premises::derive_tuple(&device(), 4, 0);
    let k = premises::default_k(&device(), problem, &base, parts).expect("feasible");
    base.with_k(k)
}

/// `proposal` of `op` over `cfg` with the premise tuple for `parts` GPUs
/// sharing each problem (default K80 and TSUBAME-KFC fabric).
fn on<O: Copy>(
    op: O,
    problem: ProblemParams,
    proposal: Proposal,
    cfg: NodeConfig,
    parts: usize,
) -> ScanRequest<O> {
    ScanRequest::new(op, problem).proposal(proposal).devices(cfg).tuple(tuple_for(&problem, parts))
}

#[test]
fn scan_sp_full_matrix() {
    for (n, g) in [(10u32, 0u32), (12, 3), (13, 2), (15, 0), (16, 4)] {
        let problem = ProblemParams::new(n, g);
        let input = pseudo(problem.total_elems(), n as i64);
        let out = ScanRequest::new(Add, problem).tuple(tuple_for(&problem, 1)).run(&input).unwrap();
        verify_batch(Add, problem, &input, &out.data)
            .unwrap_or_else(|m| panic!("n={n} g={g}: {m}"));
    }
}

#[test]
fn scan_mps_all_w_configurations() {
    let problem = ProblemParams::new(15, 2);
    let input = pseudo(problem.total_elems(), 7);
    for (w, v, y) in
        [(1usize, 1usize, 1usize), (2, 2, 1), (2, 1, 2), (4, 4, 1), (4, 2, 2), (8, 4, 2)]
    {
        let cfg = NodeConfig::new(w, v, y, 1).unwrap();
        let out = on(Add, problem, Proposal::Mps, cfg, w).run(&input).unwrap();
        verify_batch(Add, problem, &input, &out.data)
            .unwrap_or_else(|m| panic!("W={w} V={v} Y={y}: {m}"));
    }
}

#[test]
fn scan_mppc_single_and_multi_node() {
    let problem = ProblemParams::new(14, 4);
    let input = pseudo(problem.total_elems(), 11);
    for (m, w, v, y) in [(1usize, 4usize, 2usize, 2usize), (1, 8, 4, 2), (2, 4, 2, 2), (2, 8, 4, 2)]
    {
        let cfg = NodeConfig::new(w, v, y, m).unwrap();
        let out = on(Add, problem, Proposal::Mppc, cfg, v).run(&input).unwrap();
        verify_batch(Add, problem, &input, &out.data)
            .unwrap_or_else(|m2| panic!("M={m} W={w} V={v}: {m2}"));
    }
}

#[test]
fn scan_multinode_m_sweep() {
    let problem = ProblemParams::new(15, 2);
    let input = pseudo(problem.total_elems(), 13);
    for (m, w, v, y) in [(2usize, 2usize, 2usize, 1usize), (2, 4, 4, 1), (4, 2, 2, 1)] {
        let cfg = NodeConfig::new(w, v, y, m).unwrap();
        let out = on(Add, problem, Proposal::MpsMultinode, cfg, m * w).run(&input).unwrap();
        verify_batch(Add, problem, &input, &out.data)
            .unwrap_or_else(|e| panic!("M={m} W={w}: {e}"));
    }
}

#[test]
fn scan_case1_distributes_problems() {
    let problem = ProblemParams::new(12, 4);
    let input = pseudo(problem.total_elems(), 17);
    let cfg = NodeConfig::new(8, 4, 2, 1).unwrap();
    let out = on(Add, problem, Proposal::Case1, cfg, 1).run(&input).unwrap();
    verify_batch(Add, problem, &input, &out.data).unwrap();
}

#[test]
fn all_operators_across_proposals() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems(), 23);
    let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();

    let out = on(Max, problem, Proposal::Mps, cfg, 4).run(&input).unwrap();
    verify_batch(Max, problem, &input, &out.data).unwrap();

    let out = on(Min, problem, Proposal::Mps, cfg, 4).run(&input).unwrap();
    verify_batch(Min, problem, &input, &out.data).unwrap();

    let ones: Vec<i32> = input.iter().map(|&v| if v % 2 == 0 { 1 } else { 2 }).collect();
    let out = on(Mul, problem, Proposal::Mps, cfg, 4).run(&ones).unwrap();
    verify_batch(Mul, problem, &ones, &out.data).unwrap();
}

#[test]
fn bitwise_operators_end_to_end() {
    use multigpu_scan::kernels::{BitAnd, BitOr, BitXor};
    let problem = ProblemParams::new(12, 2);
    let input: Vec<u32> = (0..problem.total_elems())
        .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u32)
        .collect();
    let base = premises::derive_tuple(&device(), 4, 0);
    let k = premises::default_k(&device(), &problem, &base, 1).unwrap();
    let t = base.with_k(k);

    let out = ScanRequest::new(BitOr, problem).tuple(t).run(&input).unwrap();
    verify_batch(BitOr, problem, &input, &out.data).unwrap();
    let out = ScanRequest::new(BitAnd, problem).tuple(t).run(&input).unwrap();
    verify_batch(BitAnd, problem, &input, &out.data).unwrap();
    // XOR is self-inverse: the exclusive trick applies with zero extra
    // shuffles, and the result must still be exact.
    let out = ScanRequest::new(BitXor, problem).tuple(t).run(&input).unwrap();
    verify_batch(BitXor, problem, &input, &out.data).unwrap();
}

#[test]
fn proposals_agree_with_each_other() {
    // Differential: every proposal produces byte-identical output.
    let problem = ProblemParams::new(14, 2);
    let input = pseudo(problem.total_elems(), 31);
    let fabric = Fabric::tsubame_kfc(2);
    let sp = ScanRequest::new(Add, problem).tuple(tuple_for(&problem, 1)).run(&input).unwrap();
    let on_fabric = |proposal, cfg, parts| {
        on(Add, problem, proposal, cfg, parts).fabric(fabric.clone()).run(&input).unwrap()
    };
    let mps = on_fabric(Proposal::Mps, NodeConfig::new(4, 4, 1, 1).unwrap(), 4);
    let mppc = on_fabric(Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap(), 2);
    let mn = on_fabric(Proposal::MpsMultinode, NodeConfig::new(4, 4, 1, 2).unwrap(), 8);
    assert_eq!(sp.data, mps.data);
    assert_eq!(sp.data, mppc.data);
    assert_eq!(sp.data, mn.data);
}

#[test]
fn baselines_agree_with_proposals() {
    let problem = ProblemParams::new(12, 3);
    let input = pseudo(problem.total_elems(), 37);
    let sp = ScanRequest::new(Add, problem).tuple(tuple_for(&problem, 1)).run(&input).unwrap();
    let cub = Cub::new(Add).batch_scan(&device(), problem, &input).unwrap();
    let cudpp = Cudpp::new(Add).batch_scan(&device(), problem, &input).unwrap();
    assert_eq!(sp.data, cub.data);
    assert_eq!(sp.data, cudpp.data);
}

#[test]
fn i64_elements_end_to_end() {
    let problem = ProblemParams::new(13, 1);
    let input: Vec<i64> =
        (0..problem.total_elems()).map(|i| ((i as i64 * 97) % 1009) - 500).collect();
    let base = premises::derive_tuple(&device(), 8, 0);
    let k = premises::default_k(&device(), &problem, &base, 2).unwrap();
    let out = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(2, 2, 1, 1).unwrap())
        .tuple(base.with_k(k))
        .run(&input)
        .unwrap();
    verify_batch(Add, problem, &input, &out.data).unwrap();
}
