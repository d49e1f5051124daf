//! The program scans every request in place: each simulated GPU reads its
//! portions straight out of the request's input and writes them straight
//! into the returned batch. The copying route — `build_workers` gathers
//! each GPU's portions into a device buffer, `run_stage1/2/3` run on the
//! buffers, `assemble_output` interleaves the outputs back — is kept as
//! the oracle: for random shapes, every proposal, both scan kinds and
//! every pipeline policy, `ScanRequest::run` must return the oracle's
//! batch, and every Stage 1/2/3 kernel node must carry the oracle's
//! seconds and counters bit for bit.

use gpu_sim::{CostCounters, DeviceSpec};
use interconnect::{EventKind, Fabric, MpiComm, Topology};
use proptest::prelude::*;
use scan_core::multi_gpu::{assemble_output, build_workers, gather_aux, scatter_offsets};
use scan_core::stage1::run_stage1;
use scan_core::stage2::run_stage2;
use scan_core::stage3::run_stage3_kind;
use scan_core::{
    ExecutionPlan, NodeConfig, PipelinePolicy, ProblemParams, Proposal, ScanKind, ScanRequest,
};
use skeletons::{Add, SplkTuple};

/// A proposal with its device selection and the GPU groups it runs: each
/// group shares its problems, and groups split the batch evenly.
#[derive(Debug, Clone, Copy)]
enum Case {
    Sp,
    Mps(usize),
    Mppc(usize, usize),
    Case1(usize),
    Multinode(usize),
}

impl Case {
    fn request(self, problem: ProblemParams) -> ScanRequest<Add> {
        let req = ScanRequest::new(Add, problem);
        let cfg = |w, v, y, m| NodeConfig::new(w, v, y, m).unwrap();
        match self {
            Case::Sp => req,
            Case::Mps(w) => req.proposal(Proposal::Mps).devices(cfg(w, w.min(4), w.div_ceil(4), 1)),
            Case::Mppc(w, v) => req.proposal(Proposal::Mppc).devices(cfg(w, v, w / v, 1)),
            Case::Case1(w) => req.proposal(Proposal::Case1).devices(cfg(w, w, 1, 1)),
            Case::Multinode(w) => req
                .proposal(Proposal::MpsMultinode)
                .devices(cfg(w, w, 1, 2))
                .fabric(Fabric::tsubame_kfc(2)),
        }
    }

    fn fabric(self) -> Fabric {
        match self {
            Case::Sp => Fabric::new(Topology::single_gpu(), Default::default()),
            Case::Multinode(_) => Fabric::tsubame_kfc(2),
            _ => Fabric::tsubame_kfc(1),
        }
    }

    /// The GPU groups, as the proposals form them on a TSUBAME-KFC node.
    fn groups(self, batch: usize) -> Vec<Vec<usize>> {
        match self {
            Case::Sp => vec![vec![0]],
            Case::Mps(w) => vec![(0..w).collect()],
            Case::Mppc(w, v) => (0..(w / v).min(batch))
                .map(|net| (0..v).map(|slot| net * 4 + slot).collect())
                .collect(),
            Case::Case1(w) => (0..w).map(|g| vec![g]).collect(),
            Case::Multinode(w) => vec![(0..w).chain(8..8 + w).collect()],
        }
    }

    fn pipelines(self) -> bool {
        matches!(self, Case::Mps(_) | Case::Mppc(..))
    }
}

/// One kernel node's identity: label, seconds bits and counters.
fn kernel_nodes(nodes: impl IntoIterator<Item = (String, f64, CostCounters)>) -> Vec<String> {
    let mut keys: Vec<String> = nodes
        .into_iter()
        .map(|(label, secs, counters)| format!("{label} {:016x} {counters:?}", secs.to_bits()))
        .collect();
    keys.sort();
    keys
}

/// The copying route over `case`'s groups: the scanned batch and every
/// kernel node (Stage 1 and 3 per GPU, Stage 2 on each group root),
/// charged to the GPU clocks in the program's order.
fn copying_route(
    case: Case,
    problem: ProblemParams,
    kind: ScanKind,
    batches: usize,
    input: &[i32],
) -> (Vec<i32>, Vec<String>) {
    let device = DeviceSpec::tesla_k80();
    let fabric = case.fabric();
    let tuple = SplkTuple::kepler_premises(0);
    let groups = case.groups(problem.batch());
    let per_group = problem.batch() / groups.len();
    // The largest power of two not above the policy's batches, clamped to
    // the group's batch.
    let batches = 1 << batches.clamp(1, per_group).ilog2();
    let sub = ProblemParams::new(problem.n(), (per_group / batches).trailing_zeros());
    let share = sub.total_elems();
    let mut data = Vec::with_capacity(input.len());
    let mut nodes = Vec::new();
    for (ids, group_input) in groups.iter().zip(input.chunks(share * batches)) {
        for sub_input in group_input.chunks(share) {
            let plan = ExecutionPlan::new(sub, tuple, ids.len()).unwrap();
            let mut workers = build_workers(&device, &plan, ids, sub_input).unwrap();
            let mpi = MpiComm::new(ids.clone(), ids[0]);
            let aux_bytes = plan.aux_local_len() * std::mem::size_of::<i32>();
            for w in workers.iter_mut() {
                let before = w.gpu.elapsed();
                let stats = run_stage1(&mut w.gpu, &plan, Add, &w.input, &mut w.aux).unwrap();
                nodes.push((
                    "stage1:chunk-reduce".to_string(),
                    w.gpu.elapsed() - before,
                    stats.counters,
                ));
            }
            let mut root_aux = workers[0].gpu.alloc::<i32>(plan.aux_global_len()).unwrap();
            let gather = gather_aux(&fabric, &workers, &mut root_aux, &plan).seconds;
            let gather = match case {
                Case::Multinode(_) => mpi.gather(&fabric, aux_bytes).seconds,
                _ => gather,
            };
            workers[0].gpu.charge(gather);
            let before = workers[0].gpu.elapsed();
            let stats = run_stage2(&mut workers[0].gpu, &plan, Add, &mut root_aux).unwrap();
            nodes.push((
                "stage2:intermediate-scan".to_string(),
                workers[0].gpu.elapsed() - before,
                stats.counters,
            ));
            let scatter = scatter_offsets(&fabric, &mut workers, &root_aux, &plan).seconds;
            let scatter = match case {
                Case::Multinode(_) => mpi.scatter(&fabric, aux_bytes).seconds,
                _ => scatter,
            };
            workers[0].gpu.charge(scatter);
            for w in workers.iter_mut() {
                let before = w.gpu.elapsed();
                let stats = run_stage3_kind(
                    &mut w.gpu,
                    &plan,
                    Add,
                    &w.input,
                    &w.offsets,
                    &mut w.output,
                    kind,
                )
                .unwrap();
                nodes.push((
                    "stage3:scan-add".to_string(),
                    w.gpu.elapsed() - before,
                    stats.counters,
                ));
            }
            data.extend(assemble_output(&plan, &workers));
        }
    }
    (data, kernel_nodes(nodes))
}

fn case_strategy() -> impl Strategy<Value = Case> {
    prop::sample::select(vec![
        Case::Sp,
        Case::Mps(2),
        Case::Mps(4),
        Case::Mps(8),
        Case::Mppc(4, 2),
        Case::Mppc(8, 4),
        Case::Case1(2),
        Case::Multinode(2),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn requests_scan_in_place_like_the_copying_route(
        case in case_strategy(),
        n in 13u32..15,
        g in 1u32..4,
        exclusive in any::<bool>(),
        batches in prop::sample::select(vec![1usize, 2, 4]),
        overlap in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let problem = ProblemParams::new(n, g);
        let input: Vec<i32> = (0..problem.total_elems())
            .map(|i| ((i as u64 * 2_654_435_761 + u64::from(seed)) % 1999) as i32 - 999)
            .collect();
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let mut req = case.request(problem);
        if exclusive {
            req = req.exclusive();
        }
        let batches = if case.pipelines() { batches } else { 1 };
        if case.pipelines() && batches > 1 {
            let policy = if overlap {
                PipelinePolicy::pipelined(batches)
            } else {
                PipelinePolicy::batched_barrier(batches)
            };
            req = req.pipeline(policy);
        }
        let out = req.run(&input).unwrap();
        let (want, want_nodes) = copying_route(case, problem, kind, batches, &input);
        prop_assert!(out.data == want, "{case:?} {kind:?}: the batches differ");
        let graph = out.report.graph.as_ref().expect("proposal runs keep their graph");
        let got_nodes = kernel_nodes(
            graph
                .nodes()
                .iter()
                .filter(|node| node.kind == EventKind::Kernel)
                .map(|node| (node.label.clone(), node.seconds, node.meta.counters.unwrap())),
        );
        prop_assert_eq!(got_nodes, want_nodes, "{:?} {:?}", case, kind);
    }
}
