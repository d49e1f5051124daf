//! Request → leased-subset planning for the serving layer.
//!
//! `scan-serve` runs many requests against one shared cluster: a device
//! pool grants each request a [`GpuLease`] — a set of GPU ids plus a
//! private stream id from `gpu_sim::StreamNamespace` — and the request is
//! planned over the leased subset instead of a whole [`NodeConfig`]
//! selection. A lease may be *partial* (fewer GPUs than the request asked
//! for, because the pool was busy); planning then reuses the degraded-mode
//! rule of the fault replanner (see [`crate::ScanRequest::faults`]): run
//! on the largest power-of-two prefix of the granted GPUs, shrinking
//! further if the `(s, p, l, K)` plan cannot split the problem that wide.
//!
//! [`scan_on_lease`] and its memoized twin [`PlanCache::plan`] are the
//! only route into lease launches; [`crate::ScanRequest`] runs the paper's
//! proposals only.
//!
//! [`NodeConfig`]: crate::params::NodeConfig
//! [`PlanCache::plan`]: crate::cache::PlanCache::plan

use gpu_sim::DeviceSpec;
use interconnect::Fabric;
use skeletons::{ScanOp, Scannable, SplkTuple};

use crate::error::{ScanError, ScanResult};
use crate::exec::{Launch, PipelinePolicy, PipelineRun};
use crate::fault::largest_pow2;
use crate::params::{ProblemParams, ScanKind};
use crate::plan::ExecutionPlan;

/// Reject a devices list containing duplicate GPU ids: a duplicate would
/// make one physical stream carry two logical workers, silently
/// serialising "parallel" stages and corrupting the portion layout.
fn check_unique_gpu_ids(ids: &[usize]) -> ScanResult<()> {
    let mut seen = std::collections::HashSet::new();
    for &id in ids {
        if !seen.insert(id) {
            return Err(ScanError::InvalidConfig(format!(
                "duplicate GPU id {id} in devices list {ids:?}: each worker needs its own GPU"
            )));
        }
    }
    Ok(())
}

/// A slice of the cluster granted to one request: which GPUs it may use and
/// the stream id its kernels run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuLease {
    gpu_ids: Vec<usize>,
    stream: usize,
}

impl GpuLease {
    /// A lease over `gpu_ids`, running on stream `stream` of each GPU.
    ///
    /// Rejects an empty list and duplicate ids with
    /// [`ScanError::InvalidConfig`].
    pub fn new(gpu_ids: Vec<usize>, stream: usize) -> ScanResult<Self> {
        if gpu_ids.is_empty() {
            return Err(ScanError::InvalidConfig("a lease needs at least one GPU".into()));
        }
        check_unique_gpu_ids(&gpu_ids)?;
        Ok(GpuLease { gpu_ids, stream })
    }

    /// Check that `fabric` can host the lease: every granted GPU exists.
    /// The fabric is the only authority on the links between them.
    /// [`scan_on_lease`] and [`PlanCache::plan`] both run it before they
    /// look at the fabric's links.
    ///
    /// [`PlanCache::plan`]: crate::cache::PlanCache::plan
    pub(crate) fn check_on(&self, fabric: &Fabric) -> ScanResult<()> {
        let total = fabric.topology().total_gpus();
        if let Some(&bad) = self.gpu_ids.iter().find(|&&g| g >= total) {
            return Err(ScanError::InvalidConfig(format!(
                "leased GPU {bad} does not exist: fabric has {total} GPUs"
            )));
        }
        Ok(())
    }

    /// Every GPU id the lease granted, in grant order.
    pub fn granted(&self) -> &[usize] {
        &self.gpu_ids
    }

    /// The stream id the lease's kernels run on.
    pub fn stream(&self) -> usize {
        self.stream
    }

    /// The GPUs planning actually uses: the largest power-of-two prefix of
    /// the grant (the degraded-mode subset rule).
    pub fn planned(&self) -> &[usize] {
        &self.gpu_ids[..largest_pow2(self.gpu_ids.len())]
    }

    /// Whether planning uses fewer GPUs than were granted.
    pub fn is_partial(&self) -> bool {
        self.planned().len() < self.gpu_ids.len()
    }
}

/// Result of running one request on a lease.
#[derive(Debug, Clone)]
pub struct LeaseRun<T> {
    /// The scanned batch, problem-major.
    pub data: Vec<T>,
    /// The execution graph and derived views, ready for fleet admission.
    pub run: PipelineRun,
    /// The GPUs the plan actually ran on (a power-of-two prefix of the
    /// lease's grant, possibly shrunk further to fit the problem).
    pub gpus_used: Vec<usize>,
}

/// Run the three-stage pipeline over the leased subset.
///
/// The plan width starts at the lease's [`GpuLease::planned`] prefix and
/// halves while the `(s, p, l, K)` plan rejects the split (a problem too
/// small to scatter that wide) — the same shrink-to-feasible behaviour the
/// fault replanner applies when evictions leave an awkward survivor count.
/// Width 1 is always attempted; its failure is the caller's error.
#[allow(clippy::too_many_arguments)]
pub fn scan_on_lease<T: Scannable, O: ScanOp<T>>(
    op: O,
    tuple: SplkTuple,
    device: &DeviceSpec,
    fabric: &Fabric,
    lease: &GpuLease,
    problem: ProblemParams,
    input: &[T],
    kind: ScanKind,
    policy: &PipelinePolicy,
) -> ScanResult<LeaseRun<T>> {
    lease.check_on(fabric)?;

    let mut width = lease.planned().len();
    while width > 1 {
        match ExecutionPlan::new(problem, tuple, width) {
            Ok(_) => break,
            Err(ScanError::InvalidConfig(_)) => width /= 2,
            Err(e) => return Err(e),
        }
    }
    let gpus = &lease.gpu_ids[..width];

    let launch = Launch { op, problem, tuple, kind, policy: *policy, device, fabric, faults: None };
    let mut data = vec![T::default(); problem.total_elems()];
    let (graph, _) = launch.group_pipeline(gpus, lease.stream, problem, input, &mut data)?;
    Ok(LeaseRun { data, run: PipelineRun::from_graph(graph), gpus_used: gpus.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_batch;
    use interconnect::Resource;
    use skeletons::Add;

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 48271 + 7) % 173) as i32 - 86).collect()
    }

    #[test]
    fn lease_rejects_duplicates_and_empty() {
        assert!(matches!(GpuLease::new(vec![], 0), Err(ScanError::InvalidConfig(_))));
        let err = GpuLease::new(vec![0, 1, 1], 0).unwrap_err();
        match err {
            ScanError::InvalidConfig(msg) => assert!(msg.contains("duplicate GPU id 1")),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn partial_lease_plans_on_pow2_prefix() {
        let lease = GpuLease::new(vec![4, 5, 6], 2).unwrap();
        assert_eq!(lease.planned(), &[4, 5]);
        assert!(lease.is_partial());
        assert_eq!(lease.stream(), 2);
        let full = GpuLease::new(vec![4, 5], 0).unwrap();
        assert!(!full.is_partial());
    }

    #[test]
    fn lease_run_matches_node_config_run_bit_for_bit() {
        // A lease over GPUs {0,1} on stream 0 is exactly the W=2 NodeConfig
        // path, so data and makespan must agree to the bit.
        let problem = ProblemParams::new(12, 2);
        let input = pseudo(problem.total_elems());
        let tuple = SplkTuple::kepler_premises(0);
        let device = DeviceSpec::tesla_k80();
        let fabric = Fabric::tsubame_kfc(1);
        let lease = GpuLease::new(vec![0, 1], 0).unwrap();
        let leased = scan_on_lease(
            Add,
            tuple,
            &device,
            &fabric,
            &lease,
            problem,
            &input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap();
        let by_cfg = crate::ScanRequest::new(Add, problem)
            .proposal(crate::Proposal::Mps)
            .devices(crate::params::NodeConfig::new(2, 2, 1, 1).unwrap())
            .run(&input)
            .unwrap();
        assert_eq!(leased.data, by_cfg.data);
        assert_eq!(leased.run.makespan.to_bits(), by_cfg.report.makespan.to_bits());
        assert_eq!(leased.gpus_used, vec![0, 1]);
    }

    #[test]
    fn lease_stream_lands_on_graph_resources() {
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        let lease = GpuLease::new(vec![3], 5).unwrap();
        let out = scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &DeviceSpec::tesla_k80(),
            &Fabric::tsubame_kfc(1),
            &lease,
            problem,
            &input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap();
        verify_batch(Add, problem, &input, &out.data).unwrap();
        let streams: Vec<_> = out
            .run
            .graph
            .nodes()
            .iter()
            .flat_map(|n| n.resources.iter())
            .filter_map(|r| match r {
                Resource::Stream { gpu, stream } => Some((*gpu, *stream)),
                _ => None,
            })
            .collect();
        assert!(!streams.is_empty());
        assert!(streams.iter().all(|&s| s == (3, 5)), "kernels run on the leased stream");
    }

    #[test]
    fn oversized_lease_shrinks_to_fit_the_problem() {
        // One problem of 2^12 over a grant of 8 GPUs: if the plan cannot
        // scatter 8-wide it narrows, and the result still verifies.
        let problem = ProblemParams::new(12, 0);
        let input = pseudo(problem.total_elems());
        let lease = GpuLease::new((0..8).collect(), 0).unwrap();
        let out = scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &DeviceSpec::tesla_k80(),
            &Fabric::tsubame_kfc(1),
            &lease,
            problem,
            &input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap();
        verify_batch(Add, problem, &input, &out.data).unwrap();
        assert!(out.gpus_used.len().is_power_of_two());
        assert!(out.gpus_used.len() <= 8);
    }

    #[test]
    fn nonexistent_gpu_is_rejected() {
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        let lease = GpuLease::new(vec![99], 0).unwrap();
        let err = scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &DeviceSpec::tesla_k80(),
            &Fabric::tsubame_kfc(1),
            &lease,
            problem,
            &input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));
    }
}
