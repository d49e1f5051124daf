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
use interconnect::{Fabric, LinkClass};
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
    expected_classes: Option<Vec<LinkClass>>,
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
        Ok(GpuLease { gpu_ids, stream, expected_classes: None })
    }

    /// Attach the pairwise [`LinkClass`] matrix the grantor believes the
    /// lease spans: one entry per unordered pair of granted GPUs, in grant
    /// order (`(0,1), (0,2), …, (0,n-1), (1,2), …`). Planning then verifies
    /// the matrix against the pool's fabric and rejects the lease with
    /// [`ScanError::InvalidConfig`] on any mismatch, instead of silently
    /// planning a schedule whose transfer costs assume links the fabric
    /// does not have.
    pub fn with_link_classes(mut self, classes: Vec<LinkClass>) -> Self {
        self.expected_classes = Some(classes);
        self
    }

    /// The expected link-class matrix, if one was attached.
    pub fn expected_link_classes(&self) -> Option<&[LinkClass]> {
        self.expected_classes.as_deref()
    }

    /// Check the attached link-class matrix (if any) against `fabric`.
    ///
    /// A lease without an attached matrix always validates: the fabric is
    /// then the sole authority. With a matrix, every pair must agree with
    /// [`Fabric::link_class`] and the length must cover exactly the
    /// unordered pairs of the grant.
    pub fn validate_link_classes(&self, fabric: &Fabric) -> ScanResult<()> {
        let Some(expected) = &self.expected_classes else {
            return Ok(());
        };
        let n = self.gpu_ids.len();
        let want = n * (n - 1) / 2;
        if expected.len() != want {
            return Err(ScanError::InvalidConfig(format!(
                "lease link-class matrix has {} entries but a {n}-GPU grant has {want} \
                 unordered pairs",
                expected.len()
            )));
        }
        let mut idx = 0;
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = (self.gpu_ids[i], self.gpu_ids[j]);
                let actual = fabric.link_class(a, b);
                if expected[idx] != actual {
                    return Err(ScanError::InvalidConfig(format!(
                        "lease link-class matrix is inconsistent with the pool's fabric: \
                         pair (GPU {a}, GPU {b}) is {actual:?} on the fabric but the lease \
                         claims {:?}",
                        expected[idx]
                    )));
                }
                idx += 1;
            }
        }
        Ok(())
    }

    /// Check that `fabric` can host the lease: every granted GPU exists,
    /// and the attached link-class matrix (if any) agrees with the fabric.
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
        self.validate_link_classes(fabric)
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
    fn consistent_link_class_matrix_is_accepted() {
        // GPUs 0 and 4 sit on different PCIe networks of the same node:
        // the fabric classifies the pair HostStaged, and a lease claiming
        // exactly that plans normally.
        let fabric = Fabric::tsubame_kfc(1);
        let lease =
            GpuLease::new(vec![0, 4], 0).unwrap().with_link_classes(vec![LinkClass::HostStaged]);
        assert!(lease.validate_link_classes(&fabric).is_ok());
        let problem = ProblemParams::new(12, 2);
        let input = pseudo(problem.total_elems());
        let out = scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &DeviceSpec::tesla_k80(),
            &fabric,
            &lease,
            problem,
            &input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap();
        verify_batch(Add, problem, &input, &out.data).unwrap();
    }

    #[test]
    fn inconsistent_link_class_matrix_is_rejected() {
        // The same pair claimed as P2P contradicts the PCIe tree: the
        // lease is rejected up front rather than planned with wrong costs.
        let fabric = Fabric::tsubame_kfc(1);
        let lease = GpuLease::new(vec![0, 4], 0).unwrap().with_link_classes(vec![LinkClass::P2P]);
        let problem = ProblemParams::new(12, 2);
        let input = pseudo(problem.total_elems());
        let err = scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &DeviceSpec::tesla_k80(),
            &fabric,
            &lease,
            problem,
            &input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap_err();
        match err {
            ScanError::InvalidConfig(msg) => {
                assert!(msg.contains("inconsistent with the pool's fabric"), "{msg}");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn wrong_length_link_class_matrix_is_rejected() {
        let fabric = Fabric::tsubame_kfc(1);
        let lease =
            GpuLease::new(vec![0, 1, 2], 0).unwrap().with_link_classes(vec![LinkClass::P2P]);
        let err = lease.validate_link_classes(&fabric).unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig(_)));
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
