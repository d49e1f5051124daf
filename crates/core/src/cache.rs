//! Plan/graph caching: the serving engine's fast path.
//!
//! A lease launch's *shape* — problem size, `(s, p, l, K)` tuple, lease
//! shape, pipeline policy and element type — fully determines its
//! execution graph, cost counters, timeline and makespan: the simulator's
//! cost model is data-independent (durations derive from shape-driven
//! instruction and transaction counts, never from element values). A
//! serving window re-submits the same handful of shapes hundreds of
//! times, so rebuilding and functionally re-executing the pipeline per
//! request is almost pure redundancy.
//!
//! [`PlanCache`] memoizes one kind of entry: the schedule of a
//! [`scan_on_lease`] launch (graph, timeline, makespan and the GPUs it
//! used), looked up through [`PlanCache::plan`]. Each entry validates
//! itself once, on the cold build that stores it: the simulated output is
//! compared against the CPU reference scan, and the entry earns one of
//! three verdicts.
//!
//! * **Exact** — the output equals the reference bit for bit. The entry
//!   replays schedule and data: [`PlannedLaunch::run`] replays the graph
//!   and returns the reference result, so cached and cold outputs are
//!   bit-identical.
//! * **Schedule only** — every element agrees with the reference within
//!   the operator's rounding tolerance ([`ScanOp::agrees`]) but not bit
//!   for bit: a float kind whose combine tree rounds differently from the
//!   sequential order, like the gated recurrence over `f64`. The schedule
//!   does not depend on the data, so [`PlannedLaunch::into_hit`] serves
//!   it; `run` returns data, so it simulates such a launch cold again.
//! * **Neither** — a wrong pipeline. The entry is never served.
//!
//! Keying rules:
//! * everything the cost model can see is in the key — problem `(n, g)`,
//!   tuple, scan kind, element type, pipeline policy and the lease's
//!   *topological shape*: width plus pairwise link classes. Raw GPU ids
//!   and stream ids are remapped on hit, not keyed, so a pool that grants
//!   `[2, 3]` reuses the plan built on `[0, 1]`;
//! * the device spec and fabric are folded in *exactly* (every limit and
//!   rate, floats by bit pattern), so two clusters that differ in any
//!   modelled parameter never share a plan;
//! * lease launches take no fault plan: fault injection runs through
//!   [`ScanRequest::faults`](crate::ScanRequest::faults), which never
//!   consults a plan cache.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use gpu_sim::DeviceSpec;
use interconnect::{
    empty_remap, ExecGraph, Fabric, FxBuildHasher, LinkClass, RemapTable, Resource, Timeline,
};
use skeletons::{ScanOp, Scannable, SplkTuple};

use crate::error::ScanResult;
use crate::exec::{PipelinePolicy, PipelineRun};
use crate::lease::{scan_on_lease, GpuLease, LeaseRun};
use crate::params::{ProblemParams, ScanKind};
use crate::verify::{expected_batch, expected_batch_exclusive};

/// Exact identity of a [`DeviceSpec`]: every limit and timing-model rate,
/// floats by bit pattern. Two specs with equal keys are modelled
/// identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DeviceKey {
    name: &'static str,
    compute_capability: (u32, u32),
    limits: [usize; 10],
    rates: [u64; 6],
}

impl DeviceKey {
    /// Fingerprint `device`.
    fn of(device: &DeviceSpec) -> Self {
        DeviceKey {
            name: device.name,
            compute_capability: device.compute_capability,
            limits: [
                device.warp_size,
                device.num_sms,
                device.max_blocks_per_sm,
                device.max_warps_per_sm,
                device.max_threads_per_block,
                device.registers_per_sm,
                device.max_regs_per_thread,
                device.shared_mem_per_sm,
                device.shared_mem_per_block,
                device.global_mem_bytes,
            ],
            rates: [
                device.mem_bandwidth.to_bits(),
                device.launch_overhead.to_bits(),
                device.instr_throughput.to_bits(),
                device.shuffle_throughput.to_bits(),
                device.shared_throughput.to_bits(),
                device.saturation_occupancy.to_bits(),
            ],
        }
    }
}

/// Exact identity of a [`Fabric`]: topology dimensions plus every link
/// parameter of its spec, floats by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FabricKey {
    nodes: usize,
    networks_per_node: usize,
    gpus_per_network: usize,
    link_bits: [u64; 9],
    /// FNV-1a digest of the per-pair [`LinkClass`] override matrix, or `0`
    /// for a purely structural fabric. Two fabrics with equal dimensions
    /// and spec but different wiring (say, NVLink mesh vs DGX-1 cube-mesh
    /// at the same link rates) must never share a plan.
    class_digest: u64,
}

impl FabricKey {
    /// Fingerprint `fabric`.
    fn of(fabric: &Fabric) -> Self {
        let t = fabric.topology();
        let s = fabric.spec();
        let class_digest = match t.link_overrides() {
            None => 0,
            Some(classes) => {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &c in classes {
                    let tag: u64 = match c {
                        LinkClass::Local => 1,
                        LinkClass::P2P => 2,
                        LinkClass::HostStaged => 3,
                        LinkClass::InterNode => 4,
                    };
                    h ^= tag;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            }
        };
        FabricKey {
            nodes: t.nodes(),
            networks_per_node: t.networks_per_node(),
            gpus_per_network: t.gpus_per_network(),
            class_digest,
            link_bits: [
                s.p2p.bandwidth.to_bits(),
                s.p2p.latency.to_bits(),
                s.host_staged.bandwidth.to_bits(),
                s.host_staged.latency.to_bits(),
                s.inter_node.bandwidth.to_bits(),
                s.inter_node.latency.to_bits(),
                s.mpi_collective_overhead.to_bits(),
                s.host_segment_overhead.to_bits(),
                s.p2p_segment_overhead.to_bits(),
            ],
        }
    }
}

/// Everything the graph builder and cost model can depend on, hashed into
/// one lookup key.
///
/// The lease enters as its *topological shape* rather than raw GPU ids:
/// its width plus the upper-triangular pairwise [`LinkClass`] matrix of
/// the granted GPUs in grant order. Two leases with equal shapes produce
/// bit-identical schedules (durations and contention depend only on link
/// classes, and the scheduler breaks ties by node index), so a plan built
/// on `[0, 1]` is replayed for `[2, 3]` with its resources remapped — see
/// [`PlanCache::plan`]. The stream id is likewise remapped on hit, not
/// keyed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Problem shape `(n, g)`.
    problem: ProblemParams,
    /// The `(s, p, l, K)` tuning tuple.
    tuple: SplkTuple,
    /// Inclusive or exclusive semantics.
    kind: ScanKind,
    /// Element width in bytes (transfer sizes and transaction counts
    /// depend on it).
    elem_bytes: usize,
    /// Operator fingerprint (`type_name` of the `ScanOp` impl). Two
    /// operators on the same lease shape must not share a retargeted plan:
    /// the memoized verdict and the serving layer's response memo are both
    /// operator-dependent.
    op: &'static str,
    /// Element-type fingerprint (`type_name` of `T`). `elem_bytes` alone
    /// would alias e.g. `i32` and `f32`, whose verdicts differ.
    elem: &'static str,
    /// Pipeline sub-batch count.
    batches: usize,
    /// Pipeline communication/compute overlap flag.
    overlap: bool,
    /// Granted GPU count.
    width: usize,
    /// `link_class(ids[i], ids[j])` for all `i < j`, row-major.
    classes: Vec<LinkClass>,
    /// Canonical structural co-membership of the grant — `(node rank,
    /// network rank)` per granted GPU, ranks renumbered by first
    /// appearance. Empty for purely structural fabrics, where the class
    /// matrix already *is* the co-membership relation (P2P ⇔ same network,
    /// HostStaged ⇔ same node). Under link-class overrides that equivalence
    /// breaks (an NVLink mesh classifies every intra-node pair P2P), yet a
    /// hit's resource remap is structural — so structurally distinct grants
    /// must not share an entry.
    structure: Vec<(usize, usize)>,
    /// Exact fingerprint of the simulated device.
    spec: DeviceKey,
    /// Exact fingerprint of the fabric.
    fabric: FabricKey,
}

/// One memoized retarget of a cached plan: the remap table and remapped
/// GPU list for a specific `(granted ids, stream)` the plan has already
/// been replayed on. Steady-state hits on the same lease reuse the shared
/// tables with a refcount bump instead of rebuilding them per request.
#[derive(Debug, Clone)]
struct RetargetEntry {
    ids: Box<[usize]>,
    stream: usize,
    remap: RemapTable,
    gpus_used: Arc<[usize]>,
}

/// What a plan's cold build showed about replaying it (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Output bit-equal to the reference: replays schedule and data.
    Exact,
    /// Output within the operator's rounding tolerance of the reference:
    /// replays the schedule only.
    Schedule,
    /// Neither: never served.
    Never,
}

impl Verdict {
    /// Judge a cold build's output `got` against the reference `want`.
    fn of<T: Scannable, O: ScanOp<T>>(op: O, got: &[T], want: &[T]) -> Self {
        if got == want {
            Verdict::Exact
        } else if got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| op.agrees(g, w)) {
            Verdict::Schedule
        } else {
            Verdict::Never
        }
    }
}

/// One memoized lease schedule and which GPUs the plan settled on.
#[derive(Debug)]
struct CachedPlan {
    /// The cold run's phase timeline.
    timeline: Timeline,
    /// The cold run's scheduled makespan.
    makespan: f64,
    /// GPUs the plan actually used. Shared storage so an identity hit hands
    /// the list out without copying.
    gpus_used: Arc<[usize]>,
    /// The plan's arena entry: the pristine execution graph in shared
    /// storage. Every launch replaying this plan admits the *same* node
    /// vectors (an [`Arc`] clone) with a per-launch resource remap table —
    /// no node storage is copied on a hit.
    graph: Arc<ExecGraph>,
    /// The distinct resources `graph` claims, in first-appearance order —
    /// the domain of a hit's remap table.
    resources: Vec<Resource>,
    /// How the cold run's simulated output compared with the CPU
    /// reference: what this entry may replay.
    verdict: Verdict,
    /// The GPU ids the cold run was granted, in grant order. A hit on a
    /// topologically equivalent lease derives its resource remap from
    /// `lease_ids[i] -> actual_ids[i]`.
    lease_ids: Vec<usize>,
    /// The stream id the cold run's kernels were issued on.
    lease_stream: usize,
    /// Memoized retargets of this plan onto other leases — one entry per
    /// distinct `(granted ids, stream)` seen. Tiny (a serving shard
    /// replays a plan onto a handful of leases), so a linear scan under a
    /// short critical section beats hashing.
    retargets: Mutex<Vec<RetargetEntry>>,
}

/// Hit/miss accounting, exact per lookup: every [`PlanCache::plan`] call
/// that looks its key up lands in exactly one of `hits`,
/// `schedule_hits` or `misses`. (A lease the fabric cannot host does no
/// lookup and lands in none.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a bit-exact plan: it replays schedule and data.
    pub hits: u64,
    /// Lookups that found a schedule-only plan: it replays through
    /// [`PlannedLaunch::into_hit`], while [`PlannedLaunch::run`] runs it
    /// cold.
    pub schedule_hits: u64,
    /// Lookups that found no servable plan (no entry, or one whose output
    /// disagreed with the reference) and run cold.
    pub misses: u64,
    /// Distinct plans currently stored.
    pub entries: usize,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Arc<CachedPlan>, FxBuildHasher>,
    hits: u64,
    schedule_hits: u64,
    misses: u64,
}

/// Bucket count of the sharded cache map. A small power of two: enough
/// that concurrent serving shards rarely contend on one lock, cheap enough
/// that `stats` sums stay trivial.
const CACHE_BUCKETS: usize = 8;

/// A shared, thread-safe memo of built execution plans.
///
/// Interior mutability lets the serving loop consult the cache through
/// `&self`; the map is sharded into 8 independently locked
/// buckets (keyed by the entry's own hash) so read-mostly lookups from
/// parallel serving shards do not serialize on one mutex, and the critical
/// sections are map lookups only, never simulation.
#[derive(Debug, Default)]
pub struct PlanCache {
    buckets: [Mutex<Inner>; CACHE_BUCKETS],
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket `key` lives in: the same Fx hash the bucket's map uses,
    /// folded onto the bucket count.
    fn bucket(&self, key: &CacheKey) -> &Mutex<Inner> {
        let h = FxBuildHasher.hash_one(key);
        &self.buckets[(h as usize) % CACHE_BUCKETS]
    }

    /// Current accounting, summed over the buckets.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for bucket in &self.buckets {
            let inner = bucket.lock().expect("plan cache poisoned");
            stats.hits += inner.hits;
            stats.schedule_hits += inner.schedule_hits;
            stats.misses += inner.misses;
            stats.entries += inner.map.len();
        }
        stats
    }

    /// Look `key` up and count the lookup by the verdict of the plan it
    /// finds. A plan that serves nothing is a miss: the caller runs cold.
    fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedPlan>> {
        let mut inner = self.bucket(key).lock().expect("plan cache poisoned");
        let plan = inner.map.get(key).filter(|p| p.verdict != Verdict::Never).cloned();
        match plan.as_ref().map(|p| p.verdict) {
            Some(Verdict::Exact) => inner.hits += 1,
            Some(_) => inner.schedule_hits += 1,
            None => inner.misses += 1,
        }
        plan
    }

    /// Store the plan a cold run produced. First write wins; a concurrent
    /// duplicate cold run inserts an identical plan anyway.
    fn insert(&self, key: CacheKey, plan: CachedPlan) {
        self.bucket(&key)
            .lock()
            .expect("plan cache poisoned")
            .map
            .entry(key)
            .or_insert_with(|| Arc::new(plan));
    }
}

/// The CPU reference result for one batch — the functional output an exact
/// hit returns (bit-identical to the simulated pipelines, see module docs).
fn reference_result<T: Scannable, O: ScanOp<T>>(
    op: O,
    problem: ProblemParams,
    input: &[T],
    kind: ScanKind,
) -> Vec<T> {
    match kind {
        ScanKind::Inclusive => expected_batch(op, problem, input),
        ScanKind::Exclusive => expected_batch_exclusive(op, problem, input),
    }
}

thread_local! {
    /// Per-thread scratch [`CacheKey`]: the steady-state serving path
    /// rebuilds the lookup key for every request, so the key's heap
    /// buffers (the lease shape's `classes`/`structure` vectors) are
    /// recycled across requests instead of reallocated. Only a cold miss
    /// clones the key into owned storage for memoization.
    static SCRATCH_KEY: RefCell<Option<CacheKey>> = const { RefCell::new(None) };
}

/// Build (or rebuild, in place) the cache key of a lease launch into
/// `slot`, recycling the previous key's `classes`/`structure` vector
/// capacity. The lease enters as its topological shape (width + pairwise
/// link classes), not its raw GPU ids; the operator and element type are
/// part of the key — see [`CacheKey::op`]. The lease must have passed
/// [`GpuLease::check_on`]: every granted GPU exists on `fabric`.
#[allow(clippy::too_many_arguments)]
fn lease_key_into<T: Scannable, O: ScanOp<T>>(
    slot: &mut Option<CacheKey>,
    device: &DeviceSpec,
    fabric: &Fabric,
    lease: &GpuLease,
    problem: ProblemParams,
    tuple: SplkTuple,
    kind: ScanKind,
    policy: &PipelinePolicy,
) {
    let (mut classes, mut structure) =
        slot.take().map_or_else(Default::default, |k| (k.classes, k.structure));
    classes.clear();
    structure.clear();
    let ids = lease.granted();
    let topo = fabric.topology();
    classes.reserve(ids.len() * ids.len().saturating_sub(1) / 2);
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            // The fabric is the authority on classification (overrides
            // included); `Fabric::link_class` delegates to the topology.
            classes.push(fabric.link_class(ids[i], ids[j]));
        }
    }
    if topo.has_link_overrides() {
        let mut node_ranks: Vec<usize> = Vec::new();
        let mut net_ranks: Vec<(usize, usize)> = Vec::new();
        structure.extend(ids.iter().map(|&g| {
            let l = topo.locate(g);
            let nr = node_ranks.iter().position(|&n| n == l.node).unwrap_or_else(|| {
                node_ranks.push(l.node);
                node_ranks.len() - 1
            });
            let wr =
                net_ranks.iter().position(|&p| p == (l.node, l.network)).unwrap_or_else(|| {
                    net_ranks.push((l.node, l.network));
                    net_ranks.len() - 1
                });
            (nr, wr)
        }));
    }
    *slot = Some(CacheKey {
        problem,
        tuple,
        kind,
        elem_bytes: std::mem::size_of::<T>(),
        op: std::any::type_name::<O>(),
        elem: std::any::type_name::<T>(),
        batches: policy.batches,
        overlap: policy.overlap,
        width: ids.len(),
        classes,
        structure,
        spec: DeviceKey::of(device),
        fabric: FabricKey::of(fabric),
    });
}

/// Map one pristine plan resource through a hit's remap table (empty
/// table = identity). Tables hold one entry per distinct resource the plan
/// claims — a handful — so a linear scan beats hashing.
fn remap_lookup(remap: &[(Resource, Resource)], r: Resource) -> Resource {
    if remap.is_empty() {
        return r;
    }
    remap.iter().find(|(from, _)| *from == r).map_or(r, |&(_, to)| to)
}

/// A plan-cache hit, ready for zero-copy fleet admission: the plan's
/// shared (arena) graph plus the resource remap retargeting it onto the
/// lease the launch actually runs on. Exact and schedule-only plans both
/// yield one.
///
/// Hand `graph` and `remap` straight to
/// [`interconnect::FleetTimeline::admit_shared`] — the admitted schedule
/// is bit-identical to cold-building the graph on the actual lease.
#[derive(Debug, Clone)]
pub struct PlanHit {
    /// The pristine plan graph in shared storage (never copied on a hit).
    pub graph: Arc<ExecGraph>,
    /// `(plan resource, lease resource)` pairs covering every distinct
    /// resource `graph` claims; empty when the lease is the very one the
    /// plan was built on (identity). Shared storage — the table is
    /// memoized per `(lease ids, stream)` on the plan, so repeated hits
    /// hand it out with a refcount bump.
    pub remap: RemapTable,
    /// The plan's `gpus_used`, mapped onto the actual lease. Identity hits
    /// share the plan's own list (no allocation).
    pub gpus_used: Arc<[usize]>,
}

/// A planned launch: one cache consultation, resolved into either a
/// [`PlanHit`] or the obligation to run cold.
///
/// Returned by [`PlanCache::plan`]. Callers that only need the execution
/// *shape* (the serving engine, which admits the graph into a fleet
/// timeline and may skip the data path entirely) take the hit via
/// [`PlannedLaunch::into_hit`], which serves exact and schedule-only
/// plans alike; callers that want the functional result call
/// [`PlannedLaunch::run`], which replays an exact plan or runs cold and
/// memoizes the plan as it finishes — one call, no
/// lookup-then-memoize dance.
#[derive(Debug)]
pub struct PlannedLaunch<'a, T: Scannable, O: ScanOp<T>> {
    cache: &'a PlanCache,
    device: &'a DeviceSpec,
    fabric: &'a Fabric,
    lease: &'a GpuLease,
    problem: ProblemParams,
    tuple: SplkTuple,
    kind: ScanKind,
    policy: &'a PipelinePolicy,
    /// Owned copy of the lookup key — populated only on a miss (the cold
    /// run needs it for memoization); hits never clone the scratch key,
    /// and a lease the fabric cannot host never builds one.
    key: Option<CacheKey>,
    plan: Option<Arc<CachedPlan>>,
    remap: RemapTable,
    gpus_used: Arc<[usize]>,
    _elem: PhantomData<fn() -> (T, O)>,
}

impl PlanCache {
    /// Plan a lease launch: one cache lookup (counted as a hit, a schedule
    /// hit or a miss), with the hit's resource remap resolved against
    /// `lease`. A lease naming a GPU the fabric lacks skips the lookup, and
    /// [`PlannedLaunch::run`] returns the `InvalidConfig` that
    /// [`scan_on_lease`] raises for it.
    ///
    /// The remap argument: the cached plan and the incoming lease have
    /// equal pairwise link-class matrices (key equality guarantees it), so
    /// `lease_ids[i] -> granted[i]` induces consistent bijections on GPUs,
    /// PCIe networks, host bridges and IB links — GPUs that share a
    /// network map to GPUs that share a network, and likewise for nodes.
    /// Every route resource is a function of its endpoints' locations, so
    /// mapping through those bijections reproduces exactly the resources a
    /// cold build on the actual lease would emit, and the schedule is
    /// invariant because ties break on node index.
    #[allow(clippy::too_many_arguments)]
    pub fn plan<'a, T: Scannable, O: ScanOp<T>>(
        &'a self,
        device: &'a DeviceSpec,
        fabric: &'a Fabric,
        lease: &'a GpuLease,
        problem: ProblemParams,
        tuple: SplkTuple,
        kind: ScanKind,
        policy: &'a PipelinePolicy,
    ) -> PlannedLaunch<'a, T, O> {
        // A lease naming a GPU the fabric lacks does no lookup, so it
        // counts as neither a hit nor a miss. Nor does it build a key:
        // classifying a missing GPU's links would panic.
        let (key, plan) = if lease.check_on(fabric).is_err() {
            (None, None)
        } else {
            SCRATCH_KEY.with(|slot| {
                let mut slot = slot.borrow_mut();
                lease_key_into::<T, O>(
                    &mut slot, device, fabric, lease, problem, tuple, kind, policy,
                );
                let key = slot.as_ref().expect("lease_key_into always fills the slot");
                match self.lookup(key) {
                    Some(plan) => (None, Some(plan)),
                    None => (Some(key.clone()), None),
                }
            })
        };
        let (remap, gpus_used) = match &plan {
            None => (empty_remap(), Arc::from([])),
            Some(plan) => {
                let ids = lease.granted();
                let stream = lease.stream();
                if plan.lease_ids == ids && plan.lease_stream == stream {
                    // Identity: the lease is the one the plan was built on.
                    (empty_remap(), plan.gpus_used.clone())
                } else {
                    plan.retarget(ids, stream, fabric)
                }
            }
        };
        PlannedLaunch {
            cache: self,
            device,
            fabric,
            lease,
            problem,
            tuple,
            kind,
            policy,
            key,
            plan,
            remap,
            gpus_used,
            _elem: PhantomData,
        }
    }
}

impl CachedPlan {
    /// The remap table and remapped GPU list retargeting this plan onto
    /// the lease `(ids, stream)`, memoized per distinct target.
    ///
    /// The remap construction: the cached plan and the incoming lease have
    /// equal pairwise link-class matrices (key equality guarantees it), so
    /// `lease_ids[i] -> ids[i]` induces consistent bijections on GPUs,
    /// PCIe networks, host bridges and IB links; mapping each distinct
    /// plan resource through them reproduces exactly what a cold build on
    /// the actual lease would emit.
    fn retarget(
        &self,
        ids: &[usize],
        stream: usize,
        fabric: &Fabric,
    ) -> (RemapTable, Arc<[usize]>) {
        let mut memo = self.retargets.lock().expect("plan cache poisoned");
        if let Some(e) = memo.iter().find(|e| *e.ids == *ids && e.stream == stream) {
            return (e.remap.clone(), e.gpus_used.clone());
        }
        let topo = fabric.topology();
        let map_gpu = |g: usize| {
            let i = self.lease_ids.iter().position(|&x| x == g);
            ids[i.expect("plan resources come from granted GPUs")]
        };
        let map_node = |n: usize| {
            let i = self.lease_ids.iter().position(|&x| topo.locate(x).node == n);
            topo.locate(ids[i.expect("plan nodes come from granted GPUs")]).node
        };
        let map_res = |r: Resource| match r {
            Resource::Stream { gpu, stream: _ } => Resource::Stream { gpu: map_gpu(gpu), stream },
            Resource::PcieNetwork { node, network } => {
                let i = self.lease_ids.iter().position(|&x| {
                    let l = topo.locate(x);
                    l.node == node && l.network == network
                });
                let l = topo.locate(ids[i.expect("plan networks come from grants")]);
                Resource::PcieNetwork { node: l.node, network: l.network }
            }
            Resource::HostBridge { node } => Resource::HostBridge { node: map_node(node) },
            Resource::IbLink { a, b } => Resource::ib(map_node(a), map_node(b)),
        };
        let remap: RemapTable =
            self.resources.iter().map(|&r| (r, map_res(r))).collect::<Vec<_>>().into();
        let gpus_used: Arc<[usize]> =
            self.gpus_used.iter().map(|&g| map_gpu(g)).collect::<Vec<_>>().into();
        memo.push(RetargetEntry {
            ids: ids.into(),
            stream,
            remap: remap.clone(),
            gpus_used: gpus_used.clone(),
        });
        (remap, gpus_used)
    }
}

impl<T: Scannable, O: ScanOp<T>> PlannedLaunch<'_, T, O> {
    /// Take the hit for zero-copy admission — an exact or a schedule-only
    /// plan — or get the launch back to [`PlannedLaunch::run`] cold.
    // The Err variant hands the whole launch back on a miss by design:
    // it moves once, straight into `run`, never across a hot boundary.
    #[allow(clippy::result_large_err)]
    pub fn into_hit(self) -> Result<PlanHit, Self> {
        match self.plan {
            Some(ref plan) => Ok(PlanHit {
                graph: plan.graph.clone(),
                remap: self.remap,
                gpus_used: self.gpus_used,
            }),
            None => Err(self),
        }
    }

    /// Materialize an exact hit as a standalone [`PipelineRun`]: clone the
    /// arena graph and rewrite its resources through the remap table.
    /// `None` for a schedule-only plan, whose data must be simulated.
    fn replay(&self) -> Option<(PipelineRun, Vec<usize>)> {
        let plan = self.plan.as_ref().filter(|p| p.verdict == Verdict::Exact)?;
        let mut graph = (*plan.graph).clone();
        if !self.remap.is_empty() {
            graph.remap_resources(|r| remap_lookup(&self.remap, *r));
        }
        Some((
            PipelineRun { graph, timeline: plan.timeline.clone(), makespan: plan.makespan },
            self.gpus_used.to_vec(),
        ))
    }

    /// Execute the launch: replay an exact hit (functional result from the
    /// CPU reference, bit-identical to the simulated pipelines) or run cold
    /// through [`scan_on_lease`]. A miss memoizes the plan on finish; a
    /// schedule-only hit runs cold and stores nothing, since its entry
    /// already exists.
    ///
    /// Hit or miss, the returned [`LeaseRun`] is bit-identical to what
    /// [`scan_on_lease`] would produce for the same arguments.
    ///
    /// # Errors
    /// Propagates [`scan_on_lease`]'s errors on a cold run.
    pub fn run(self, op: O, input: &[T]) -> ScanResult<LeaseRun<T>> {
        if let Some((run, gpus_used)) = self.replay() {
            let data = reference_result(op, self.problem, input, self.kind);
            return Ok(LeaseRun { data, run, gpus_used });
        }
        let cold = scan_on_lease(
            op,
            self.tuple,
            self.device,
            self.fabric,
            self.lease,
            self.problem,
            input,
            self.kind,
            self.policy,
        )?;
        if let Some(key) = self.key {
            memoize_cold(self.cache, key, self.lease, op, self.problem, input, self.kind, &cold);
        }
        Ok(cold)
    }
}

/// Judge a cold run against the CPU reference ([`Verdict::of`]) and store
/// its plan (first write wins). The arena entry is the cold run's graph,
/// promoted into shared storage together with its distinct-resource list.
#[allow(clippy::too_many_arguments)]
fn memoize_cold<T: Scannable, O: ScanOp<T>>(
    cache: &PlanCache,
    key: CacheKey,
    lease: &GpuLease,
    op: O,
    problem: ProblemParams,
    input: &[T],
    kind: ScanKind,
    cold: &LeaseRun<T>,
) {
    let verdict = Verdict::of(op, &cold.data, &reference_result(op, problem, input, kind));
    let mut resources: Vec<Resource> = Vec::new();
    for node in cold.run.graph.nodes() {
        for &r in &node.resources {
            if !resources.contains(&r) {
                resources.push(r);
            }
        }
    }
    cache.insert(
        key,
        CachedPlan {
            timeline: cold.run.timeline.clone(),
            makespan: cold.run.makespan,
            graph: Arc::new(cold.run.graph.clone()),
            resources,
            gpus_used: cold.gpus_used.as_slice().into(),
            verdict,
            lease_ids: lease.granted().to_vec(),
            lease_stream: lease.stream(),
            retargets: Mutex::new(Vec::new()),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use skeletons::{Add, AffinePair, GatedOp};

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 48271 + 3) % 199) as i32 - 99).collect()
    }

    /// Plan `lease` through `cache` and run it: a replay on a hit, a cold
    /// run that memoizes on a miss.
    fn run_planned(
        cache: &PlanCache,
        fabric: &Fabric,
        lease: &GpuLease,
        problem: ProblemParams,
        input: &[i32],
    ) -> LeaseRun<i32> {
        let (device, policy) = (DeviceSpec::tesla_k80(), PipelinePolicy::default());
        let tuple = SplkTuple::kepler_premises(0);
        cache
            .plan::<i32, Add>(&device, fabric, lease, problem, tuple, ScanKind::Inclusive, &policy)
            .run(Add, input)
            .unwrap()
    }

    fn run_cached(
        cache: &PlanCache,
        problem: ProblemParams,
        input: &[i32],
        stream: usize,
    ) -> LeaseRun<i32> {
        run_cached_on(cache, problem, input, &[0, 1], stream)
    }

    #[test]
    fn hits_replay_bit_identically_and_accounting_is_exact() {
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());

        let cold = run_cached(&cache, problem, &input, 0);
        assert_eq!(cache.stats(), CacheStats { hits: 0, schedule_hits: 0, misses: 1, entries: 1 });

        let hot = run_cached(&cache, problem, &input, 0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(hot.data, cold.data);
        assert_eq!(hot.gpus_used, cold.gpus_used);
        assert_eq!(hot.run.makespan.to_bits(), cold.run.makespan.to_bits());
        assert_eq!(hot.run.graph.nodes().len(), cold.run.graph.nodes().len());

        // A different input with the same shape still hits — and still
        // matches what a cold run would produce.
        let other = pseudo(problem.total_elems()).iter().map(|v| v * 3 - 1).collect::<Vec<_>>();
        let hot2 = run_cached(&cache, problem, &other, 0);
        assert_eq!(cache.stats().hits, 2);
        let cold2 = crate::lease::scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &DeviceSpec::tesla_k80(),
            &Fabric::tsubame_kfc(1),
            &GpuLease::new(vec![0, 1], 0).unwrap(),
            problem,
            &other,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap();
        assert_eq!(hot2.data, cold2.data);
        assert_eq!(hot2.run.makespan.to_bits(), cold2.run.makespan.to_bits());
    }

    #[test]
    fn distinct_shapes_do_not_collide() {
        let cache = PlanCache::new();
        let a = ProblemParams::new(12, 1);
        let b = ProblemParams::new(11, 2);
        run_cached(&cache, a, &pseudo(a.total_elems()), 0);
        run_cached(&cache, b, &pseudo(b.total_elems()), 0);
        assert_eq!(cache.stats(), CacheStats { hits: 0, schedule_hits: 0, misses: 2, entries: 2 });
    }

    /// A cold run of `scan_on_lease` with the given lease, for comparison.
    fn run_cold(
        problem: ProblemParams,
        input: &[i32],
        ids: &[usize],
        stream: usize,
    ) -> LeaseRun<i32> {
        scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &DeviceSpec::tesla_k80(),
            &Fabric::tsubame_kfc(1),
            &GpuLease::new(ids.to_vec(), stream).unwrap(),
            problem,
            input,
            ScanKind::Inclusive,
            &PipelinePolicy::default(),
        )
        .unwrap()
    }

    fn run_cached_on(
        cache: &PlanCache,
        problem: ProblemParams,
        input: &[i32],
        ids: &[usize],
        stream: usize,
    ) -> LeaseRun<i32> {
        let lease = GpuLease::new(ids.to_vec(), stream).unwrap();
        run_planned(cache, &Fabric::tsubame_kfc(1), &lease, problem, input)
    }

    /// The hit must be indistinguishable from a cold run on the actual
    /// lease, down to every node's resource list.
    fn assert_replay_matches_cold(hit: &LeaseRun<i32>, cold: &LeaseRun<i32>) {
        assert_eq!(hit.data, cold.data);
        assert_eq!(hit.gpus_used, cold.gpus_used);
        assert_eq!(hit.run.makespan.to_bits(), cold.run.makespan.to_bits());
        let (h, c) = (hit.run.graph.nodes(), cold.run.graph.nodes());
        assert_eq!(h.len(), c.len());
        for (i, (hn, cn)) in h.iter().zip(c).enumerate() {
            assert_eq!(hn.resources, cn.resources, "node {i} resources");
            assert_eq!(hn.seconds.to_bits(), cn.seconds.to_bits(), "node {i} duration");
        }
    }

    /// Topologically equivalent leases share one plan: `[2, 3]` (same
    /// PCIe network, like `[0, 1]`) hits the `[0, 1]` entry, and the
    /// replayed graph's resources are exactly what a cold build on
    /// `[2, 3]` emits.
    #[test]
    fn equivalent_leases_share_a_plan_with_exact_resources() {
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        run_cached_on(&cache, problem, &input, &[0, 1], 0);
        let hit = run_cached_on(&cache, problem, &input, &[2, 3], 0);
        assert_eq!(cache.stats(), CacheStats { hits: 1, schedule_hits: 0, misses: 1, entries: 1 });
        assert_replay_matches_cold(&hit, &run_cold(problem, &input, &[2, 3], 0));
    }

    /// A host-staged pair (`[0, 4]` spans the KFC node's two PCIe
    /// networks) does not collide with a P2P pair — but does hit another
    /// staged pair, with networks and host bridge remapped exactly.
    #[test]
    fn link_classes_separate_and_join_leases_correctly() {
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        run_cached_on(&cache, problem, &input, &[0, 1], 0);
        run_cached_on(&cache, problem, &input, &[0, 4], 0);
        assert_eq!(cache.stats(), CacheStats { hits: 0, schedule_hits: 0, misses: 2, entries: 2 });
        let hit = run_cached_on(&cache, problem, &input, &[1, 5], 0);
        assert_eq!(cache.stats().hits, 1);
        assert_replay_matches_cold(&hit, &run_cold(problem, &input, &[1, 5], 0));
        // And the swapped-network variant hits too, with the network
        // bijection reversed.
        let hit = run_cached_on(&cache, problem, &input, &[6, 2], 0);
        assert_eq!(cache.stats().hits, 2);
        assert_replay_matches_cold(&hit, &run_cold(problem, &input, &[6, 2], 0));
    }

    /// Stream ids are remapped on hit, never keyed: the same lease on a
    /// different stream replays the plan with its streams retargeted.
    #[test]
    fn streams_are_remapped_not_keyed() {
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        run_cached(&cache, problem, &input, 0);
        let hit = run_cached(&cache, problem, &input, 3);
        assert_eq!(cache.stats(), CacheStats { hits: 1, schedule_hits: 0, misses: 1, entries: 1 });
        assert_replay_matches_cold(&hit, &run_cold(problem, &input, &[0, 1], 3));
    }

    /// Reversed grant order is still equivalent (the class matrix is
    /// symmetric for a pair) and the remap follows grant order.
    #[test]
    fn reversed_grant_order_remaps_by_position() {
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        run_cached_on(&cache, problem, &input, &[0, 1], 0);
        let hit = run_cached_on(&cache, problem, &input, &[3, 2], 0);
        assert_eq!(cache.stats().hits, 1);
        assert_replay_matches_cold(&hit, &run_cold(problem, &input, &[3, 2], 0));
    }

    /// A one-node TSUBAME tree rewired as a full intra-node NVLink mesh:
    /// every in-node pair overridden to P2P, structure untouched.
    fn nvlink_like() -> Fabric {
        let topo = interconnect::Topology::tsubame_kfc(1);
        let n = topo.total_gpus();
        let mut classes = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in a + 1..n {
                let c = topo.structural_link_class(a, b);
                classes.push(if c == LinkClass::InterNode { c } else { LinkClass::P2P });
            }
        }
        Fabric::new(topo.with_link_overrides(classes), interconnect::FabricSpec::tsubame_kfc())
    }

    fn run_on_fabric(
        cache: Option<&PlanCache>,
        fabric: &Fabric,
        problem: ProblemParams,
        input: &[i32],
        ids: &[usize],
    ) -> LeaseRun<i32> {
        let lease = GpuLease::new(ids.to_vec(), 0).unwrap();
        match cache {
            Some(cache) => run_planned(cache, fabric, &lease, problem, input),
            None => scan_on_lease(
                Add,
                SplkTuple::kepler_premises(0),
                &DeviceSpec::tesla_k80(),
                fabric,
                &lease,
                problem,
                input,
                ScanKind::Inclusive,
                &PipelinePolicy::default(),
            )
            .unwrap(),
        }
    }

    /// Under link-class overrides the class matrix stops implying
    /// structure: on an NVLink mesh `[0, 1]` (one PCIe network) and
    /// `[0, 4]` (two networks) are both all-P2P, but their transfers claim
    /// different exclusive link resources. The structural pattern in the
    /// key must keep them apart — while still letting genuinely equivalent
    /// grants share.
    #[test]
    fn override_leases_key_structure_not_just_classes() {
        let fabric = nvlink_like();
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        run_on_fabric(Some(&cache), &fabric, problem, &input, &[0, 1]);
        run_on_fabric(Some(&cache), &fabric, problem, &input, &[0, 4]);
        assert_eq!(cache.stats(), CacheStats { hits: 0, schedule_hits: 0, misses: 2, entries: 2 });
        // Same-network pair hits the same-network entry…
        let hit = run_on_fabric(Some(&cache), &fabric, problem, &input, &[2, 3]);
        assert_eq!(cache.stats().hits, 1);
        assert_replay_matches_cold(&hit, &run_on_fabric(None, &fabric, problem, &input, &[2, 3]));
        // …and the cross-network pair hits the cross-network entry.
        let hit = run_on_fabric(Some(&cache), &fabric, problem, &input, &[1, 5]);
        assert_eq!(cache.stats().hits, 2);
        assert_replay_matches_cold(&hit, &run_on_fabric(None, &fabric, problem, &input, &[1, 5]));
    }

    /// Fabrics with equal dimensions and spec but different wiring get
    /// different keys (the override digest), and a rewired fabric never
    /// shares a key with the structural one.
    #[test]
    fn fabric_key_digests_the_override_matrix() {
        let structural = Fabric::tsubame_kfc(1);
        let meshed = nvlink_like();
        assert_ne!(FabricKey::of(&structural), FabricKey::of(&meshed));

        // Flip a single pair of the mesh back to HostStaged: still a
        // distinct key.
        let topo = interconnect::Topology::tsubame_kfc(1);
        let n = topo.total_gpus();
        let mut classes = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in a + 1..n {
                let c = topo.structural_link_class(a, b);
                classes.push(if c == LinkClass::InterNode || (a, b) == (0, 4) {
                    c
                } else {
                    LinkClass::P2P
                });
            }
        }
        let tweaked =
            Fabric::new(topo.with_link_overrides(classes), interconnect::FabricSpec::tsubame_kfc());
        assert_ne!(FabricKey::of(&meshed), FabricKey::of(&tweaked));
    }

    /// Plan `lease` through `cache` without running it.
    fn plan_on<'a>(
        cache: &'a PlanCache,
        device: &'a DeviceSpec,
        fabric: &'a Fabric,
        lease: &'a GpuLease,
        policy: &'a PipelinePolicy,
    ) -> PlannedLaunch<'a, i32, Add> {
        let tuple = SplkTuple::kepler_premises(0);
        let problem = ProblemParams::new(12, 1);
        cache.plan(device, fabric, lease, problem, tuple, ScanKind::Inclusive, policy)
    }

    /// A lease naming a GPU the fabric lacks plans without panicking, and
    /// its run returns the same `InvalidConfig` a cold `scan_on_lease`
    /// does.
    #[test]
    fn lease_beyond_the_fabric_errors_like_a_cold_run() {
        let cache = PlanCache::new();
        let fabric = Fabric::tsubame_kfc(1);
        let problem = ProblemParams::new(12, 1);
        let input = pseudo(problem.total_elems());
        let lease = GpuLease::new(vec![0, 99], 0).unwrap();
        let (device, policy) = (DeviceSpec::tesla_k80(), PipelinePolicy::default());
        let planned = plan_on(&cache, &device, &fabric, &lease, &policy);
        let err = planned.run(Add, &input).unwrap_err();
        let cold = scan_on_lease(
            Add,
            SplkTuple::kepler_premises(0),
            &device,
            &fabric,
            &lease,
            problem,
            &input,
            ScanKind::Inclusive,
            &policy,
        )
        .unwrap_err();
        assert!(matches!(err, crate::error::ScanError::InvalidConfig(_)));
        assert_eq!(err, cold);
        assert_eq!(cache.stats(), CacheStats::default(), "no lookup, no entry");
    }

    /// A test-only operator that is not associative at all, `a − b`, but
    /// accepts float rounding like `Add` does: tree and sequential orders
    /// disagree far beyond any rounding.
    #[derive(Debug, Clone, Copy)]
    struct Sub;

    impl ScanOp<f64> for Sub {
        fn identity(&self) -> f64 {
            0.0
        }
        fn combine(&self, a: f64, b: f64) -> f64 {
            a - b
        }
        fn agrees(&self, got: f64, want: f64) -> bool {
            skeletons::Numeric::agrees_with(got, want)
        }
    }

    /// Plan one inclusive launch of `op` over `input` on GPUs `[0, 1]` of
    /// a K80 node through `cache`, run it, and run it cold beside it.
    /// Returns whether the plan served a hit, and both runs' data.
    fn plan_hit_and_runs<T: Scannable, O: ScanOp<T>>(
        cache: &PlanCache,
        op: O,
        problem: ProblemParams,
        input: &[T],
    ) -> (bool, Vec<T>, Vec<T>) {
        let (device, fabric) = (DeviceSpec::tesla_k80(), Fabric::tsubame_kfc(1));
        let (tuple, policy, kind) =
            (SplkTuple::kepler_premises(0), PipelinePolicy::default(), ScanKind::Inclusive);
        let lease = GpuLease::new(vec![0, 1], 0).unwrap();
        let plan = || cache.plan::<T, O>(&device, &fabric, &lease, problem, tuple, kind, &policy);
        let hit = plan().into_hit().is_ok();
        let planned = plan().run(op, input).unwrap();
        let cold =
            scan_on_lease(op, tuple, &device, &fabric, &lease, problem, input, kind, &policy)
                .unwrap();
        (hit, planned.data, cold.data)
    }

    /// A gated recurrence over `f64` rounds differently in tree order, but
    /// within tolerance: its plan serves schedule hits, while `run` keeps
    /// simulating its data cold and stores nothing.
    #[test]
    fn float_plans_within_tolerance_replay_their_schedule_only() {
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input: Vec<AffinePair<f64>> = (0..problem.total_elems())
            .map(|i| AffinePair::new(0.999 + (i % 1000) as f64 * 1e-6, (i % 257) as f64 / 128.0))
            .collect();
        let reference = reference_result(GatedOp, problem, &input, ScanKind::Inclusive);
        let (hit, planned, cold) = plan_hit_and_runs(&cache, GatedOp, problem, &input);
        assert!(!hit, "a cold cache serves nothing");
        assert_eq!(cache.stats(), CacheStats { hits: 0, schedule_hits: 0, misses: 2, entries: 1 });
        assert!(cold != reference, "tree order rounds differently from the reference");
        assert!(planned == cold);

        let (hit, planned, cold) = plan_hit_and_runs(&cache, GatedOp, problem, &input);
        assert!(hit, "a schedule-only plan serves into_hit");
        assert!(planned == cold, "run re-simulates a schedule-only plan bit for bit");
        assert_eq!(cache.stats(), CacheStats { hits: 0, schedule_hits: 2, misses: 2, entries: 1 });
    }

    /// An operator whose pipelines disagree with the reference beyond the
    /// rounding tolerance earns neither kind of hit: every lookup misses
    /// and `into_hit` hands the launch back.
    #[test]
    fn non_associative_plans_never_serve() {
        let cache = PlanCache::new();
        let problem = ProblemParams::new(12, 1);
        let input: Vec<f64> = (0..problem.total_elems()).map(|i| (i % 13) as f64 - 6.0).collect();
        let reference = reference_result(Sub, problem, &input, ScanKind::Inclusive);
        for round in 0..2 {
            let (hit, planned, cold) = plan_hit_and_runs(&cache, Sub, problem, &input);
            assert!(!hit, "round {round}: into_hit must return Err");
            assert!(planned == cold, "round {round}: run stays cold");
            assert!(cold.iter().zip(&reference).any(|(&g, &w)| !Sub.agrees(g, w)));
        }
        assert_eq!(cache.stats(), CacheStats { hits: 0, schedule_hits: 0, misses: 4, entries: 1 });
    }
}
