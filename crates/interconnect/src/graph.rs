//! Execution graphs: DAG scheduling of simulated operations.
//!
//! Every simulated operation — a kernel launch, a P2P / host-staged /
//! InfiniBand transfer, an MPI collective, a barrier — is an [`ExecNode`]
//! with explicit dependencies, and the makespan of a run is the **critical
//! path** of the graph, not a sum of phases. This is the simulator's
//! analogue of CUDA streams + events (or CUDA graphs): a node may start as
//! soon as all its dependencies have finished *and* every exclusive
//! [`Resource`] it needs (a GPU stream, a PCIe network, the host bridge, an
//! InfiniBand link) is free.
//!
//! Two transfers that share a link therefore serialise even when the graph
//! itself would allow them to overlap, while independent work on disjoint
//! resources proceeds concurrently.
//!
//! ## Phases and the derived [`Timeline`]
//!
//! Nodes are grouped into *phase instances* (registered with
//! [`ExecGraph::phase`]). The phase view exists for reporting — Fig. 14's
//! per-phase breakdown — and for compatibility: [`ExecGraph::timeline`]
//! reduces each phase instance to the maximum of its nodes' durations,
//! exactly the `push`/`push_parallel` composition the phase-synchronous
//! model used. For a graph whose phases form a barrier-synchronised chain
//! (every node of phase *k+1* depends on all nodes of phase *k*), the
//! scheduler's makespan is **bit-identical** to `Timeline::total()`: with
//! a common start time `t`, IEEE-754 addition is monotone, so
//! `max_g(t + d_g) == t + max_g(d_g)`, and the chain accumulates the phase
//! maxima in the same order as the timeline's sum.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use gpu_sim::CostCounters;

use crate::timeline::Timeline;
use crate::topology::{LinkClass, Topology};

/// Deterministic multiply-rotate hasher for small fixed-width keys
/// ([`Resource`], plan-cache keys). The standard `RandomState` seeds
/// itself per process, which costs an initialization syscall and makes
/// iteration order vary run to run; this hasher is seed-free, so maps
/// built on it hash identically everywhere. The scheduler never iterates
/// its maps (all map access is keyed), so determinism of *results* does
/// not depend on this — it only buys speed and reproducible debugging.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`BuildHasher`] for [`FxHasher`]: zero-sized, seed-free, deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A [`Resource`]-keyed hash map on the deterministic [`FxBuildHasher`] —
/// the scheduler's availability and holder indices.
pub type ResourceMap<V> = HashMap<Resource, V, FxBuildHasher>;

/// Identifier of a node within an [`ExecGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Position of the node in [`ExecGraph::nodes`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// An exclusive hardware resource a node occupies while it runs.
///
/// The scheduler serialises nodes that claim the same resource; nodes on
/// disjoint resources may overlap (subject to their dependencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// One in-order stream of a GPU (compute or copy queue).
    Stream {
        /// Flat GPU index.
        gpu: usize,
        /// Stream number on that GPU.
        stream: usize,
    },
    /// The shared wire of one PCIe network: all P2P traffic among the
    /// network's GPUs, and the network's leg of host-staged or inter-node
    /// paths, contend here.
    PcieNetwork {
        /// Node the network belongs to.
        node: usize,
        /// PCIe-network index within the node.
        network: usize,
    },
    /// The host-memory bridge of a node: staged copies between the node's
    /// PCIe networks serialise on it.
    HostBridge {
        /// Node index.
        node: usize,
    },
    /// The InfiniBand link between a pair of nodes (stored with the lower
    /// node first; use [`Resource::ib`]).
    IbLink {
        /// Lower node index.
        a: usize,
        /// Higher node index.
        b: usize,
    },
}

impl Resource {
    /// The InfiniBand link between nodes `a` and `b` (order-insensitive).
    pub fn ib(a: usize, b: usize) -> Self {
        Resource::IbLink { a: a.min(b), b: a.max(b) }
    }

    /// The links a transfer between two GPUs occupies, from the topology's
    /// [`LinkClass`]: nothing for a local copy, the shared PCIe network for
    /// P2P, both networks plus the host bridge for a staged copy, and both
    /// networks plus the InfiniBand link across nodes.
    pub fn route(topo: &Topology, from: usize, to: usize) -> Vec<Resource> {
        let (src, dst) = (topo.locate(from), topo.locate(to));
        match topo.link_class(from, to) {
            LinkClass::Local => vec![],
            LinkClass::P2P => {
                vec![Resource::PcieNetwork { node: src.node, network: src.network }]
            }
            LinkClass::HostStaged => vec![
                Resource::PcieNetwork { node: src.node, network: src.network },
                Resource::HostBridge { node: src.node },
                Resource::PcieNetwork { node: dst.node, network: dst.network },
            ],
            LinkClass::InterNode => vec![
                Resource::PcieNetwork { node: src.node, network: src.network },
                Resource::ib(src.node, dst.node),
                Resource::PcieNetwork { node: dst.node, network: dst.network },
            ],
        }
    }
}

/// Category of a simulated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A kernel execution on a GPU.
    Kernel,
    /// A point-to-point memory transfer.
    Transfer,
    /// A collective operation (gather/scatter/broadcast).
    Collective,
    /// A synchronisation barrier (device sync or MPI barrier).
    Barrier,
    /// Host-side software overhead (library setup, temporary allocation,
    /// plan creation — the per-invocation costs of §5's competing
    /// libraries).
    Host,
}

/// Optional observability metadata attached to an [`ExecNode`].
///
/// Metadata never affects scheduling — it is carried verbatim through
/// [`ExecGraph::merge`] and the fault rewriter so the trace exporter and
/// the utilization metrics can attribute bytes, simulated hardware
/// counters, and retry attempts to the node that caused them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMeta {
    /// Payload bytes moved by a transfer or collective node.
    pub bytes: Option<u64>,
    /// Aggregated simulated hardware counters of a kernel node.
    pub counters: Option<CostCounters>,
    /// 1-based retry-attempt index stamped by the fault rewriter
    /// (`Some(1)` is the first attempt of a retried transfer).
    pub attempt: Option<usize>,
}

impl NodeMeta {
    /// Metadata for a transfer of `bytes` payload bytes.
    pub fn transfer(bytes: u64) -> Self {
        NodeMeta { bytes: Some(bytes), ..Default::default() }
    }

    /// Metadata for a kernel node with aggregated simulated counters.
    pub fn kernel(counters: CostCounters) -> Self {
        NodeMeta { counters: Some(counters), ..Default::default() }
    }
}

/// One simulated operation in the graph.
#[derive(Debug, Clone)]
pub struct ExecNode {
    /// Label, e.g. `"stage1:chunk-reduce"` or `"MPI_Gather"`.
    pub label: String,
    /// Operation category.
    pub kind: EventKind,
    /// Simulated duration in seconds.
    pub seconds: f64,
    /// Nodes that must finish before this one starts.
    pub deps: Vec<NodeId>,
    /// Exclusive resources occupied for the node's whole duration.
    pub resources: Vec<Resource>,
    /// Phase instance the node belongs to (index into the graph's phases).
    pub phase: usize,
    /// Observability metadata (bytes moved, counters, retry attempt).
    pub meta: NodeMeta,
}

/// A DAG of simulated operations plus its phase-instance labels.
#[derive(Debug, Clone, Default)]
pub struct ExecGraph {
    nodes: Vec<ExecNode>,
    phase_labels: Vec<String>,
}

impl ExecGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the next phase instance and return its index. Phase
    /// instances order the derived [`ExecGraph::timeline`]; they impose no
    /// scheduling constraint by themselves.
    pub fn phase(&mut self, label: impl Into<String>) -> usize {
        self.phase_labels.push(label.into());
        self.phase_labels.len() - 1
    }

    /// Add a node. Dependencies must refer to already-added nodes, which
    /// makes the graph acyclic by construction.
    ///
    /// # Panics
    /// Panics if a dependency or the phase index is out of range, or the
    /// duration is negative or non-finite.
    pub fn add(
        &mut self,
        phase: usize,
        label: impl Into<String>,
        kind: EventKind,
        seconds: f64,
        deps: &[NodeId],
        resources: &[Resource],
    ) -> NodeId {
        self.add_with_meta(phase, label, kind, seconds, deps, resources, NodeMeta::default())
    }

    /// [`ExecGraph::add`] with observability metadata attached. Metadata
    /// has no effect on scheduling.
    ///
    /// # Panics
    /// Panics under the same conditions as [`ExecGraph::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_with_meta(
        &mut self,
        phase: usize,
        label: impl Into<String>,
        kind: EventKind,
        seconds: f64,
        deps: &[NodeId],
        resources: &[Resource],
        meta: NodeMeta,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        assert!(phase < self.phase_labels.len(), "phase {phase} not registered");
        assert!(seconds >= 0.0 && seconds.is_finite(), "bad duration {seconds}");
        for d in deps {
            assert!(d.0 < id.0, "dependency {} of node {} not yet added", d.0, id.0);
        }
        self.nodes.push(ExecNode {
            label: label.into(),
            kind,
            seconds,
            deps: deps.to_vec(),
            resources: resources.to_vec(),
            phase,
            meta,
        });
        id
    }

    /// The nodes in insertion order (`NodeId::index` indexes this slice).
    pub fn nodes(&self) -> &[ExecNode] {
        &self.nodes
    }

    /// Labels of the registered phase instances, in order.
    pub fn phase_labels(&self) -> &[String] {
        &self.phase_labels
    }

    /// Rewrite every node's resource list through `f`, in place.
    ///
    /// The schedule is invariant under any *bijective* rewrite (ties are
    /// broken by node index, never by resource identity), which is what
    /// lets `scan-core`'s plan cache retarget a memoized graph onto a
    /// different but topologically equivalent GPU lease.
    #[doc(hidden)]
    pub fn remap_resources(&mut self, mut f: impl FnMut(&Resource) -> Resource) {
        for node in &mut self.nodes {
            for r in &mut node.resources {
                *r = f(r);
            }
        }
    }

    /// Absorb `other`, remapping its node ids and matching its phase
    /// instances to this graph's **by index** (extending with any extra
    /// phases). Used to combine per-group subgraphs of an MP-PC run, whose
    /// phase sequences are identical; mismatched labels panic.
    ///
    /// Returns the new ids of `other`'s nodes, in `other`'s order.
    pub fn merge(&mut self, other: ExecGraph) -> Vec<NodeId> {
        for (i, label) in other.phase_labels.iter().enumerate() {
            if i < self.phase_labels.len() {
                assert_eq!(&self.phase_labels[i], label, "merged graphs must agree on phase {i}");
            } else {
                self.phase_labels.push(label.clone());
            }
        }
        self.absorb(other.nodes, 0)
    }

    /// Absorb `other` after this graph: its phase instances are registered
    /// as new ones following this graph's, and its node ids are remapped.
    /// Unlike [`ExecGraph::merge`], the two phase sequences may differ —
    /// used for MP-PC groups under a fault plan, where a replanned group
    /// grows extra `recovery:` phases.
    ///
    /// Returns the new ids of `other`'s nodes, in `other`'s order.
    pub fn append(&mut self, other: ExecGraph) -> Vec<NodeId> {
        let phase_base = self.phase_labels.len();
        self.phase_labels.extend(other.phase_labels);
        self.absorb(other.nodes, phase_base)
    }

    /// Push `nodes` after this graph's, shifting their phases by
    /// `phase_base` and their dependencies by the current node count.
    fn absorb(&mut self, nodes: Vec<ExecNode>, phase_base: usize) -> Vec<NodeId> {
        let offset = self.nodes.len();
        let mut ids = Vec::with_capacity(nodes.len());
        for mut node in nodes {
            node.phase += phase_base;
            for d in &mut node.deps {
                d.0 += offset;
            }
            ids.push(NodeId(self.nodes.len()));
            self.nodes.push(node);
        }
        ids
    }

    /// Reduce the graph to the phase-synchronous [`Timeline`] view: one
    /// phase per registered instance, whose duration is the maximum of its
    /// nodes' durations (0 for an instance with no nodes — the same "an
    /// empty parallel phase is free" rule as [`Timeline::push_parallel`]).
    pub fn timeline(&self) -> Timeline {
        let mut tl = Timeline::new();
        for (p, label) in self.phase_labels.iter().enumerate() {
            let seconds =
                self.nodes.iter().filter(|n| n.phase == p).map(|n| n.seconds).fold(0.0, f64::max);
            tl.push(label.clone(), seconds);
        }
        tl
    }

    /// Schedule the graph with deterministic list scheduling.
    ///
    /// Each node's earliest start is the maximum of its dependencies' finish
    /// times and the availability of every resource it claims; among ready
    /// nodes the scheduler always places the one with the earliest start
    /// (ties broken by insertion order), then marks its resources busy until
    /// its finish. The result is deterministic for a given graph: it is one
    /// admission into an empty fleet at release 0.
    pub fn schedule(&self) -> Schedule {
        let n = self.nodes.len();
        let (mut start, mut finish, mut pred) =
            (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
        let (_, makespan) = admit_schedule_into(
            &self.nodes,
            &[],
            0.0,
            &mut ResourceMap::default(),
            0,
            &mut SchedScratch::default(),
            &mut start,
            &mut finish,
            &mut pred,
        );
        Schedule { start, finish, pred, makespan }
    }

    /// Critical-path makespan: [`ExecGraph::schedule`]'s total.
    pub fn makespan(&self) -> f64 {
        self.schedule().makespan
    }
}

/// The O(n²) list scheduler: every iteration rescans the whole ready set
/// for the minimum `(est, index)` pair.
///
/// The executable specification of [`admit_schedule_into`]'s selection
/// rule, shared by the two oracles: [`reference_schedule`] schedules a
/// whole graph with it and [`FleetTimeline::reference_schedule`] replays a
/// fleet's admission log through it. `avail` and `holder` carry resource
/// availability and the last holder across calls, `release` bounds every
/// start from below and `offset` translates local node indices into the
/// caller's id space.
///
/// Returns `(start, finish, pred, makespan)` with `pred` in the caller's
/// (offset) id space.
fn reference_list_schedule(
    nodes: &[ExecNode],
    release: f64,
    avail: &mut ResourceMap<f64>,
    holder: &mut ResourceMap<NodeId>,
    offset: usize,
) -> (Vec<f64>, Vec<f64>, Vec<Option<NodeId>>, f64) {
    let n = nodes.len();
    let mut start = vec![0.0f64; n];
    let mut finish = vec![0.0f64; n];
    let mut dep_ready = vec![release; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    let mut deps_left: Vec<usize> = nodes.iter().map(|d| d.deps.len()).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        for d in &node.deps {
            succs[d.0].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| deps_left[i] == 0).collect();
    let mut placed = vec![false; n];

    for _ in 0..n {
        // Earliest-start-first among ready nodes, insertion order on ties.
        let mut best: Option<(f64, usize, usize)> = None; // (est, node, ready slot)
        for (slot, &i) in ready.iter().enumerate() {
            let mut est = dep_ready[i];
            for r in &nodes[i].resources {
                est = est.max(avail.get(r).copied().unwrap_or(0.0));
            }
            match best {
                Some((b, bi, _)) if (est, i) >= (b, bi) => {}
                _ => best = Some((est, i, slot)),
            }
        }
        let (est, i, slot) = best.expect("graph has a cycle or dangling dependency");
        ready.swap_remove(slot);
        placed[i] = true;

        start[i] = est;
        finish[i] = est + nodes[i].seconds;
        if est > 0.0 {
            pred[i] = nodes[i]
                .deps
                .iter()
                .find(|d| finish[d.0] == est)
                .map(|d| NodeId(d.0 + offset))
                .or_else(|| {
                    nodes[i]
                        .resources
                        .iter()
                        .find(|r| avail.get(r).copied().unwrap_or(0.0) == est)
                        .and_then(|r| holder.get(r).copied())
                });
        }
        for r in &nodes[i].resources {
            avail.insert(*r, finish[i]);
            holder.insert(*r, NodeId(i + offset));
        }
        for &s in &succs[i] {
            dep_ready[s] = dep_ready[s].max(finish[i]);
            deps_left[s] -= 1;
            if deps_left[s] == 0 {
                ready.push(s);
            }
        }
    }
    assert!(placed.iter().all(|&p| p), "graph has a cycle or dangling dependency");

    let makespan = finish.iter().copied().fold(0.0, f64::max);
    (start, finish, pred, makespan)
}

/// Schedule `graph` with the O(n²) rescanning list scheduler: the oracle
/// [`ExecGraph::schedule`] is checked against. Test/benchmark surface
/// only.
#[doc(hidden)]
pub fn reference_schedule(graph: &ExecGraph) -> Schedule {
    let mut avail = ResourceMap::default();
    let mut holder = ResourceMap::default();
    let (start, finish, pred, makespan) =
        reference_list_schedule(&graph.nodes, 0.0, &mut avail, &mut holder, 0);
    Schedule { start, finish, pred, makespan }
}

/// A shared admission resource-remap table: maps each *distinct* resource
/// a plan's graph claims onto the resource of the lease a launch actually
/// runs on. Shared (`Arc<[..]>`) so the plan cache can memoize one table
/// per retarget and every replaying launch admits it with a refcount bump
/// instead of rebuilding a `Vec` per request.
pub type RemapTable = Arc<[(Resource, Resource)]>;

/// The shared empty (identity) remap table. Cloning it is a refcount bump,
/// so identity admissions stay allocation-free on the steady-state path.
pub fn empty_remap() -> RemapTable {
    static EMPTY: std::sync::OnceLock<RemapTable> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(Vec::new())).clone()
}

/// Map one pristine resource through an admission's remap table (empty
/// table = identity). Tables are tiny — one entry per *distinct* resource
/// a plan's graph touches (a handful of streams and links) — so a linear
/// scan beats hashing.
#[inline]
fn map_r(remap: &[(Resource, Resource)], r: Resource) -> Resource {
    if remap.is_empty() {
        return r;
    }
    remap.iter().find(|(from, _)| *from == r).map_or(r, |&(_, to)| to)
}

/// Reusable working set of the incremental admission scheduler. Admitting
/// a graph needs per-node ready times, remaining-dependency counts, a
/// flattened successor adjacency and the event heap; pooling them in the
/// [`FleetTimeline`] makes the steady-state admission path allocation-free
/// once the buffers have grown to the largest graph seen.
#[derive(Debug, Clone, Default)]
struct SchedScratch {
    dep_ready: Vec<f64>,
    deps_left: Vec<u32>,
    succ_off: Vec<u32>,
    succ_cur: Vec<u32>,
    succ: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

/// The deterministic list scheduler (event-heap implementation): places
/// `nodes` one at a time, earliest-start-first (insertion order on ties),
/// against the availability `index`, and appends their starts, finishes
/// and predecessors onto the caller's arrays at `offset`.
/// [`ExecGraph::schedule`] calls it with an empty index, an empty remap
/// and `release = 0`; [`FleetTimeline::admit_shared`] with the fleet's
/// shared index and pooled [`SchedScratch`], so graphs admitted later
/// contend for the same hardware.
///
/// A node's earliest start is the maximum of `release`, its dependencies'
/// finish times, and the availability of every resource it claims, read
/// *through* the `remap` table (empty = identity), so a plan-cached graph
/// is scheduled onto its lease without being rewritten. Only the
/// resources the graph claims are looked up; the index is never scanned.
///
/// Ready nodes sit in a min-heap keyed by `(est bits, node index)` with
/// *lazy invalidation*: a stored key is the node's earliest start when it
/// was pushed, and resource availability only ever moves forward, so keys
/// are lower bounds. On pop the est is recomputed; a stale entry (the true
/// est grew past the stored key) is re-pushed with its fresh key, and a
/// fresh entry is by the lower-bound argument the true lexicographic
/// minimum over all ready nodes — exactly what the O(n²) rescan of
/// [`reference_list_schedule`] selects on the remapped graph. Every est is
/// a non-negative finite f64, for which IEEE-754 bit order equals value
/// order, so the `(est.to_bits(), index)` heap keys preserve the reference
/// tie-break and the schedules match bit for bit.
///
/// Returns `(first_start, makespan)` of the admitted nodes.
#[allow(clippy::too_many_arguments)]
fn admit_schedule_into(
    nodes: &[ExecNode],
    remap: &[(Resource, Resource)],
    release: f64,
    index: &mut ResourceMap<(f64, NodeId)>,
    offset: usize,
    scratch: &mut SchedScratch,
    start_all: &mut Vec<f64>,
    finish_all: &mut Vec<f64>,
    pred_all: &mut Vec<Option<NodeId>>,
) -> (f64, f64) {
    let n = nodes.len();
    let s = scratch;
    s.dep_ready.clear();
    s.dep_ready.resize(n, release);
    s.deps_left.clear();
    s.deps_left.resize(n, 0);
    s.succ_off.clear();
    s.succ_off.resize(n + 1, 0);
    let mut edges = 0u32;
    for (i, node) in nodes.iter().enumerate() {
        s.deps_left[i] = node.deps.len() as u32;
        edges += node.deps.len() as u32;
        for d in &node.deps {
            s.succ_off[d.0 + 1] += 1;
        }
    }
    for i in 0..n {
        s.succ_off[i + 1] += s.succ_off[i];
    }
    s.succ_cur.clear();
    s.succ_cur.extend_from_slice(&s.succ_off[..n]);
    s.succ.clear();
    s.succ.resize(edges as usize, 0);
    for (i, node) in nodes.iter().enumerate() {
        for d in &node.deps {
            s.succ[s.succ_cur[d.0] as usize] = i as u32;
            s.succ_cur[d.0] += 1;
        }
    }

    start_all.resize(offset + n, 0.0);
    finish_all.resize(offset + n, 0.0);
    pred_all.resize(offset + n, None);
    let start = &mut start_all[offset..];
    let finish = &mut finish_all[offset..];
    let pred = &mut pred_all[offset..];

    let est_of = |i: usize, dep_ready: &[f64], index: &ResourceMap<(f64, NodeId)>| {
        let mut est = dep_ready[i];
        for r in &nodes[i].resources {
            est = est.max(index.get(&map_r(remap, *r)).map_or(0.0, |&(t, _)| t));
        }
        est
    };

    s.heap.clear();
    for (i, &left) in s.deps_left.iter().enumerate() {
        if left == 0 {
            s.heap.push(Reverse((est_of(i, &s.dep_ready, index).to_bits(), i)));
        }
    }

    let mut first_start = f64::INFINITY;
    let mut makespan = 0.0f64;
    let mut placed = 0usize;
    while placed < n {
        let Some(Reverse((key, i))) = s.heap.pop() else {
            panic!("graph has a cycle or dangling dependency");
        };
        let est = est_of(i, &s.dep_ready, index);
        debug_assert!(
            est.is_finite() && est.to_bits() >= key,
            "earliest starts must be finite, non-negative and monotone"
        );
        if est.to_bits() != key {
            // Stale lower bound: a resource this node needs was claimed
            // since the key was pushed. Re-queue at the fresh est.
            s.heap.push(Reverse((est.to_bits(), i)));
            continue;
        }
        placed += 1;

        // Record which dependency or resource holder determined the
        // start (for critical-path reporting). A node that starts exactly
        // at its release time with no determining dependency or holder
        // keeps `None` — in a fleet timeline that is the admission point.
        start[i] = est;
        finish[i] = est + nodes[i].seconds;
        first_start = first_start.min(est);
        makespan = makespan.max(finish[i]);
        if est > 0.0 {
            pred[i] = nodes[i]
                .deps
                .iter()
                .find(|d| finish[d.0] == est)
                .map(|d| NodeId(d.0 + offset))
                .or_else(|| {
                    // One lookup finds both the availability time and its
                    // holder: the index stores them together.
                    nodes[i].resources.iter().find_map(|r| {
                        index.get(&map_r(remap, *r)).and_then(|&(t, h)| (t == est).then_some(h))
                    })
                });
        }
        for r in &nodes[i].resources {
            let r = map_r(remap, *r);
            index.insert(r, (finish[i], NodeId(i + offset)));
        }
        let (lo, hi) = (s.succ_off[i] as usize, s.succ_off[i + 1] as usize);
        for k in lo..hi {
            let su = s.succ[k] as usize;
            s.dep_ready[su] = s.dep_ready[su].max(finish[i]);
            s.deps_left[su] -= 1;
            if s.deps_left[su] == 0 {
                s.heap.push(Reverse((est_of(su, &s.dep_ready, index).to_bits(), su)));
            }
        }
    }

    (first_start, makespan)
}

/// What one [`FleetTimeline::admit`] call scheduled.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Fleet-graph index range of the admitted nodes, in the admitted
    /// graph's node order (`NodeId(i)` for `i` in the range).
    pub nodes: std::ops::Range<usize>,
    /// The release time the graph was admitted at.
    pub release: f64,
    /// Earliest node start (≥ `release`; later when the fleet's resources
    /// were still held by earlier admissions).
    pub start: f64,
    /// Latest node finish — when this admission completes.
    pub finish: f64,
}

impl Admission {
    /// Time the admission spent queued on busy fleet resources before its
    /// first node could start.
    pub fn queue_wait(&self) -> f64 {
        self.start - self.release
    }
}

/// One admitted graph as the fleet records it: shared (possibly
/// plan-cached) pristine storage plus the admission's resource remap,
/// release time and label prefix. Node vectors are never copied at
/// admission time — the fleet *materializes* prefixed, remapped nodes only
/// when a trace consumer asks for the fleet-wide graph, and the log is all
/// [`FleetTimeline::reference_schedule`] needs to replay the admissions.
#[derive(Debug, Clone)]
struct AdmittedGraph {
    prefix: String,
    graph: Arc<ExecGraph>,
    remap: RemapTable,
    release: f64,
}

/// One shared resource timeline that many [`ExecGraph`]s are admitted
/// into: the serving layer's view of the cluster.
///
/// Each admission schedules a graph with the *same* deterministic list
/// scheduler a lone [`ExecGraph::schedule`] run uses, but against the
/// fleet's live resource availability: a stream or link still held by an
/// earlier admission delays the new graph exactly like intra-graph
/// contention would. Admissions carry a release time (the simulated
/// instant the request was dispatched), so no node starts before it.
///
/// Admission is **incremental**: only the resources the incoming graph
/// actually claims are consulted in the per-resource availability index
/// (one entry per resource ever claimed, so a serving pool's streams and
/// links bound its size), the scheduler's working buffers are pooled
/// across admissions, and the admitted node storage is *shared* —
/// the fleet keeps an [`Arc`] to the admitted graph plus a resource remap
/// table instead of cloning node vectors. The fleet-wide labelled graph is
/// materialized on demand ([`FleetTimeline::graph`]) and is identical to
/// what eager accumulation produced: phase and node labels get the
/// per-admission prefix, dependencies shift into fleet id space.
///
/// Admissions must be issued in non-decreasing release order (the natural
/// order of a simulated-clock service loop); this keeps the sequential
/// admission schedule identical to what one global scheduler would produce
/// for the combined graph. The admission log is kept, so
/// [`FleetTimeline::reference_schedule`] can check the live schedule after
/// the fact by replaying it through the O(n²) reference scheduler.
#[derive(Debug, Clone, Default)]
pub struct FleetTimeline {
    log: Vec<AdmittedGraph>,
    nodes_total: usize,
    start: Vec<f64>,
    finish: Vec<f64>,
    pred: Vec<Option<NodeId>>,
    /// Availability index: per resource, when it frees up and which node
    /// holds it — one map, one lookup.
    index: ResourceMap<(f64, NodeId)>,
    makespan: f64,
    last_release: f64,
    scratch: SchedScratch,
}

impl FleetTimeline {
    /// An empty timeline: every resource available at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit `graph` at `release`, scheduling it against the fleet's
    /// current resource availability and absorbing its nodes into the
    /// fleet-wide record. `prefix` is prepended to the graph's phase and
    /// node labels (e.g. `"r42:"`) so concurrent requests stay
    /// distinguishable in the fleet trace.
    ///
    /// Copying entry point: clones `graph` into shared storage and admits
    /// it with an identity resource map. The serving fast path uses
    /// [`FleetTimeline::admit_shared`] to skip the clone entirely.
    ///
    /// # Panics
    /// Panics if `release` is negative, non-finite, or earlier than a
    /// previous admission's release.
    pub fn admit(&mut self, graph: &ExecGraph, release: f64, prefix: &str) -> Admission {
        self.admit_shared(Arc::new(graph.clone()), empty_remap(), release, prefix.to_string())
    }

    /// Admit shared graph storage at `release` — the zero-copy fast path.
    ///
    /// `graph` is typically a plan-cache arena entry shared by every launch
    /// replaying the same plan; `remap` maps each *distinct* resource the
    /// graph claims onto the resource of the lease this launch actually
    /// runs on (empty = identity, i.e. the graph's resources are already
    /// the target's). The fleet stores the [`Arc`] and the table; nodes are
    /// scheduled by reading resources through the table on the fly, and no
    /// node or label data is copied until a trace consumer materializes the
    /// fleet graph.
    ///
    /// The schedule is bit-identical to [`FleetTimeline::admit`] of the
    /// remapped graph: lookups touch the same availability entries in the
    /// same order.
    ///
    /// # Panics
    /// Panics under the same conditions as [`FleetTimeline::admit`].
    pub fn admit_shared(
        &mut self,
        graph: Arc<ExecGraph>,
        remap: RemapTable,
        release: f64,
        prefix: String,
    ) -> Admission {
        assert!(release >= 0.0 && release.is_finite(), "bad release time {release}");
        assert!(
            release >= self.last_release,
            "admissions must arrive in release order ({release} < {})",
            self.last_release
        );
        self.last_release = release;

        let offset = self.nodes_total;
        let n = graph.nodes.len();
        let (first_start, makespan) = admit_schedule_into(
            &graph.nodes,
            &remap,
            release,
            &mut self.index,
            offset,
            &mut self.scratch,
            &mut self.start,
            &mut self.finish,
            &mut self.pred,
        );
        self.makespan = self.makespan.max(makespan);
        self.nodes_total += n;
        self.log.push(AdmittedGraph { prefix, graph, remap, release });

        Admission {
            nodes: offset..offset + n,
            release,
            start: if first_start.is_finite() { first_start } else { release },
            finish: makespan.max(release),
        }
    }

    /// Materialize the fleet-wide graph accumulated so far: every admitted
    /// node with its admission's label prefix, phase indices and
    /// dependencies shifted into fleet space, and resources mapped through
    /// the admission's remap table. Identical to what eager per-admission
    /// accumulation produced; intended for trace export, not the serving
    /// hot path.
    pub fn graph(&self) -> ExecGraph {
        let mut graph =
            ExecGraph { nodes: Vec::with_capacity(self.nodes_total), phase_labels: Vec::new() };
        for adm in &self.log {
            let offset = graph.nodes.len();
            let prefix = &adm.prefix;
            let phase_map: Vec<usize> = adm
                .graph
                .phase_labels
                .iter()
                .map(|label| graph.phase(format!("{prefix}{label}")))
                .collect();
            for node in &adm.graph.nodes {
                let mut node = node.clone();
                node.label = format!("{prefix}{}", node.label);
                node.phase = phase_map[node.phase];
                for d in &mut node.deps {
                    d.0 += offset;
                }
                for r in &mut node.resources {
                    *r = map_r(&adm.remap, *r);
                }
                graph.nodes.push(node);
            }
        }
        graph
    }

    /// The fleet-wide schedule accumulated so far (fleet node ids).
    pub fn schedule(&self) -> Schedule {
        Schedule {
            start: self.start.clone(),
            finish: self.finish.clone(),
            pred: self.pred.clone(),
            makespan: self.makespan,
        }
    }

    /// End of the latest-finishing admitted node (0 when empty).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Number of graphs admitted so far.
    pub fn admissions(&self) -> usize {
        self.log.len()
    }

    /// When `resource` becomes free given everything admitted so far
    /// (0 if nothing has claimed it).
    pub fn resource_available(&self, resource: Resource) -> f64 {
        self.index.get(&resource).map_or(0.0, |&(t, _)| t)
    }

    /// Replay the admission log through the O(n²) rescanning list
    /// scheduler — each admission's graph rewritten through its remap
    /// table, at its release, against availability carried across
    /// admissions — and return the fleet schedule it produces. The
    /// differential oracle for [`FleetTimeline::schedule`], which must
    /// equal it bit for bit. Test/benchmark surface only.
    #[doc(hidden)]
    pub fn reference_schedule(&self) -> Schedule {
        let mut avail = ResourceMap::default();
        let mut holder = ResourceMap::default();
        let mut replay = Schedule {
            start: Vec::with_capacity(self.nodes_total),
            finish: Vec::with_capacity(self.nodes_total),
            pred: Vec::with_capacity(self.nodes_total),
            makespan: 0.0,
        };
        for adm in &self.log {
            let mut graph = (*adm.graph).clone();
            graph.remap_resources(|r| map_r(&adm.remap, *r));
            let (start, finish, pred, makespan) = reference_list_schedule(
                &graph.nodes,
                adm.release,
                &mut avail,
                &mut holder,
                replay.start.len(),
            );
            replay.start.extend(start);
            replay.finish.extend(finish);
            replay.pred.extend(pred);
            replay.makespan = replay.makespan.max(makespan);
        }
        replay
    }

    /// Visit every admitted node without materializing the fleet graph:
    /// `f(admission node offset, local node index, node, admission remap)`.
    /// The node's fleet id is `offset + local`; its dependencies are local
    /// ids (add `offset`), and resources must be read through
    /// [`FleetTimeline::map_resource`] with the given remap table.
    pub(crate) fn visit_nodes(
        &self,
        mut f: impl FnMut(usize, usize, &ExecNode, &[(Resource, Resource)]),
    ) {
        let mut offset = 0usize;
        for adm in &self.log {
            for (i, node) in adm.graph.nodes.iter().enumerate() {
                f(offset, i, node, &adm.remap);
            }
            offset += adm.graph.nodes.len();
        }
    }

    /// Map a pristine resource of an admitted node through its admission's
    /// remap table (see [`FleetTimeline::visit_nodes`]).
    pub(crate) fn map_resource(remap: &[(Resource, Resource)], r: Resource) -> Resource {
        map_r(remap, r)
    }

    /// Per-node start times of the fleet schedule (fleet node ids).
    pub(crate) fn start_times(&self) -> &[f64] {
        &self.start
    }

    /// Per-node finish times of the fleet schedule (fleet node ids).
    pub(crate) fn finish_times(&self) -> &[f64] {
        &self.finish
    }
}

/// Concatenate independently scheduled fleet parts into one graph and
/// schedule — the sharded serving window's merged trace.
///
/// Each part is one shard's `(graph, schedule, prefix)`: node and phase
/// labels get the shard's `prefix` (e.g. `"s1:"`), dependency and
/// predecessor ids shift into the merged id space, and the merged makespan
/// is the latest part's. Start/finish times are carried over verbatim, NOT
/// rescheduled: the caller must have remapped each part's resources into
/// disjoint domains (distinct GPU/node ids per shard), so the parts could
/// never have contended and the concatenation *is* the schedule one global
/// scheduler would have produced.
///
/// # Panics
/// Panics if a part's schedule does not cover its graph.
pub fn merge_fleet_parts(parts: Vec<(ExecGraph, Schedule, String)>) -> (ExecGraph, Schedule) {
    let mut graph = ExecGraph::new();
    let mut start = Vec::new();
    let mut finish = Vec::new();
    let mut pred: Vec<Option<NodeId>> = Vec::new();
    let mut makespan = 0.0f64;
    for (mut part, schedule, prefix) in parts {
        assert_eq!(
            schedule.start.len(),
            part.nodes.len(),
            "part schedule does not cover its graph"
        );
        let offset = graph.nodes.len();
        if !prefix.is_empty() {
            for label in &mut part.phase_labels {
                *label = format!("{prefix}{label}");
            }
            for node in &mut part.nodes {
                node.label = format!("{prefix}{}", node.label);
            }
        }
        graph.append(part);
        start.extend_from_slice(&schedule.start);
        finish.extend_from_slice(&schedule.finish);
        pred.extend(schedule.pred.iter().map(|p| p.map(|n| NodeId(n.0 + offset))));
        makespan = makespan.max(schedule.makespan);
    }
    (graph, Schedule { start, finish, pred, makespan })
}

/// Result of scheduling an [`ExecGraph`]: per-node start/finish times and
/// the makespan.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Start time of each node (indexed by `NodeId::index`).
    pub start: Vec<f64>,
    /// Finish time of each node.
    pub finish: Vec<f64>,
    /// For each node, the dependency or resource-holding node that
    /// determined its start time (`None` when it started at 0).
    pub pred: Vec<Option<NodeId>>,
    /// End of the latest-finishing node.
    pub makespan: f64,
}

impl Schedule {
    /// One chain of nodes realising the makespan, earliest first: start at
    /// the latest-finishing node and follow [`Schedule::pred`] links back.
    pub fn critical_path(&self) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = (0..self.finish.len()).max_by(|&a, &b| {
            self.finish[a].partial_cmp(&self.finish[b]).expect("finite times").then(a.cmp(&b))
        });
        while let Some(i) = cur {
            path.push(NodeId(i));
            cur = self.pred[i].map(|p| p.0);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: EventKind = EventKind::Kernel;
    const T: EventKind = EventKind::Transfer;

    #[test]
    fn chain_makespan_is_the_sum() {
        let mut g = ExecGraph::new();
        let p = g.phase("a");
        let q = g.phase("b");
        let a = g.add(p, "a", K, 1.0, &[], &[]);
        let b = g.add(q, "b", K, 0.5, &[a], &[]);
        let s = g.schedule();
        assert_eq!(s.start[b.index()], 1.0);
        assert_eq!(s.makespan, 1.5);
        assert_eq!(s.makespan, g.timeline().total(), "chain reduces to the timeline sum");
        assert_eq!(s.critical_path(), vec![a, b]);
    }

    #[test]
    fn independent_nodes_overlap() {
        let mut g = ExecGraph::new();
        let p = g.phase("stage1");
        g.add(p, "k0", K, 1.0, &[], &[Resource::Stream { gpu: 0, stream: 0 }]);
        g.add(p, "k1", K, 3.0, &[], &[Resource::Stream { gpu: 1, stream: 0 }]);
        let s = g.schedule();
        assert_eq!(s.start, vec![0.0, 0.0]);
        assert_eq!(s.makespan, 3.0, "disjoint streams run concurrently");
        assert_eq!(g.timeline().total(), 3.0, "phase view takes the max");
    }

    #[test]
    fn shared_stream_serialises() {
        let mut g = ExecGraph::new();
        let p = g.phase("stage1");
        let st = Resource::Stream { gpu: 0, stream: 0 };
        g.add(p, "k0", K, 1.0, &[], &[st]);
        g.add(p, "k1", K, 3.0, &[], &[st]);
        let s = g.schedule();
        assert_eq!(s.start[1], 1.0, "same stream is in-order");
        assert_eq!(s.makespan, 4.0);
    }

    #[test]
    fn shared_link_serialises_transfers() {
        let topo = Topology::tsubame_kfc(1);
        let mut g = ExecGraph::new();
        let p = g.phase("comm");
        // Two transfers on network 0 contend; one on network 1 does not.
        g.add(p, "t01", T, 1.0, &[], &Resource::route(&topo, 0, 1));
        g.add(p, "t23", T, 1.0, &[], &Resource::route(&topo, 2, 3));
        g.add(p, "t45", T, 1.0, &[], &Resource::route(&topo, 4, 5));
        let s = g.schedule();
        assert_eq!(s.makespan, 2.0, "network 0's two transfers serialise");
        assert_eq!(s.start[2], 0.0, "network 1 is free to overlap");
        // The second transfer's start was determined by the first holding
        // the link.
        assert_eq!(s.pred[1], Some(NodeId(0)));
    }

    #[test]
    fn routes_follow_link_classes() {
        let topo = Topology::tsubame_kfc(2);
        assert!(Resource::route(&topo, 3, 3).is_empty(), "local copies use no links");
        assert_eq!(
            Resource::route(&topo, 0, 1),
            vec![Resource::PcieNetwork { node: 0, network: 0 }]
        );
        assert_eq!(
            Resource::route(&topo, 0, 4),
            vec![
                Resource::PcieNetwork { node: 0, network: 0 },
                Resource::HostBridge { node: 0 },
                Resource::PcieNetwork { node: 0, network: 1 },
            ]
        );
        assert_eq!(
            Resource::route(&topo, 0, 8),
            vec![
                Resource::PcieNetwork { node: 0, network: 0 },
                Resource::IbLink { a: 0, b: 1 },
                Resource::PcieNetwork { node: 1, network: 0 },
            ]
        );
        assert_eq!(Resource::ib(3, 1), Resource::IbLink { a: 1, b: 3 });
    }

    #[test]
    fn barrier_synchronised_fan_matches_timeline_exactly() {
        // stage1 on 4 streams -> gather -> stage2 -> scatter -> stage3: the
        // shape of the paper's pipeline. Scheduler makespan must equal the
        // timeline total bit-for-bit.
        let durs = [0.31, 0.17, 0.29, 0.23];
        let mut g = ExecGraph::new();
        let p1 = g.phase("stage1");
        let pc = g.phase("comm");
        let p3 = g.phase("stage3");
        let s1: Vec<NodeId> = durs
            .iter()
            .enumerate()
            .map(|(i, &d)| g.add(p1, "s1", K, d, &[], &[Resource::Stream { gpu: i, stream: 0 }]))
            .collect();
        let c = g.add(pc, "comm", T, 0.011, &s1, &[]);
        for (i, &d) in durs.iter().enumerate() {
            g.add(p3, "s3", K, d, &[c], &[Resource::Stream { gpu: i, stream: 0 }]);
        }
        let mut tl = Timeline::new();
        tl.push_parallel("stage1", &durs);
        tl.push("comm", 0.011);
        tl.push_parallel("stage3", &durs);
        let makespan = g.makespan();
        assert_eq!(makespan.to_bits(), tl.total().to_bits(), "bit-identical to the phase model");
        assert_eq!(g.timeline().total().to_bits(), tl.total().to_bits());
    }

    #[test]
    fn merge_remaps_ids_and_keeps_groups_independent() {
        let build = |d: f64| {
            let mut g = ExecGraph::new();
            let p = g.phase("stage1");
            let q = g.phase("comm");
            let a = g.add(p, "k", K, d, &[], &[Resource::Stream { gpu: 0, stream: 0 }]);
            g.add(q, "c", T, d / 2.0, &[a], &[]);
            g
        };
        let mut g = build(1.0);
        // Second group on a different GPU: retarget its stream.
        let mut other = build(1.0);
        for node in &mut other.nodes {
            node.resources = vec![Resource::Stream { gpu: 1, stream: 0 }];
        }
        let ids = g.merge(other);
        assert_eq!(ids, vec![NodeId(2), NodeId(3)]);
        assert_eq!(g.nodes()[3].deps, vec![NodeId(2)], "deps remapped");
        assert_eq!(g.phase_labels().len(), 2, "phases matched by index");
        let s = g.schedule();
        assert_eq!(s.makespan, 1.5, "groups overlap: max of chains, not sum");
    }

    #[test]
    fn append_numbers_phases_after_the_graph_and_remaps_ids() {
        let mut g = ExecGraph::new();
        let p = g.phase("stage1");
        g.add(p, "k", K, 1.0, &[], &[Resource::Stream { gpu: 0, stream: 0 }]);
        let mut other = ExecGraph::new();
        let q = other.phase("recovery:stage1");
        let r = other.phase("stage1");
        let a = other.add(q, "k", K, 1.0, &[], &[Resource::Stream { gpu: 1, stream: 0 }]);
        other.add(r, "k", K, 2.0, &[a], &[Resource::Stream { gpu: 1, stream: 0 }]);
        let ids = g.append(other);
        assert_eq!(ids, vec![NodeId(1), NodeId(2)]);
        assert_eq!(g.phase_labels(), ["stage1", "recovery:stage1", "stage1"]);
        assert_eq!(g.nodes()[1].phase, 1);
        assert_eq!(g.nodes()[2].phase, 2);
        assert_eq!(g.nodes()[2].deps, vec![NodeId(1)], "deps remapped");
        assert_eq!(g.schedule().makespan, 3.0, "groups overlap: max of chains, not sum");
    }

    #[test]
    #[should_panic(expected = "must agree on phase")]
    fn merge_rejects_mismatched_phases() {
        let mut a = ExecGraph::new();
        a.phase("stage1");
        let mut b = ExecGraph::new();
        b.phase("stage2");
        a.merge(b);
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependency_rejected() {
        let mut g = ExecGraph::new();
        let p = g.phase("p");
        g.add(p, "a", K, 1.0, &[NodeId(5)], &[]);
    }

    #[test]
    fn empty_phase_instance_is_free_like_push_parallel() {
        let mut g = ExecGraph::new();
        let p = g.phase("stage1");
        g.phase("empty");
        g.add(p, "k", K, 2.0, &[], &[]);
        let tl = g.timeline();
        assert_eq!(tl.phases().len(), 2);
        assert_eq!(tl.phases()[1].seconds, 0.0);
        assert_eq!(tl.total(), 2.0);
    }

    /// A two-phase chain `kernel -> transfer` on one GPU stream + one link.
    fn request_graph(kernel: f64, transfer: f64, gpu: usize) -> ExecGraph {
        let mut g = ExecGraph::new();
        let p = g.phase("stage1");
        let q = g.phase("comm");
        let a = g.add(p, "k", K, kernel, &[], &[Resource::Stream { gpu, stream: 0 }]);
        g.add(q, "c", T, transfer, &[a], &[Resource::PcieNetwork { node: 0, network: 0 }]);
        g
    }

    #[test]
    fn single_admission_reproduces_schedule_bit_for_bit() {
        let g = request_graph(1.25, 0.375, 0);
        let lone = g.schedule();
        let mut fleet = FleetTimeline::new();
        let adm = fleet.admit(&g, 0.0, "r0:");
        let fs = fleet.schedule();
        for i in 0..g.nodes().len() {
            assert_eq!(fs.start[i].to_bits(), lone.start[i].to_bits());
            assert_eq!(fs.finish[i].to_bits(), lone.finish[i].to_bits());
        }
        assert_eq!(fs.makespan.to_bits(), lone.makespan.to_bits());
        assert_eq!(adm.finish.to_bits(), lone.makespan.to_bits());
        assert_eq!(adm.queue_wait(), 0.0);
        assert_eq!(fleet.admissions(), 1);
    }

    #[test]
    fn admission_respects_release_time() {
        let mut fleet = FleetTimeline::new();
        let adm = fleet.admit(&request_graph(1.0, 0.5, 0), 2.5, "r0:");
        assert_eq!(adm.start, 2.5);
        assert_eq!(adm.finish, 4.0);
        let s = fleet.schedule();
        assert!(s.start.iter().all(|&t| t >= 2.5));
    }

    #[test]
    fn cross_admission_contention_serialises_like_intra_graph() {
        // Two requests on the same GPU admitted back to back: the second
        // waits for the first to release the stream, exactly as two nodes
        // of one graph sharing the stream would.
        let mut fleet = FleetTimeline::new();
        let a = fleet.admit(&request_graph(1.0, 0.5, 0), 0.0, "r0:");
        let b = fleet.admit(&request_graph(1.0, 0.5, 0), 0.25, "r1:");
        // r1's kernel needs stream 0, free at t=1.0; its transfer then
        // queues behind r0's transfer on the shared link (free at 1.5).
        assert_eq!(b.start, 1.0);
        assert_eq!(b.queue_wait(), 0.75);
        assert_eq!(b.finish, 2.5);
        assert_eq!(fleet.makespan(), 2.5);
        // The resource-holder predecessor crosses the admission boundary.
        let s = fleet.schedule();
        assert_eq!(s.pred[b.nodes.start], Some(NodeId(a.nodes.start)));
        assert_eq!(
            fleet.resource_available(Resource::Stream { gpu: 0, stream: 0 }),
            2.0,
            "r1's kernel runs 1.0..2.0"
        );
    }

    #[test]
    fn disjoint_admissions_overlap() {
        let mut fleet = FleetTimeline::new();
        let mut g1 = request_graph(1.0, 0.0, 1);
        // Give request 1 its own link so nothing is shared.
        for node in &mut g1.nodes {
            if node.kind == T {
                node.resources = vec![Resource::PcieNetwork { node: 0, network: 1 }];
            }
        }
        fleet.admit(&request_graph(1.0, 0.5, 0), 0.0, "r0:");
        let b = fleet.admit(&g1, 0.0, "r1:");
        assert_eq!(b.start, 0.0, "disjoint resources admit concurrently");
        assert_eq!(fleet.makespan(), 1.5);
    }

    #[test]
    fn fleet_labels_carry_the_admission_prefix() {
        let mut fleet = FleetTimeline::new();
        fleet.admit(&request_graph(1.0, 0.5, 0), 0.0, "r7:");
        fleet.admit(&request_graph(1.0, 0.5, 0), 1.5, "r8:");
        let graph = fleet.graph();
        let labels = graph.phase_labels();
        assert_eq!(labels.len(), 4, "phases are appended per admission, never merged");
        assert_eq!(labels[0], "r7:stage1");
        assert_eq!(labels[2], "r8:stage1");
        assert_eq!(graph.nodes()[2].label, "r8:k");
        // Dependencies were remapped into fleet space.
        assert_eq!(graph.nodes()[3].deps, vec![NodeId(2)]);
    }

    #[test]
    fn shared_admission_with_remap_matches_materialized_admit() {
        // Zero-copy path: Arc'd pristine graph + remap table. Oracle:
        // clone the graph, rewrite its resources, admit by copy.
        let pristine = request_graph(1.0, 0.5, 0);
        let mut manual = pristine.clone();
        manual.remap_resources(|r| match *r {
            Resource::Stream { stream, .. } => Resource::Stream { gpu: 3, stream },
            other => other,
        });
        let remap =
            vec![(Resource::Stream { gpu: 0, stream: 0 }, Resource::Stream { gpu: 3, stream: 0 })];

        let mut shared = FleetTimeline::new();
        let mut copied = FleetTimeline::new();
        shared.admit(&pristine, 0.0, "r0:");
        copied.admit(&pristine, 0.0, "r0:");
        let a =
            shared.admit_shared(Arc::new(pristine.clone()), remap.into(), 0.5, "r1:".to_string());
        let b = copied.admit(&manual, 0.5, "r1:");

        assert_eq!(a.start.to_bits(), b.start.to_bits());
        assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        assert_eq!(a.nodes, b.nodes);
        let (sa, sb) = (shared.schedule(), copied.schedule());
        assert_eq!(
            sa.start.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            sb.start.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(sa.pred, sb.pred);
        // The materialized fleet graphs agree node for node: labels,
        // phases and *mapped* resources.
        let (ga, gb) = (shared.graph(), copied.graph());
        assert_eq!(ga.phase_labels(), gb.phase_labels());
        for (na, nb) in ga.nodes().iter().zip(gb.nodes()) {
            assert_eq!(na.label, nb.label);
            assert_eq!(na.resources, nb.resources);
            assert_eq!(na.deps, nb.deps);
        }
    }

    #[test]
    #[should_panic(expected = "release order")]
    fn out_of_order_release_is_rejected() {
        let mut fleet = FleetTimeline::new();
        fleet.admit(&request_graph(1.0, 0.5, 0), 2.0, "r0:");
        fleet.admit(&request_graph(1.0, 0.5, 0), 1.0, "r1:");
    }

    #[test]
    fn overlap_beats_barrier_for_pipelined_batches() {
        // Two sub-batches through compute -> link -> compute. With cross-
        // batch deps removed, batch 1's compute overlaps batch 0's
        // transfer.
        let st = Resource::Stream { gpu: 0, stream: 0 };
        let link = Resource::PcieNetwork { node: 0, network: 0 };
        let build = |barrier: bool| {
            let mut g = ExecGraph::new();
            let mut prev: Vec<NodeId> = Vec::new();
            for b in 0..2 {
                let p = g.phase(format!("s1[{b}]"));
                let q = g.phase(format!("comm[{b}]"));
                let mut deps = if barrier { prev.clone() } else { Vec::new() };
                let k = g.add(p, "k", K, 1.0, &deps, &[st]);
                deps = vec![k];
                if barrier {
                    deps.extend(prev.iter().copied());
                }
                let c = g.add(q, "c", T, 1.0, &deps, &[link]);
                prev = vec![k, c];
            }
            g.makespan()
        };
        assert_eq!(build(true), 4.0, "barrier-synchronous: strict alternation");
        assert_eq!(build(false), 3.0, "batch 1's kernel hides under batch 0's transfer");
    }
}
