//! Observability over scheduled execution graphs: Chrome-trace export,
//! per-resource utilization metrics, and critical-path attribution.
//!
//! A [`Trace`] freezes an [`ExecGraph`] together with its deterministic
//! [`Schedule`] and lowers it three ways:
//!
//! * [`Trace::chrome_trace_json`] — the Chrome Trace Event format
//!   (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev) loadable).
//!   Every schedule node becomes exactly one `"X"` (complete) slice on the
//!   track of its *primary* resource, with `args` carrying the phase
//!   label, retry-attempt index, payload bytes and simulated hardware
//!   counters. Tracks are named after the hardware: one per GPU stream,
//!   PCIe network, host-staging bridge and InfiniBand link.
//! * [`Trace::utilization`] — per-resource busy time, `busy / makespan`
//!   utilization, and queue-wait (serialisation stall) totals.
//! * [`Trace::critical_path`] — the chain of nodes realising the
//!   makespan, with per-phase and per-resource attribution and a top-k
//!   view. Because each node on the path starts exactly where its
//!   predecessor finished, folding the path durations in order reproduces
//!   the makespan **bit-identically** (a property the test-suite pins).
//!
//! All times inside this module are simulated **seconds**; the Chrome
//! trace converts to the format's microseconds on output. Bandwidth args
//! are **bytes per simulated second**, the same unit as
//! `ProfileReport::memory_throughput` (both delegate to
//! [`gpu_sim::CostCounters::achieved_bandwidth`]).
//!
//! Fault-rewritten graphs need no special handling: retry attempts are
//! ordinary nodes stamped with [`crate::NodeMeta::attempt`], so a retry
//! chain renders as distinct back-to-back slices on the faulted link's
//! track.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use crate::graph::{merge_fleet_parts, ExecGraph, FleetTimeline, NodeId, Resource, Schedule};

/// Display name of a resource's trace track (`None` is the track for
/// nodes that claim no exclusive resource, e.g. MPI barriers).
pub fn track_name(resource: Option<Resource>) -> String {
    match resource {
        None => "unbound".to_string(),
        Some(Resource::Stream { gpu, stream }) => format!("GPU {gpu} stream {stream}"),
        Some(Resource::PcieNetwork { node, network }) => {
            format!("node {node} PCIe network {network}")
        }
        Some(Resource::HostBridge { node }) => format!("node {node} host bridge"),
        Some(Resource::IbLink { a, b }) => format!("IB link {a}-{b}"),
    }
}

/// The track a node's slice is drawn on: the *transport* end of its
/// resource claim. [`Resource`]'s derived order ranks
/// `Stream < PcieNetwork < HostBridge < IbLink`, so the maximum claimed
/// resource is the stream for kernels, the PCIe network for P2P copies,
/// the host bridge for staged copies and the InfiniBand link for
/// inter-node transfers — the hop the transfer is *about*.
pub fn primary_resource(resources: &[Resource]) -> Option<Resource> {
    resources.iter().copied().max()
}

/// Busy/stall accounting for one resource track.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUtilization {
    /// The resource (`None` for the unbound track).
    pub resource: Option<Resource>,
    /// Its display name (see [`track_name`]).
    pub track: String,
    /// Nodes whose primary track this is.
    pub nodes: usize,
    /// Summed occupancy, in seconds: every node claiming the resource
    /// (primary or not) holds it exclusively for its whole duration.
    pub busy_seconds: f64,
    /// Fraction of the makespan the resource was busy (`busy / makespan`;
    /// 0 for an empty schedule). At most 1.0 for any real resource.
    pub utilization: f64,
    /// Seconds nodes on this track spent dependency-ready but waiting —
    /// the serialisation stall imposed by resource exclusivity.
    pub queue_wait_seconds: f64,
    /// Nodes on this track that stalled at all (`queue_wait > 0`).
    pub stalled_nodes: usize,
}

/// Per-resource utilization of a schedule (see [`Trace::utilization`]).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// End of the schedule, in seconds.
    pub makespan: f64,
    /// One entry per resource that appears in the graph, in [`Resource`]
    /// order (the unbound track first when present).
    pub resources: Vec<ResourceUtilization>,
}

impl UtilizationReport {
    /// The real resource (not the unbound track) with the highest
    /// utilization, if any.
    pub fn busiest(&self) -> Option<&ResourceUtilization> {
        self.resources
            .iter()
            .filter(|r| r.resource.is_some())
            .max_by(|a, b| a.utilization.partial_cmp(&b.utilization).expect("finite utilization"))
    }
}

impl fmt::Display for UtilizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.resources.iter().map(|r| r.track.len()).max().unwrap_or(8).max(8);
        writeln!(
            f,
            "{:width$} {:>6} {:>12} {:>7} {:>12} {:>8}",
            "resource",
            "nodes",
            "busy (ms)",
            "util",
            "wait (ms)",
            "stalled",
            width = width
        )?;
        for r in &self.resources {
            writeln!(
                f,
                "{:width$} {:>6} {:>12.3} {:>6.1}% {:>12.3} {:>8}",
                r.track,
                r.nodes,
                r.busy_seconds * 1e3,
                r.utilization * 100.0,
                r.queue_wait_seconds * 1e3,
                r.stalled_nodes,
                width = width
            )?;
        }
        Ok(())
    }
}

/// One node on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathNode {
    /// The node's id in the traced graph.
    pub node: NodeId,
    /// Its label.
    pub label: String,
    /// Label of its phase instance.
    pub phase: String,
    /// Track it renders on (see [`primary_resource`]).
    pub track: String,
    /// Scheduled start, in seconds.
    pub start: f64,
    /// Duration, in seconds.
    pub seconds: f64,
}

/// The makespan split along one realising chain of nodes (see
/// [`Trace::critical_path`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    /// End of the schedule, in seconds.
    pub makespan: f64,
    /// The path, earliest node first. Each node starts exactly where the
    /// previous one finished, and the first starts at 0.
    pub nodes: Vec<CriticalPathNode>,
}

impl CriticalPathReport {
    /// Left-fold of the path durations in path order. Equals
    /// [`CriticalPathReport::makespan`] bit-for-bit: the schedule computes
    /// `finish = start + seconds` with `start` equal to the predecessor's
    /// finish, which is the same IEEE-754 addition chain.
    pub fn total_seconds(&self) -> f64 {
        self.nodes.iter().fold(0.0, |acc, n| acc + n.seconds)
    }

    /// Critical-path seconds attributed to each phase, in
    /// first-appearance order along the path.
    pub fn phase_seconds(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for n in &self.nodes {
            match totals.iter_mut().find(|(p, _)| p == &n.phase) {
                Some((_, s)) => *s += n.seconds,
                None => totals.push((n.phase.clone(), n.seconds)),
            }
        }
        totals
    }

    /// The `k` longest nodes on the path, longest first (ties broken by
    /// path position, earlier first).
    pub fn top_k(&self, k: usize) -> Vec<&CriticalPathNode> {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            self.nodes[b]
                .seconds
                .partial_cmp(&self.nodes[a].seconds)
                .expect("finite durations")
                .then(a.cmp(&b))
        });
        order.truncate(k);
        order.into_iter().map(|i| &self.nodes[i]).collect()
    }
}

impl fmt::Display for CriticalPathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "critical path: {} nodes, {:.3} ms makespan",
            self.nodes.len(),
            self.makespan * 1e3
        )?;
        for (phase, seconds) in self.phase_seconds() {
            let pct = if self.makespan > 0.0 { seconds / self.makespan * 100.0 } else { 0.0 };
            writeln!(f, "  {phase:<32} {:>10.3} ms {pct:>5.1}%", seconds * 1e3)?;
        }
        Ok(())
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A scheduled graph frozen for inspection and export.
///
/// Construction runs the deterministic scheduler once; every view
/// ([`Trace::chrome_trace_json`], [`Trace::utilization`],
/// [`Trace::critical_path`]) reads the same [`Schedule`].
#[derive(Debug, Clone)]
pub struct Trace {
    graph: ExecGraph,
    schedule: Schedule,
}

impl Trace {
    /// Schedule `graph` and freeze the result.
    pub fn new(graph: ExecGraph) -> Self {
        let schedule = graph.schedule();
        Trace { graph, schedule }
    }

    /// [`Trace::new`] from a borrowed graph (clones it).
    pub fn from_graph(graph: &ExecGraph) -> Self {
        Trace::new(graph.clone())
    }

    /// Freeze an already-computed schedule for `graph` without rescheduling.
    ///
    /// Used by fleet timelines, whose schedules are built incrementally as
    /// requests are admitted and cannot be reproduced by a single
    /// [`ExecGraph::schedule`] call (nodes start no earlier than their
    /// admission's release time).
    pub fn from_parts(graph: ExecGraph, schedule: Schedule) -> Self {
        assert_eq!(schedule.start.len(), graph.nodes().len(), "schedule does not cover the graph");
        Trace { graph, schedule }
    }

    /// The traced graph.
    pub fn graph(&self) -> &ExecGraph {
        &self.graph
    }

    /// The frozen schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// End of the schedule, in seconds.
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan
    }

    /// Earliest start each node's dependencies allow, in seconds (0 for a
    /// node with no dependencies); `start - dep_ready` is the node's
    /// resource queue-wait.
    fn dep_ready(&self, i: usize) -> f64 {
        self.graph.nodes()[i]
            .deps
            .iter()
            .map(|d| self.schedule.finish[d.index()])
            .fold(0.0, f64::max)
    }

    /// Per-resource utilization metrics (see [`UtilizationReport`]).
    pub fn utilization(&self) -> UtilizationReport {
        let makespan = self.schedule.makespan;
        let mut by_resource: BTreeMap<Option<Resource>, ResourceUtilization> = BTreeMap::new();
        for (i, node) in self.graph.nodes().iter().enumerate() {
            // Busy time accrues on *every* claimed resource — each is held
            // exclusively for the node's whole duration.
            for &r in &node.resources {
                util_entry(&mut by_resource, Some(r)).busy_seconds += node.seconds;
            }
            // Node counts and stalls go to the node's own track.
            let primary = primary_resource(&node.resources);
            let wait = self.schedule.start[i] - self.dep_ready(i);
            let row = util_entry(&mut by_resource, primary);
            row.nodes += 1;
            if node.resources.is_empty() {
                row.busy_seconds += node.seconds;
            }
            if wait > 0.0 {
                row.queue_wait_seconds += wait;
                row.stalled_nodes += 1;
            }
        }
        finish_utilization(makespan, by_resource)
    }

    /// Critical-path attribution (see [`CriticalPathReport`]).
    pub fn critical_path(&self) -> CriticalPathReport {
        let nodes = self
            .schedule
            .critical_path()
            .into_iter()
            .map(|id| {
                let node = &self.graph.nodes()[id.index()];
                CriticalPathNode {
                    node: id,
                    label: node.label.clone(),
                    phase: self.graph.phase_labels()[node.phase].clone(),
                    track: track_name(primary_resource(&node.resources)),
                    start: self.schedule.start[id.index()],
                    seconds: node.seconds,
                }
            })
            .collect();
        CriticalPathReport { makespan: self.schedule.makespan, nodes }
    }

    /// Render the schedule as Chrome Trace Event JSON
    /// (`chrome://tracing` / Perfetto loadable).
    ///
    /// Timestamps and durations are microseconds of simulated time. Every
    /// node appears exactly once, as an `"X"` slice on its primary
    /// resource's track; `"M"` metadata events name the process groups
    /// (streams / PCIe / host bridges / IB links) and their tracks. All
    /// events carry the `ph/ts/dur/pid/tid/name` keys, and the output is
    /// deterministic: tracks in [`Resource`] order, slices in node order.
    pub fn chrome_trace_json(&self) -> String {
        // Track table: every resource any node claims (so idle links still
        // get a named track) plus the unbound track when needed.
        let mut tracks: BTreeMap<Option<Resource>, (u32, u32)> = BTreeMap::new();
        for node in self.graph.nodes() {
            for &r in &node.resources {
                tracks.insert(Some(r), (0, 0));
            }
            if node.resources.is_empty() {
                tracks.insert(None, (0, 0));
            }
        }
        // pid per hardware category, tid by rank within the category.
        let mut next_tid: BTreeMap<u32, u32> = BTreeMap::new();
        for (resource, slot) in tracks.iter_mut() {
            let pid = match resource {
                None => 0,
                Some(Resource::Stream { .. }) => 1,
                Some(Resource::PcieNetwork { .. }) => 2,
                Some(Resource::HostBridge { .. }) => 3,
                Some(Resource::IbLink { .. }) => 4,
            };
            let tid = next_tid.entry(pid).or_insert(0);
            *slot = (pid, *tid);
            *tid += 1;
        }

        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push_event = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };

        // Process-group names, one per category in use.
        let mut named_pids: Vec<u32> = Vec::new();
        for &(pid, _) in tracks.values() {
            if !named_pids.contains(&pid) {
                named_pids.push(pid);
            }
        }
        named_pids.sort_unstable();
        for pid in named_pids {
            let name = match pid {
                0 => "scheduler",
                1 => "GPU streams",
                2 => "PCIe networks",
                3 => "host bridges",
                _ => "InfiniBand links",
            };
            push_event(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"dur\":0,\
                     \"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut out,
            );
        }
        // Track names.
        for (&resource, &(pid, tid)) in &tracks {
            push_event(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"dur\":0,\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(&track_name(resource))
                ),
                &mut out,
            );
        }

        // One complete slice per node.
        for (i, node) in self.graph.nodes().iter().enumerate() {
            let primary = primary_resource(&node.resources);
            let (pid, tid) = tracks[&primary];
            let ts = self.schedule.start[i] * 1e6;
            let dur = node.seconds * 1e6;
            let mut args = String::new();
            let _ = write!(
                args,
                "\"phase\":\"{}\",\"kind\":\"{:?}\",\"node\":{i}",
                json_escape(&self.graph.phase_labels()[node.phase]),
                node.kind
            );
            let wait = self.schedule.start[i] - self.dep_ready(i);
            if wait > 0.0 {
                let _ = write!(args, ",\"queue_wait_us\":{}", wait * 1e6);
            }
            if node.resources.len() > 1 {
                let route: Vec<String> = node
                    .resources
                    .iter()
                    .map(|&r| format!("\"{}\"", json_escape(&track_name(Some(r)))))
                    .collect();
                let _ = write!(args, ",\"route\":[{}]", route.join(","));
            }
            if let Some(attempt) = node.meta.attempt {
                let _ = write!(args, ",\"attempt\":{attempt}");
            }
            if let Some(bytes) = node.meta.bytes {
                let _ = write!(args, ",\"bytes\":{bytes}");
                if node.seconds > 0.0 {
                    let _ = write!(
                        args,
                        ",\"achieved_bw_bytes_per_s\":{}",
                        bytes as f64 / node.seconds
                    );
                }
            }
            if let Some(counters) = node.meta.counters {
                let _ = write!(
                    args,
                    ",\"global_transactions\":{},\"global_bytes\":{},\"shared_ops\":{}",
                    counters.global_transactions(),
                    counters.global_bytes(),
                    counters.shared_ops()
                );
                if node.seconds > 0.0 {
                    let _ = write!(
                        args,
                        ",\"achieved_bw_bytes_per_s\":{}",
                        counters.achieved_bandwidth(node.seconds)
                    );
                }
            }
            push_event(
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
                    json_escape(&node.label)
                ),
                &mut out,
            );
        }

        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Write [`Trace::chrome_trace_json`] to a file.
    ///
    /// # Errors
    /// Propagates the I/O error if the file cannot be written.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }
}

fn util_entry(
    map: &mut BTreeMap<Option<Resource>, ResourceUtilization>,
    resource: Option<Resource>,
) -> &mut ResourceUtilization {
    map.entry(resource).or_insert_with(|| ResourceUtilization {
        resource,
        track: track_name(resource),
        nodes: 0,
        busy_seconds: 0.0,
        utilization: 0.0,
        queue_wait_seconds: 0.0,
        stalled_nodes: 0,
    })
}

fn finish_utilization(
    makespan: f64,
    by_resource: BTreeMap<Option<Resource>, ResourceUtilization>,
) -> UtilizationReport {
    let mut resources: Vec<ResourceUtilization> = by_resource.into_values().collect();
    for r in &mut resources {
        r.utilization = if makespan > 0.0 { r.busy_seconds / makespan } else { 0.0 };
    }
    UtilizationReport { makespan, resources }
}

impl FleetTimeline {
    /// Per-resource utilization of the fleet schedule, computed straight
    /// from the admission record — no fleet graph is materialized.
    ///
    /// Bit-identical to `Trace::from_parts(fleet.graph(), fleet.schedule())
    /// .utilization()`: the admission log visits nodes in exactly the
    /// fleet-graph node order, mapped resources are accumulated into the
    /// same [`BTreeMap`] keys, and a node's dependencies all live in its
    /// own admission, so the local finish times are the global ones.
    pub fn utilization(&self) -> UtilizationReport {
        let mut by_resource = BTreeMap::new();
        self.add_utilization(&mut by_resource, |r| r);
        finish_utilization(self.makespan(), by_resource)
    }

    /// Accumulate this record's busy and stall rows into `by_resource`,
    /// every resource first mapped through its admission's remap table
    /// and then through `outer`.
    fn add_utilization(
        &self,
        by_resource: &mut BTreeMap<Option<Resource>, ResourceUtilization>,
        outer: impl Fn(Resource) -> Resource,
    ) {
        let start = self.start_times();
        let finish = self.finish_times();
        self.visit_nodes(|offset, i, node, remap| {
            let gi = offset + i;
            let map = |&r: &Resource| outer(FleetTimeline::map_resource(remap, r));
            for r in &node.resources {
                util_entry(by_resource, Some(map(r))).busy_seconds += node.seconds;
            }
            let primary = node.resources.iter().map(map).max();
            let dep_ready =
                node.deps.iter().map(|d| finish[offset + d.index()]).fold(0.0, f64::max);
            let wait = start[gi] - dep_ready;
            let row = util_entry(by_resource, primary);
            row.nodes += 1;
            if node.resources.is_empty() {
                row.busy_seconds += node.seconds;
            }
            if wait > 0.0 {
                row.queue_wait_seconds += wait;
                row.stalled_nodes += 1;
            }
        });
    }

    /// Total busy seconds accumulated on stream resources — the single
    /// number GPU-busy accounting needs, without building the full
    /// per-resource [`UtilizationReport`]. Bit-identical to summing
    /// `busy_seconds` over that report's `Stream` rows: per-resource
    /// partial sums accrue in node-visit order and the rows are totalled
    /// in [`Resource`] order, exactly the report's float-addition order.
    pub fn stream_busy_seconds(&self) -> f64 {
        let mut rows: Vec<(Resource, f64)> = Vec::new();
        self.visit_nodes(|_, _, node, remap| {
            for &r in &node.resources {
                let r = FleetTimeline::map_resource(remap, r);
                if matches!(r, Resource::Stream { .. }) {
                    match rows.iter_mut().find(|(key, _)| *key == r) {
                        Some((_, busy)) => *busy += node.seconds,
                        None => rows.push((r, node.seconds)),
                    }
                }
            }
        });
        rows.sort_unstable_by_key(|&(r, _)| r);
        rows.iter().map(|&(_, busy)| busy).sum()
    }
}

/// The resource rewrite of one part of a merged [`FleetTrace`].
type PartRemap = Box<dyn Fn(&Resource) -> Resource + Send + Sync>;

/// One fleet record of a [`FleetTrace`], with the resource remap (`None`
/// = identity) and label prefix it is merged under.
struct FleetPart {
    fleet: Arc<FleetTimeline>,
    remap: Option<PartRemap>,
    prefix: String,
}

impl FleetPart {
    fn map(&self, r: Resource) -> Resource {
        self.remap.as_ref().map_or(r, |remap| remap(&r))
    }
}

impl fmt::Debug for FleetPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetPart")
            .field("fleet", &self.fleet)
            .field("remapped", &self.remap.is_some())
            .field("prefix", &self.prefix)
            .finish()
    }
}

/// A fleet serving window's trace, materialized lazily.
///
/// The serving hot loop accumulates its schedule in a [`FleetTimeline`]
/// whose admissions share plan-cached graph storage; building the
/// fleet-wide labelled [`ExecGraph`] (prefixing every label, remapping
/// every resource) is pure reporting work. `FleetTrace` defers that work
/// until a consumer actually asks for the graph, the schedule, the
/// critical path or an export — summary metrics
/// ([`FleetTrace::utilization`], [`FleetTrace::makespan`]) come straight
/// from the admission records without materializing anything.
///
/// A trace reads one fleet record ([`FleetTrace::from_fleet`]) or several
/// ([`FleetTrace::merged`], a sharded window's trace: one record per
/// shard, each with its resource remap and label prefix). Records are
/// shared through an [`Arc`], so a shard's own trace and the merged trace
/// read the same one.
#[derive(Debug)]
pub struct FleetTrace {
    parts: Vec<FleetPart>,
    cell: OnceLock<Trace>,
}

impl FleetTrace {
    /// Wrap a finished fleet timeline; nothing is materialized yet.
    pub fn from_fleet(fleet: Arc<FleetTimeline>) -> Self {
        let part = FleetPart { fleet, remap: None, prefix: String::new() };
        FleetTrace { parts: vec![part], cell: OnceLock::new() }
    }

    /// Several independently scheduled fleet records as one trace: each
    /// record's resources go through its `remap` and its labels get its
    /// `prefix`. The remaps must put the records in disjoint resource
    /// domains; the trace then materializes as [`merge_fleet_parts`] over
    /// the remapped records. Nothing is materialized yet.
    pub fn merged<F>(parts: impl IntoIterator<Item = (Arc<FleetTimeline>, F, String)>) -> Self
    where
        F: Fn(&Resource) -> Resource + Send + Sync + 'static,
    {
        let parts = parts
            .into_iter()
            .map(|(fleet, remap, prefix)| FleetPart {
                fleet,
                remap: Some(Box::new(remap) as PartRemap),
                prefix,
            })
            .collect();
        FleetTrace { parts, cell: OnceLock::new() }
    }

    fn force(&self) -> &Trace {
        self.cell.get_or_init(|| {
            let parts = self
                .parts
                .iter()
                .map(|part| {
                    let mut graph = part.fleet.graph();
                    if part.remap.is_some() {
                        graph.remap_resources(|&r| part.map(r));
                    }
                    (graph, part.fleet.schedule(), part.prefix.clone())
                })
                .collect();
            let (graph, schedule) = merge_fleet_parts(parts);
            Trace::from_parts(graph, schedule)
        })
    }

    /// The fleet-wide labelled graph (materialized on first use).
    pub fn graph(&self) -> &ExecGraph {
        self.force().graph()
    }

    /// The fleet schedule (materializes the trace on first use).
    pub fn schedule(&self) -> &Schedule {
        self.force().schedule()
    }

    /// End of the schedule, in seconds: the latest record's. Never
    /// materializes.
    pub fn makespan(&self) -> f64 {
        self.parts.iter().map(|part| part.fleet.makespan()).fold(0.0, f64::max)
    }

    /// Per-resource utilization, computed from the admission records
    /// (bit-identical to the materialized trace's, which visits the same
    /// nodes in the same order). Never materializes.
    pub fn utilization(&self) -> UtilizationReport {
        let mut by_resource = BTreeMap::new();
        for part in &self.parts {
            part.fleet.add_utilization(&mut by_resource, |r| part.map(r));
        }
        finish_utilization(self.makespan(), by_resource)
    }

    /// The fleet schedule replayed from the admission log through the
    /// O(n²) reference scheduler (see
    /// [`FleetTimeline::reference_schedule`]); never materializes.
    /// Test/benchmark surface only.
    ///
    /// # Panics
    /// Panics on a trace of several records ([`FleetTrace::merged`]):
    /// replay each shard's own trace instead.
    #[doc(hidden)]
    pub fn reference_schedule(&self) -> Schedule {
        match &self.parts[..] {
            [part] => part.fleet.reference_schedule(),
            _ => panic!("a merged fleet trace has no single admission log"),
        }
    }

    /// Critical-path attribution (materializes the trace on first use).
    pub fn critical_path(&self) -> CriticalPathReport {
        self.force().critical_path()
    }

    /// Chrome Trace Event JSON (materializes the trace on first use).
    pub fn chrome_trace_json(&self) -> String {
        self.force().chrome_trace_json()
    }

    /// Write [`FleetTrace::chrome_trace_json`] to a file.
    ///
    /// # Errors
    /// Propagates the I/O error if the file cannot be written.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.force().write_chrome_trace(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{apply_link_faults, FaultPlan, FaultReport};
    use crate::graph::NodeMeta;
    use gpu_sim::EventKind;

    const K: EventKind = EventKind::Kernel;
    const T: EventKind = EventKind::Transfer;

    fn stream(gpu: usize) -> Resource {
        Resource::Stream { gpu, stream: 0 }
    }

    fn link() -> Resource {
        Resource::PcieNetwork { node: 0, network: 0 }
    }

    /// Two kernels on separate streams feeding a transfer on one link,
    /// then a root kernel.
    fn sample_graph() -> ExecGraph {
        let mut g = ExecGraph::new();
        let p1 = g.phase("stage1");
        let pc = g.phase("comm");
        let p2 = g.phase("stage2");
        let counters = gpu_sim::CostCounters { gld_transactions: 8, ..Default::default() };
        let a = g.add_with_meta(p1, "k0", K, 1.0, &[], &[stream(0)], NodeMeta::kernel(counters));
        let b = g.add(p1, "k1", K, 2.0, &[], &[stream(1)]);
        let c = g.add_with_meta(pc, "copy", T, 0.5, &[a, b], &[link()], NodeMeta::transfer(4096));
        g.add(p2, "root", K, 0.25, &[c], &[stream(0)]);
        g
    }

    #[test]
    fn every_node_appears_exactly_once_as_a_slice() {
        let trace = Trace::new(sample_graph());
        let json = trace.chrome_trace_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), trace.graph().nodes().len());
        // Metadata names every track: 2 streams + 1 link + 2 process groups.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 5);
        assert!(json.contains("\"GPU streams\""));
        assert!(json.contains("\"node 0 PCIe network 0\""));
        assert!(json.contains("\"bytes\":4096"));
        assert!(json.contains("\"global_bytes\":1024"));
    }

    #[test]
    fn slices_carry_schedule_times_in_microseconds() {
        let trace = Trace::new(sample_graph());
        let json = trace.chrome_trace_json();
        // The transfer starts when k1 (2.0 s) finishes: ts = 2e6 µs.
        assert!(json.contains("\"name\":\"copy\",\"ph\":\"X\",\"ts\":2000000,\"dur\":500000"));
    }

    #[test]
    fn unbound_nodes_get_the_scheduler_track() {
        let mut g = ExecGraph::new();
        let p = g.phase("barrier");
        g.add(p, "MPI_Barrier", EventKind::Collective, 0.1, &[], &[]);
        let json = Trace::new(g).chrome_trace_json();
        assert!(json.contains("\"scheduler\""));
        assert!(json.contains("\"unbound\""));
        assert!(json.contains("\"pid\":0"));
    }

    #[test]
    fn utilization_accounts_busy_and_waits() {
        let trace = Trace::new(sample_graph());
        let util = trace.utilization();
        // makespan = max(1.0 + 0.5 + 0.25 via stream0? No: copy waits for
        // k1) = 2.0 + 0.5 + 0.25.
        assert_eq!(util.makespan, 2.75);
        let s0 = util
            .resources
            .iter()
            .find(|r| r.resource == Some(stream(0)))
            .expect("stream 0 tracked");
        assert_eq!(s0.busy_seconds, 1.25);
        assert_eq!(s0.nodes, 2);
        let l = util.resources.iter().find(|r| r.resource == Some(link())).unwrap();
        assert_eq!(l.busy_seconds, 0.5);
        assert!((l.utilization - 0.5 / 2.75).abs() < 1e-15);
        for r in &util.resources {
            assert!(r.utilization <= 1.0 + 1e-12, "{}: exclusive resources", r.track);
        }
        assert_eq!(util.busiest().unwrap().resource, Some(stream(1)));
    }

    #[test]
    fn critical_path_folds_to_the_makespan_bit_for_bit() {
        let trace = Trace::new(sample_graph());
        let cp = trace.critical_path();
        assert_eq!(cp.total_seconds().to_bits(), cp.makespan.to_bits());
        // k1 (2.0) -> copy (0.5) -> root (0.25).
        let labels: Vec<&str> = cp.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, vec!["k1", "copy", "root"]);
        let phases = cp.phase_seconds();
        assert_eq!(phases[0], ("stage1".to_string(), 2.0));
        let sum: f64 = phases.iter().map(|(_, s)| s).sum();
        assert!((sum - cp.makespan).abs() < 1e-12);
        let top = cp.top_k(2);
        assert_eq!(top[0].label, "k1");
        assert_eq!(top[1].label, "copy");
    }

    #[test]
    fn retry_attempts_render_as_distinct_slices() {
        let g = sample_graph();
        // Find a seed whose first draw fails at p = 0.9.
        let mut seed = 0;
        let (faulted, report) = loop {
            let plan = FaultPlan::new(seed).transient_link(link(), 0.9).with_retry_budget(16);
            let mut report = FaultReport::new(&plan);
            let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
            if faulted.nodes().len() > g.nodes().len() {
                break (faulted, report);
            }
            seed += 1;
            assert!(seed < 100, "no failing seed found at p=0.9?");
        };
        assert!(report.retried_transfers() > 0);
        let json = Trace::new(faulted).chrome_trace_json();
        assert!(json.contains("[attempt 1 failed]"));
        assert!(json.contains("\"attempt\":1"));
        assert!(json.contains("\"attempt\":2"));
        // Metadata survives the fault rewrite: the retried transfer still
        // reports its payload.
        assert!(json.contains("\"bytes\":4096"));
    }

    #[test]
    fn fleet_utilization_matches_the_materialized_trace() {
        // Two admissions contending on stream 0 and the link, the second
        // under a resource remap — the record-based utilization must equal
        // the materialized trace's bit for bit.
        let mut g = ExecGraph::new();
        let p = g.phase("stage1");
        let q = g.phase("comm");
        let a = g.add(p, "k", K, 1.0, &[], &[stream(0)]);
        g.add(q, "c", T, 0.5, &[a], &[link()]);

        let mut fleet = FleetTimeline::new();
        fleet.admit(&g, 0.0, "r0:");
        fleet.admit_shared(
            std::sync::Arc::new(g.clone()),
            vec![(stream(0), stream(2))].into(),
            0.25,
            "r1:".to_string(),
        );
        let from_record = fleet.utilization();
        let lazy = FleetTrace::from_fleet(Arc::new(fleet.clone()));
        assert_eq!(lazy.utilization(), from_record, "lazy view reads the record");
        let materialized = Trace::from_parts(fleet.graph(), fleet.schedule()).utilization();
        assert_eq!(from_record, materialized);
        assert_eq!(lazy.graph().nodes().len(), 4);
        assert_eq!(lazy.utilization(), materialized, "post-materialization agrees too");
    }

    #[test]
    fn merged_fleet_trace_reads_the_records_until_a_view_needs_the_merge() {
        // Two fleet records with different schedules, each shifted into
        // its own resource domain and labelled like a router's shards.
        let g = sample_graph();
        let fleets: Vec<Arc<FleetTimeline>> = [0.0, 0.5]
            .into_iter()
            .map(|second_release| {
                let mut fleet = FleetTimeline::new();
                fleet.admit(&g, 0.0, "r0:");
                fleet.admit(&g, second_release, "r1:");
                Arc::new(fleet)
            })
            .collect();
        let shift = |k: usize| {
            move |r: &Resource| match *r {
                Resource::Stream { gpu, stream } => Resource::Stream { gpu: gpu + 2 * k, stream },
                Resource::PcieNetwork { node, network } => {
                    Resource::PcieNetwork { node: node + k, network }
                }
                other => other,
            }
        };
        let prefix = |k: usize| format!("s{k}:");
        let merged = FleetTrace::merged(
            fleets.iter().enumerate().map(|(k, fleet)| (fleet.clone(), shift(k), prefix(k))),
        );
        let parts = fleets
            .iter()
            .enumerate()
            .map(|(k, fleet)| {
                let mut graph = fleet.graph();
                graph.remap_resources(shift(k));
                (graph, fleet.schedule(), prefix(k))
            })
            .collect();
        let (graph, schedule) = merge_fleet_parts(parts);
        let want = Trace::from_parts(graph, schedule);

        assert_eq!(merged.makespan().to_bits(), want.makespan().to_bits());
        assert_eq!(merged.utilization(), want.utilization());
        assert!(merged.cell.get().is_none(), "makespan and utilization read the records");
        assert_eq!(format!("{:?}", merged.graph()), format!("{:?}", want.graph()));
        assert_eq!(format!("{:?}", merged.schedule()), format!("{:?}", want.schedule()));
        assert_eq!(merged.chrome_trace_json(), want.chrome_trace_json());
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn primary_resource_prefers_the_transport_hop() {
        assert_eq!(primary_resource(&[]), None);
        assert_eq!(primary_resource(&[stream(3)]), Some(stream(3)));
        let staged = [
            link(),
            Resource::HostBridge { node: 0 },
            Resource::PcieNetwork { node: 0, network: 1 },
        ];
        assert_eq!(primary_resource(&staged), Some(Resource::HostBridge { node: 0 }));
        let internode = [link(), Resource::ib(0, 1), Resource::PcieNetwork { node: 1, network: 0 }];
        assert_eq!(primary_resource(&internode), Some(Resource::ib(0, 1)));
    }
}
