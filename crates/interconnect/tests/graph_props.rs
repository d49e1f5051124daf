//! Property-based tests of the execution-graph scheduler: the DAG model
//! must *contain* the old phase-synchronous model exactly.

use std::sync::Arc;

use interconnect::{
    apply_link_faults, empty_remap, reference_schedule, EventKind, ExecGraph, FaultPlan,
    FaultReport, FleetTimeline, NodeId, RemapTable, Resource, Timeline, Trace,
};
use proptest::prelude::*;

/// Per-phase per-GPU durations: an outer vec of phases, each a non-empty
/// vec of finite non-negative seconds.
fn phase_durations() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..2.0, 1..6), 1..8)
}

/// Build the barrier-synchronised fan graph for `phases` (every node of
/// phase k+1 depends on all nodes of phase k; one stream per slot) and the
/// equivalent `push_parallel` timeline.
fn barrier_graph(phases: &[Vec<f64>]) -> (ExecGraph, Timeline) {
    let mut g = ExecGraph::new();
    let mut tl = Timeline::new();
    let mut prev: Vec<NodeId> = Vec::new();
    for (k, durs) in phases.iter().enumerate() {
        let label = format!("phase{k}");
        let p = g.phase(&label);
        prev = durs
            .iter()
            .enumerate()
            .map(|(slot, &d)| {
                g.add(
                    p,
                    &label,
                    EventKind::Kernel,
                    d,
                    &prev,
                    &[Resource::Stream { gpu: slot, stream: 0 }],
                )
            })
            .collect();
        tl.push_parallel(&label, durs);
    }
    (g, tl)
}

proptest! {
    /// A chain of single nodes schedules to exactly the sum of durations —
    /// the `Timeline::push` composition, bit for bit.
    #[test]
    fn chain_graph_equals_timeline_sum(durs in prop::collection::vec(0.0f64..3.0, 1..20)) {
        let mut g = ExecGraph::new();
        let mut tl = Timeline::new();
        let mut prev: Vec<NodeId> = Vec::new();
        for (k, &d) in durs.iter().enumerate() {
            let label = format!("p{k}");
            let p = g.phase(&label);
            prev = vec![g.add(p, &label, EventKind::Kernel, d, &prev, &[])];
            tl.push(&label, d);
        }
        prop_assert_eq!(g.makespan().to_bits(), tl.total().to_bits());
    }

    /// A barrier-synchronised fan — the shape of every phase-synchronous
    /// pipeline in the paper — schedules to exactly the sum of per-phase
    /// maxima, bit for bit, and the derived timeline agrees.
    #[test]
    fn barrier_fan_equals_timeline_total(phases in phase_durations()) {
        let (g, tl) = barrier_graph(&phases);
        prop_assert_eq!(g.makespan().to_bits(), tl.total().to_bits());
        prop_assert_eq!(g.timeline().total().to_bits(), tl.total().to_bits());
        prop_assert_eq!(g.timeline().phases().len(), phases.len());
    }

    /// Dropping the cross-phase barriers (keeping only stream order) never
    /// increases the makespan.
    #[test]
    fn removing_barriers_never_hurts(phases in phase_durations()) {
        let (g, _) = barrier_graph(&phases);
        let mut free = ExecGraph::new();
        for (k, durs) in phases.iter().enumerate() {
            let label = format!("phase{k}");
            let p = free.phase(&label);
            for (slot, &d) in durs.iter().enumerate() {
                free.add(p, &label, EventKind::Kernel, d, &[], &[Resource::Stream {
                    gpu: slot,
                    stream: 0,
                }]);
            }
        }
        prop_assert!(free.makespan() <= g.makespan());
    }

    /// Merging two independent symmetric subgraphs (disjoint streams)
    /// yields the makespan of one — groups overlap fully, which is the
    /// MP-PC phase-wise-maximum rule.
    #[test]
    fn symmetric_merge_overlaps_fully(phases in phase_durations()) {
        let (g0, _) = barrier_graph(&phases);
        // Same shape shifted onto disjoint streams.
        let mut g1 = ExecGraph::new();
        let mut prev: Vec<NodeId> = Vec::new();
        for (k, durs) in phases.iter().enumerate() {
            let label = format!("phase{k}");
            let p = g1.phase(&label);
            prev = durs
                .iter()
                .enumerate()
                .map(|(slot, &d)| {
                    g1.add(p, &label, EventKind::Kernel, d, &prev, &[Resource::Stream {
                        gpu: 1000 + slot,
                        stream: 0,
                    }])
                })
                .collect();
        }
        let lone = g0.makespan();
        let mut merged = g0;
        merged.merge(g1);
        prop_assert_eq!(merged.makespan().to_bits(), lone.to_bits());
    }
}

/// One random node: `(seconds, dep bitmask over the previous 8 nodes,
/// resource picker)`. Ties, fan-in, fan-out and contended resources all
/// arise from these draws.
fn random_node() -> impl Strategy<Value = (f64, u64, u64)> {
    (0.0f64..2.0, any::<u64>(), any::<u64>())
}

/// The small shared resource pool random graphs draw from: four streams,
/// one PCIe network and a second stream on GPU 0.
const POOL: [Resource; 6] = [
    Resource::Stream { gpu: 0, stream: 0 },
    Resource::Stream { gpu: 1, stream: 0 },
    Resource::Stream { gpu: 2, stream: 0 },
    Resource::Stream { gpu: 3, stream: 0 },
    Resource::PcieNetwork { node: 0, network: 0 },
    Resource::Stream { gpu: 0, stream: 1 },
];

/// Materialise a random DAG: each node may depend on any of the eight
/// nodes before it and claims up to two resources from [`POOL`], so
/// schedules exercise dependency waits, resource contention, exact ties
/// (duration 0 draws) and holder-based `pred` links.
fn random_graph(spec: &[(f64, u64, u64)]) -> ExecGraph {
    let mut g = ExecGraph::new();
    let p = g.phase("rand");
    let mut ids: Vec<NodeId> = Vec::new();
    for (i, &(dur, dep_bits, res_bits)) in spec.iter().enumerate() {
        let deps: Vec<NodeId> =
            (0..i.min(8)).filter(|k| dep_bits >> k & 1 == 1).map(|k| ids[i - 1 - k]).collect();
        let resources: Vec<Resource> = (0..(res_bits % 3) as usize)
            .map(|j| POOL[((res_bits >> (8 * (j + 1))) % 6) as usize])
            .collect();
        ids.push(g.add(p, format!("n{i}"), EventKind::Kernel, dur, &deps, &resources));
    }
    g
}

/// A bijective remap of [`POOL`] onto itself: the permutation whose i-th
/// resource takes the remaining target picked by `seed`'s i-th mixed-radix
/// digit.
fn pool_remap(mut seed: u64) -> RemapTable {
    let mut targets = POOL.to_vec();
    POOL.iter()
        .map(|&from| {
            let pick = (seed % targets.len() as u64) as usize;
            seed /= targets.len() as u64;
            (from, targets.remove(pick))
        })
        .collect()
}

proptest! {
    /// The event-heap scheduler is bit-identical to the O(n²) rescanning
    /// reference on arbitrary DAGs: same starts, finishes, predecessor
    /// links and makespan.
    #[test]
    fn heap_scheduler_matches_reference_on_random_dags(
        spec in prop::collection::vec(random_node(), 1..40),
    ) {
        let g = random_graph(&spec);
        let fast = g.schedule();
        let slow = reference_schedule(&g);
        prop_assert_eq!(
            fast.start.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            slow.start.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            fast.finish.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            slow.finish.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(&fast.pred, &slow.pred);
        prop_assert_eq!(fast.makespan.to_bits(), slow.makespan.to_bits());
    }

    /// The live fleet scheduler is bit-identical to the replay of its
    /// admission log through the O(n²) reference: graphs admitted at
    /// increasing releases contend for the same shared streams and links,
    /// and every other graph is admitted through a random bijective
    /// resource remap, the way the plan cache retargets a cached graph
    /// onto a lease. Each admission's start and finish must match its
    /// replayed nodes too.
    #[test]
    fn fleet_admissions_match_reference_timeline(
        spec in prop::collection::vec(random_node(), 4..48),
        gaps in prop::collection::vec(0.0f64..3.0, 1..8),
        remap_seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut fleet = FleetTimeline::new();
        let chunk = spec.len().div_ceil(gaps.len());
        let mut release = 0.0f64;
        let mut admissions = Vec::new();
        for (k, part) in spec.chunks(chunk).enumerate() {
            release += gaps[k.min(gaps.len() - 1)];
            let remap = if k % 2 == 1 {
                pool_remap(remap_seeds[k % remap_seeds.len()])
            } else {
                empty_remap()
            };
            let graph = Arc::new(random_graph(part));
            admissions.push(fleet.admit_shared(graph, remap, release, format!("r{k}:")));
        }
        let live = fleet.schedule();
        let replay = fleet.reference_schedule();
        prop_assert_eq!(
            live.start.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            replay.start.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            live.finish.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            replay.finish.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(&live.pred, &replay.pred);
        prop_assert_eq!(live.makespan.to_bits(), replay.makespan.to_bits());
        for a in &admissions {
            let first =
                replay.start[a.nodes.clone()].iter().copied().fold(f64::INFINITY, f64::min);
            let last = replay.finish[a.nodes.clone()].iter().copied().fold(a.release, f64::max);
            prop_assert_eq!(a.start.to_bits(), first.to_bits());
            prop_assert_eq!(a.finish.to_bits(), last.to_bits());
        }
    }
}

/// A barrier graph whose odd phases are transfers crossing the per-slot
/// PCIe network — the shape the fault plan can re-price.
fn comm_barrier_graph(phases: &[Vec<f64>]) -> ExecGraph {
    let mut g = ExecGraph::new();
    let mut prev: Vec<NodeId> = Vec::new();
    for (k, durs) in phases.iter().enumerate() {
        let label = format!("phase{k}");
        let p = g.phase(&label);
        prev = durs
            .iter()
            .enumerate()
            .map(|(slot, &d)| {
                if k % 2 == 1 {
                    g.add(
                        p,
                        &label,
                        EventKind::Transfer,
                        d,
                        &prev,
                        &[Resource::PcieNetwork { node: 0, network: slot }],
                    )
                } else {
                    g.add(
                        p,
                        &label,
                        EventKind::Kernel,
                        d,
                        &prev,
                        &[Resource::Stream { gpu: slot, stream: 0 }],
                    )
                }
            })
            .collect();
    }
    g
}

/// One random link fault of the plan-building matrix: degradations and
/// transient failures over the first few PCIe networks.
fn link_fault() -> impl Strategy<Value = (usize, bool, f64)> {
    (0usize..4, any::<bool>(), 1.0f64..8.0)
}

proptest! {
    /// Injecting faults one at a time never *shrinks* the makespan: a
    /// degraded link re-prices transfers upward and a transient link only
    /// adds retry attempts (with a fixed retry budget and seed, the
    /// pre-drawn outcomes make added faults strictly monotone).
    #[test]
    fn makespan_is_monotone_as_faults_are_added(
        phases in phase_durations(),
        faults in prop::collection::vec(link_fault(), 0..5),
        seed in any::<u64>(),
    ) {
        let g = comm_barrier_graph(&phases);
        let mut plan = FaultPlan::new(seed).with_retry_budget(24);
        let mut last = g.makespan();
        for (network, transient, factor) in faults {
            let link = Resource::PcieNetwork { node: 0, network };
            plan = if transient {
                // factor in [1, 8) -> failure probability in [0, 0.875).
                plan.transient_link(link, (factor - 1.0) / 8.0)
            } else {
                plan.degrade_link(link, factor)
            };
            let mut report = FaultReport::new(&plan);
            // A run that exhausts its retry budget never completes: its
            // makespan is infinite, which keeps the chain monotone (and
            // once a plan aborts, plans with even more faults must too).
            let makespan = match apply_link_faults(&g, &plan, &mut report) {
                Ok(faulted) => faulted.makespan(),
                Err(_) => f64::INFINITY,
            };
            prop_assert!(
                makespan >= last,
                "adding a fault shrank the makespan: {makespan} < {last}"
            );
            last = makespan;
        }
    }

    /// Every retry attempt waits for the failed attempt before it: in the
    /// rewritten graph, a node depending on a `[attempt k failed]` node
    /// never starts before that failure has finished.
    #[test]
    fn retry_never_starts_before_the_failed_predecessor_ends(
        phases in phase_durations(),
        seed in any::<u64>(),
        fail_prob in 0.3f64..0.95,
    ) {
        let g = comm_barrier_graph(&phases);
        let plan = FaultPlan::new(seed)
            .transient_link(Resource::PcieNetwork { node: 0, network: 0 }, fail_prob)
            .with_retry_budget(64);
        let mut report = FaultReport::new(&plan);
        let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
        let schedule = faulted.schedule();
        let mut saw_retry = false;
        for (i, node) in faulted.nodes().iter().enumerate() {
            for dep in &node.deps {
                if faulted.nodes()[dep.index()].label.contains("failed]") {
                    saw_retry = true;
                    prop_assert!(
                        schedule.start[i] >= schedule.finish[dep.index()],
                        "node {i} starts at {} before failed attempt {} ends at {}",
                        schedule.start[i],
                        dep.index(),
                        schedule.finish[dep.index()]
                    );
                }
            }
        }
        // At fail_prob >= 0.3 over these graph sizes a retry occurs in
        // practice for almost every case; the property must also hold
        // vacuously, so no assertion on `saw_retry` — but the report and
        // label set must agree on whether one happened.
        prop_assert_eq!(saw_retry, report.retried_transfers() > 0);
    }

    /// An empty fault plan is the identity: the rewritten graph has the
    /// same nodes and the bit-identical makespan.
    #[test]
    fn empty_plan_reduces_bit_identically(phases in phase_durations(), seed in any::<u64>()) {
        let g = comm_barrier_graph(&phases);
        for plan in [FaultPlan::none(), FaultPlan::new(seed)] {
            let mut report = FaultReport::new(&plan);
            let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
            prop_assert_eq!(faulted.nodes().len(), g.nodes().len());
            prop_assert_eq!(faulted.makespan().to_bits(), g.makespan().to_bits());
            prop_assert!(report.events.is_empty());
        }
    }

    /// Resources are exclusive, so no resource can be busy for longer
    /// than the whole schedule, and the summed busy time across tracks is
    /// bounded by makespan × track-count.
    #[test]
    fn busy_time_never_exceeds_makespan_per_resource(phases in phase_durations()) {
        let g = comm_barrier_graph(&phases);
        let trace = Trace::new(g);
        let util = trace.utilization();
        let mut total_busy = 0.0;
        for r in &util.resources {
            prop_assert!(
                r.busy_seconds <= util.makespan,
                "{} busy {} > makespan {}",
                &r.track, r.busy_seconds, util.makespan
            );
            total_busy += r.busy_seconds;
        }
        prop_assert!(total_busy <= util.makespan * util.resources.len() as f64);
    }

    /// Critical-path attribution is exact: folding the path durations in
    /// path order reproduces the makespan bit-for-bit, with and without
    /// fault rewriting.
    #[test]
    fn critical_path_durations_sum_exactly_to_the_makespan(
        phases in phase_durations(),
        seed in any::<u64>(),
        fail_prob in 0.0f64..0.9,
    ) {
        let g = comm_barrier_graph(&phases);
        let healthy = Trace::from_graph(&g).critical_path();
        prop_assert_eq!(healthy.total_seconds().to_bits(), healthy.makespan.to_bits());

        let plan = FaultPlan::new(seed)
            .transient_link(Resource::PcieNetwork { node: 0, network: 0 }, fail_prob)
            .with_retry_budget(64);
        let mut report = FaultReport::new(&plan);
        let faulted = apply_link_faults(&g, &plan, &mut report).unwrap();
        let cp = Trace::new(faulted).critical_path();
        prop_assert_eq!(cp.total_seconds().to_bits(), cp.makespan.to_bits());
        // The per-phase split partitions the path: phase totals re-sum to
        // the path total (same addends, regrouped — equal up to rounding).
        let phase_sum: f64 = cp.phase_seconds().iter().map(|(_, s)| s).sum();
        prop_assert!((phase_sum - cp.makespan).abs() <= 1e-9 * cp.makespan.max(1.0));
    }
}
