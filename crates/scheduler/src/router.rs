//! Sharded multi-cluster serving: the deterministic front-end router.
//!
//! One [`Router`] partitions a seeded workload across N per-shard serve
//! loops, each owning its own [`crate::DevicePool`] and
//! `interconnect::FleetTimeline`, all stepped on **one shared simulated
//! clock**. The router adds what a single [`crate::Server`] cannot
//! express:
//!
//! * **placement** — a pluggable [`Placement`] policy picks each arrival's
//!   primary shard (hash over `(id, tenant)`, least-loaded, or
//!   locality-by-[`OpKind`](crate::OpKind) so per-shard plan/response caches stay hot);
//! * **admission control** — bounded per-shard queues
//!   ([`RouterConfig::queue_capacity`]) with deterministic redirect to the
//!   emptiest shard with room, and a recorded [`Rejection`] when every
//!   queue is full — never a silent drop;
//! * **SLO-aware dispatch** — a per-tenant deadline-miss budget
//!   ([`SloConfig`]); once a tenant exceeds it, its earliest-deadline
//!   queued request escalates to the queue head, preempting a
//!   not-yet-admitted coalesced launch back into the queue;
//! * **work stealing** — an idle shard pulls the least-urgent queued
//!   request from the most-backlogged shard, paying an explicit
//!   InfiniBand transfer in its timeline (see `crate::shard`'s steal-cost
//!   model and `docs/sharding.md`).
//!
//! Everything is bit-deterministic: same workload + same
//! [`RouterConfig`] ⇒ byte-identical [`ShardedReport`], and a 1-shard
//! router is byte-equal to the unsharded [`crate::Server::run`] because
//! both drive the same `ShardState` stepping code.

use std::collections::{BTreeMap, BTreeSet};

use devices::{DevicePreset, FabricPreset};
use gpu_sim::host;
use interconnect::{FleetTrace, Resource};
use scan_core::{ScanError, ScanResult};

use crate::metrics::ShardedMetrics;
use crate::policy::Policy;
use crate::request::ServeRequest;
use crate::serve::{Completion, ResponseStats, ServeConfig, ServeReport, Server};
use crate::shard::{QueueEntry, ShardState, STEAL_NODE_BASE};

/// How the router picks an arrival's primary shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Placement {
    /// SplitMix64 hash of `(request id, tenant)` modulo the shard count:
    /// stateless and uniform.
    #[default]
    Hash,
    /// The shard with the fewest queued + in-flight requests (ties to the
    /// lowest shard id).
    LeastLoaded,
    /// By the request's [`OpKind`](crate::OpKind) (operator index modulo shards): keeps
    /// each shard's plan cache and response memo hot for its kinds, and
    /// maximizes coalescing (only same-kind requests share a queue).
    LocalityByOp,
}

impl Placement {
    /// Every placement policy, in report order.
    pub fn all() -> [Placement; 3] {
        [Placement::Hash, Placement::LeastLoaded, Placement::LocalityByOp]
    }

    /// Stable name used in JSON reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Hash => "hash",
            Placement::LeastLoaded => "least-loaded",
            Placement::LocalityByOp => "locality",
        }
    }

    /// Inverse of [`Placement::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Placement> {
        let s = s.to_ascii_lowercase();
        Placement::all().into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-tenant service-level objective the router enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Deadline misses a tenant may accumulate before its queued
    /// deadline-carrying requests start escalating to the queue head
    /// (0 = escalate after the first miss).
    pub miss_budget: usize,
}

/// Router configuration: shard topology plus the per-shard
/// [`ServeConfig`] knobs every shard shares.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// GPUs in each shard's private pool.
    pub gpus_per_shard: usize,
    /// Queue discipline every shard runs.
    pub policy: Policy,
    /// Primary-shard placement policy.
    pub placement: Placement,
    /// Bounded per-shard queue depth; `None` = unbounded (no admission
    /// control). `Some(0)` is rejected as [`ScanError::InvalidConfig`] —
    /// a shard that can never accept work is a misconfiguration, not a
    /// policy.
    pub queue_capacity: Option<usize>,
    /// Whether idle shards steal from backlogged ones.
    pub steal: bool,
    /// Per-tenant SLO enforcement; `None` = no escalation.
    pub slo: Option<SloConfig>,
    /// Whether compatible small scans coalesce into one launch (per
    /// shard).
    pub coalesce: bool,
    /// Seed for per-request input data (same meaning as
    /// [`ServeConfig::input_seed`]).
    pub input_seed: u64,
    /// Keep every request's full output in its completion record (tests).
    pub keep_outputs: bool,
    /// Memoize built execution plans per shard.
    pub plan_cache: bool,
    /// Each shard's device mix, in GPU-id order (same meaning as
    /// [`ServeConfig::devices`]); empty = a homogeneous Tesla K80 pool of
    /// [`RouterConfig::gpus_per_shard`] GPUs.
    pub devices: Vec<(DevicePreset, usize)>,
    /// Each shard's interconnect fabric (same meaning as
    /// [`ServeConfig::fabric`]).
    pub fabric: FabricPreset,
    /// Host threads a window may use. Ticks always run on the caller's
    /// thread as a fan worker (`gpu_sim::host::as_worker`); the only host
    /// fan left is the window's end, where each shard's report (its
    /// response pass) is built. `1` runs the whole window on the caller's
    /// thread; any other value (`0` is the default) fans the shards'
    /// reports out to `gpu_sim::host::width` threads (a 1-shard router's
    /// response pass fans out itself). No output byte depends on it.
    pub threads: usize,
}

impl RouterConfig {
    /// Defaults: one TSUBAME-KFC node (8 GPUs) per shard, hash placement,
    /// unbounded queues, stealing on, no SLO, coalescing and plan cache on.
    pub fn new(shards: usize, policy: Policy, input_seed: u64) -> Self {
        RouterConfig {
            shards,
            gpus_per_shard: 8,
            policy,
            placement: Placement::Hash,
            queue_capacity: None,
            steal: true,
            slo: None,
            coalesce: true,
            input_seed,
            keep_outputs: false,
            plan_cache: true,
            devices: Vec::new(),
            fabric: FabricPreset::Pcie,
            threads: 0,
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            pool_gpus: self.gpus_per_shard,
            policy: self.policy,
            coalesce: self.coalesce,
            input_seed: self.input_seed,
            keep_outputs: self.keep_outputs,
            plan_cache: self.plan_cache,
            devices: self.devices.clone(),
            fabric: self.fabric,
        }
    }
}

/// A request every shard queue turned away: recorded, never silently
/// dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// The request as submitted.
    pub request: ServeRequest,
    /// Simulated time of the admission decision (its arrival instant).
    pub time: f64,
    /// The primary shard that was full.
    pub shard: usize,
}

/// One shard's slice of a sharded window.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard id.
    pub shard: usize,
    /// The shard's own serve report (its completions, launches, trace,
    /// per-shard [`crate::FleetMetrics`]).
    pub report: ServeReport,
    /// Requests this shard stole and served.
    pub steals_in: usize,
    /// Requests stolen away from this shard's queue.
    pub steals_out: usize,
    /// Admitted requests redirected here from a full primary shard.
    pub redirects_in: usize,
    /// Ids of the requests this shard stole, in steal order.
    pub stolen_ids: Vec<usize>,
}

/// Everything a sharded serving window produced.
#[derive(Debug)]
pub struct ShardedReport {
    /// Per-shard slices, indexed by shard id.
    pub shards: Vec<ShardReport>,
    /// Requests admission control turned away, in arrival order.
    pub rejections: Vec<Rejection>,
    /// Latest shard makespan, seconds (shards share one clock).
    pub makespan: f64,
    /// Fleet-wide rollup metrics.
    pub metrics: ShardedMetrics,
    /// All shards' traces merged onto one timeline, phase labels prefixed
    /// `s<shard>:` and resources remapped into disjoint per-shard domains.
    /// Lazy: it reads the shards' fleet records (shared with each
    /// [`ShardReport`]'s own trace) and merges them on first use.
    pub trace: FleetTrace,
}

impl ShardedReport {
    /// All shards' completions in deterministic fleet order: ascending
    /// `(finish bits, shard id, completion index)`.
    pub fn completions(&self) -> Vec<&Completion> {
        let mut all: Vec<(u64, usize, usize, &Completion)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.report
                    .completions
                    .iter()
                    .enumerate()
                    .map(move |(i, c)| (c.finished.to_bits(), s.shard, i, c))
            })
            .collect();
        all.sort_by_key(|&(f, s, i, _)| (f, s, i));
        all.into_iter().map(|(_, _, _, c)| c).collect()
    }
}

/// The sharded front-end: owns one [`Server`] engine per shard and drives
/// their loops in lockstep on a shared clock.
pub struct Router {
    config: RouterConfig,
    engines: Vec<Server>,
}

impl Router {
    /// Build a router, validating the shard topology.
    ///
    /// # Errors
    /// [`ScanError::InvalidConfig`] when `shards == 0`,
    /// `gpus_per_shard == 0`, or `queue_capacity == Some(0)`.
    pub fn new(config: RouterConfig) -> ScanResult<Router> {
        if config.shards == 0 {
            return Err(ScanError::InvalidConfig("router needs at least one shard".into()));
        }
        if config.serve_config().total_gpus() == 0 {
            return Err(ScanError::InvalidConfig("a shard needs at least one GPU".into()));
        }
        if config.queue_capacity == Some(0) {
            return Err(ScanError::InvalidConfig(
                "zero-capacity shard queues can never admit a request".into(),
            ));
        }
        let engines = (0..config.shards).map(|_| Server::new(config.serve_config())).collect();
        Ok(Router { config, engines })
    }

    /// The configuration the router was built with.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Response-memo accounting summed over the shards' engines (across
    /// every window this router ran). Each shard keeps its own memo, so a
    /// request served by two shards in different windows counts once per
    /// shard.
    pub fn response_stats(&self) -> ResponseStats {
        self.engines.iter().map(Server::response_stats).fold(ResponseStats::default(), |sum, s| {
            ResponseStats { served: sum.served + s.served, entries: sum.entries + s.entries }
        })
    }

    /// Serve `requests` (sorted by arrival) to completion across all
    /// shards.
    ///
    /// Shards advance in simulated-clock lockstep, and every tick runs on
    /// the caller's thread as a fan worker ([`host::as_worker`]), so every
    /// launch runs its groups, GPUs and blocks serially: a tick's dispatch
    /// is a few microseconds of work, less than waking another thread
    /// costs. Every cross-shard interaction — routing, redirect spill,
    /// work stealing, SLO escalation, the clock advance — resolves between
    /// ticks, in shard-index order. Each shard's responses are computed by
    /// its engine's window-end response pass when the window is
    /// finalized; the shards' reports are the window's only host fan, and
    /// [`RouterConfig::threads`] = 1 keeps them on this thread too.
    /// Outputs are byte-identical whatever the thread count.
    ///
    /// # Errors
    /// [`ScanError::InvalidConfig`] when an arrival is negative, not
    /// finite, or earlier than its predecessor's, or a request's batch is
    /// larger than any grant could hold; the router is left untouched.
    /// Otherwise the lowest-shard error a launch reports.
    pub fn run(&self, requests: &[ServeRequest]) -> ScanResult<ShardedReport> {
        // Every shard's engine serves the same configuration.
        self.engines[0].check_arrivals(requests)?;
        let window = || {
            let mut states: Vec<ShardState> = (0..self.config.shards)
                .map(|s| ShardState::new(s, self.engines[s].new_pool()))
                .collect();
            let (rejections, redirects_in, steals_out) =
                host::as_worker(|| self.drive(requests, &mut states))?;
            Ok(self.finalize(states, rejections, redirects_in, steals_out))
        };
        if self.config.threads == 1 {
            host::as_worker(window)
        } else {
            window()
        }
    }

    /// The lockstep serving loop. Returns `(rejections, redirects_in,
    /// steals_out)`.
    fn drive(
        &self,
        requests: &[ServeRequest],
        states: &mut [ShardState],
    ) -> ScanResult<(Vec<Rejection>, Vec<usize>, Vec<usize>)> {
        let shards = self.config.shards;
        let mut rejections: Vec<Rejection> = Vec::new();
        let mut redirects_in = vec![0usize; shards];
        let mut steals_out = vec![0usize; shards];
        // Fleet-wide SLO ledger: per-tenant deadline misses so far, and
        // the tenants currently past their budget.
        let mut misses: BTreeMap<u8, usize> = BTreeMap::new();
        let mut over: BTreeSet<u8> = BTreeSet::new();
        let mut next = 0; // index into `requests`
        let mut now = 0.0f64;

        loop {
            // Route arrivals: place, then admit / redirect / reject.
            while next < requests.len() && requests[next].arrival <= now {
                let r = &requests[next];
                let primary = self.place(r, states);
                let target = match self.config.queue_capacity {
                    Some(cap) if states[primary].queue.len() >= cap => {
                        let alt = (0..shards)
                            .filter(|&s| states[s].queue.len() < cap)
                            .min_by_key(|&s| (states[s].queue.len(), s));
                        if let Some(alt) = alt {
                            redirects_in[alt] += 1;
                        }
                        alt
                    }
                    _ => Some(primary),
                };
                match target {
                    Some(s) => states[s].enqueue(next),
                    None => {
                        rejections.push(Rejection { request: r.clone(), time: now, shard: primary })
                    }
                }
                next += 1;
            }

            let escalate = self.config.slo.is_some().then_some(&over);
            for (engine, state) in self.engines.iter().zip(states.iter_mut()) {
                engine.dispatch(state, requests, now, escalate)?;
            }

            // Work stealing: an idle shard (empty queue, free GPUs) pulls
            // the least-urgent *eligible* entry from the most-backlogged
            // shard. A shard whose queue is still non-empty after dispatch
            // has an exhausted pool, so its surplus really is blocked work.
            // Requests of tenants past their SLO miss budget are not
            // eligible: they are escalation candidates on their own shard,
            // and paying a steal transfer would only push the tenant
            // further past its deadline.
            if self.config.steal {
                let eligible = |e: &QueueEntry| !over.contains(&requests[e.idx].tenant);
                loop {
                    let thief = (0..shards)
                        .find(|&s| states[s].queue.is_empty() && states[s].pool.free_count() > 0);
                    let Some(thief) = thief else { break };
                    let victim = (0..shards)
                        .filter(|&s| {
                            let st = &states[s];
                            s != thief && st.queue.len() >= 2 && st.queue.iter().any(eligible)
                        })
                        .max_by_key(|&s| (states[s].queue.len(), std::cmp::Reverse(s)));
                    let Some(victim) = victim else { break };
                    let tail = states[victim]
                        .queue
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| eligible(e))
                        .max_by_key(|(_, e)| self.config.policy.key(&requests[e.idx]))
                        .map(|(pos, _)| pos)
                        .expect("victim has an eligible entry");
                    let entry = states[victim].queue.remove(tail);
                    steals_out[victim] += 1;
                    let thief_state = &mut states[thief];
                    thief_state
                        .queue
                        .push(QueueEntry { idx: entry.idx, stolen_from: Some(victim) });
                    thief_state.queue_sorted = false;
                    // The thief has a free GPU, so the stolen entry launches
                    // now (with its steal-in transfer admitted ahead of it).
                    self.engines[thief].dispatch(thief_state, requests, now, escalate)?;
                }
            }

            for state in states.iter_mut() {
                state.sample(now);
            }

            // Advance the shared clock to the next event anywhere.
            let next_completion = states.iter().filter_map(ShardState::next_finish).min();
            let next_arrival = (next < requests.len()).then(|| requests[next].arrival);
            now = match (next_completion, next_arrival) {
                (None, None) => {
                    assert!(
                        states.iter().all(|s| s.queue.is_empty()),
                        "idle fleet with a non-empty queue"
                    );
                    break;
                }
                (Some(f), None) => f64::from_bits(f),
                (None, Some(a)) => a,
                (Some(f), Some(a)) => f64::from_bits(f).min(a),
            };

            // Retire finished launches on every shard, in shard-id order,
            // then settle the SLO ledger from the new completions.
            for state in states.iter_mut() {
                state.retire(now);
            }
            if let Some(slo) = self.config.slo {
                for state in states.iter_mut() {
                    for c in &state.completions[state.accounted..] {
                        if c.missed_deadline() {
                            *misses.entry(c.request.tenant).or_insert(0) += 1;
                        }
                    }
                    state.accounted = state.completions.len();
                }
                over =
                    misses.iter().filter(|&(_, &m)| m > slo.miss_budget).map(|(&t, _)| t).collect();
            }
        }

        Ok((rejections, redirects_in, steals_out))
    }

    /// Fold the drained shard states into the fleet-wide report: per-shard
    /// reports (each with its response pass), built under one host fan
    /// over the shards — the window's coarsest unit after the loop — and
    /// kept in shard-id order, the merged trace over the shards' fleet
    /// records (resources remapped into disjoint per-shard domains,
    /// materialized only when read), and rollup metrics.
    fn finalize(
        &self,
        states: Vec<ShardState>,
        rejections: Vec<Rejection>,
        redirects_in: Vec<usize>,
        steals_out: Vec<usize>,
    ) -> ShardedReport {
        let gpus = self.config.serve_config().total_gpus();
        // Every shard's fabric holds `gpus` GPUs at the preset's node
        // arity (8 for the PCIe tree, 16 for DGX-2 chassis).
        let nodes_per_shard = gpus.div_ceil(self.config.fabric.gpus_per_node()).max(1);
        let finish = |(s, mut state): (usize, ShardState)| {
            let stolen_ids = std::mem::take(&mut state.stolen_ids);
            let (report, fleet) = self.engines[s].report(state);
            let remap = move |r: &Resource| remap_shard_resource(r, s, gpus, nodes_per_shard);
            let shard = ShardReport {
                shard: s,
                steals_in: stolen_ids.len(),
                steals_out: steals_out[s],
                redirects_in: redirects_in[s],
                stolen_ids,
                report,
            };
            (shard, (fleet, remap, format!("s{s}:")))
        };
        let (shard_reports, parts): (Vec<ShardReport>, Vec<_>) =
            host::fan_out(states.into_iter().enumerate(), finish).into_iter().unzip();
        let trace = FleetTrace::merged(parts);
        let makespan = shard_reports.iter().map(|s| s.report.makespan).fold(0.0f64, f64::max);
        let completions: Vec<&[Completion]> =
            shard_reports.iter().map(|s| s.report.completions.as_slice()).collect();
        let metrics = ShardedMetrics::compute(
            self.config.policy,
            self.config.placement.name(),
            &completions,
            shard_reports.iter().map(|s| s.report.launches).sum(),
            shard_reports.iter().map(|s| s.steals_in).sum(),
            rejections.len(),
            redirects_in.iter().sum(),
            makespan,
        );
        ShardedReport { shards: shard_reports, rejections, makespan, metrics, trace }
    }

    /// The arrival's primary shard under the configured [`Placement`].
    fn place(&self, r: &ServeRequest, states: &[ShardState]) -> usize {
        let shards = self.config.shards;
        match self.config.placement {
            Placement::Hash => {
                (splitmix64(((r.id as u64) << 8) | r.tenant as u64) % shards as u64) as usize
            }
            Placement::LeastLoaded => (0..shards)
                .min_by_key(|&s| (states[s].queue.len() + states[s].running.len(), s))
                .expect("at least one shard"),
            Placement::LocalityByOp => r.op as usize % shards,
        }
    }
}

/// Shift one shard's resources into its own disjoint domain: GPU ids by
/// `shard · gpus_per_shard`, node ids by `shard · nodes_per_shard`. Steal
/// links (node ids ≥ [`STEAL_NODE_BASE`]) are already global — keyed by
/// the shard *pair* — and pass through unchanged. The rewrite is bijective
/// per shard, so each part's schedule stays valid verbatim.
fn remap_shard_resource(
    r: &Resource,
    shard: usize,
    gpus_per_shard: usize,
    nodes_per_shard: usize,
) -> Resource {
    let node = |n: usize| {
        if n >= STEAL_NODE_BASE {
            n
        } else {
            n + shard * nodes_per_shard
        }
    };
    match *r {
        Resource::Stream { gpu, stream } => {
            Resource::Stream { gpu: gpu + shard * gpus_per_shard, stream }
        }
        Resource::PcieNetwork { node: n, network } => {
            Resource::PcieNetwork { node: node(n), network }
        }
        Resource::HostBridge { node: n } => Resource::HostBridge { node: node(n) },
        Resource::IbLink { a, b } => Resource::ib(node(a), node(b)),
    }
}

/// SplitMix64's output mix: the stateless hash behind [`Placement::Hash`].
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn small_workload(seed: u64, count: usize) -> Vec<ServeRequest> {
        let mut spec = WorkloadSpec::default_for(seed, count);
        spec.n_range = (10, 11);
        spec.g_range = (0, 2);
        spec.generate()
    }

    #[test]
    fn invalid_topologies_are_rejected() {
        let mut c = RouterConfig::new(0, Policy::Fifo, 7);
        assert!(matches!(Router::new(c.clone()), Err(ScanError::InvalidConfig(_))));
        c.shards = 2;
        c.queue_capacity = Some(0);
        assert!(matches!(Router::new(c.clone()), Err(ScanError::InvalidConfig(_))));
        c.queue_capacity = None;
        c.gpus_per_shard = 0;
        assert!(matches!(Router::new(c), Err(ScanError::InvalidConfig(_))));
    }

    #[test]
    fn sharded_window_serves_every_admitted_request_once() {
        let requests = small_workload(11, 24);
        let router = Router::new(RouterConfig::new(3, Policy::Fifo, 11)).unwrap();
        let report = router.run(&requests).unwrap();
        assert!(report.rejections.is_empty(), "unbounded queues reject nothing");
        let mut ids: Vec<usize> = report.completions().iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..24).collect::<Vec<_>>());
        assert_eq!(report.metrics.requests, 24);
        assert_eq!(report.metrics.shards, 3);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn placement_policies_cover_all_shards_deterministically() {
        let requests = {
            let mut spec = WorkloadSpec::mixed_ops_for(13, 32);
            spec.n_range = (10, 11);
            spec.g_range = (0, 1);
            spec.tenants = 4;
            spec.generate()
        };
        for placement in Placement::all() {
            let mut config = RouterConfig::new(2, Policy::Fifo, 13);
            config.placement = placement;
            let router = Router::new(config).unwrap();
            let a = router.run(&requests).unwrap();
            let b = router.run(&requests).unwrap();
            for (x, y) in a.completions().iter().zip(b.completions().iter()) {
                assert_eq!(x.request.id, y.request.id, "{placement}");
                assert_eq!(x.checksum, y.checksum, "{placement}");
                assert_eq!(x.finished.to_bits(), y.finished.to_bits(), "{placement}");
            }
            assert_eq!(a.metrics, b.metrics, "{placement}");
        }
    }

    #[test]
    fn placement_names_round_trip() {
        for p in Placement::all() {
            assert_eq!(Placement::parse(p.name()), Some(p));
        }
        assert_eq!(Placement::parse("LOCALITY"), Some(Placement::LocalityByOp));
        assert_eq!(Placement::parse("bogus"), None);
    }

    #[test]
    fn merged_trace_prefixes_every_shard_track() {
        let requests = small_workload(3, 12);
        let router = Router::new(RouterConfig::new(2, Policy::Fifo, 3)).unwrap();
        let report = router.run(&requests).unwrap();
        let labels = report.trace.graph().phase_labels();
        assert!(!labels.is_empty());
        for label in labels {
            assert!(
                label.starts_with("s0:") || label.starts_with("s1:"),
                "unprefixed phase label {label:?}"
            );
        }
        let total_nodes: usize =
            report.shards.iter().map(|s| s.report.trace.graph().nodes().len()).sum();
        assert_eq!(report.trace.graph().nodes().len(), total_nodes);
    }

    #[test]
    fn merged_trace_makespan_is_the_window_makespan() {
        let requests = small_workload(5, 16);
        for threads in [0, 1] {
            let mut config = RouterConfig::new(3, Policy::Edf, 5);
            config.threads = threads;
            let report = Router::new(config).unwrap().run(&requests).unwrap();
            assert!(report.makespan > 0.0);
            assert_eq!(report.trace.makespan().to_bits(), report.makespan.to_bits());
        }
    }
}
