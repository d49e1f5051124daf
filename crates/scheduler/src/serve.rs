//! The serving loop: a deterministic simulated-clock scheduler.
//!
//! [`Server::run`] drives a discrete-event loop over one shared cluster:
//!
//! 1. **Admit** — requests whose arrival time has passed join the queue.
//! 2. **Dispatch** — the queue is ordered by the configured [`Policy`];
//!    the head leases GPUs from the [`crate::DevicePool`] (a partial grant is
//!    planned with the degraded-mode subset rule), compatible neighbours
//!    are coalesced into its launch ([`crate::coalesce`]), the batch is
//!    *functionally executed* through `scan_core::scan_on_lease` (via the
//!    shared [`PlanCache`] by default, which replays the memoized graph
//!    bit-identically for repeated shapes — an exact plan or a float
//!    kind's schedule-only one, since a hit reads no data; see
//!    `docs/perf.md`), and the
//!    resulting graph is admitted into one shared [`FleetTimeline`] — so
//!    cross-request contention serialises exactly like intra-request
//!    contention. Each member's response is looked up in the response
//!    memo; a miss waits for step 4.
//! 3. **Advance** — the clock jumps to the next arrival or completion;
//!    completions release their leases and record latency.
//! 4. **Respond** — when the window ends, one response pass computes every
//!    response the memo did not hold: per operator kind, the misses are
//!    split by element count across the host's cores, and each worker
//!    streams its members through interleaved lanes that generate the
//!    input, scan it row by row and FNV-1a-hash it in one loop.
//!
//! Everything is bit-deterministic from the workload and the input seed:
//! the clock only takes values produced by the fleet scheduler's f64
//! arithmetic, queue orders are total, and completions are processed in
//! `(finish-time bits, launch sequence)` order. Responses never feed back
//! into scheduling, so resolving them at the window's end changes no
//! simulated number.
//!
//! One window serves a *mixed-operator* workload: each request names an
//! [`OpKind`], and the dispatcher instantiates the fully typed pipeline
//! for its launch through the kind's [`ServedKind`] impl
//! ([`crate::kind`]). Requests of different kinds never coalesce, and
//! plan-cache and response-memo entries are keyed by kind, so operators
//! cannot cross-contaminate. Served outputs and checksums are computed in
//! the canonical sequential reference order per tenant, so every
//! completion is bit-equal to an isolated CPU-reference run of the same
//! request — for any operator, including the non-exactly-associative
//! float kinds (see `docs/operators.md`).

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use devices::{DeviceModel, DevicePreset, FabricPreset};
use gpu_sim::{host, DeviceSpec};
use interconnect::{empty_remap, Admission, Fabric, FleetTimeline, FleetTrace};
use scan_core::{
    scan_on_lease, CacheStats, PipelinePolicy, PlanCache, ProblemParams, ScanError, ScanKind,
    ScanResult,
};
use skeletons::{ScanOp, SplkTuple};

use crate::coalesce;
use crate::kind::{with_kind, OpKind, ServedKind, ServedOutput, FNV_OFFSET};
use crate::metrics::FleetMetrics;
use crate::policy::{is_key_time, Policy};
use crate::pool::{DevicePool, PoolDevice, PoolLease};
use crate::request::ServeRequest;
use crate::shard::{self, Launch, Miss, ResponseKey, ShardState};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// GPUs in the shared pool.
    pub pool_gpus: usize,
    /// Queue discipline.
    pub policy: Policy,
    /// Whether compatible small scans coalesce into one launch.
    pub coalesce: bool,
    /// Seed for per-request input data (independent of the workload
    /// generator's seed so traces can be replayed with fresh data).
    pub input_seed: u64,
    /// Keep every request's full output in its completion record (tests);
    /// off for benchmarking, where the checksum suffices.
    pub keep_outputs: bool,
    /// Memoize built execution plans across launches (on by default): a
    /// launch whose shape (problem, lease, tuple, policy) has run before
    /// replays the cached graph bit-identically instead of rebuilding it.
    pub plan_cache: bool,
    /// Device generations in the pool, as `(model, count)` runs in GPU-id
    /// order. Empty (the default) = a homogeneous pool of
    /// [`ServeConfig::pool_gpus`] Tesla K80s — the paper's cluster,
    /// bit-identical to the pre-heterogeneity behavior. Non-empty runs
    /// override `pool_gpus` with their total.
    pub devices: Vec<(DevicePreset, usize)>,
    /// Named interconnect fabric the pool's GPUs sit on.
    /// [`FabricPreset::Pcie`] (the default) builds exactly the historical
    /// TSUBAME-KFC PCIe tree.
    pub fabric: FabricPreset,
}

impl ServeConfig {
    /// Defaults: one TSUBAME-KFC node (8 GPUs), coalescing on, plan cache
    /// on, outputs dropped after checksumming.
    pub fn new(policy: Policy, input_seed: u64) -> Self {
        ServeConfig {
            pool_gpus: 8,
            policy,
            coalesce: true,
            input_seed,
            keep_outputs: false,
            plan_cache: true,
            devices: Vec::new(),
            fabric: FabricPreset::Pcie,
        }
    }

    /// Total GPUs the configuration describes: the device runs' sum, or
    /// [`ServeConfig::pool_gpus`] for the homogeneous default.
    pub fn total_gpus(&self) -> usize {
        if self.devices.is_empty() {
            self.pool_gpus
        } else {
            self.devices.iter().map(|&(_, count)| count).sum()
        }
    }
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request as submitted.
    pub request: ServeRequest,
    /// When the dispatcher admitted its launch (≥ arrival).
    pub dispatched: f64,
    /// When its first node started executing (≥ dispatched; later when the
    /// fleet's resources were still busy).
    pub started: f64,
    /// When its launch finished.
    pub finished: f64,
    /// Members in its launch (1 = ran alone).
    pub coalesced: usize,
    /// GPUs the launch actually ran on (shared by every completion of one
    /// launch rather than cloned per member).
    pub gpus: Arc<[usize]>,
    /// FNV-1a checksum of the request's output slice, over each value's
    /// little-endian byte encoding (see [`ServedOutput`] for the per-type
    /// encodings). Taken from the response memo when it holds the
    /// request, otherwise computed by the response pass when the window
    /// ends — either way bit-equal to hashing an isolated CPU-reference
    /// scan of the request's input.
    pub checksum: u64,
    /// The output slice itself, when [`ServeConfig::keep_outputs`] is set.
    pub output: Option<ServedOutput>,
}

/// Interleaved lanes per response-pass worker: four independent FNV-1a
/// multiply chains advance in one loop, so each chain's latency hides
/// behind the other three.
const LANES: usize = 4;

impl Completion {
    /// Queueing + service time: `finished - arrival`.
    pub fn latency(&self) -> f64 {
        self.finished - self.request.arrival
    }

    /// Whether the request had a deadline and missed it.
    pub fn missed_deadline(&self) -> bool {
        self.request.deadline.is_some_and(|d| self.finished > d)
    }
}

/// Everything a serving window produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Completions in completion order (finish time, then launch order).
    pub completions: Vec<Completion>,
    /// Number of launches (≤ requests; the gap is coalescing).
    pub launches: usize,
    /// End of the fleet schedule, seconds.
    pub makespan: f64,
    /// The whole window as one trace: every request's nodes on the shared
    /// resource timeline, phases prefixed per launch. Lazy — the fleet
    /// graph materializes only when a consumer asks for it.
    pub trace: FleetTrace,
    /// `(time, queued)` after every scheduling step, for queue-depth
    /// metrics.
    pub queue_samples: Vec<(f64, usize)>,
    /// Fleet-level metrics derived from the above.
    pub metrics: FleetMetrics,
    /// Plan-cache accounting for the window (all zeros when
    /// [`ServeConfig::plan_cache`] is off). Kept out of [`FleetMetrics`]
    /// so benchmark summaries are unchanged by caching.
    pub cache_stats: CacheStats,
}

/// Response-memo accounting: how many completions were served without
/// recomputing their output, and how many checksums are stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseStats {
    /// Completions whose checksum came from the memo — or from a miss an
    /// earlier launch of the same window already queued for the response
    /// pass: no input generated, no reference scan, no bytes hashed.
    pub served: u64,
    /// Distinct `(request id, shape, operator kind)` checksums stored.
    pub entries: usize,
}

#[derive(Debug, Default)]
struct ResponseMemo {
    /// `(request id, n, g, op)` → FNV-1a checksum of the request's output.
    /// Valid for the server's lifetime because `input_seed` is fixed, so
    /// the same id, shape and operator always yield the same input and
    /// output. The operator is part of the key: the same id served under
    /// two kinds has two distinct checksums.
    /// Written only by the window-end response pass.
    sums: HashMap<ResponseKey, u64, interconnect::FxBuildHasher>,
    served: u64,
}

/// One device generation the server can plan on: its pool fingerprint and
/// the lowered spec the pipeline builder costs against.
struct DeviceClass {
    name: &'static str,
    spec: DeviceSpec,
}

/// The multi-tenant scheduler.
pub struct Server {
    config: ServeConfig,
    classes: Vec<DeviceClass>,
    tuple: SplkTuple,
    fabric: Fabric,
    cache: PlanCache,
    responses: Mutex<ResponseMemo>,
}

impl Server {
    /// A server over the configured pool — by default
    /// `config.pool_gpus` simulated K80s on the paper's TSUBAME-KFC
    /// fabric (enough nodes to hold the pool); with
    /// [`ServeConfig::devices`] set, a mixed-generation pool on the
    /// configured [`ServeConfig::fabric`] preset. Every launch is planned
    /// against its lease's own generation.
    pub fn new(mut config: ServeConfig) -> Self {
        config.pool_gpus = config.total_gpus();
        assert!(config.pool_gpus >= 1);
        let fabric = config.fabric.build_for_gpus(config.pool_gpus);
        let classes = if config.devices.is_empty() {
            vec![DeviceClass { name: "tesla_k80", spec: DeviceSpec::tesla_k80() }]
        } else {
            let mut classes: Vec<DeviceClass> = Vec::new();
            for &(preset, _) in &config.devices {
                if !classes.iter().any(|c| c.name == preset.name()) {
                    classes.push(DeviceClass { name: preset.name(), spec: preset.spec() });
                }
            }
            classes
        };
        Server {
            config,
            classes,
            tuple: SplkTuple::kepler_premises(0),
            fabric,
            cache: PlanCache::new(),
            responses: Mutex::new(ResponseMemo::default()),
        }
    }

    /// The device pool the configuration describes (each serve loop gets a
    /// fresh one).
    pub(crate) fn new_pool(&self) -> DevicePool {
        if self.config.devices.is_empty() {
            DevicePool::new(self.config.pool_gpus)
        } else {
            DevicePool::heterogeneous(
                self.config
                    .devices
                    .iter()
                    .map(|&(preset, count)| {
                        let device = PoolDevice {
                            class: preset.name(),
                            throughput: preset.throughput_score(),
                        };
                        (device, count)
                    })
                    .collect(),
            )
        }
    }

    /// The lowered spec of one registered device class.
    fn spec_for(&self, class: &str) -> &DeviceSpec {
        &self
            .classes
            .iter()
            .find(|c| c.name == class)
            .expect("every leased class is registered at construction")
            .spec
    }

    /// Check a window before serving it. Arrivals must be sorted, and
    /// arrivals and deadlines finite and non-negative, `-0.0` excluded
    /// ([`is_key_time`]): the loop's clock only moves forward from zero,
    /// and the policy keys order times by bit pattern, which matches value
    /// order only there. `n` and `g` must be below
    /// [`ProblemParams::LOG2_LIMIT`], and each batch must fit the device
    /// memory of the largest grant its request could get:
    /// `min(gpus_wanted, pool GPUs)` devices of the pool's largest memory.
    pub(crate) fn check_arrivals(&self, requests: &[ServeRequest]) -> ScanResult<()> {
        if let Some(r) = requests.iter().find(|r| !is_key_time(r.arrival)) {
            return Err(ScanError::InvalidConfig(format!(
                "request {}: arrival {} is not a finite, non-negative time",
                r.id, r.arrival
            )));
        }
        if let Some(w) = requests.windows(2).find(|w| w[1].arrival < w[0].arrival) {
            return Err(ScanError::InvalidConfig(format!(
                "requests must be sorted by arrival: request {} at {} follows request {} at {}",
                w[1].id, w[1].arrival, w[0].id, w[0].arrival
            )));
        }
        let device_mem = self.classes.iter().map(|c| c.spec.global_mem_bytes).max().unwrap_or(0);
        for r in requests {
            if let Some(d) = r.deadline.filter(|&d| !is_key_time(d)) {
                return Err(ScanError::InvalidConfig(format!(
                    "request {}: deadline {d} is not a finite, non-negative time",
                    r.id
                )));
            }
            let limit = ProblemParams::LOG2_LIMIT;
            if r.n >= limit || r.g >= limit {
                return Err(ScanError::InvalidConfig(format!(
                    "request {}: n = {} and g = {} must both be log2 sizes below {limit}",
                    r.id, r.n, r.g
                )));
            }
            let bytes = (1u128 << (r.n + r.g)) * r.op.elem_bytes() as u128;
            let gpus = r.gpus_wanted.min(self.config.pool_gpus);
            let grant = gpus as u128 * device_mem as u128;
            if bytes > grant {
                return Err(ScanError::InvalidConfig(format!(
                    "request {}: a batch of 2^{} {} elements needs {bytes} bytes, more than the \
                     {grant} bytes of device memory on its largest grant ({gpus} GPUs)",
                    r.id,
                    r.n + r.g,
                    r.op
                )));
            }
        }
        Ok(())
    }

    /// Plan-cache accounting so far (across every window this server ran).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Response-memo accounting so far (across every window this server
    /// ran). A warmed server re-serving known request shapes skips the
    /// whole data path — see `docs/perf.md`.
    pub fn response_stats(&self) -> ResponseStats {
        let memo = self.responses.lock().expect("response memo poisoned");
        ResponseStats { served: memo.served, entries: memo.sums.len() }
    }

    /// Serve `requests` (sorted by arrival) to completion.
    ///
    /// # Errors
    /// [`ScanError::InvalidConfig`] when an arrival is negative, not
    /// finite, or earlier than its predecessor's, or a request's batch is
    /// larger than any grant could hold; the server is left untouched.
    /// Otherwise any error a launch's functional execution reports — the
    /// response memo is written only when a window completes, so a failed
    /// window leaves it as it was.
    pub fn run(&self, requests: &[ServeRequest]) -> ScanResult<ServeReport> {
        self.check_arrivals(requests)?;
        // One shard's worth of state is the whole server here; the sharded
        // router drives N of these with the same dispatch/sample/retire
        // methods, which is what makes its 1-shard path byte-equal.
        let mut state = ShardState::new(0, self.new_pool());
        let mut next = 0; // index into `requests`
        let mut now = 0.0f64;

        loop {
            while next < requests.len() && requests[next].arrival <= now {
                state.enqueue(next);
                next += 1;
            }

            self.dispatch(&mut state, requests, now, None)?;
            state.sample(now);

            // Advance the clock to the next event.
            let next_completion = state.next_finish();
            let next_arrival = (next < requests.len()).then(|| requests[next].arrival);
            now = match (next_completion, next_arrival) {
                (None, None) => {
                    assert!(state.queue.is_empty(), "idle pool with a non-empty queue");
                    break;
                }
                (Some(f), None) => f64::from_bits(f),
                (None, Some(a)) => a,
                (Some(f), Some(a)) => f64::from_bits(f).min(a),
            };

            state.retire(now);
        }

        Ok(self.report(state))
    }

    /// Dispatch in strict policy order until the queue drains or the pool
    /// runs dry. No backfilling: a head that cannot lease blocks
    /// everything behind it (see docs/serving.md). `escalate` carries the
    /// router's over-SLO-budget tenants (EDF priority escalation); the
    /// unsharded server passes `None`.
    pub(crate) fn dispatch(
        &self,
        state: &mut ShardState,
        requests: &[ServeRequest],
        now: f64,
        escalate: Option<&std::collections::BTreeSet<u8>>,
    ) -> ScanResult<()> {
        // The policy sort is loop-invariant when nothing escalates: keys
        // depend only on the requests, and removing dispatched members
        // preserves the relative order of the rest (stable sort), so the
        // queue only re-sorts after an enqueue disturbed it — bit-identical
        // head selections either way.
        if !state.queue_sorted {
            state.queue.sort_by_key(|e| self.config.policy.key(&requests[e.idx]));
            state.queue_sorted = true;
        }
        while !state.queue.is_empty() {
            if let Some(over) = escalate {
                state.queue.sort_by_key(|e| self.config.policy.key(&requests[e.idx]));
                shard::escalate_urgent(&mut state.queue, requests, over);
                // Escalation parks the queue out of policy order.
                state.queue_sorted = false;
            }
            let head = state.queue[0];
            let Some(lease) = state.pool.lease(requests[head.idx].gpus_wanted) else { break };
            let (members, g_combined) = match head.stolen_from {
                // A stolen request always launches solo: its payload is
                // crossing the steal fabric, and coalescing it with local
                // requests would couple their latencies to the transfer.
                Some(victim) => {
                    state.queue.remove(0);
                    let r = &requests[head.idx];
                    state.stolen_ids.push(r.id);
                    shard::admit_steal_transfer(
                        &mut state.fleet,
                        &lease,
                        r,
                        victim,
                        state.shard,
                        now,
                    );
                    (vec![head.idx], r.g)
                }
                None => {
                    // Stolen entries behind the head break the coalescing
                    // prefix the same way an incompatible request would.
                    let (len, g_combined) = coalesce::plan_len(
                        state
                            .queue
                            .iter()
                            .take_while(|e| e.stolen_from.is_none())
                            .map(|e| &requests[e.idx]),
                        self.config.coalesce,
                    );
                    // The coalesced members are always the queue prefix
                    // positions 0..len, so draining them preserves both the
                    // members' order and the rest of the queue's.
                    let members: Vec<usize> = state.queue.drain(..len).map(|e| e.idx).collect();
                    (members, g_combined)
                }
            };
            let launch = self.launch(state, lease, requests, &members, g_combined, now)?;
            state.launches += 1;
            state.running.push(launch);
        }
        Ok(())
    }

    /// Finalize one serve loop's state into its report, running the
    /// window's response pass first.
    pub(crate) fn report(&self, mut state: ShardState) -> ServeReport {
        self.respond(&mut state);
        let ShardState { fleet, completions, queue_samples, launches, pool, .. } = state;
        let makespan = fleet.makespan();
        // Busy accounting comes straight off the fleet's admission records;
        // the merged graph only materializes if a trace consumer asks.
        let stream_busy = fleet.stream_busy_seconds();
        let trace = FleetTrace::from_fleet(fleet);
        let metrics = FleetMetrics::compute(
            self.config.policy,
            self.config.pool_gpus,
            &completions,
            launches,
            makespan,
            stream_busy,
            &queue_samples,
            &pool.gpu_classes(),
        );
        ServeReport {
            completions,
            launches,
            makespan,
            trace,
            queue_samples,
            metrics,
            cache_stats: self.cache.stats(),
        }
    }

    /// Execute one (possibly coalesced) launch, admit it to the fleet, and
    /// resolve its members' responses. Every member shares the head's
    /// kind (the coalescer never mixes). `members` are indices into
    /// `requests`.
    ///
    /// Hit and cold launches share one response path: a member the
    /// response memo holds takes its checksum now; every other member is
    /// a miss the window-end response pass ([`Server::respond`]) answers.
    /// Nothing is looked up with [`ServeConfig::keep_outputs`] set (the
    /// memo holds checksums, not outputs) or with the plan cache off.
    fn launch(
        &self,
        state: &mut ShardState,
        lease: PoolLease,
        requests: &[ServeRequest],
        members: &[usize],
        g_combined: u32,
        now: f64,
    ) -> ScanResult<Launch> {
        debug_assert!(members.iter().all(|&m| requests[m].op == requests[members[0]].op));
        let fleet = &mut state.fleet;
        let (admission, gpus) = with_kind!(requests[members[0]].op, T => {
            self.launch_typed::<T>(fleet, &lease, requests, members, g_combined, now)
        })?;

        let lookups = self.config.plan_cache && !self.config.keep_outputs;
        let memo = lookups.then(|| self.responses.lock().expect("response memo poisoned"));
        let first_miss = state.misses.len();
        let mut completions = Vec::with_capacity(members.len());
        for (slot, &m) in members.iter().enumerate() {
            let r = &requests[m];
            let key = (r.id, r.n, r.g, r.op);
            let checksum = match memo.as_ref().and_then(|memo| memo.sums.get(&key)) {
                Some(&sum) => {
                    state.memo_hits += 1;
                    sum
                }
                None => {
                    state.misses.push(Miss { key, launch: state.launches, slot });
                    0 // written by the response pass
                }
            };
            completions.push(Completion {
                dispatched: now,
                started: admission.start,
                finished: admission.finish,
                coalesced: members.len(),
                gpus: gpus.clone(),
                checksum,
                output: None,
                request: r.clone(),
            });
        }
        Ok(Launch {
            seq: state.launches,
            lease,
            finish: admission.finish,
            completions,
            misses: first_miss..state.misses.len(),
        })
    }

    /// The typed body of [`Server::launch`]: plan the launch and admit its
    /// graph into the fleet. Returns the admission and the GPUs it ran on.
    fn launch_typed<T: ServedKind>(
        &self,
        fleet: &mut FleetTimeline,
        lease: &PoolLease,
        requests: &[ServeRequest],
        members: &[usize],
        g_combined: u32,
        now: f64,
    ) -> ScanResult<(Admission, Arc<[usize]>)> {
        let head = &requests[members[0]];
        let problem = ProblemParams::new(head.n, g_combined);
        // Every GPU in a grant shares one generation (the pool never spans
        // them), so the launch plans against that generation's own spec —
        // and the plan-cache DeviceKey keeps generations' entries apart.
        let device = self.spec_for(lease.device_class());
        let gpu_lease = lease.to_gpu_lease();
        let policy = PipelinePolicy::default();
        let mut prefix = String::with_capacity(16);
        prefix.push('r');
        push_usize(&mut prefix, head.id);
        if members.len() > 1 {
            prefix.push('+');
            push_usize(&mut prefix, members.len() - 1);
        }
        prefix.push(':');

        // One plan consultation per launch. The key carries `T` and `O`,
        // so a hit can only come from this operator's own entries. A hit
        // needs no data at all, so a schedule-only plan (a float kind whose
        // tree order rounds differently from the reference) serves like an
        // exact one: its shared graph is admitted directly (zero-copy —
        // the fleet maps resources through the hit's remap table).
        let mut cold_plan = None;
        if self.config.plan_cache {
            let planned = self.cache.plan::<T, T::Op>(
                device,
                &self.fabric,
                &gpu_lease,
                problem,
                self.tuple,
                ScanKind::Inclusive,
                &policy,
            );
            match planned.into_hit() {
                Ok(hit) => {
                    let admission = fleet.admit_shared(hit.graph, hit.remap, now, prefix);
                    return Ok((admission, hit.gpus_used));
                }
                Err(planned) => cold_plan = Some(planned),
            }
        }
        // A miss (or a server without a plan cache) simulates the batch on
        // its members' concatenated inputs; a miss memoizes the plan as it
        // finishes, so the next launch of this shape hits, float kinds
        // included. The simulated output is not the response: responses
        // come from the reference-order pass. The cold build's verdict
        // pins that answer equal to the simulated output, bit for bit for
        // the exact kinds and within rounding for the float kinds, whose
        // canonical answer it is.
        let leased = with_pooled_input(|input| {
            for &m in members {
                let m = &requests[m];
                T::input_into(self.config.input_seed, m.id, m.total_elems(), input);
            }
            debug_assert_eq!(input.len(), problem.total_elems());
            match cold_plan {
                Some(planned) => planned.run(T::OP, input),
                None => scan_on_lease(
                    T::OP,
                    self.tuple,
                    device,
                    &self.fabric,
                    &gpu_lease,
                    problem,
                    input,
                    ScanKind::Inclusive,
                    &policy,
                ),
            }
        })?;
        let admission = fleet.admit_shared(Arc::new(leased.run.graph), empty_remap(), now, prefix);
        Ok((admission, leased.gpus_used.into()))
    }

    /// The window-end response pass: compute every response the window's
    /// launches missed, write each checksum (and kept output) into its
    /// completion, then commit the window to the response memo — its
    /// served count and, with the plan cache on, every computed checksum.
    ///
    /// A key an earlier launch of the window missed also answers a later
    /// launch's member, which counts as served from the memo: exactly as
    /// if the earlier launch had written the memo at dispatch. Members of
    /// one launch never answer each other — they resolved against the
    /// memo together, so a key repeated inside one launch stays cold.
    fn respond(&self, state: &mut ShardState) {
        debug_assert!(state.running.is_empty(), "every launch retires before the pass");
        let misses = std::mem::take(&mut state.misses);
        let lookups = self.config.plan_cache && !self.config.keep_outputs;
        let shared = if lookups { shared_misses(&misses) } else { vec![None; misses.len()] };
        let cold: Vec<ResponseKey> =
            misses.iter().zip(&shared).filter(|(_, s)| s.is_none()).map(|(m, _)| m.key).collect();
        let (cold_sums, mut outputs) =
            response_pass(self.config.input_seed, &cold, self.config.keep_outputs, pass_workers);
        let mut cold_sums = cold_sums.into_iter();
        let mut sums = Vec::with_capacity(misses.len());
        for share in &shared {
            sums.push(match *share {
                Some(first) => sums[first],
                None => cold_sums.next().expect("one pass result per cold miss"),
            });
        }
        // Kept outputs only exist without lookups, where every miss is cold.
        for (i, miss) in misses.iter().enumerate() {
            let completion = &mut state.completions[miss.slot];
            completion.checksum = sums[i];
            completion.output = outputs.get_mut(i).and_then(Option::take);
        }
        if self.config.plan_cache {
            let mut memo = self.responses.lock().expect("response memo poisoned");
            memo.served += state.memo_hits + shared.iter().flatten().count() as u64;
            memo.sums.extend(misses.iter().map(|m| m.key).zip(sums));
        }
    }
}

/// Per miss, the earlier miss whose result it shares: the key's first miss
/// in the window, when that came from an earlier launch.
fn shared_misses(misses: &[Miss]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..misses.len()).collect();
    order.sort_unstable_by_key(|&i| (misses[i].key, i));
    let mut shared = vec![None; misses.len()];
    for group in order.chunk_by(|&a, &b| misses[a].key == misses[b].key) {
        let first = group[0];
        for &i in &group[1..] {
            if misses[i].launch != misses[first].launch {
                shared[i] = Some(first);
            }
        }
    }
    shared
}

/// Elements one response-pass worker should have before another is worth
/// starting: a scoped thread costs tens of microseconds to spawn and
/// join, about what a worker spends on this many elements.
const ELEMS_PER_WORKER: usize = 1 << 16;

/// Workers for a response pass over `elems` elements of one kind: the
/// host fan's width ([`host::width`]), fewer for a small window, none
/// beyond the calling thread for a tiny one.
fn pass_workers(elems: usize) -> usize {
    host::width().min(elems / ELEMS_PER_WORKER).max(1)
}

/// Per key, its response checksum and — when `keep` — its output. Each
/// operator kind's keys run as one typed pass on `workers(elements of
/// that kind)` threads; no result depends on the worker count.
fn response_pass(
    seed: u64,
    keys: &[ResponseKey],
    keep: bool,
    workers: impl Fn(usize) -> usize,
) -> (Vec<u64>, Vec<Option<ServedOutput>>) {
    let mut sums = vec![0; keys.len()];
    let mut outputs: Vec<Option<ServedOutput>> = vec![None; if keep { keys.len() } else { 0 }];
    for kind in OpKind::all() {
        let (idx, members): (Vec<usize>, Vec<PassMember>) = keys
            .iter()
            .enumerate()
            .filter(|(_, key)| key.3 == kind)
            .map(|(i, &(id, n, g, _))| {
                let problem = ProblemParams::new(n, g);
                (i, PassMember { id, row: problem.problem_size(), len: problem.total_elems() })
            })
            .unzip();
        if members.is_empty() {
            continue;
        }
        let threads = workers(members.iter().map(|m| m.len).sum());
        with_kind!(kind, T => {
            let (kind_sums, kind_outputs) = if keep {
                kind_pass::<T, true>(seed, &members, threads)
            } else {
                kind_pass::<T, false>(seed, &members, threads)
            };
            for (&i, sum) in idx.iter().zip(kind_sums) {
                sums[i] = sum;
            }
            for (&i, out) in idx.iter().zip(kind_outputs) {
                outputs[i] = Some(T::wrap(out));
            }
        });
    }
    (sums, outputs)
}

/// One response the pass computes: whose input to generate, and its
/// shape.
#[derive(Debug, Clone, Copy)]
struct PassMember {
    id: usize,
    /// Row length: the problem size `2^n`; each row scans independently.
    row: usize,
    /// Total elements, `2^g` rows.
    len: usize,
}

/// One kind's response pass: per member, its checksum and (with `KEEP`)
/// its output, in `members` order. The members split into `workers`
/// contiguous runs of about equal element counts, which go to one host
/// fan ([`host::fan_out`]). The calling thread allocates every run's lane
/// buffers up front, at the kind's largest member, so runs allocate
/// nothing and the buffers are freed before the next kind's pass: at most
/// workers × [`LANES`] member inputs exist at once.
fn kind_pass<T: ServedKind, const KEEP: bool>(
    seed: u64,
    members: &[PassMember],
    workers: usize,
) -> (Vec<u64>, Vec<Vec<T>>) {
    let mut sums = vec![0; members.len()];
    let mut outputs = vec![Vec::new(); if KEEP { members.len() } else { 0 }];
    let total: usize = members.iter().map(|m| m.len).sum();
    let largest = members.iter().map(|m| m.len).max().unwrap_or(0);
    let workers = workers.max(1);
    let mut lane_sets: Vec<[Vec<T>; LANES]> =
        (0..workers).map(|_| std::array::from_fn(|_| Vec::with_capacity(largest))).collect();
    let mut runs = Vec::with_capacity(workers);
    let (mut members, mut sums_left, mut outputs_left) = (members, &mut sums[..], &mut outputs[..]);
    let mut taken = 0; // elements in the runs handed out so far
    for (w, bufs) in (1..=workers).zip(&mut lane_sets) {
        let mut len = 0;
        while len < members.len() && (w == workers || taken < total * w / workers) {
            taken += members[len].len;
            len += 1;
        }
        let (run, rest) = members.split_at(len);
        let (run_sums, rest_sums) = std::mem::take(&mut sums_left).split_at_mut(len);
        let (run_outputs, rest_outputs) =
            std::mem::take(&mut outputs_left).split_at_mut(if KEEP { len } else { 0 });
        (members, sums_left, outputs_left) = (rest, rest_sums, rest_outputs);
        if !run.is_empty() {
            runs.push((run, run_sums, run_outputs, bufs));
        }
    }
    host::fan_out(runs, |(run, run_sums, run_outputs, bufs)| {
        lanes::<T, KEEP>(seed, run, run_sums, run_outputs, bufs)
    });
    (sums, outputs)
}

/// Stream `members` through [`LANES`] interleaved lanes, one buffer
/// each. A lane generates its member's input into its buffer; then every
/// lane advances one element per step — combine into the row's running
/// value, push that value into the member's FNV-1a chain — up to the
/// nearest row end among them. A lane resets its running value at each
/// row start, and at its member's end writes the checksum (with `KEEP`,
/// the buffer scanned in place is the output) and takes the next member.
/// The last members, fewer than `LANES`, finish one lane at a time. Each
/// member's values are hashed in the same order as a sequential reference
/// scan, so the checksum is the same bits.
fn lanes<T: ServedKind, const KEEP: bool>(
    seed: u64,
    members: &[PassMember],
    sums: &mut [u64],
    outputs: &mut [Vec<T>],
    bufs: &mut [Vec<T>; LANES],
) {
    // Per lane: its member (`None` = idle), next element, running value
    // and hash.
    let mut member: [Option<usize>; LANES] = [None; LANES];
    let mut pos = [0; LANES];
    let mut acc = [T::OP.identity(); LANES];
    let mut hash = [FNV_OFFSET; LANES];
    let mut finish = |i: usize, hash: u64, buf: &mut Vec<T>| {
        sums[i] = hash;
        if KEEP {
            outputs[i] = std::mem::take(buf);
        }
    };
    let mut next = 0;
    loop {
        for l in 0..LANES {
            if member[l].is_none() && next < members.len() {
                let m = members[next];
                bufs[l].clear();
                T::input_into(seed, m.id, m.len, &mut bufs[l]);
                (member[l], pos[l], acc[l], hash[l]) =
                    (Some(next), 0, T::OP.identity(), FNV_OFFSET);
                next += 1;
            }
        }
        if member.contains(&None) {
            break; // fewer than LANES members left
        }
        let busy = member.map(|m| m.expect("every lane is busy"));
        let step = (0..LANES).map(|l| members[busy[l]].row - pos[l] % members[busy[l]].row);
        let step = step.min().expect("LANES > 0");
        let [b0, b1, b2, b3] = &mut *bufs;
        let rows = [
            &mut b0[pos[0]..pos[0] + step],
            &mut b1[pos[1]..pos[1] + step],
            &mut b2[pos[2]..pos[2] + step],
            &mut b3[pos[3]..pos[3] + step],
        ];
        lockstep::<T, KEEP>(rows, &mut acc, &mut hash);
        for l in 0..LANES {
            let m = members[busy[l]];
            pos[l] += step;
            if pos[l] % m.row == 0 {
                acc[l] = T::OP.identity();
            }
            if pos[l] == m.len {
                finish(busy[l], hash[l], &mut bufs[l]);
                member[l] = None;
            }
        }
    }
    for l in 0..LANES {
        let Some(i) = member[l] else { continue };
        let m = members[i];
        let (mut p, mut acc, mut hash) = (pos[l], acc[l], hash[l]);
        while p < m.len {
            let end = p + (m.row - p % m.row);
            scan_hash::<T, KEEP>(&mut bufs[l][p..end], &mut acc, &mut hash);
            (p, acc) = (end, T::OP.identity());
        }
        finish(i, hash, &mut bufs[l]);
    }
}

/// Advance all [`LANES`] lanes in lockstep over equally long row pieces:
/// per element, combine into the lane's running value and push it into
/// the lane's FNV-1a chain (with `KEEP`, also store it in place). The
/// four chains are independent, so their multiplies overlap.
#[inline(always)]
fn lockstep<T: ServedKind, const KEEP: bool>(
    [x0, x1, x2, x3]: [&mut [T]; LANES],
    acc: &mut [T; LANES],
    hash: &mut [u64; LANES],
) {
    let [mut a0, mut a1, mut a2, mut a3] = *acc;
    let [mut h0, mut h1, mut h2, mut h3] = *hash;
    let rows = x0.iter_mut().zip(x1.iter_mut()).zip(x2.iter_mut()).zip(x3.iter_mut());
    for (((v0, v1), v2), v3) in rows {
        a0 = T::OP.combine(a0, *v0);
        a1 = T::OP.combine(a1, *v1);
        a2 = T::OP.combine(a2, *v2);
        a3 = T::OP.combine(a3, *v3);
        h0 = T::fnv1a(h0, a0);
        h1 = T::fnv1a(h1, a1);
        h2 = T::fnv1a(h2, a2);
        h3 = T::fnv1a(h3, a3);
        if KEEP {
            (*v0, *v1, *v2, *v3) = (a0, a1, a2, a3);
        }
    }
    *acc = [a0, a1, a2, a3];
    *hash = [h0, h1, h2, h3];
}

/// [`lockstep`] for one lane alone: the pass's tail.
#[inline(always)]
fn scan_hash<T: ServedKind, const KEEP: bool>(xs: &mut [T], acc: &mut T, hash: &mut u64) {
    for x in xs {
        *acc = T::OP.combine(*acc, *x);
        *hash = T::fnv1a(*hash, *acc);
        if KEEP {
            *x = *acc;
        }
    }
}

/// Hand a cold launch this thread's pooled batch-input buffer for `T`,
/// cleared: cold builds stop allocating once it reaches the window's
/// largest batch. One buffer per element type, found by type, since a
/// thread-local cannot be generic.
fn with_pooled_input<T: ServedKind, R>(f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    thread_local!(static POOLS: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) });
    POOLS.with_borrow_mut(|pools| {
        if !pools.iter().any(|pool| pool.is::<Vec<T>>()) {
            pools.push(Box::new(Vec::<T>::new()));
        }
        let input = pools.iter_mut().find_map(|pool| pool.downcast_mut::<Vec<T>>());
        let input = input.expect("the type's buffer exists");
        input.clear();
        f(input)
    })
}

/// Append `v` in decimal — `write!("{v}")` without the formatting
/// machinery, for the per-launch admission prefix on the hot path.
fn push_usize(out: &mut String, v: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{request_input, WorkloadSpec};
    use skeletons::{
        reference_inclusive, Add, AffinePair, GatedOp, Max, Scannable, SegPair, SegmentedAdd,
    };

    /// FNV-1a over the byte encoding of the output values (see
    /// [`ServedOutput`] for per-type encodings).
    fn fnv1a<T: ServedKind>(values: &[T]) -> u64 {
        values.iter().fold(FNV_OFFSET, |hash, &v| T::fnv1a(hash, v))
    }

    fn small_workload(seed: u64, count: usize) -> Vec<ServeRequest> {
        let mut spec = WorkloadSpec::default_for(seed, count);
        spec.n_range = (10, 11);
        spec.g_range = (0, 2);
        spec.generate()
    }

    #[test]
    fn serves_a_window_to_completion() {
        let requests = small_workload(3, 12);
        let server = Server::new(ServeConfig::new(Policy::Fifo, 3));
        let report = server.run(&requests).unwrap();
        assert_eq!(report.completions.len(), 12);
        assert!(report.launches <= 12);
        assert!(report.makespan > 0.0);
        // Completion times are consistent and causal.
        for c in &report.completions {
            assert!(c.dispatched >= c.request.arrival);
            assert!(c.started >= c.dispatched);
            assert!(c.finished > c.started);
        }
        // Completion order is by finish time.
        assert!(report.completions.windows(2).all(|w| w[0].finished <= w[1].finished));
        // Every request id appears exactly once.
        let mut ids: Vec<usize> = report.completions.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn outputs_are_correct_scans() {
        let requests = small_workload(5, 8);
        let mut config = ServeConfig::new(Policy::Sjf, 9);
        config.keep_outputs = true;
        let report = Server::new(config).run(&requests).unwrap();
        for c in &report.completions {
            let input = request_input::<i32>(9, c.request.id, c.request.total_elems());
            let output = c.output.as_ref().expect("keep_outputs").get::<i32>().expect("i32 window");
            let n = c.request.problem().problem_size();
            for g in 0..c.request.problem().batch() {
                let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
                assert_eq!(&output[g * n..(g + 1) * n], &expected[..], "request {}", c.request.id);
            }
            assert_eq!(c.checksum, fnv1a(output));
        }
    }

    #[test]
    fn mixed_operator_window_serves_reference_exact_outputs() {
        // One window mixing all four kinds: every completion's output must
        // be bit-equal to an isolated CPU-reference run of its own request,
        // and per-kind checksums must never collide across kinds for the
        // same id and shape.
        let requests = {
            let mut spec = WorkloadSpec::mixed_ops_for(11, 24);
            spec.n_range = (10, 11);
            spec.g_range = (0, 2);
            spec.generate()
        };
        let kinds: std::collections::BTreeSet<&str> =
            requests.iter().map(|r| r.op.as_str()).collect();
        assert!(kinds.len() >= 3, "workload must actually mix kinds, got {kinds:?}");
        let mut config = ServeConfig::new(Policy::Fifo, 9);
        config.keep_outputs = true;
        let report = Server::new(config).run(&requests).unwrap();
        assert_eq!(report.completions.len(), 24);
        for c in &report.completions {
            let id = c.request.id;
            let len = c.request.total_elems();
            let n = c.request.problem().problem_size();
            let output = c.output.as_ref().expect("keep_outputs");
            let row_refs = |g: usize| (g * n, (g + 1) * n);
            match c.request.op {
                OpKind::AddI32 => {
                    let input = request_input::<i32>(9, id, len);
                    let out = output.get::<i32>().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        assert_eq!(&out[a..b], &reference_inclusive(Add, &input[a..b])[..]);
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
                OpKind::MaxF64 => {
                    let input = request_input::<f64>(9, id, len);
                    let out = output.get::<f64>().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        let expected = reference_inclusive(Max, &input[a..b]);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&out[a..b]), bits(&expected));
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
                OpKind::SegSumI32 => {
                    let input = request_input::<SegPair<i32>>(9, id, len);
                    let out = output.get::<SegPair<i32>>().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        assert_eq!(
                            &out[a..b],
                            &reference_inclusive(SegmentedAdd, &input[a..b])[..]
                        );
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
                OpKind::GatedF64 => {
                    let input = request_input::<AffinePair<f64>>(9, id, len);
                    let out = output.get::<AffinePair<f64>>().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        let expected = reference_inclusive(GatedOp, &input[a..b]);
                        let bits = |v: &[AffinePair<f64>]| {
                            v.iter()
                                .flat_map(|p| [p.a.to_bits(), p.b.to_bits()])
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&out[a..b]), bits(&expected));
                        // The recurrence solution x[t] matches the naive
                        // sequential loop exactly for the first row.
                        if g == 0 {
                            let mut x = 0.0f64;
                            for (p, o) in input[a..b].iter().zip(&out[a..b]) {
                                x = p.a * x + p.b;
                                assert_eq!(x.to_bits(), o.b.to_bits());
                            }
                        }
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
            }
        }
    }

    #[test]
    fn repeat_mixed_windows_hit_the_memo_per_kind() {
        let requests = {
            let mut spec = WorkloadSpec::mixed_ops_for(11, 16);
            spec.n_range = (10, 11);
            spec.g_range = (0, 1);
            spec.generate()
        };
        let server = Server::new(ServeConfig::new(Policy::Fifo, 9));
        let first = server.run(&requests).unwrap();
        let second = server.run(&requests).unwrap();
        for (a, b) in first.completions.iter().zip(&second.completions) {
            assert_eq!(a.request.id, b.request.id);
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.finished.to_bits(), b.finished.to_bits());
        }
        assert_eq!(server.response_stats().served, 16, "warm window serves from the memo");
    }

    #[test]
    fn fleet_trace_covers_every_launch() {
        let requests = small_workload(3, 10);
        let report = Server::new(ServeConfig::new(Policy::Fifo, 3)).run(&requests).unwrap();
        let json = report.trace.chrome_trace_json();
        // Each launch's phases carry its prefix; spot-check the first
        // request appears somewhere in the fleet trace.
        assert!(json.contains("\"traceEvents\""));
        let labels = report.trace.graph().phase_labels();
        let launches_seen: std::collections::BTreeSet<&str> =
            labels.iter().filter_map(|l| l.split(':').next()).collect();
        assert_eq!(launches_seen.len(), report.launches);
    }

    #[test]
    fn repeat_windows_are_bit_identical_and_served_from_memo() {
        let requests = small_workload(3, 12);
        let server = Server::new(ServeConfig::new(Policy::Fifo, 3));
        let first = server.run(&requests).unwrap();
        assert_eq!(server.response_stats().served, 0, "a cold window computes every output");
        let second = server.run(&requests).unwrap();
        assert_eq!(first.completions.len(), second.completions.len());
        for (a, b) in first.completions.iter().zip(&second.completions) {
            assert_eq!(a.request.id, b.request.id);
            assert_eq!(a.checksum, b.checksum, "request {} checksum", a.request.id);
            assert_eq!(a.finished.to_bits(), b.finished.to_bits(), "request {}", a.request.id);
        }
        assert_eq!(first.makespan.to_bits(), second.makespan.to_bits());
        let stats = server.response_stats();
        assert_eq!(stats.entries, 12);
        assert_eq!(stats.served, 12, "a warm window serves every response from the memo");
    }

    #[test]
    fn pool_contention_queues_requests() {
        // A 1-GPU pool serialises everything: total busy time equals the
        // sum of launch times, and some request must wait.
        let mut requests = small_workload(3, 6);
        for r in &mut requests {
            r.gpus_wanted = 1;
            r.arrival = 0.0;
        }
        let mut config = ServeConfig::new(Policy::Fifo, 3);
        config.pool_gpus = 1;
        config.coalesce = false;
        let report = Server::new(config).run(&requests).unwrap();
        assert_eq!(report.launches, 6);
        let waited = report.completions.iter().filter(|c| c.dispatched > c.request.arrival).count();
        assert!(waited >= 5, "a serial pool must queue later requests");
        // Starts never overlap on the single GPU: sorted by start, each
        // starts exactly when its predecessor's stream frees up.
        let mut spans: Vec<(f64, f64)> =
            report.completions.iter().map(|c| (c.started, c.finished)).collect();
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].0, "starts are ordered");
        }
    }

    #[test]
    fn coalescing_reduces_launches() {
        // Same-shape single-GPU requests arriving together must merge.
        let requests: Vec<ServeRequest> = (0..8)
            .map(|id| ServeRequest {
                id,
                arrival: 0.0,
                n: 10,
                g: 0,
                gpus_wanted: 1,
                priority: 0,
                tenant: 0,
                deadline: None,
                op: OpKind::AddI32,
            })
            .collect();
        let mut config = ServeConfig::new(Policy::Fifo, 3);
        config.pool_gpus = 2;
        let report = Server::new(config.clone()).run(&requests).unwrap();
        assert!(
            report.launches < 8,
            "8 identical requests on 2 GPUs must coalesce, got {} launches",
            report.launches
        );
        assert!(report.metrics.coalescing_ratio > 1.0);

        config.coalesce = false;
        let solo = Server::new(config).run(&requests).unwrap();
        assert_eq!(solo.launches, 8);
        assert!(
            report.makespan < solo.makespan,
            "coalescing must beat per-request launches ({} vs {})",
            report.makespan,
            solo.makespan
        );
    }

    #[test]
    fn edf_prefers_urgent_requests() {
        // Three same-size jobs at t=0 on one GPU; the last to arrive has
        // the tightest deadline. EDF runs it first, FIFO last.
        let mk = |id: usize, deadline: Option<f64>| ServeRequest {
            id,
            arrival: 0.0,
            n: 11,
            g: 1,
            gpus_wanted: 1,
            priority: 0,
            tenant: 0,
            deadline,
            op: OpKind::AddI32,
        };
        let requests = vec![mk(0, None), mk(1, None), mk(2, Some(1e-3))];
        let mut config = ServeConfig::new(Policy::Edf, 3);
        config.pool_gpus = 1;
        config.coalesce = false;
        let edf = Server::new(config.clone()).run(&requests).unwrap();
        assert_eq!(edf.completions[0].request.id, 2, "EDF serves the deadline first");
        config.policy = Policy::Fifo;
        let fifo = Server::new(config).run(&requests).unwrap();
        assert_eq!(fifo.completions[2].request.id, 2, "FIFO serves it last");
    }

    /// The scalar reference for one response key: the request's input
    /// scanned row by row with `reference_inclusive`.
    fn reference_output(seed: u64, (id, n, g, op): ResponseKey) -> ServedOutput {
        let problem = ProblemParams::new(n, g);
        let (len, row) = (problem.total_elems(), problem.problem_size());
        fn rows<T: Scannable, O: ScanOp<T>>(op: O, input: &[T], row: usize) -> Vec<T> {
            input.chunks(row).flat_map(|r| reference_inclusive(op, r)).collect()
        }
        match op {
            OpKind::AddI32 => ServedOutput::I32(rows(Add, &request_input(seed, id, len), row)),
            OpKind::MaxF64 => ServedOutput::F64(rows(Max, &request_input(seed, id, len), row)),
            OpKind::SegSumI32 => {
                ServedOutput::SegI32(rows(SegmentedAdd, &request_input(seed, id, len), row))
            }
            OpKind::GatedF64 => {
                ServedOutput::GatedF64(rows(GatedOp, &request_input(seed, id, len), row))
            }
        }
    }

    /// An output's checksum and raw value bits: equal bits, not just
    /// equal values (`-0.0 == 0.0`).
    fn output_bits(out: &ServedOutput) -> (u64, Vec<u64>) {
        match out {
            ServedOutput::I32(v) => (fnv1a(v), v.iter().map(|&x| x as u32 as u64).collect()),
            ServedOutput::F64(v) => (fnv1a(v), v.iter().map(|x| x.to_bits()).collect()),
            ServedOutput::SegI32(v) => {
                (fnv1a(v), v.iter().map(|p| (p.v as u32 as u64) | (p.reset as u64) << 32).collect())
            }
            ServedOutput::GatedF64(v) => {
                (fnv1a(v), v.iter().flat_map(|p| [p.a.to_bits(), p.b.to_bits()]).collect())
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The response pass against the scalar reference: random pending
        /// lists over every kind, rows down to one element, 0–9 members so
        /// lanes are often partly filled, on 1–3 forced workers. Every
        /// checksum and kept output is bit-equal to the member's reference,
        /// and nothing depends on the worker count.
        #[test]
        fn response_pass_is_bit_equal_to_the_scalar_reference(
            members in proptest::prelude::prop::collection::vec(
                (0usize..4, 0usize..64, 0u32..=12, 0u32..=3),
                0..=9,
            ),
            keep in 0u8..2,
        ) {
            let keep = keep == 1;
            let keys: Vec<ResponseKey> =
                members.iter().map(|&(k, id, n, g)| (id, n, g, OpKind::all()[k])).collect();
            let (sums, outputs) = response_pass(5, &keys, keep, |_| 1);
            proptest::prop_assert_eq!(sums.len(), keys.len());
            proptest::prop_assert_eq!(outputs.len(), if keep { keys.len() } else { 0 });
            for (i, &key) in keys.iter().enumerate() {
                let (sum, bits) = output_bits(&reference_output(5, key));
                proptest::prop_assert_eq!(sums[i], sum, "member {} {:?}", i, key);
                if keep {
                    let kept = outputs[i].as_ref().expect("kept output");
                    proptest::prop_assert_eq!(output_bits(kept), (sum, bits), "member {}", i);
                }
            }
            let bits = |outputs: &[Option<ServedOutput>]| {
                outputs.iter().map(|o| o.as_ref().map(output_bits)).collect::<Vec<_>>()
            };
            for workers in 2..=3 {
                let (sums_w, outputs_w) = response_pass(5, &keys, keep, |_| workers);
                proptest::prop_assert_eq!(&sums_w, &sums, "{} workers", workers);
                proptest::prop_assert_eq!(bits(&outputs_w), bits(&outputs), "{} workers", workers);
            }
        }
    }

    #[test]
    fn tiny_windows_run_the_pass_on_the_calling_thread() {
        assert_eq!(pass_workers(0), 1);
        assert_eq!(pass_workers(ELEMS_PER_WORKER - 1), 1);
        assert_eq!(pass_workers(usize::MAX / 2), host::width());
        host::as_worker(|| assert_eq!(pass_workers(usize::MAX / 2), 1));
    }

    #[test]
    fn malformed_arrivals_are_invalid_config_and_leave_the_server_untouched() {
        let requests = small_workload(3, 12);
        let server = Server::new(ServeConfig::new(Policy::Fifo, 3));
        server.run(&requests).unwrap();
        let before = server.response_stats();
        let mut unsorted = requests.clone();
        unsorted.swap(2, 9);
        let mut negative = requests.clone();
        negative[0].arrival = -1e-6;
        let mut nan = requests.clone();
        nan[4].arrival = f64::NAN;
        let mut infinite = requests.clone();
        infinite[11].arrival = f64::INFINITY;
        let mut negative_zero = requests.clone();
        negative_zero[0].arrival = -0.0;
        let mut too_wide = requests.clone();
        too_wide[5].n = 45;
        let mut negative_deadline = requests.clone();
        negative_deadline[2].deadline = Some(-1.0);
        let mut infinite_deadline = requests.clone();
        infinite_deadline[6].deadline = Some(f64::INFINITY);
        let mut nan_deadline = requests.clone();
        nan_deadline[8].deadline = Some(f64::NAN);
        // Both parse, but neither batch fits a grant of the 8-GPU pool.
        let oversized = [
            r#"{"requests": [{"arrival": 0.0, "n": 39, "g": 39}]}"#,
            r#"{"requests": [{"arrival": 0.0, "n": 30, "g": 12}]}"#,
        ]
        .map(|trace| crate::workload::requests_from_json(trace).expect("the trace parses"));
        let deadlines = [negative_deadline, infinite_deadline, nan_deadline];
        for bad in [unsorted, negative, nan, infinite, negative_zero, too_wide]
            .into_iter()
            .chain(deadlines)
            .chain(oversized)
        {
            let err = server.run(&bad).expect_err("malformed arrivals");
            assert!(matches!(err, ScanError::InvalidConfig(_)), "{err:?}");
            assert_eq!(server.response_stats(), before, "a failed call changes no memo state");
        }
        // The next valid window of fresh ids is reference-exact.
        let fresh: Vec<ServeRequest> =
            requests.iter().map(|r| ServeRequest { id: r.id + 100, ..r.clone() }).collect();
        for c in &server.run(&fresh).unwrap().completions {
            let out = reference_output(3, (c.request.id, c.request.n, c.request.g, c.request.op));
            assert_eq!(c.checksum, output_bits(&out).0, "request {}", c.request.id);
        }
        assert_eq!(server.response_stats().entries, before.entries + 12);
    }

    #[test]
    fn partial_lease_degrades_instead_of_waiting() {
        // One request wants 8 GPUs but the pool has 2: it runs on both.
        let requests = vec![ServeRequest {
            id: 0,
            arrival: 0.0,
            n: 12,
            g: 2,
            gpus_wanted: 8,
            priority: 0,
            tenant: 0,
            deadline: None,
            op: OpKind::AddI32,
        }];
        let mut config = ServeConfig::new(Policy::Fifo, 3);
        config.pool_gpus = 2;
        let report = Server::new(config).run(&requests).unwrap();
        assert_eq!(&*report.completions[0].gpus, &[0, 1]);
    }
}
