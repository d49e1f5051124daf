//! The serving workloads: `serve-cold`, `serve-replay` and `router-mixed`.
//!
//! In simulated time every window is an open loop: arrivals are fixed by
//! the seeded generator and never wait for completions, and latency counts
//! from the due arrival. In host time each workload is one closed-loop
//! client submitting one window at a time from one benchmark thread.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use devices::FabricPreset;
use gpu_sim::DeviceSpec;
use interconnect::{empty_remap, merge_fleet_parts, Fabric, FleetTimeline};
use scan_core::{PipelinePolicy, PlanCache, ScanKind, ScanResult};
use scan_serve::{
    Completion, DevicePool, Policy, Router, RouterConfig, ServeConfig, ServeRequest, Server,
    ShardedReport, SloConfig, WorkloadSpec,
};
use skeletons::SplkTuple;

use crate::check::{checksum, fnv1a, reference_checksum, reference_rows, Kind, FNV_OFFSET};
use crate::spans::Tracer;
use crate::stats::nearest_rank;
use crate::{host_threads, ratio, repeated_setup, with_kind, Args, Outcome, Timed};

/// Requests per window: p99 has 40 samples beyond it.
const WINDOW: usize = 4000;
/// Latency limit, seconds: the default workload's largest deadline
/// slack, applied to requests without a deadline and to the capacity test.
const LIMIT_S: f64 = 400e-6;
/// Share of offered requests a rung may reject and still count as within
/// capacity. Bounded router queues keep p99 low at any rate by turning
/// work away, so rejections need a limit of their own; router-mixed
/// rejects 0–1.2 % at ×1 and 5–9 % at ×½, and 2 % falls between.
const MAX_REJECTED: f64 = 0.02;
/// The offered-rate ladder: arrival-time scale factors (×4 is a quarter
/// of the generator's rate, ×¼ four times it).
const LADDER: [f64; 5] = [4.0, 2.0, 1.0, 0.5, 0.25];
/// router-mixed topology: shards of one 8-GPU node each.
const SHARDS: usize = 4;
/// router-mixed mean arrival gap, µs: 2.5× the default rate, so each of
/// the four shards carries about half a single server's default load and
/// queues form often enough to steal, redirect and reject.
const ROUTER_GAP_US: u64 = 2;
/// router-mixed per-shard queue bound, tight enough that bursts redirect
/// and 0.2–0.6% of requests are rejected at the generator's rate.
const QUEUE_CAP: usize = 5;
/// router-mixed per-tenant deadline-miss budget before escalation.
const MISS_BUDGET: usize = 8;
const TENANTS: u8 = 8;

/// Seed of the per-request input data, derived from the workload seed.
fn input_seed(seed: u64) -> u64 {
    seed ^ 0x696E_7075_7473_6565
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig::new(Policy::Edf, input_seed(seed))
}

fn router_config(seed: u64, threads: usize) -> RouterConfig {
    let mut c = RouterConfig::new(SHARDS, Policy::Edf, input_seed(seed));
    c.queue_capacity = Some(QUEUE_CAP);
    c.slo = Some(SloConfig { miss_budget: MISS_BUDGET });
    c.threads = threads;
    c
}

/// The default mix's schedule (arrivals, shapes, deadlines) comes from
/// the repository's golden seed, not from `--seed`, which generates the
/// per-request data. At the default rate a window's p99 is set by rare
/// head-of-line blocking and does not converge: over seeds, even the
/// median p99 of 16 independent 4000-request windows spanned 275–431 µs.
/// A seed-driven schedule would make the simulated metrics of serve-cold
/// and serve-replay measure the draw instead of the program.
const DEFAULT_SCHEDULE_SEED: u64 = 7;

fn default_list() -> Vec<ServeRequest> {
    WorkloadSpec::default_for(DEFAULT_SCHEDULE_SEED, WINDOW).generate()
}

fn mixed_list(seed: u64) -> Vec<ServeRequest> {
    let mut spec = WorkloadSpec::mixed_ops_for(seed, WINDOW);
    spec.tenants = TENANTS;
    spec.mean_gap_us = ROUTER_GAP_US;
    spec.generate()
}

/// `base` with every id moved up by `offset`: a window of fresh tenants
/// (new ids, so new input data and no response-memo entries) with the
/// same arrivals and shapes.
fn shifted(base: &[ServeRequest], offset: usize) -> Vec<ServeRequest> {
    base.iter().map(|r| ServeRequest { id: r.id + offset, ..r.clone() }).collect()
}

/// `base` with arrival times scaled by `factor`; deadlines keep their
/// slack past the new arrival. ×1 is `base` itself, bit for bit.
fn scaled(base: &[ServeRequest], factor: f64) -> Vec<ServeRequest> {
    if factor == 1.0 {
        return base.to_vec();
    }
    base.iter()
        .map(|r| ServeRequest {
            arrival: r.arrival * factor,
            deadline: r.deadline.map(|d| r.arrival * factor + (d - r.arrival)),
            ..r.clone()
        })
        .collect()
}

/// The simulated-clock outcome of one window.
struct Sim {
    offered: usize,
    completed: usize,
    /// p50 over completed requests, µs.
    p50_us: f64,
    /// Offered requests finished by their deadline (or `LIMIT_S`).
    slo_met: usize,
    /// Elements of completed requests.
    elems: usize,
    makespan: f64,
    /// p99 over completed requests, µs.
    p99_us: f64,
    queue_growing: bool,
    /// Offered rate, requests per simulated second.
    rate: f64,
}

impl Sim {
    fn new(
        offered: &[ServeRequest],
        completions: &[&Completion],
        makespan: f64,
        queue: &[(f64, usize)],
    ) -> Sim {
        let mut lat_us: Vec<f64> = completions.iter().map(|c| c.latency() * 1e6).collect();
        lat_us.sort_by(f64::total_cmp);
        let slo_met = completions
            .iter()
            .filter(|c| c.finished <= c.request.deadline.unwrap_or(c.request.arrival + LIMIT_S))
            .count();
        let first = offered.first().map_or(0.0, |r| r.arrival);
        let last = offered.last().map_or(0.0, |r| r.arrival);
        // The backlog grows when the queue over the second half of the
        // arrival span is clearly deeper than over the first half.
        let mid = (first + last) / 2.0;
        let half_mean = |lo: f64, hi: f64| {
            let depths: Vec<f64> =
                queue.iter().filter(|&&(t, _)| t >= lo && t < hi).map(|&(_, d)| d as f64).collect();
            ratio(depths.iter().sum(), depths.len() as f64)
        };
        let (early, late) = (half_mean(first, mid), half_mean(mid, last));
        Sim {
            offered: offered.len(),
            completed: completions.len(),
            slo_met,
            elems: completions.iter().map(|c| c.request.total_elems()).sum(),
            makespan,
            p50_us: nearest_rank(&lat_us, 50.0),
            p99_us: nearest_rank(&lat_us, 99.0),
            queue_growing: late > 1.5 * early + 1.0,
            rate: (offered.len() - 1) as f64 / (last - first),
        }
    }

    /// The capacity test: p99 within the limit, a steady queue, and no
    /// more than `MAX_REJECTED` of the offered requests turned away.
    fn meets_limit(&self) -> bool {
        self.p99_us <= LIMIT_S * 1e6
            && !self.queue_growing
            && (self.offered - self.completed) as f64 <= MAX_REJECTED * self.offered as f64
    }
}

/// One window's simulated outcome on the rungs of the ladder its
/// capacity test needed.
struct Ladder {
    /// Per rung of `LADDER`; `None` for a rung the test never reached.
    rungs: Vec<Option<Sim>>,
    /// Verified completions at ×1.
    ok: usize,
}

/// Index of the ×1 rung in `LADDER`.
const RUNG1: usize = 2;

impl Ladder {
    /// Complete `list`'s ladder from its ×1 outcome `x1` (simulated
    /// outcome, verified count) through `serve`, which runs one window
    /// and returns its verified outcome. From ×1 the test climbs to faster
    /// rungs up to the first that misses the limit, or, when ×1 misses,
    /// descends to the first slower rung that meets it.
    fn of(
        list: &[ServeRequest],
        x1: (Sim, usize),
        mut serve: impl FnMut(&[ServeRequest]) -> (Sim, usize),
    ) -> Ladder {
        let (sim1, ok) = x1;
        let meets1 = sim1.meets_limit();
        let mut rungs: Vec<Option<Sim>> = (0..LADDER.len()).map(|_| None).collect();
        rungs[RUNG1] = Some(sim1);
        let next: Vec<usize> =
            if meets1 { (RUNG1 + 1..LADDER.len()).collect() } else { (0..RUNG1).rev().collect() };
        for i in next {
            let (sim, _) = serve(&scaled(list, LADDER[i]));
            let meets = sim.meets_limit();
            rungs[i] = Some(sim);
            if meets != meets1 {
                break;
            }
        }
        Ladder { rungs, ok }
    }

    fn x1(&self) -> &Sim {
        self.rungs[RUNG1].as_ref().expect("the ×1 rung is always served")
    }

    /// The highest offered rate among the rungs that meet the limit.
    fn capacity(&self) -> f64 {
        self.rungs.iter().flatten().filter(|r| r.meets_limit()).map(|r| r.rate).fold(0.0, f64::max)
    }
}

/// Record the deterministic serving metrics of window 0 and its ladder.
fn record_sim(out: &mut Outcome, window: &Ladder) {
    let s = window.x1();
    let capacity = window.capacity();
    out.note(format!(
        "sim window 0: {} offered, {} latency samples ({} beyond p99); ladder p99 @ offered rate, rejected \
         share (+ = growing queue): {:?}",
        s.offered,
        s.completed,
        s.completed - (s.completed * 99).div_ceil(100),
        window
            .rungs
            .iter()
            .flatten()
            .map(|r| {
                let rejected = 100.0 * (r.offered - r.completed) as f64 / r.offered as f64;
                let growing = if r.queue_growing { "+" } else { "" };
                format!("{:.0}us@{:.0}/s rej{rejected:.1}%{growing}", r.p99_us, r.rate)
            })
            .collect::<Vec<_>>()
    ));
    out.metric("sim_melem_s", s.elems as f64 / s.makespan / 1e6);
    out.metric("ok_frac", window.ok as f64 / s.offered as f64);
    out.metric("sim_p50_us", s.p50_us);
    out.metric("sim_p99_us", s.p99_us);
    out.metric("slo_attain", s.slo_met as f64 / s.offered as f64);
    out.metric("sim_capacity_rps", capacity);
}

/// Serve one window on `server`, verify it, and return its simulated
/// outcome with its verified count.
fn served(
    out: &mut Outcome,
    label: &str,
    server: &Server,
    reqs: &[ServeRequest],
    refs: &mut References,
) -> (Sim, usize) {
    let report = server.run(reqs).expect("simulated window serves");
    let completions: Vec<&Completion> = report.completions.iter().collect();
    let (ok, _) = verify(out, label, reqs, &completions, &[], refs);
    (Sim::new(reqs, &completions, report.makespan, &report.queue_samples), ok)
}

/// Queue depth summed over shards at each sampling instant.
fn merged_queue(report: &ShardedReport) -> Vec<(f64, usize)> {
    let mut by_time: BTreeMap<u64, usize> = BTreeMap::new();
    for s in &report.shards {
        for &(t, d) in &s.report.queue_samples {
            *by_time.entry(t.to_bits()).or_insert(0) += d;
        }
    }
    by_time.into_iter().map(|(t, d)| (f64::from_bits(t), d)).collect()
}

/// Hash of everything simulated about a window, with ids taken relative
/// to `offset` so shifted windows of one list compare equal.
fn fingerprint(completions: &[&Completion], rejected: &[usize], offset: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for c in completions {
        h = fnv1a(h, &((c.request.id - offset) as u64).to_le_bytes());
        for t in [c.dispatched, c.started, c.finished] {
            h = fnv1a(h, &t.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &(c.coalesced as u64).to_le_bytes());
        for &g in c.gpus.iter() {
            h = fnv1a(h, &(g as u64).to_le_bytes());
        }
    }
    for &id in rejected {
        h = fnv1a(h, &((id - offset) as u64).to_le_bytes());
    }
    h
}

/// Reference checksums by request id, computed on first use.
struct References {
    input_seed: u64,
    sums: HashMap<usize, u64>,
}

impl References {
    fn new(seed: u64) -> Self {
        References { input_seed: input_seed(seed), sums: HashMap::new() }
    }

    fn get(&mut self, r: &ServeRequest) -> u64 {
        *self.sums.entry(r.id).or_insert_with(|| reference_checksum(self.input_seed, r))
    }
}

/// The correctness gate for one window: every offered request completed or
/// was rejected exactly once, and every completion's checksum equals the
/// independent reference. Returns `(ok requests, ok elements)`.
fn verify(
    out: &mut Outcome,
    label: &str,
    offered: &[ServeRequest],
    completions: &[&Completion],
    rejected: &[usize],
    refs: &mut References,
) -> (usize, usize) {
    let offset = offered[0].id;
    let mut seen = vec![false; offered.len()];
    let mut mark =
        |id: usize, out: &mut Outcome| match id.checked_sub(offset).filter(|&i| i < seen.len()) {
            Some(i) if !seen[i] => {
                seen[i] = true;
                true
            }
            _ => {
                out.mismatch(format!("{label}: request {id} answered twice or never offered"));
                false
            }
        };
    let (mut ok, mut ok_elems) = (0, 0);
    for c in completions {
        if !mark(c.request.id, out) {
            continue;
        }
        let expected = refs.get(&c.request);
        if c.checksum == expected && c.request == offered[c.request.id - offset] {
            ok += 1;
            ok_elems += c.request.total_elems();
        } else {
            out.mismatch(format!(
                "{label}: request {} checksum {:016x} != reference {expected:016x}",
                c.request.id, c.checksum
            ));
        }
    }
    for &id in rejected {
        mark(id, out);
    }
    let lost = seen.iter().filter(|&&s| !s).count();
    if lost > 0 {
        out.mismatch(format!("{label}: {lost} offered requests neither completed nor rejected"));
    }
    (ok, ok_elems)
}

/// `serve-cold`: fresh tenants on a warm server. Each timed window is the
/// default-mix schedule under new ids, so plans hit but the response memo
/// never does, and every request pays input generation, the
/// reference-order scan and its checksum.
pub fn serve_cold(args: &Args) -> Outcome {
    let mut out = Outcome::new(format!("{WINDOW}-request windows of fresh tenants, EDF, 8 K80s"));
    let (base, server) = repeated_setup(&mut out, 1, || {
        let base = default_list();
        let server = Server::new(serve_config(args.seed));
        std::hint::black_box(server.run(&base).expect("warm-up window serves"));
        (base, server)
    });
    let misses_before = server.cache_stats().misses;
    let memo_before = server.response_stats().served;

    let mut timed = Timed::new(args.seconds, 1);
    let mut first: Option<(Sim, usize, u64)> = None;
    let mut window0_refs = References::new(args.seed);
    while timed.more() {
        let offset = (timed.rates.len() + 1) * WINDOW;
        let reqs = shifted(&base, offset);
        let report = timed.time(|| server.run(&reqs));
        out.attempted += reqs.len() as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.mismatch(format!("window {}: {e}", timed.rates.len()));
                break;
            }
        };
        let completions: Vec<&Completion> = report.completions.iter().collect();
        let mut refs = References::new(args.seed);
        let refs = if first.is_none() { &mut window0_refs } else { &mut refs };
        let (ok, ok_elems) = verify(&mut out, "serve-cold", &reqs, &completions, &[], refs);
        let print = fingerprint(&completions, &[], offset);
        match &first {
            None => {
                first = Some((
                    Sim::new(&reqs, &completions, report.makespan, &report.queue_samples),
                    ok,
                    print,
                ))
            }
            Some((_, _, p)) if *p != print => out.mismatch(format!(
                "window {}: simulated schedule differs from window 0",
                timed.rates.len()
            )),
            Some(_) => {}
        }
        timed.push(ok_elems);
    }
    timed.record(&mut out, "windows");
    let timed_misses = server.cache_stats().misses - misses_before;
    let memo_hits = server.response_stats().served - memo_before;
    out.note(format!(
        "timed phase: {timed_misses} plan-cache misses, {memo_hits} response-memo hits"
    ));

    // Simulated metrics, untimed: window 0 on the ladder (repeat serves
    // are memo hits, and simulated time never depends on caching).
    let (sim0, ok0, print0) = first.expect("at least one window");
    let window0 = shifted(&base, WINDOW);
    let ladder = Ladder::of(&window0, (sim0, ok0), |reqs| {
        served(&mut out, "ladder", &server, reqs, &mut window0_refs)
    });
    record_sim(&mut out, &ladder);

    if args.trace {
        let mut tr = Tracer::new();
        let server = Server::new(serve_config(args.seed));
        server.run(&base).expect("warm-up window serves");
        let mut replica = Replica::new(args.seed, 1);
        replica.warm(&base);
        let memo_before = server.response_stats().served;
        let (report, dt) = tr.opaque("opaque.scan-serve.window", 0, || server.run(&window0));
        let report = report.expect("traced window serves");
        let completions: Vec<&Completion> = report.completions.iter().collect();
        verify(&mut out, "serve-cold traced", &window0, &completions, &[], &mut window0_refs);
        if fingerprint(&completions, &[], WINDOW) != print0 {
            out.mismatch(
                "traced window's simulated schedule differs from the untraced window 0".into(),
            );
        }
        for r in &window0 {
            replica.request(&mut tr, r, 0, true);
        }
        replica.check(&mut out, &mut window0_refs);
        let memo = server.response_stats().served - memo_before;
        out.metric("scan-serve.window_s", dt);
        out.metric("scan-serve.memo_hit_ratio", memo as f64 / window0.len() as f64);
        out.metric("scan-serve.coalesce_ratio", report.metrics.coalescing_ratio);
        out.metric("scan-serve.gpu_busy_frac", report.metrics.gpu_busy_fraction);
        out.metric("scan-serve.queue_depth_mean", report.metrics.mean_queue_depth);
        let sum = tr.summary();
        replica.record(&sum, &mut out);
        let sim_json = Some(report.trace.chrome_trace_json());
        crate::finish_trace(
            args,
            &tr,
            &sum,
            sim_json,
            dt / timed.median_secs() - 1.0,
            &["scan-serve", "skeletons"],
            &mut out,
        );
    }
    out
}

/// `serve-replay`: a warm server re-serves a list it has seen, on the
/// offered-rate ladder, so every request is a memo hit and a plan hit and
/// host time is the serving control plane alone.
pub fn serve_replay(args: &Args) -> Outcome {
    let mut out = Outcome::new(format!(
        "{WINDOW}-request list replayed on a 5-rung rate ladder, EDF, 8 K80s"
    ));
    let (rungs, server, setup_reports) = repeated_setup(&mut out, 1, || {
        let base = default_list();
        let rungs: Vec<Vec<ServeRequest>> = LADDER.iter().map(|&f| scaled(&base, f)).collect();
        let server = Server::new(serve_config(args.seed));
        let reports: Vec<_> =
            rungs.iter().map(|r| server.run(r).expect("set-up rung serves")).collect();
        (rungs, server, reports)
    });
    let mut refs = References::new(args.seed);
    let mut prints = Vec::new();
    let mut x1 = None;
    for (i, (rung, report)) in rungs.iter().zip(&setup_reports).enumerate() {
        let completions: Vec<&Completion> = report.completions.iter().collect();
        let (ok, _) = verify(&mut out, "serve-replay set-up", rung, &completions, &[], &mut refs);
        prints.push(fingerprint(&completions, &[], 0));
        if i == RUNG1 {
            x1 = Some((Sim::new(rung, &completions, report.makespan, &report.queue_samples), ok));
        }
    }
    drop(setup_reports);
    let memo_before = server.response_stats().served;

    let mut timed = Timed::new(args.seconds, 1);
    while timed.more() {
        let mut reports = Vec::with_capacity(rungs.len());
        for rung in &rungs {
            reports.push(timed.time(|| server.run(rung)));
        }
        let mut ok_elems = 0;
        for (i, (rung, report)) in rungs.iter().zip(reports).enumerate() {
            out.attempted += rung.len() as u64;
            match report {
                Ok(report) => {
                    let completions: Vec<&Completion> = report.completions.iter().collect();
                    ok_elems +=
                        verify(&mut out, "serve-replay", rung, &completions, &[], &mut refs).1;
                    if fingerprint(&completions, &[], 0) != prints[i] {
                        out.mismatch(format!("rung {i}: simulated schedule differs from set-up"));
                    }
                }
                Err(e) => out.mismatch(format!("rung {i}: {e}")),
            }
        }
        timed.push(ok_elems);
    }
    timed.record(&mut out, "ladder passes");
    let offered: u64 = rungs.iter().map(|r| r.len() as u64).sum::<u64>() * timed.rates.len() as u64;
    let memo_hits = server.response_stats().served - memo_before;
    out.note(format!(
        "timed phase: {memo_hits} of {offered} requests served from the response memo"
    ));
    let x1 = x1.expect("the ladder has a ×1 rung");
    let ladder =
        Ladder::of(&rungs[RUNG1], x1, |reqs| served(&mut out, "ladder", &server, reqs, &mut refs));
    record_sim(&mut out, &ladder);

    if args.trace {
        let mut tr = Tracer::new();
        let server = Server::new(serve_config(args.seed));
        for rung in &rungs {
            server.run(rung).expect("warm-up rung serves");
        }
        let mut replica = Replica::new(args.seed, 1);
        replica.warm(&rungs[RUNG1]);
        let memo_before = server.response_stats().served;
        let mut window_s = 0.0;
        let mut metrics = None;
        let mut sim_json = None;
        for (i, rung) in rungs.iter().enumerate() {
            let (report, dt) = tr.opaque("opaque.scan-serve.window", i, || server.run(rung));
            window_s += dt;
            let report = report.expect("traced rung serves");
            let completions: Vec<&Completion> = report.completions.iter().collect();
            verify(&mut out, "serve-replay traced", rung, &completions, &[], &mut refs);
            if fingerprint(&completions, &[], 0) != prints[i] {
                out.mismatch(format!(
                    "traced rung {i}: simulated schedule differs from the untraced run"
                ));
            }
            replica.reset_fleets();
            for r in rung {
                replica.request(&mut tr, r, 0, false);
            }
            if i == RUNG1 {
                metrics = Some(report.metrics.clone());
                sim_json = Some(report.trace.chrome_trace_json());
            }
        }
        let requests: usize = rungs.iter().map(Vec::len).sum();
        let memo = server.response_stats().served - memo_before;
        let metrics = metrics.expect("×1 rung traced");
        out.metric("scan-serve.window_s", window_s / rungs.len() as f64);
        out.metric("scan-serve.memo_hit_ratio", memo as f64 / requests as f64);
        out.metric("scan-serve.coalesce_ratio", metrics.coalescing_ratio);
        out.metric("scan-serve.gpu_busy_frac", metrics.gpu_busy_fraction);
        out.metric("scan-serve.queue_depth_mean", metrics.mean_queue_depth);
        let sum = tr.summary();
        replica.record(&sum, &mut out);
        crate::finish_trace(
            args,
            &tr,
            &sum,
            sim_json,
            window_s / timed.median_secs() - 1.0,
            &["scan-serve", "scan-core", "interconnect"],
            &mut out,
        );
    }
    out
}

/// `router-mixed`: the mixed-operator mix from 8 tenants through a 4-shard
/// router (EDF, hash placement, SLO miss budgets, stealing, bounded queues,
/// default thread count). Float kinds never replay cached plans, so a
/// large share of launches pays the full cold build.
pub fn router_mixed(args: &Args) -> Outcome {
    let mut out = Outcome::new(format!(
        "{WINDOW}-request mixed-operator windows, {TENANTS} tenants, {SHARDS}-shard router"
    ));
    let (base, router) = repeated_setup(&mut out, host_threads(), || {
        let base = mixed_list(args.seed);
        let router = Router::new(router_config(args.seed, 0)).expect("valid router topology");
        std::hint::black_box(router.run(&base).expect("warm-up window serves"));
        (base, router)
    });

    let mut timed = Timed::new(args.seconds, host_threads());
    let mut first: Option<(Sim, usize, u64, ShardedReport)> = None;
    let mut window0_refs = References::new(args.seed);
    while timed.more() {
        let offset = (timed.rates.len() + 1) * WINDOW;
        let reqs = shifted(&base, offset);
        let report = timed.time(|| router.run(&reqs));
        out.attempted += reqs.len() as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.mismatch(format!("window {}: {e}", timed.rates.len()));
                break;
            }
        };
        let completions = report.completions();
        let rejected: Vec<usize> = report.rejections.iter().map(|r| r.request.id).collect();
        let mut refs = References::new(args.seed);
        let refs = if first.is_none() { &mut window0_refs } else { &mut refs };
        let (ok, ok_elems) = verify(&mut out, "router-mixed", &reqs, &completions, &rejected, refs);
        timed.push(ok_elems);
        if first.is_none() {
            let sim = Sim::new(&reqs, &completions, report.makespan, &merged_queue(&report));
            let print = fingerprint(&completions, &rejected, offset);
            drop(completions);
            first = Some((sim, ok, print, report));
        }
    }
    timed.record(&mut out, "windows");

    let (sim0, ok0, print0, report0) = first.expect("at least one window");
    let window0 = shifted(&base, WINDOW);
    let ladder = Ladder::of(&window0, (sim0, ok0), |reqs| {
        let report = router.run(reqs).expect("ladder rung serves");
        let completions = report.completions();
        let rejected: Vec<usize> = report.rejections.iter().map(|r| r.request.id).collect();
        let (ok, _) = verify(
            &mut out,
            "router-mixed ladder",
            reqs,
            &completions,
            &rejected,
            &mut window0_refs,
        );
        (Sim::new(reqs, &completions, report.makespan, &merged_queue(&report)), ok)
    });
    let m = &report0.metrics;
    out.note(format!(
        "router window 0: {} rejected, {} redirected, {} steals, {} launches",
        m.rejected, m.redirected, m.steals, m.launches
    ));
    record_sim(&mut out, &ladder);

    if args.trace {
        let mut tr = Tracer::new();
        let router = Router::new(router_config(args.seed, 0)).expect("valid router topology");
        router.run(&base).expect("warm-up window serves");
        let mut replica = Replica::new(args.seed, SHARDS);
        replica.warm(&base);
        let (report, dt) = tr.opaque("opaque.scan-serve.router.window", 0, || router.run(&window0));
        let report = report.expect("traced window serves");
        let completions = report.completions();
        let rejected: Vec<usize> = report.rejections.iter().map(|r| r.request.id).collect();
        verify(
            &mut out,
            "router-mixed traced",
            &window0,
            &completions,
            &rejected,
            &mut window0_refs,
        );
        if fingerprint(&completions, &rejected, WINDOW) != print0 {
            out.mismatch(
                "traced window's simulated schedule differs from the untraced window 0".into(),
            );
        }
        let mut shard_of = HashMap::new();
        for s in &report.shards {
            for c in &s.report.completions {
                shard_of.insert(c.request.id, s.shard);
            }
        }
        for r in &window0 {
            if let Some(&s) = shard_of.get(&r.id) {
                replica.request(&mut tr, r, s, true);
            }
        }
        replica.check(&mut out, &mut window0_refs);
        // Window-level replica step: the trace merge `Router::run` ends with
        // (shard resources stay unremapped — that remap is internal).
        let t = tr.begin("replica.window", 0);
        let (merged, end) = tr.span("interconnect.merge", t, || {
            let parts = report
                .shards
                .iter()
                .map(|s| {
                    (
                        s.report.trace.graph().clone(),
                        s.report.trace.schedule().clone(),
                        format!("s{}:", s.shard),
                    )
                })
                .collect();
            merge_fleet_parts(parts)
        });
        tr.end(end);
        drop(merged);

        let serial = Router::new(router_config(args.seed, 1)).expect("valid router topology");
        serial.run(&base).expect("warm-up window serves");
        let (serial_report, serial_s) =
            tr.opaque("aside.scan-serve.router.serial_window", 0, || serial.run(&window0));
        let serial_report = serial_report.expect("serial window serves");
        let serial_rejected: Vec<usize> =
            serial_report.rejections.iter().map(|r| r.request.id).collect();
        if fingerprint(&serial_report.completions(), &serial_rejected, WINDOW) != print0 {
            out.mismatch("threads = 1 window differs from the default-thread window".into());
        }
        let m = &report.metrics;
        let shards = report.shards.len() as f64;
        out.metric("scan-serve.router.window_s", dt);
        out.metric("scan-serve.router.serial_window_s", serial_s);
        out.metric("scan-serve.router.parallel_speedup", serial_s / dt);
        out.metric("scan-serve.router.steals", m.steals as f64);
        out.metric("scan-serve.router.redirects", m.redirected as f64);
        out.metric("scan-serve.router.reject_frac", m.rejected as f64 / window0.len() as f64);
        out.metric("scan-serve.coalesce_ratio", ratio(completions.len() as f64, m.launches as f64));
        out.metric(
            "scan-serve.gpu_busy_frac",
            report.shards.iter().map(|s| s.report.metrics.gpu_busy_fraction).sum::<f64>() / shards,
        );
        out.metric(
            "scan-serve.queue_depth_mean",
            report.shards.iter().map(|s| s.report.metrics.mean_queue_depth).sum::<f64>(),
        );
        let sum = tr.summary();
        replica.record(&sum, &mut out);
        out.metric("interconnect.merge_s", sum.self_s("interconnect.merge"));
        let sim_json = Some(report.trace.chrome_trace_json());
        drop(completions);
        crate::finish_trace(
            args,
            &tr,
            &sum,
            sim_json,
            dt / timed.median_secs() - 1.0,
            &["scan-core", "interconnect"],
            &mut out,
        );
    }
    out
}

/// One shard of the replica: its own pool, plan cache and fleet timeline.
struct ReplicaShard {
    pool: DevicePool,
    cache: PlanCache,
    fleet: FleetTimeline,
}

/// The outside-in replay of the serving request path: per request, in
/// workload order, the public functions `Server::run` composes — input
/// generation, lease, plan lookup, cold build on a miss, fleet admission,
/// then the reference-order scan. Requests run one at a
/// time on an idle pool (no queueing or coalescing: those are what the
/// replica cannot reach from outside, and `trace.replica_ratio` shows).
struct Replica {
    device: DeviceSpec,
    fabric: Fabric,
    tuple: SplkTuple,
    policy: PipelinePolicy,
    input_seed: u64,
    shards: Vec<ReplicaShard>,
    hits: u64,
    misses: u64,
    nodes: u64,
    gen_elems: u64,
    ref_elems: u64,
    sums: Vec<(ServeRequest, u64)>,
}

impl Replica {
    fn new(seed: u64, shards: usize) -> Self {
        let fabric = FabricPreset::Pcie.build_for_gpus(8);
        Replica {
            device: DeviceSpec::tesla_k80(),
            fabric,
            tuple: SplkTuple::kepler_premises(0),
            policy: PipelinePolicy::default(),
            input_seed: input_seed(seed),
            shards: (0..shards)
                .map(|_| ReplicaShard {
                    pool: DevicePool::new(8),
                    cache: PlanCache::new(),
                    fleet: FleetTimeline::new(),
                })
                .collect(),
            hits: 0,
            misses: 0,
            nodes: 0,
            gen_elems: 0,
            ref_elems: 0,
            sums: Vec::new(),
        }
    }

    /// Warm every shard's plan cache on each distinct shape of `list`, as
    /// the warm-up window warms the server's; then forget the counts.
    fn warm(&mut self, list: &[ServeRequest]) {
        let mut shapes = HashMap::new();
        for r in list {
            shapes.entry((r.n, r.g, r.gpus_wanted, r.op)).or_insert_with(|| r.clone());
        }
        let mut scratch = Tracer::new();
        for s in 0..self.shards.len() {
            self.reset_fleets();
            let mut reqs: Vec<&ServeRequest> = shapes.values().collect();
            reqs.sort_by_key(|r| r.id);
            for r in reqs {
                self.request(&mut scratch, r, s, true);
            }
        }
        self.reset_fleets();
        self.hits = 0;
        self.misses = 0;
        self.nodes = 0;
        self.gen_elems = 0;
        self.ref_elems = 0;
        self.sums.clear();
    }

    fn reset_fleets(&mut self) {
        for s in &mut self.shards {
            s.fleet = FleetTimeline::new();
        }
    }

    fn request(&mut self, tr: &mut Tracer, r: &ServeRequest, shard: usize, data_path: bool) {
        let res = with_kind!(r.op, T => self.request_typed::<T>(tr, r, shard, data_path));
        if let Err(e) = res {
            panic!("replica request {} failed: {e}", r.id);
        }
    }

    // A plan miss hands the whole launch back through `into_hit`'s `Err`,
    // straight into the cold build — the program's own API shape.
    #[allow(clippy::result_large_err)]
    fn request_typed<T: Kind>(
        &mut self,
        tr: &mut Tracer,
        r: &ServeRequest,
        shard: usize,
        data_path: bool,
    ) -> ScanResult<()> {
        let Replica { device, fabric, tuple, policy, input_seed, shards, .. } = self;
        let sh = &mut shards[shard];
        let problem = r.problem();
        let len = r.total_elems();
        let mut input: Vec<T> = if data_path { Vec::with_capacity(len) } else { Vec::new() };
        let mut t = tr.begin("request", r.id);
        if data_path {
            t = tr
                .span("scan-serve.input_gen", t, || {
                    T::input_into(*input_seed, r.id, len, &mut input)
                })
                .1;
        }
        let (lease, t1) = tr.span("scan-serve.lease", t, || {
            let lease =
                sh.pool.lease(r.gpus_wanted).expect("an idle replica pool grants every request");
            let gpu_lease = lease.to_gpu_lease();
            sh.pool.release(lease);
            gpu_lease
        });
        let (planned, mut t) = tr.span("scan-core.plan_lookup", t1, || {
            sh.cache
                .plan::<T, T::Op>(
                    device,
                    fabric,
                    &lease,
                    problem,
                    *tuple,
                    ScanKind::Inclusive,
                    policy,
                )
                .into_hit()
        });
        let hit = planned.is_ok();
        let (graph, remap) = match planned {
            Ok(hit) => (hit.graph, hit.remap),
            Err(planned) => {
                if !data_path {
                    t = tr
                        .span("scan-serve.input_gen", t, || {
                            T::input_into(*input_seed, r.id, len, &mut input)
                        })
                        .1;
                }
                let (run, t1) = tr.span("scan-core.cold_build", t, || planned.run(T::OP, &input));
                t = t1;
                match run {
                    Ok(run) => (Arc::new(run.run.graph), empty_remap()),
                    Err(e) => {
                        tr.end(t);
                        return Err(e);
                    }
                }
            }
        };
        let nodes = graph.nodes().len() as u64;
        let (admission, mut t) = tr.span("interconnect.admit", t, || {
            sh.fleet.admit_shared(graph, remap, r.arrival, format!("r{}:", r.id))
        });
        let mut scanned = None;
        if data_path {
            let (rows, t1) = tr
                .span("skeletons.reference", t, || reference_rows(&input, problem.problem_size()));
            scanned = Some(rows);
            t = t1;
        }
        tr.end(t);
        // The server's own FNV pass is internal; the replica hashes outside
        // its spans, for the correctness gate only.
        let sum = scanned.map(|rows| checksum(&rows));
        std::hint::black_box(admission);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.nodes += nodes;
        if data_path || !hit {
            self.gen_elems += len as u64;
        }
        if let Some(h) = sum {
            self.ref_elems += len as u64;
            self.sums.push((r.clone(), h));
        }
        Ok(())
    }

    /// The replica's own checksums must equal the reference.
    fn check(&self, out: &mut Outcome, refs: &mut References) {
        for (r, h) in &self.sums {
            if refs.get(r) != *h {
                out.mismatch(format!(
                    "replica request {}: checksum differs from the reference",
                    r.id
                ));
            }
        }
    }

    fn record(&self, sum: &crate::spans::Summary, out: &mut Outcome) {
        out.metric("scan-core.plan_lookup_us", sum.median_call("scan-core.plan_lookup") * 1e6);
        out.metric(
            "scan-core.plan_hit_ratio",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
        );
        out.metric("scan-core.cold_build_ms", sum.median_call("scan-core.cold_build") * 1e3);
        out.metric("scan-core.cold_builds", sum.calls("scan-core.cold_build") as f64);
        out.metric("interconnect.admit_us", sum.median_call("interconnect.admit") * 1e6);
        out.metric("interconnect.fleet_nodes", self.nodes as f64);
        out.metric(
            "scan-serve.input_gen_melem_s",
            ratio(self.gen_elems as f64, sum.self_s("scan-serve.input_gen")) / 1e6,
        );
        out.metric(
            "skeletons.reference_melem_s",
            ratio(self.ref_elems as f64, sum.self_s("skeletons.reference")) / 1e6,
        );
        out.metric("scan-serve.lease_us", sum.median_call("scan-serve.lease") * 1e6);
    }
}
