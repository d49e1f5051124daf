//! Fleet-level metrics over a serving window.
//!
//! All quantities derive deterministically from the completion records and
//! the fleet trace; the JSON rendering prints `f64`s with Rust's shortest
//! round-trip formatting, so equal runs produce byte-equal reports (the
//! basis of the `BENCH_serve.json` golden and the CI regression gate).

use crate::policy::Policy;
use crate::serve::Completion;

/// Throughput, latency percentiles, utilization and queueing statistics
/// for one serving window.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Policy that produced the window.
    pub policy: &'static str,
    /// Requests completed.
    pub requests: usize,
    /// Launches issued (requests / coalescing).
    pub launches: usize,
    /// `requests / launches` (1.0 = nothing coalesced).
    pub coalescing_ratio: f64,
    /// End of the fleet schedule, seconds.
    pub makespan: f64,
    /// Median request latency (arrival → finish), seconds.
    pub p50_latency: f64,
    /// 99th-percentile latency (nearest-rank), seconds.
    pub p99_latency: f64,
    /// Mean latency, seconds.
    pub mean_latency: f64,
    /// Worst latency, seconds.
    pub max_latency: f64,
    /// Scanned elements per simulated second.
    pub throughput_elems_per_sec: f64,
    /// Completed requests per simulated second.
    pub requests_per_sec: f64,
    /// Busy seconds across all GPU streams over `pool_gpus · makespan`.
    pub gpu_busy_fraction: f64,
    /// Deepest the queue ever got.
    pub max_queue_depth: usize,
    /// Time-weighted mean queue depth.
    pub mean_queue_depth: f64,
    /// Requests that carried a deadline.
    pub deadline_total: usize,
    /// Of those, how many finished late.
    pub deadline_misses: usize,
    /// Per-device-generation busy fraction, in first-GPU-id order. Empty
    /// for homogeneous pools, so their JSON reports keep the historical
    /// bytes; a mixed pool gets one `(model slug, busy fraction)` entry
    /// per generation, where busy time is each launch's start→finish span
    /// attributed to its GPUs and the denominator is that generation's
    /// device count times the makespan.
    pub class_busy: Vec<(&'static str, f64)>,
}

impl FleetMetrics {
    /// Derive the metrics of one finished window. `stream_busy` is the
    /// fleet's total stream-resource busy time
    /// ([`interconnect::FleetTimeline::stream_busy_seconds`]);
    /// `gpu_classes` maps GPU id → device-model slug
    /// ([`crate::pool::DevicePool::gpu_classes`]).
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        policy: Policy,
        pool_gpus: usize,
        completions: &[Completion],
        launches: usize,
        makespan: f64,
        stream_busy: f64,
        queue_samples: &[(f64, usize)],
        gpu_classes: &[&'static str],
    ) -> FleetMetrics {
        let mut latencies: Vec<f64> = completions.iter().map(Completion::latency).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let total_elems: usize = completions.iter().map(|c| c.request.total_elems()).sum();

        let (mut max_depth, mut weighted) = (0usize, 0.0f64);
        for (i, &(t, depth)) in queue_samples.iter().enumerate() {
            max_depth = max_depth.max(depth);
            let until = queue_samples.get(i + 1).map_or(makespan, |&(t2, _)| t2);
            weighted += depth as f64 * (until - t).max(0.0);
        }

        let with_deadline: Vec<&Completion> =
            completions.iter().filter(|c| c.request.deadline.is_some()).collect();

        let div = |num: f64| if makespan > 0.0 { num / makespan } else { 0.0 };
        FleetMetrics {
            policy: policy.name(),
            requests: completions.len(),
            launches,
            coalescing_ratio: if launches > 0 {
                completions.len() as f64 / launches as f64
            } else {
                0.0
            },
            makespan,
            p50_latency: percentile(&latencies, 50),
            p99_latency: percentile(&latencies, 99),
            mean_latency: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            max_latency: latencies.last().copied().unwrap_or(0.0),
            throughput_elems_per_sec: div(total_elems as f64),
            requests_per_sec: div(completions.len() as f64),
            gpu_busy_fraction: div(stream_busy / pool_gpus as f64),
            max_queue_depth: max_depth,
            mean_queue_depth: div(weighted),
            deadline_total: with_deadline.len(),
            deadline_misses: with_deadline.iter().filter(|c| c.missed_deadline()).count(),
            class_busy: class_busy(completions, makespan, gpu_classes),
        }
    }

    /// Render as a JSON object (shortest round-trip float formatting, so
    /// byte-stable across equal runs). Homogeneous windows render the
    /// historical bytes exactly; mixed pools append a `class_busy` object.
    pub fn to_json(&self) -> String {
        let class_busy = if self.class_busy.is_empty() {
            String::new()
        } else {
            let entries: Vec<String> = self
                .class_busy
                .iter()
                .map(|(class, busy)| format!("\"{class}\": {busy}"))
                .collect();
            format!(",\n  \"class_busy\": {{ {} }}", entries.join(", "))
        };
        format!(
            "{{\n  \"policy\": \"{}\",\n  \"requests\": {},\n  \"launches\": {},\n  \
             \"coalescing_ratio\": {},\n  \"makespan_s\": {},\n  \"p50_latency_s\": {},\n  \
             \"p99_latency_s\": {},\n  \"mean_latency_s\": {},\n  \"max_latency_s\": {},\n  \
             \"throughput_elems_per_s\": {},\n  \"requests_per_s\": {},\n  \
             \"gpu_busy_fraction\": {},\n  \"max_queue_depth\": {},\n  \
             \"mean_queue_depth\": {},\n  \"deadline_total\": {},\n  \
             \"deadline_misses\": {}{class_busy}\n}}",
            self.policy,
            self.requests,
            self.launches,
            self.coalescing_ratio,
            self.makespan,
            self.p50_latency,
            self.p99_latency,
            self.mean_latency,
            self.max_latency,
            self.throughput_elems_per_sec,
            self.requests_per_sec,
            self.gpu_busy_fraction,
            self.max_queue_depth,
            self.mean_queue_depth,
            self.deadline_total,
            self.deadline_misses,
        )
    }

    /// One-line human summary (the `bench serve` console output).
    pub fn summary(&self) -> String {
        format!(
            "{}: {} requests in {} launches (coalescing {:.2}x) | p50 {:.3} ms, p99 {:.3} ms | \
             {:.2} Melem/s, {:.1} req/s | GPU busy {:.1}% | queue max {} mean {:.2} | \
             deadlines {}/{} missed",
            self.policy,
            self.requests,
            self.launches,
            self.coalescing_ratio,
            self.p50_latency * 1e3,
            self.p99_latency * 1e3,
            self.throughput_elems_per_sec / 1e6,
            self.requests_per_sec,
            self.gpu_busy_fraction * 1e2,
            self.max_queue_depth,
            self.mean_queue_depth,
            self.deadline_misses,
            self.deadline_total,
        )
    }
}

/// Fleet-wide rollup of one sharded serving window: everything the
/// per-shard [`FleetMetrics`] cannot see — admission-control outcomes,
/// cross-shard steals, and latency percentiles over the union of all
/// shards' completions.
///
/// Like [`FleetMetrics`], all quantities derive deterministically from
/// completion records, and [`ShardedMetrics::to_json`] prints floats with
/// shortest round-trip formatting for byte-stable reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedMetrics {
    /// Queue discipline every shard ran.
    pub policy: &'static str,
    /// Shard-placement policy the router used.
    pub placement: &'static str,
    /// Number of shards.
    pub shards: usize,
    /// Requests completed, fleet-wide.
    pub requests: usize,
    /// Requests rejected by admission control (offered − completed).
    pub rejected: usize,
    /// Admitted requests redirected off their primary shard.
    pub redirected: usize,
    /// Requests served by a shard other than the one that admitted them.
    pub steals: usize,
    /// Launches issued across all shards.
    pub launches: usize,
    /// Latest shard makespan, seconds (shards share one clock).
    pub makespan: f64,
    /// Median latency over all shards' completions, seconds.
    pub p50_latency: f64,
    /// 99th-percentile latency (nearest-rank), seconds.
    pub p99_latency: f64,
    /// Mean latency, seconds.
    pub mean_latency: f64,
    /// Scanned elements per simulated second, fleet-wide.
    pub throughput_elems_per_sec: f64,
    /// Completed requests per simulated second, fleet-wide.
    pub requests_per_sec: f64,
    /// `steals / requests` (0.0 when nothing completed).
    pub steal_rate: f64,
    /// `rejected / offered` where offered = completed + rejected.
    pub reject_rate: f64,
    /// Completed requests that carried a deadline.
    pub deadline_total: usize,
    /// Of those, how many finished late.
    pub deadline_misses: usize,
}

impl ShardedMetrics {
    /// Derive the fleet-wide rollup of one finished sharded window.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        policy: Policy,
        placement: &'static str,
        shard_completions: &[&[Completion]],
        launches: usize,
        steals: usize,
        rejected: usize,
        redirected: usize,
        makespan: f64,
    ) -> ShardedMetrics {
        let completions: Vec<&Completion> =
            shard_completions.iter().flat_map(|s| s.iter()).collect();
        let mut latencies: Vec<f64> = completions.iter().map(|c| Completion::latency(c)).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let total_elems: usize = completions.iter().map(|c| c.request.total_elems()).sum();
        let with_deadline: Vec<&&Completion> =
            completions.iter().filter(|c| c.request.deadline.is_some()).collect();
        let offered = completions.len() + rejected;

        let div = |num: f64| if makespan > 0.0 { num / makespan } else { 0.0 };
        let frac = |num: usize, den: usize| if den > 0 { num as f64 / den as f64 } else { 0.0 };
        ShardedMetrics {
            policy: policy.name(),
            placement,
            shards: shard_completions.len(),
            requests: completions.len(),
            rejected,
            redirected,
            steals,
            launches,
            makespan,
            p50_latency: percentile(&latencies, 50),
            p99_latency: percentile(&latencies, 99),
            mean_latency: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            throughput_elems_per_sec: div(total_elems as f64),
            requests_per_sec: div(completions.len() as f64),
            steal_rate: frac(steals, completions.len()),
            reject_rate: frac(rejected, offered),
            deadline_total: with_deadline.len(),
            deadline_misses: with_deadline.iter().filter(|c| c.missed_deadline()).count(),
        }
    }

    /// Render as a JSON object (shortest round-trip float formatting, so
    /// byte-stable across equal runs).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"policy\": \"{}\",\n  \"placement\": \"{}\",\n  \"shards\": {},\n  \
             \"requests\": {},\n  \"rejected\": {},\n  \"redirected\": {},\n  \
             \"steals\": {},\n  \"launches\": {},\n  \"makespan_s\": {},\n  \
             \"p50_latency_s\": {},\n  \"p99_latency_s\": {},\n  \"mean_latency_s\": {},\n  \
             \"throughput_elems_per_s\": {},\n  \"requests_per_s\": {},\n  \
             \"steal_rate\": {},\n  \"reject_rate\": {},\n  \"deadline_total\": {},\n  \
             \"deadline_misses\": {}\n}}",
            self.policy,
            self.placement,
            self.shards,
            self.requests,
            self.rejected,
            self.redirected,
            self.steals,
            self.launches,
            self.makespan,
            self.p50_latency,
            self.p99_latency,
            self.mean_latency,
            self.throughput_elems_per_sec,
            self.requests_per_sec,
            self.steal_rate,
            self.reject_rate,
            self.deadline_total,
            self.deadline_misses,
        )
    }

    /// One-line human summary (the `bench serve --shards` console output).
    pub fn summary(&self) -> String {
        format!(
            "{}/{} x{}: {} served, {} rejected, {} redirected, {} stolen | {} launches | \
             p50 {:.3} ms, p99 {:.3} ms | {:.2} Melem/s, {:.1} req/s | deadlines {}/{} missed",
            self.policy,
            self.placement,
            self.shards,
            self.requests,
            self.rejected,
            self.redirected,
            self.steals,
            self.launches,
            self.p50_latency * 1e3,
            self.p99_latency * 1e3,
            self.throughput_elems_per_sec / 1e6,
            self.requests_per_sec,
            self.deadline_misses,
            self.deadline_total,
        )
    }
}

/// Per-generation busy fractions of a mixed-pool window. A launch's
/// completions all share one `gpus` allocation and one start/finish span,
/// so launches deduplicate by `(gpus pointer, started bits, finished
/// bits)`; each surviving launch charges `finished − started` to every GPU
/// it held. Returns an empty vector (→ historical JSON bytes) unless the
/// window genuinely mixed generations.
fn class_busy(
    completions: &[Completion],
    makespan: f64,
    gpu_classes: &[&'static str],
) -> Vec<(&'static str, f64)> {
    let mut distinct: Vec<&'static str> = Vec::new();
    for &c in gpu_classes {
        if !distinct.contains(&c) {
            distinct.push(c);
        }
    }
    if distinct.len() < 2 || makespan <= 0.0 {
        return Vec::new();
    }
    let mut seen: Vec<(usize, u64, u64)> = Vec::new();
    let mut busy = vec![0.0f64; gpu_classes.len()];
    for c in completions {
        let key = (c.gpus.as_ptr() as usize, c.started.to_bits(), c.finished.to_bits());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        for &g in c.gpus.iter() {
            busy[g] += c.finished - c.started;
        }
    }
    distinct
        .into_iter()
        .map(|class| {
            let (count, total) = gpu_classes
                .iter()
                .zip(&busy)
                .filter(|&(&c, _)| c == class)
                .fold((0usize, 0.0f64), |(n, t), (_, &b)| (n + 1, t + b));
            (class, total / (count as f64 * makespan))
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::OpKind;
    use crate::serve::Completion;
    use std::sync::Arc;

    fn completion(gpus: Arc<[usize]>, started: f64, finished: f64) -> Completion {
        Completion {
            request: crate::request::ServeRequest {
                id: 0,
                arrival: 0.0,
                n: 10,
                g: 0,
                gpus_wanted: gpus.len(),
                priority: 0,
                tenant: 0,
                deadline: None,
                op: OpKind::AddI32,
            },
            dispatched: started,
            started,
            finished,
            coalesced: 1,
            gpus,
            checksum: 0,
            output: None,
        }
    }

    #[test]
    fn class_busy_is_empty_for_homogeneous_pools() {
        let c = completion(Arc::from(vec![0, 1]), 0.0, 1.0);
        assert!(class_busy(&[c], 2.0, &["tesla_k80", "tesla_k80"]).is_empty());
    }

    #[test]
    fn class_busy_attributes_launch_spans_per_generation() {
        // GPUs 0-1 are v100, 2-3 a100. One 2-GPU v100 launch with two
        // coalesced members (shared gpus allocation — counted once) plus
        // one single-GPU a100 launch.
        let classes = ["v100", "v100", "a100", "a100"];
        let v_gpus: Arc<[usize]> = Arc::from(vec![0, 1]);
        let cs = vec![
            completion(v_gpus.clone(), 0.0, 1.0),
            completion(v_gpus, 0.0, 1.0),
            completion(Arc::from(vec![2]), 0.0, 4.0),
        ];
        let busy = class_busy(&cs, 4.0, &classes);
        // v100: 1s on each of 2 GPUs over 2 GPUs x 4s; a100: 4s on one of
        // two GPUs over 2 x 4s.
        assert_eq!(busy, vec![("v100", 0.25), ("a100", 0.5)]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50), 2.0);
        assert_eq!(percentile(&v, 99), 4.0);
        assert_eq!(percentile(&v, 100), 4.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
