//! Workload sources: a seeded generator and a JSON trace reader.
//!
//! Both produce the same thing — a list of [`ServeRequest`]s sorted by
//! arrival time — so the server never knows where its workload came from.
//! The generator is bit-deterministic from its seed (the vendored
//! SplitMix64 `StdRng`), which is what lets golden snapshots pin a whole
//! serving window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scan_core::ProblemParams;
use skeletons::{AffinePair, SegPair};

use crate::json::Json;
use crate::policy::is_key_time;
use crate::request::{OpKind, ServeRequest};

/// Parameters of the seeded workload generator.
///
/// Arrival gaps are drawn in whole microseconds so arrival times are exact
/// binary fractions of small integers — summing them is deterministic and
/// prints round in traces.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Generator seed.
    pub seed: u64,
    /// Number of requests.
    pub requests: usize,
    /// Mean inter-arrival gap in microseconds (gaps are uniform on
    /// `0..=2·mean`, so the mean is exact).
    pub mean_gap_us: u64,
    /// Inclusive range of `n` (log2 problem size).
    pub n_range: (u32, u32),
    /// Inclusive range of `g` (log2 batch).
    pub g_range: (u32, u32),
    /// GPUs wanted is `2^k` with `k` uniform on `0..=log2(max_gpus)`.
    pub max_gpus: usize,
    /// Fraction of requests (out of 256) that carry a deadline.
    pub deadline_per_256: u32,
    /// Deadline slack in microseconds past arrival, uniform on this
    /// inclusive range.
    pub slack_us: (u64, u64),
    /// Fraction of draws (out of 256) that open a *burst*: one tenant
    /// submitting [`WorkloadSpec::burst_len`] single-GPU requests of one
    /// shape back-to-back (gaps ≤ 1 µs) — the batch-submission pattern the
    /// coalescer exists for.
    pub burst_per_256: u32,
    /// Requests per burst (the opener included).
    pub burst_len: usize,
    /// Weighted operator mix. A single-entry mix (the default, pure
    /// `AddI32`) draws nothing from the RNG, so every pre-existing
    /// workload — golden snapshots included — is bit-identical to the
    /// i32-only generator. Multi-entry mixes draw one weighted `OpKind`
    /// per request (one per *burst*: a tenant's batch submission is one
    /// computation).
    pub op_mix: Vec<(OpKind, u32)>,
    /// Distinct tenants stamped on requests (ids `0..tenants`), one draw
    /// per request and one per burst. The sharded router's hash placement
    /// and per-tenant SLO budgets key off this id. Tenant draws come from
    /// a **dedicated** SplitMix64 stream (same discipline as the op-mix
    /// draws): `tenants: 1`, the default, draws nothing at all, so every
    /// pre-existing workload — the `BENCH_serve.json`/`BENCH_scan.json`
    /// goldens included — is byte-identical with or without this field.
    pub tenants: u8,
}

/// Salt of the dedicated tenant-draw stream: tenant draws never touch the
/// main workload RNG, so enabling multi-tenancy cannot perturb arrivals,
/// shapes, deadlines or the operator mix.
const TENANT_STREAM: u64 = 0x7465_6E61_6E74_7331; // "tenants1"

impl WorkloadSpec {
    /// The pinned default: single-node pool, small scans (the regime where
    /// coalescing matters), one request in four carrying a deadline. The
    /// mean gap oversubscribes the default 8-GPU pool so queues form (and
    /// policies actually reorder work), and roughly one draw in five opens
    /// a four-request burst that gives the coalescer adjacent compatible
    /// shapes.
    pub fn default_for(seed: u64, requests: usize) -> Self {
        WorkloadSpec {
            seed,
            requests,
            mean_gap_us: 5,
            n_range: (10, 12),
            g_range: (0, 3),
            max_gpus: 4,
            deadline_per_256: 64,
            slack_us: (40, 400),
            burst_per_256: 48,
            burst_len: 4,
            op_mix: vec![(OpKind::AddI32, 1)],
            tenants: 1,
        }
    }

    /// The default spec with the issue's mixed-operator serving mix:
    /// mostly sum-scans, with max, segmented-sum and gated-recurrence
    /// tenants sharing the window.
    pub fn mixed_ops_for(seed: u64, requests: usize) -> Self {
        WorkloadSpec {
            op_mix: vec![
                (OpKind::AddI32, 3),
                (OpKind::MaxF64, 2),
                (OpKind::SegSumI32, 1),
                (OpKind::GatedF64, 2),
            ],
            ..Self::default_for(seed, requests)
        }
    }

    /// Draw one operator from the mix. Single-entry mixes (and the empty
    /// mix, treated as pure `AddI32`) leave the RNG untouched.
    fn draw_op(&self, rng: &mut StdRng) -> OpKind {
        match self.op_mix.as_slice() {
            [] => OpKind::AddI32,
            [(op, _)] => *op,
            mix => {
                let total: u32 = mix.iter().map(|(_, w)| w).sum();
                assert!(total > 0, "op_mix weights must not all be zero");
                let mut t = rng.gen_range(0..total);
                for &(op, w) in mix {
                    if t < w {
                        return op;
                    }
                    t -= w;
                }
                unreachable!("weighted draw within total")
            }
        }
    }

    /// Generate the request list, sorted by `(arrival, id)`.
    pub fn generate(&self) -> Vec<ServeRequest> {
        assert!(self.max_gpus.is_power_of_two(), "max_gpus must be a power of two");
        assert!(self.n_range.0 <= self.n_range.1 && self.g_range.0 <= self.g_range.1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Tenant draws live on their own stream (see [`TENANT_STREAM`]):
        // the default single-tenant spec never even seeds it.
        let mut tenant_rng =
            (self.tenants > 1).then(|| StdRng::seed_from_u64(self.seed ^ TENANT_STREAM));
        let tenants = self.tenants;
        let mut draw_tenant = move || match tenant_rng.as_mut() {
            Some(r) => r.gen_range(0..tenants as u32) as u8,
            None => 0,
        };
        let gpu_pow = self.max_gpus.trailing_zeros();
        let mut arrival_us: u64 = 0;
        let mut out: Vec<ServeRequest> = Vec::with_capacity(self.requests);
        while out.len() < self.requests {
            arrival_us += rng.gen_range(0..=2 * self.mean_gap_us);
            let n = rng.gen_range(self.n_range.0..=self.n_range.1);
            if self.burst_len > 1 && rng.gen_range(0..256u32) < self.burst_per_256 {
                // One tenant's batch submission: identical small single-GPU
                // shapes, one priority, back-to-back arrivals. Equal `g`
                // keeps every prefix's batch sum a power of two, so the
                // coalescer can absorb the whole burst. One operator for
                // the whole burst — it is one tenant's computation.
                let g = rng.gen_range(self.g_range.0..=self.g_range.1).min(1);
                let priority = rng.gen_range(0..4u64) as u8;
                let op = self.draw_op(&mut rng);
                let tenant = draw_tenant();
                for i in 0..self.burst_len {
                    if out.len() == self.requests {
                        break;
                    }
                    if i > 0 {
                        arrival_us += rng.gen_range(0..=1);
                    }
                    out.push(ServeRequest {
                        id: out.len(),
                        arrival: us_to_s(arrival_us),
                        n,
                        g,
                        gpus_wanted: 1,
                        priority,
                        tenant,
                        deadline: None,
                        op,
                    });
                }
            } else {
                let g = rng.gen_range(self.g_range.0..=self.g_range.1);
                let gpus_wanted = 1usize << rng.gen_range(0..=gpu_pow);
                let priority = rng.gen_range(0..4u64) as u8;
                let deadline = if rng.gen_range(0..256u32) < self.deadline_per_256 {
                    let slack = rng.gen_range(self.slack_us.0..=self.slack_us.1);
                    Some(us_to_s(arrival_us + slack))
                } else {
                    None
                };
                let op = self.draw_op(&mut rng);
                let tenant = draw_tenant();
                out.push(ServeRequest {
                    id: out.len(),
                    arrival: us_to_s(arrival_us),
                    n,
                    g,
                    gpus_wanted,
                    priority,
                    tenant,
                    deadline,
                    op,
                });
            }
        }
        out
    }
}

fn us_to_s(us: u64) -> f64 {
    us as f64 * 1e-6
}

/// Deterministic per-request input data: the values each tenant "uploads".
///
/// Seeded by `(workload seed, request id)` so a request's input is the same
/// whether it runs alone or inside a coalesced batch — the bit-identity
/// property tests depend on this.
pub fn request_input(seed: u64, id: usize, len: usize) -> Vec<i32> {
    let mut out = Vec::with_capacity(len);
    request_input_into(seed, id, len, &mut out);
    out
}

/// [`request_input`], appending into a caller-owned buffer (the serving
/// hot path recycles pooled buffers instead of allocating per request).
/// The RNG stream — and therefore every value — is identical.
pub fn request_input_into(seed: u64, id: usize, len: usize, out: &mut Vec<i32>) {
    let mut rng = request_rng(seed, id);
    out.extend((0..len).map(|_| rng.gen_range(-100..=100)));
}

fn request_rng(seed: u64, id: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// [`request_input`] for `f64` tenants ([`OpKind::MaxF64`]): quarter-integer
/// values on `[-100, 100]`, exactly representable so max-scans are
/// bit-reproducible under any combine order.
pub fn request_input_f64(seed: u64, id: usize, len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(len);
    request_input_f64_into(seed, id, len, &mut out);
    out
}

/// [`request_input_f64`], appending into a caller-owned buffer.
pub fn request_input_f64_into(seed: u64, id: usize, len: usize, out: &mut Vec<f64>) {
    let mut rng = request_rng(seed, id);
    out.extend((0..len).map(|_| rng.gen_range(-400i32..=400) as f64 * 0.25));
}

/// [`request_input`] for segmented-sum tenants ([`OpKind::SegSumI32`]):
/// the same value range as the plain-sum stream, with roughly one element
/// in eight opening a new segment.
pub fn request_input_seg(seed: u64, id: usize, len: usize) -> Vec<SegPair<i32>> {
    let mut out = Vec::with_capacity(len);
    request_input_seg_into(seed, id, len, &mut out);
    out
}

/// [`request_input_seg`], appending into a caller-owned buffer.
pub fn request_input_seg_into(seed: u64, id: usize, len: usize, out: &mut Vec<SegPair<i32>>) {
    let mut rng = request_rng(seed, id);
    out.extend((0..len).map(|_| {
        let v = rng.gen_range(-100..=100);
        SegPair::new(v, rng.gen_range(0..8u32) == 0)
    }));
}

/// [`request_input`] for gated-recurrence tenants ([`OpKind::GatedF64`]):
/// each element is the affine pair `(gate[t], token[t])`. Gates sit on
/// `0.999 + 0.001·u` with `u` uniform on `[0, 1]` — the near-1 decay the
/// SSM workloads use — and tokens are dyadic rationals on `[-1, 1]`.
pub fn request_input_gated(seed: u64, id: usize, len: usize) -> Vec<AffinePair<f64>> {
    let mut out = Vec::with_capacity(len);
    request_input_gated_into(seed, id, len, &mut out);
    out
}

/// [`request_input_gated`], appending into a caller-owned buffer.
pub fn request_input_gated_into(seed: u64, id: usize, len: usize, out: &mut Vec<AffinePair<f64>>) {
    let mut rng = request_rng(seed, id);
    out.extend((0..len).map(|_| {
        let gate = 0.999 + 0.001 * (rng.gen_range(0..=1000u32) as f64 / 1000.0);
        let token = rng.gen_range(-128i32..=128) as f64 / 128.0;
        AffinePair::new(gate, token)
    }));
}

/// Read a request trace from JSON.
///
/// Format — one object with a `requests` array; each entry carries
/// `arrival` (seconds), `n`, `g`, and optionally `gpus` (default 1),
/// `priority` (default 0), `tenant` (default 0), `deadline` (absolute
/// seconds) and `op` (an [`OpKind`] name, default `"add_i32"`):
///
/// ```json
/// {"requests": [
///   {"arrival": 0.0,    "n": 12, "g": 2, "gpus": 1},
///   {"arrival": 0.0015, "n": 10, "g": 0, "gpus": 4, "deadline": 0.25}
/// ]}
/// ```
///
/// Ids are assigned by position. Entries must be sorted by arrival.
pub fn requests_from_json(text: &str) -> Result<Vec<ServeRequest>, String> {
    let doc = Json::parse(text)?;
    let entries = doc
        .get("requests")
        .and_then(Json::as_array)
        .ok_or("trace must be an object with a \"requests\" array")?;
    let mut out = Vec::with_capacity(entries.len());
    for (id, entry) in entries.iter().enumerate() {
        let field = |key: &str| entry.get(key).ok_or(format!("request {id}: missing \"{key}\""));
        let num = |key: &str| {
            field(key)?.as_f64().ok_or(format!("request {id}: \"{key}\" must be a number"))
        };
        let int = |key: &str| {
            field(key)?.as_usize().ok_or(format!("request {id}: \"{key}\" must be an integer"))
        };
        let arrival = num("arrival")?;
        if !is_key_time(arrival) {
            return Err(format!("request {id}: bad arrival {arrival}"));
        }
        let opt_int = |key: &str| match entry.get(key) {
            None => Ok(None),
            Some(v) => {
                v.as_usize().map(Some).ok_or(format!("request {id}: \"{key}\" must be an integer"))
            }
        };
        let deadline = match entry.get("deadline") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let d = v.as_f64().ok_or(format!("request {id}: \"deadline\" must be a number"))?;
                if !is_key_time(d) {
                    return Err(format!(
                        "request {id}: \"deadline\" = {d} must be a finite, non-negative time"
                    ));
                }
                Some(d)
            }
        };
        let op = match entry.get("op") {
            None | Some(Json::Null) => OpKind::AddI32,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or(format!("request {id}: \"op\" must be an operator-name string"))?;
                OpKind::parse(name).ok_or(format!("request {id}: unknown op \"{name}\""))?
            }
        };
        // Range-check every integer here, so a bad field is an error that
        // names it, never a silent truncation or a panic inside the server.
        let log2 = |key: &str| {
            let v = int(key)?;
            u32::try_from(v).ok().filter(|&v| v < ProblemParams::LOG2_LIMIT).ok_or_else(|| {
                format!(
                    "request {id}: \"{key}\" = {v} must be a log2 size below {}",
                    ProblemParams::LOG2_LIMIT
                )
            })
        };
        let byte = |key: &str| {
            let v = opt_int(key)?.unwrap_or(0);
            u8::try_from(v).map_err(|_| format!("request {id}: \"{key}\" = {v} exceeds 255"))
        };
        let gpus_wanted = opt_int("gpus")?.unwrap_or(1);
        if gpus_wanted == 0 {
            return Err(format!("request {id}: \"gpus\" must be at least 1"));
        }
        out.push(ServeRequest {
            id,
            arrival,
            n: log2("n")?,
            g: log2("g")?,
            gpus_wanted,
            priority: byte("priority")?,
            tenant: byte("tenant")?,
            deadline,
            op,
        });
    }
    for pair in out.windows(2) {
        if pair[1].arrival < pair[0].arrival {
            return Err(format!(
                "trace not sorted by arrival: request {} at {} after {} at {}",
                pair[1].id, pair[1].arrival, pair[0].id, pair[0].arrival
            ));
        }
    }
    Ok(out)
}

/// Render requests back to the JSON trace format (round-trips through
/// [`requests_from_json`]).
pub fn requests_to_json(requests: &[ServeRequest]) -> String {
    let mut out = String::from("{\"requests\": [\n");
    for (i, r) in requests.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"arrival\": {}, \"n\": {}, \"g\": {}, \"gpus\": {}, \"priority\": {}",
            r.arrival, r.n, r.g, r.gpus_wanted, r.priority
        ));
        if r.tenant != 0 {
            out.push_str(&format!(", \"tenant\": {}", r.tenant));
        }
        if let Some(d) = r.deadline {
            out.push_str(&format!(", \"deadline\": {d}"));
        }
        if r.op != OpKind::AddI32 {
            out.push_str(&format!(", \"op\": \"{}\"", r.op));
        }
        out.push('}');
        if i + 1 < requests.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_sorted() {
        let spec = WorkloadSpec::default_for(7, 50);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.gpus_wanted.is_power_of_two() && r.gpus_wanted <= 4));
        assert!(a.iter().all(|r| (10..=13).contains(&r.n) && r.g <= 3));
        assert_ne!(a, WorkloadSpec::default_for(8, 50).generate());
    }

    #[test]
    fn some_requests_carry_deadlines() {
        let reqs = WorkloadSpec::default_for(7, 200).generate();
        let with = reqs.iter().filter(|r| r.deadline.is_some()).count();
        assert!(with > 10 && with < 190, "~1/4 of requests have deadlines, got {with}");
        assert!(reqs.iter().filter_map(|r| r.deadline.map(|d| (r.arrival, d))).all(|(a, d)| d > a));
    }

    #[test]
    fn request_input_is_stable_per_id() {
        assert_eq!(request_input(7, 3, 64), request_input(7, 3, 64));
        assert_ne!(request_input(7, 3, 64), request_input(7, 4, 64));
        // A prefix of a longer draw equals the shorter draw (same stream).
        assert_eq!(request_input(7, 3, 128)[..64], request_input(7, 3, 64)[..]);
    }

    #[test]
    fn json_round_trip() {
        let reqs = WorkloadSpec::default_for(11, 20).generate();
        let parsed = requests_from_json(&requests_to_json(&reqs)).unwrap();
        assert_eq!(parsed, reqs);
    }

    #[test]
    fn default_workload_is_pure_i32_sum() {
        let reqs = WorkloadSpec::default_for(7, 100).generate();
        assert!(reqs.iter().all(|r| r.op == OpKind::AddI32));
    }

    #[test]
    fn mixed_workload_draws_every_kind_deterministically() {
        let spec = WorkloadSpec::mixed_ops_for(7, 200);
        let a = spec.generate();
        assert_eq!(a, spec.generate());
        for kind in OpKind::all() {
            assert!(a.iter().any(|r| r.op == kind), "mix must exercise {kind} in 200 draws");
        }
    }

    #[test]
    fn json_round_trips_operators() {
        let reqs = WorkloadSpec::mixed_ops_for(13, 30).generate();
        let text = requests_to_json(&reqs);
        assert_eq!(requests_from_json(&text).unwrap(), reqs);
        // The default op is omitted from the rendering; others are named.
        assert!(!text.contains("add_i32"));
        assert!(text.contains("\"op\""));
        assert!(requests_from_json(
            r#"{"requests": [{"arrival": 0.0, "n": 10, "g": 0, "op": "nope"}]}"#
        )
        .unwrap_err()
        .contains("unknown op"));
    }

    #[test]
    fn typed_inputs_are_stable_per_id() {
        assert_eq!(request_input_f64(7, 3, 64), request_input_f64(7, 3, 64));
        assert_eq!(request_input_seg(7, 3, 64), request_input_seg(7, 3, 64));
        assert_eq!(request_input_gated(7, 3, 64), request_input_gated(7, 3, 64));
        assert_ne!(request_input_gated(7, 3, 64), request_input_gated(7, 4, 64));
        assert!(request_input_gated(7, 3, 256)
            .iter()
            .all(|p| (0.999..=1.0).contains(&p.a) && (-1.0..=1.0).contains(&p.b)));
        let segs = request_input_seg(7, 5, 4096);
        let resets = segs.iter().filter(|p| p.reset).count();
        assert!(resets > 256 && resets < 1024, "~1/8 resets, got {resets}");
    }

    #[test]
    fn json_defaults_and_errors() {
        let ok =
            requests_from_json(r#"{"requests": [{"arrival": 0.5, "n": 11, "g": 1}]}"#).unwrap();
        assert_eq!(ok[0].gpus_wanted, 1);
        assert_eq!(ok[0].priority, 0);
        assert_eq!(ok[0].deadline, None);
        assert!(requests_from_json("[]").is_err());
        assert!(requests_from_json(r#"{"requests": [{"n": 11, "g": 1}]}"#).is_err());
        // `-0` would sort after every positive arrival under the policy keys.
        for arrival in ["-1e-6", "-0", "1e999"] {
            let trace = format!(r#"{{"requests": [{{"arrival": {arrival}, "n": 11, "g": 1}}]}}"#);
            assert!(requests_from_json(&trace).unwrap_err().contains("request 0: bad arrival"));
        }
        let unsorted = r#"{"requests": [
            {"arrival": 1.0, "n": 11, "g": 1},
            {"arrival": 0.5, "n": 11, "g": 1}
        ]}"#;
        assert!(requests_from_json(unsorted).unwrap_err().contains("not sorted"));
        // Out-of-range integers are errors naming the request and field:
        // never truncated to fit, never left to panic in the pool or the
        // problem constructor.
        for (entry, field) in [
            (r#"{"arrival": 0, "n": 11, "g": 1, "tenant": 300}"#, "tenant"),
            (r#"{"arrival": 0, "n": 11, "g": 1, "priority": 260}"#, "priority"),
            (r#"{"arrival": 0, "n": 4294967308, "g": 1}"#, "n"),
            (r#"{"arrival": 0, "n": 40, "g": 1}"#, "n"),
            (r#"{"arrival": 0, "n": 11, "g": 40}"#, "g"),
            (r#"{"arrival": 0, "n": 11, "g": 1, "gpus": 0}"#, "gpus"),
            // A negative or infinite deadline would sort after every finite
            // one under EDF's bit-pattern key.
            (r#"{"arrival": 0, "n": 11, "g": 1, "deadline": -1.0}"#, "deadline"),
            (r#"{"arrival": 0, "n": 11, "g": 1, "deadline": -0}"#, "deadline"),
            (r#"{"arrival": 0, "n": 11, "g": 1, "deadline": 1e999}"#, "deadline"),
        ] {
            let err = requests_from_json(&format!(r#"{{"requests": [{entry}]}}"#)).unwrap_err();
            assert!(err.contains(&format!("request 0: \"{field}\"")), "{entry}: {err}");
        }
        // Deep nesting is a parse error, not a stack overflow.
        assert!(requests_from_json(&"[".repeat(1 << 20)).is_err());
    }
}
