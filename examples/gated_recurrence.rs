//! Serving gated recurrences: an SSM-style workload end-to-end.
//!
//! State-space-model inference solves the first-order recurrence
//! `x[t] = gate[t] · x[t-1] + token[t]` over long sequences. That
//! recurrence is a scan under the affine-pair monoid ([`GatedOp`]):
//! each step carries `(a, b)` with composition
//! `(a2·a1, a2·b1 + b2)`, and the scanned pair's `b` component *is*
//! the state trajectory. This example runs a whole window of such
//! sequences through the multi-tenant scheduler — mixed with ordinary
//! sum requests, as a serving fleet would see them — then checks every
//! served trajectory against the naive sequential loop and exports the
//! fleet schedule as a Perfetto trace.
//!
//! ```sh
//! cargo run --release --example gated_recurrence [-- OUT_DIR]
//! ```
//!
//! Load the written `gated_serve.trace.json` in <https://ui.perfetto.dev>:
//! one track per GPU stream, phases labelled per launch, gated and sum
//! launches interleaved on the shared cluster.

use multigpu_scan::prelude::*;
use multigpu_scan::serve::request_input;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "target/traces".into());
    std::fs::create_dir_all(&dir).expect("create trace dir");

    // A window of 24 requests: mostly gated recurrences (sequences of
    // 2^11..2^12 steps, batched), with plain i32 sums mixed in — the
    // scheduler must keep the two kinds on separate launches while
    // sharing the same GPUs.
    let seed = 17;
    let mut spec = WorkloadSpec::mixed_ops_for(seed, 24);
    spec.op_mix = vec![(OpKind::GatedF64, 3), (OpKind::AddI32, 1)];
    spec.n_range = (11, 12);
    spec.g_range = (0, 2);
    let requests = spec.generate();

    let mut config = ServeConfig::new(Policy::Edf, seed);
    config.keep_outputs = true; // keep trajectories, not just checksums
    let server = Server::new(config);
    let report = server.run(&requests).expect("serve window");

    println!("{}", report.metrics.summary());

    // Every gated completion's output is the exact state trajectory the
    // naive sequential recurrence produces (within f64 rounding; gates
    // sit near 1.0, the well-conditioned SSM regime).
    let mut gated = 0;
    let mut worst = 0.0f64;
    for c in &report.completions {
        if c.request.op != OpKind::GatedF64 {
            continue;
        }
        gated += 1;
        let input = request_input::<AffinePair<f64>>(seed, c.request.id, c.request.total_elems());
        let served =
            c.output.as_ref().and_then(|o| o.get::<AffinePair<f64>>()).expect("kept output");
        let n = c.request.problem().problem_size();
        for (g, chunk) in input.chunks(n).enumerate() {
            let mut x = 0.0f64;
            for (t, p) in chunk.iter().enumerate() {
                x = p.a * x + p.b;
                let got = served[g * n + t].b;
                let err = (got - x).abs() / x.abs().max(1.0);
                assert!(err <= 1e-9, "request {} seq {g} step {t}: {got} vs {x}", c.request.id);
                worst = worst.max(err);
            }
        }
    }
    assert!(gated > 0, "the mix must contain gated requests");
    println!(
        "\n{gated} gated sequences served; every trajectory matches the \
         sequential recurrence (worst relative error {worst:.2e})"
    );

    let path = format!("{dir}/gated_serve.trace.json");
    report.trace.write_chrome_trace(&path).expect("write fleet trace");
    println!("wrote {path} — load it in ui.perfetto.dev");
}
