//! Stream compaction — the classic scan application (the paper's §1: scan
//! "is the building block of different applications").
//!
//! Keeps only the positive elements of a batch of arrays:
//! 1. build a 0/1 flag per element;
//! 2. **exclusive-scan** the flags — each kept element's output position;
//! 3. scatter the kept elements to their positions.
//!
//! Steps 1 and 3 are trivially parallel; step 2 is this library.
//!
//! ```sh
//! cargo run --release --example stream_compaction
//! ```

use multigpu_scan::prelude::*;

fn main() {
    // 16 sensor streams of 65,536 readings; keep the positive ones.
    let problem = ProblemParams::new(16, 4);
    let readings: Vec<i32> = (0..problem.total_elems())
        .map(|i| (((i as i64).wrapping_mul(2654435761) % 2001) - 1000) as i32)
        .collect();

    let device = DeviceSpec::tesla_k80();
    let base = premises::derive_tuple(&device, 4, 0);
    let k = premises::default_k(&device, &problem, &base, 1).unwrap();

    // Step 1: flags (would be a trivial map kernel on the device).
    let flags: Vec<i32> = readings.iter().map(|&r| i32::from(r > 0)).collect();

    // Step 2: batched exclusive scan of the flags = output positions.
    let positions = ScanRequest::new(Add, problem)
        .device(device)
        .tuple(base.with_k(k))
        .exclusive()
        .run(&flags)
        .expect("scan failed");

    // Step 3: scatter per problem.
    let n = problem.problem_size();
    let mut compacted: Vec<Vec<i32>> = Vec::new();
    for g in 0..problem.batch() {
        let flag_row = &flags[g * n..(g + 1) * n];
        let pos_row = &positions.data[g * n..(g + 1) * n];
        let kept = pos_row.last().copied().unwrap_or(0) + flag_row.last().copied().unwrap_or(0);
        let mut out = vec![0i32; kept as usize];
        for i in 0..n {
            if flag_row[i] == 1 {
                out[pos_row[i] as usize] = readings[g * n + i];
            }
        }
        compacted.push(out);
    }

    // Validate against the obvious sequential filter.
    for (g, out) in compacted.iter().enumerate() {
        let expected: Vec<i32> =
            readings[g * n..(g + 1) * n].iter().copied().filter(|&r| r > 0).collect();
        assert_eq!(out, &expected, "stream {g}");
    }

    let total_kept: usize = compacted.iter().map(|c| c.len()).sum();
    println!(
        "compacted {} streams: kept {total_kept} of {} readings ({:.1}%)",
        problem.batch(),
        problem.total_elems(),
        100.0 * total_kept as f64 / problem.total_elems() as f64
    );
    println!(
        "scan phase: {:.3} ms simulated, {:.0} Melem/s",
        positions.report.seconds() * 1e3,
        positions.report.throughput() / 1e6
    );
}
