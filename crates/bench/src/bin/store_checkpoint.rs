//! Checkpoint-cost bench for the incremental checkpoint engine.
//!
//! The tentpole claim of the delta-checkpoint path is that checkpoint
//! cost becomes O(dirty) instead of O(image): a delta serializes only
//! the dirty blocks plus the Merkle nodes on their root paths, while a
//! full image re-MACs and rewrites everything. This bench measures
//! that directly, sweeping image size × dirty fraction:
//!
//! 1. **full vs delta** — wall time to encode a full checkpoint
//!    (`encode_checkpoint_with_tree`) against a delta
//!    (`update_blocks` + `encode_delta_checkpoint`) at 1%, 10% and
//!    50% dirty blocks;
//! 2. **flat re-MAC vs Merkle path update** — the MAC maintenance
//!    cost alone: rebuilding every leaf + internal node
//!    (`MerkleTree::build`, what the flat-table design had to do)
//!    against recomputing only the dirty leaves' root paths;
//! 3. **O(log n) single-block update** — path-update latency as the
//!    leaf count doubles, with the tree depth alongside;
//! 4. **sw vs hw CRC framing** — journal record framing throughput
//!    under the slice-by-8 and hardware CRC kernels (the journal is
//!    the other half of every checkpoint interval).
//!
//! Gate: with `WTNC_BENCH_ASSERT_SPEEDUP=<x>` set, the bench fails
//! unless the delta path at ≤10% dirty is at least `x`× faster than a
//! full checkpoint on every measured image size. On a single-CPU host
//! the gate is skipped and the artifact is stamped, matching the other
//! speedup-gated benches. `WTNC_BENCH_SMOKE=1` (or `--smoke`) runs a
//! reduced sweep for CI.
//!
//! Emits `results/BENCH_store_checkpoint.json`.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin store_checkpoint
//! ```

use std::time::Instant;

use wtnc::db::{set_crc_kernel_override, CapturedMutation, CrcKernel};
use wtnc::sim::SimRng;
use wtnc::store::{
    encode_checkpoint_with_tree, encode_delta_checkpoint, encode_record, MerkleTree,
};
use wtnc_bench::{host_info_json, median, write_results};

const KEY: [u8; 16] = *b"bench-ckpt-key16";
const BLOCK: usize = 256;

fn filled(len: usize, rng: &mut SimRng) -> Vec<u8> {
    let mut v = vec![0u8; len];
    for chunk in v.chunks_mut(8) {
        let b = rng.bits().to_le_bytes();
        chunk.copy_from_slice(&b[..chunk.len()]);
    }
    v
}

/// Evenly spread `count` dirty leaf indices over `leaf_count`, and
/// scribble on the corresponding content bytes so the delta has real
/// changes to carry.
fn dirty_leaves(
    region: &mut [u8],
    golden: &mut [u8],
    leaf_count: usize,
    count: usize,
    rng: &mut SimRng,
) -> Vec<usize> {
    let count = count.clamp(1, leaf_count);
    let mut dirty = Vec::with_capacity(count);
    for k in 0..count {
        let leaf = k * leaf_count / count;
        dirty.push(leaf);
        let start = leaf * BLOCK;
        let r = region.len();
        let content_len = r + golden.len();
        for off in (start..(start + BLOCK).min(content_len)).step_by(16) {
            let byte = rng.bits() as u8;
            if off < r {
                region[off] ^= byte | 1;
            } else {
                golden[off - r] ^= byte | 1;
            }
        }
    }
    dirty
}

fn main() {
    let smoke =
        std::env::var("WTNC_BENCH_SMOKE").is_ok() || std::env::args().any(|a| a == "--smoke");
    let gate: Option<f64> =
        std::env::var("WTNC_BENCH_ASSERT_SPEEDUP").ok().and_then(|s| s.parse().ok());
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let reps = if smoke { 3 } else { 15 };
    let sizes: &[usize] =
        if smoke { &[64 << 10, 256 << 10] } else { &[64 << 10, 256 << 10, 1 << 20] };
    let dirty_pcts = [1usize, 10, 50];

    println!("Incremental checkpoint cost bench ({} rep(s)/cell)\n", reps);
    println!(
        "{:>10} {:>7} {:>10} {:>10} {:>9} {:>12} {:>12} {:>11} {:>11}",
        "image (B)",
        "dirty%",
        "full (ms)",
        "delta (ms)",
        "speedup",
        "rebuild (ms)",
        "update (ms)",
        "full (B)",
        "delta (B)"
    );

    let mut sweep_jsons: Vec<String> = Vec::new();
    let mut gate_ok = true;
    let mut gate_worst = f64::INFINITY;
    for &total in sizes {
        let mut rng = SimRng::seed_from(0xC4EC_0000 + total as u64);
        let region_len = total / 2;
        let mut region = filled(region_len, &mut rng);
        let mut golden = filled(total - region_len, &mut rng);
        let leaf_count = total.div_ceil(BLOCK);
        for &pct in &dirty_pcts {
            let n_dirty = (leaf_count * pct / 100).max(1);
            let mut full_ms = Vec::with_capacity(reps);
            let mut delta_ms = Vec::with_capacity(reps);
            let mut rebuild_ms = Vec::with_capacity(reps);
            let mut update_ms = Vec::with_capacity(reps);
            let mut full_bytes = 0usize;
            let mut delta_bytes = 0usize;
            for _ in 0..reps {
                // A fresh full image + tree is the delta's base.
                let (full, base_tree) =
                    encode_checkpoint_with_tree(&region, &golden, 1, 0, BLOCK, &KEY);
                full_bytes = full.len();

                let dirty = dirty_leaves(&mut region, &mut golden, leaf_count, n_dirty, &mut rng);

                // Full path: encode the whole image again.
                let t = Instant::now();
                let (full2, _) = encode_checkpoint_with_tree(&region, &golden, 2, 0, BLOCK, &KEY);
                full_ms.push(t.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(&full2);

                // Delta path: root-path updates + dirty-block encode.
                let mut tree = base_tree.clone();
                let t = Instant::now();
                let updates = tree.update_blocks(&region, &golden, &dirty);
                update_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let updates2 = {
                    let mut t2 = base_tree.clone();
                    t2.update_blocks(&region, &golden, &dirty)
                };
                let delta = encode_delta_checkpoint(
                    &region, &golden, 2, 0, 1, BLOCK, &dirty, &updates2, &KEY,
                );
                delta_ms.push(t.elapsed().as_secs_f64() * 1e3);
                delta_bytes = delta.len();
                std::hint::black_box((&delta, &updates));

                // Flat-table equivalent: re-MAC everything from scratch.
                let t = Instant::now();
                let rebuilt = MerkleTree::build(&KEY, &region, &golden, 2, BLOCK);
                rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(&rebuilt);
            }
            let full = median(&mut full_ms);
            let delta = median(&mut delta_ms);
            let rebuild = median(&mut rebuild_ms);
            let update = median(&mut update_ms);
            let speedup = full / delta.max(1e-9);
            println!(
                "{total:>10} {pct:>7} {full:>10.4} {delta:>10.4} {speedup:>8.1}x \
                 {rebuild:>12.4} {update:>12.4} {full_bytes:>11} {delta_bytes:>11}"
            );
            sweep_jsons.push(format!(
                "    {{\"image_bytes\": {total}, \"dirty_pct\": {pct}, \
                 \"full_ms\": {full:.5}, \"delta_ms\": {delta:.5}, \
                 \"speedup\": {speedup:.2}, \"flat_rebuild_ms\": {rebuild:.5}, \
                 \"path_update_ms\": {update:.5}, \"full_bytes\": {full_bytes}, \
                 \"delta_bytes\": {delta_bytes}}}"
            ));
            if pct <= 10 {
                gate_worst = gate_worst.min(speedup);
                if let Some(x) = gate {
                    gate_ok &= speedup >= x;
                }
            }
        }
    }

    // O(log n) single-block update curve.
    println!("\nSingle-block root-path update vs leaf count (O(log n))\n");
    println!("{:>10} {:>7} {:>12} {:>14}", "leaves", "depth", "update (us)", "rebuild (us)");
    let mut curve_jsons: Vec<String> = Vec::new();
    let leaf_exps: &[u32] = if smoke { &[8, 10, 12] } else { &[8, 10, 12, 14, 16] };
    for &exp in leaf_exps {
        let leaves = 1usize << exp;
        let total = leaves * BLOCK;
        let mut rng = SimRng::seed_from(0x106_0000 + exp as u64);
        let region_len = total / 2;
        let mut region = filled(region_len, &mut rng);
        let golden = filled(total - region_len, &mut rng);
        let base = MerkleTree::build(&KEY, &region, &golden, 1, BLOCK);
        let depth = base.depth();
        let mut update_us = Vec::with_capacity(reps);
        let mut rebuild_us = Vec::with_capacity(reps);
        for _ in 0..reps {
            let victim = rng.index(region_len);
            region[victim] ^= 0x5A;
            let mut tree = base.clone();
            let t = Instant::now();
            let updates = tree.update_blocks(&region, &golden, &[victim / BLOCK]);
            update_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&updates);
            let t = Instant::now();
            let rebuilt = MerkleTree::build(&KEY, &region, &golden, 1, BLOCK);
            rebuild_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&rebuilt);
        }
        let update = median(&mut update_us);
        let rebuild = median(&mut rebuild_us);
        println!("{leaves:>10} {depth:>7} {update:>12.2} {rebuild:>14.2}");
        curve_jsons.push(format!(
            "    {{\"leaves\": {leaves}, \"depth\": {depth}, \
             \"update_us\": {update:.3}, \"rebuild_us\": {rebuild:.3}}}"
        ));
    }

    // Journal framing: sw vs hw CRC kernel throughput.
    println!("\nJournal framing throughput (CRC kernel sweep)\n");
    let mut rng = SimRng::seed_from(0xF4A3);
    let records: Vec<CapturedMutation> = (0..if smoke { 256 } else { 2048 })
        .map(|i| CapturedMutation {
            gen: i as u64,
            offset: rng.index(1 << 16),
            bytes: filled(64 + rng.index(192), &mut rng),
            golden: i % 4 == 0,
        })
        .collect();
    let payload: usize = records.iter().map(|m| m.bytes.len()).sum();
    let mut crc_jsons: Vec<String> = Vec::new();
    for (kernel, name) in [(CrcKernel::Slice8, "slice8"), (CrcKernel::Hardware, "hardware")] {
        set_crc_kernel_override(Some(kernel));
        let mut mibs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            let mut total = 0usize;
            for m in &records {
                total += encode_record(m).len();
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(total);
            mibs.push(payload as f64 / (1 << 20) as f64 / secs.max(1e-12));
        }
        let rate = median(&mut mibs);
        println!("  {name:<9} {rate:>10.1} MiB/s over {payload} payload bytes");
        crc_jsons.push(format!("    {{\"kernel\": \"{name}\", \"mib_per_s\": {rate:.2}}}"));
    }
    set_crc_kernel_override(None);

    // The gate.
    let single_cpu = cpus < 2;
    let gate_json = match gate {
        Some(x) if single_cpu => {
            println!(
                "\nspeedup gate: skipped on a single-CPU host (worst delta@<=10% dirty \
                 speedup measured {gate_worst:.1}x, target {x:.1}x)"
            );
            format!(
                "{{\"target\": {x:.2}, \"worst_speedup\": {gate_worst:.2}, \
                 \"single_cpu_fallback\": true, \"passed\": null}}"
            )
        }
        Some(x) => {
            println!(
                "\nspeedup gate: delta@<=10% dirty worst {gate_worst:.1}x vs target {x:.1}x -> {}",
                if gate_ok { "PASS" } else { "FAIL" }
            );
            format!(
                "{{\"target\": {x:.2}, \"worst_speedup\": {gate_worst:.2}, \
                 \"single_cpu_fallback\": false, \"passed\": {gate_ok}}}"
            )
        }
        None => format!("{{\"target\": null, \"worst_speedup\": {gate_worst:.2}}}"),
    };

    let json = format!(
        "{{\n  \"bench\": \"store_checkpoint\",\n  \"host\": {},\n  \"smoke\": {smoke},\n  \
         \"block_size\": {BLOCK},\n  \"sweep\": [\n{}\n  ],\n  \
         \"single_block_update\": [\n{}\n  ],\n  \"journal_crc\": [\n{}\n  ],\n  \
         \"gate\": {gate_json}\n}}\n",
        host_info_json(),
        sweep_jsons.join(",\n"),
        curve_jsons.join(",\n"),
        crc_jsons.join(",\n"),
    );
    write_results("store_checkpoint", &json);

    if let Some(x) = gate {
        if !single_cpu {
            assert!(
                gate_ok,
                "delta checkpoint at <=10% dirty must be at least {x}x faster than a full \
                 checkpoint (worst measured {gate_worst:.2}x)"
            );
        }
    }
}
