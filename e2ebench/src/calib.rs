//! A fixed reference workload timed around every episode, so wall times
//! can be expressed at a fixed nominal host speed.
//!
//! The shared hosts this benchmark runs on change speed by up to 2×
//! within a minute, and the controller slows with them. Two kinds of
//! code slow differently: memory-bound scans (the audits, the store)
//! and branchy dispatch (the ISA interpreter). The reference runs one
//! of each — random read-modify-writes over a 4 MiB buffer and a small
//! byte-code interpreter — and dividing a measured time by the
//! reference's time cancels most of the host's drift. The reference is
//! plain std code in this file, so no change to the controller can move
//! it.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one reference run on the host the benchmark was
/// calibrated on (2-CPU x86-64 VM), in ns. Normalized times are "ns at
/// this host speed".
pub const NOMINAL_NS: f64 = 5_000_000.0;

const WORDS: usize = 512 * 1024;
const TOUCHES: usize = 400_000;
const CODE_BYTES: usize = 16 * 1024;
const DISPATCHES: usize = 600_000;

/// The reference workload and its buffers (allocated once, outside any
/// timed region).
#[derive(Debug)]
pub struct Reference {
    words: Vec<u64>,
    code: Vec<u8>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            words: (0..WORDS as u64).collect(),
            code: (0..CODE_BYTES as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect(),
        }
    }
}

impl Reference {
    /// Runs the reference once and returns its wall time in ns.
    pub fn time_ns(&mut self) -> u64 {
        let start = Instant::now();
        black_box(self.memory());
        black_box(self.dispatch());
        start.elapsed().as_nanos() as u64
    }

    /// Random read-modify-writes over the 4 MiB buffer.
    fn memory(&mut self) -> u64 {
        let mut x = 0x1234_5678_9ABC_DEF1u64;
        let mut acc = 0u64;
        for _ in 0..TOUCHES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) % WORDS;
            acc = acc.wrapping_add(self.words[i]);
            self.words[i] = acc;
        }
        acc
    }

    /// A four-instruction byte-code interpreter with data-dependent
    /// branches.
    fn dispatch(&self) -> [u64; 8] {
        let mut regs = [1u64; 8];
        let mut pc = 0usize;
        for _ in 0..DISPATCHES {
            let op = self.code[pc];
            let (a, b) = (usize::from(op >> 3) & 7, usize::from(op) & 7);
            match op >> 6 {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] ^= regs[b].rotate_left(7),
                2 => {
                    if regs[a] & 1 == 0 {
                        pc = (pc + 3) % CODE_BYTES;
                    }
                }
                _ => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            }
            pc = (pc + 1) % CODE_BYTES;
        }
        regs
    }
}
