//! The central PECOS property: instrumentation never changes the
//! observable behaviour of a correct program.

use proptest::prelude::*;
use wtnc_isa::{asm::Assembly, Engine, Machine, MachineConfig, NoSyscalls, ThreadState};
use wtnc_pecos::instrument;

/// Generates a random structured program that always terminates:
/// straight-line arithmetic, forward conditional skips, a bounded
/// countdown loop, and calls to generated leaf functions — every CFI
/// class except indirect jumps (covered by a dedicated strategy).
fn arb_program() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((0u8..5, any::<u16>()), 1..12), // body ops
        1u16..9,                                              // loop iterations
        prop::collection::vec(0u8..3, 0..3),                  // leaf functions
        any::<bool>(),                                        // use indirect dispatch
    )
        .prop_map(|(body, iters, leaves, indirect)| {
            let mut src = String::from("start:\n");
            let mut any_call = false;
            src.push_str(&format!("    movi r9, {iters}\n"));
            src.push_str("main_loop:\n");
            for (i, (op, imm)) in body.iter().enumerate() {
                let imm = imm % 1000;
                match op {
                    0 => src.push_str(&format!("    movi r{}, {}\n", 1 + (i % 5), imm)),
                    1 => src.push_str(&format!("    add r6, r6, r{}\n", 1 + (i % 5))),
                    2 => src.push_str(&format!("    addi r7, r7, {}\n", imm % 50)),
                    3 => {
                        // forward conditional skip
                        src.push_str(&format!(
                            "    blt r6, r7, skip_{i}\n    addi r6, r6, 1\nskip_{i}:\n"
                        ));
                    }
                    _ => {
                        if !leaves.is_empty() {
                            src.push_str(&format!("    call leaf_{}\n", i % leaves.len()));
                            any_call = true;
                        } else {
                            src.push_str("    addi r8, r8, 2\n");
                        }
                    }
                }
            }
            src.push_str("    addi r9, r9, -1\n    bne r9, r0, main_loop\n");
            if indirect && !leaves.is_empty() {
                src.push_str("    movi r4, leaf_0\n");
                src.push_str(&format!(
                    "    .targets {}\n",
                    (0..leaves.len()).map(|k| format!("leaf_{k}")).collect::<Vec<_>>().join(", ")
                ));
                src.push_str("    callr r4\n");
                any_call = true;
            }
            src.push_str("    halt\n");
            // Leaf bodies contain `ret`, which PECOS rejects in a
            // program with no call sites — emit them only when reachable.
            if any_call {
                for (k, kind) in leaves.iter().enumerate() {
                    src.push_str(&format!("leaf_{k}:\n"));
                    match kind {
                        0 => src.push_str("    addi r8, r8, 7\n"),
                        1 => src.push_str("    add r8, r8, r6\n"),
                        _ => src.push_str("    movi r5, 3\n    mul r8, r8, r5\n"),
                    }
                    src.push_str("    ret\n");
                }
            }
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every generated program, the instrumented binary halts with
    /// the same application-visible register file as the plain one.
    #[test]
    fn instrumentation_preserves_semantics(src in arb_program()) {
        let asm = Assembly::parse(&src).unwrap();
        let plain = asm.assemble().unwrap();
        let inst = instrument(&asm).unwrap();

        let mut m1 = Machine::load(&plain, MachineConfig::default());
        let t1 = m1.spawn_thread(plain.entry);
        m1.run(&mut NoSyscalls, 1_000_000);

        let mut m2 = Machine::load(&inst.program, MachineConfig::default());
        let t2 = m2.spawn_thread(inst.program.entry);
        m2.run(&mut NoSyscalls, 1_000_000);

        prop_assert_eq!(m1.thread_state(t1), ThreadState::Halted);
        prop_assert_eq!(m2.thread_state(t2), ThreadState::Halted);
        // r0-r10 are application registers; r11-r13 are PECOS scratch;
        // r14 unused; r15 (stack) must be balanced in both. r4 is the
        // generated programs' dispatch-pointer register — it holds a
        // *code address*, which legitimately differs after relocation.
        for r in (0..=10).filter(|&r| r != 4).chain(std::iter::once(15)) {
            prop_assert_eq!(m1.reg(t1, r), m2.reg(t2, r), "register r{} diverged", r);
        }
        // Instrumentation is never free.
        prop_assert!(inst.meta.instrumented_words >= inst.meta.original_words);
    }

    /// The fused-superstep fast path is observationally identical to
    /// the word-at-a-time engine on instrumented programs: same final
    /// run outcome, same thread state, same full register file
    /// (scratch registers included), same PC, same retired-step
    /// counts — with and without a corrupted CFI word in the text.
    #[test]
    fn fused_fast_path_matches_slow_engine(
        src in arb_program(),
        corrupt in prop_oneof![
            Just(None),
            (any::<prop::sample::Index>(), 0u32..16).prop_map(Some),
        ],
    ) {
        let asm = Assembly::parse(&src).unwrap();
        let inst = instrument(&asm).unwrap();

        let cfis: Vec<usize> = (0..inst.program.len())
            .filter(|&a| {
                wtnc_isa::decode(inst.program.text[a]).map(|i| i.is_cfi()).unwrap_or(false)
            })
            .collect();
        let corruption = corrupt.map(|(idx, bit)| {
            let addr = cfis[idx.index(cfis.len())];
            (addr, inst.program.text[addr] ^ (1 << bit))
        });

        let run = |engine: Engine, fused: bool| {
            let mut m =
                Machine::load(&inst.program, MachineConfig { engine, ..MachineConfig::default() });
            if fused {
                inst.meta.install_fast_path(&mut m);
            }
            if let Some((addr, word)) = corruption {
                m.store_text(addr, word);
            }
            let t = m.spawn_thread(inst.program.entry);
            let out = m.run(&mut NoSyscalls, 1_000_000);
            let regs: Vec<u64> = (0..16).map(|r| m.reg(t, r).unwrap()).collect();
            (
                (out, m.thread_state(t), m.pc(t), regs, m.total_steps(), m.thread_steps(t)),
                m.fused_supersteps(),
            )
        };

        let (slow, _) = run(Engine::Slow, false);
        let (fast, _) = run(Engine::Decoded, false);
        let (fused, supersteps) = run(Engine::Decoded, true);
        prop_assert_eq!(&slow, &fast, "predecoded engine diverged from slow engine");
        prop_assert_eq!(&slow, &fused, "fused superstep diverged from slow engine");
        // The parity above must not be vacuous: every generated program
        // has at least one protected CFI on the single-threaded hot
        // path, so fusion must actually have happened.
        prop_assert!(supersteps > 0, "fused engine never fused an assertion block");
    }

    /// Assertion ranges never overlap and never cover the entry point.
    #[test]
    fn assertion_ranges_are_disjoint(src in arb_program()) {
        let asm = Assembly::parse(&src).unwrap();
        let inst = instrument(&asm).unwrap();
        let ranges = &inst.meta.assertion_ranges;
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "ranges overlap: {:?}", w);
        }
        prop_assert!(!inst.meta.is_assertion_pc(inst.program.entry));
    }
}
