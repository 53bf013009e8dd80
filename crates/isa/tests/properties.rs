//! Property-based tests of the ISA: encoding totality and machine
//! determinism.

use proptest::prelude::*;
use wtnc_isa::{
    asm, decode, encode, Engine, Inst, Machine, MachineConfig, NoSyscalls, Program, StepOutcome,
};

fn arb_reg() -> impl Strategy<Value = u8> {
    0u8..16
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        Just(Inst::Ret),
        (arb_reg(), any::<u16>()).prop_map(|(rd, imm)| Inst::Movi { rd, imm }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Inst::Mov { rd, rs }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Inst::Seqz { rd, rs }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs, rt)| Inst::Add { rd, rs, rt }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs, rt)| Inst::Sub { rd, rs, rt }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs, rt)| Inst::Mul { rd, rs, rt }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs, rt)| Inst::Divu { rd, rs, rt }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs, rt)| Inst::And { rd, rs, rt }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs, rt)| Inst::Or { rd, rs, rt }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs, rt)| Inst::Xor { rd, rs, rt }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rd, rs, imm)| Inst::Addi { rd, rs, imm }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rd, rs, imm)| Inst::Andi { rd, rs, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rd, rs, imm)| Inst::Ld { rd, rs, imm }),
        (arb_reg(), arb_reg(), any::<i16>()).prop_map(|(rs, rt, imm)| Inst::St { rs, rt, imm }),
        (arb_reg(), any::<u16>()).prop_map(|(rd, addr)| Inst::Ldt { rd, addr }),
        any::<u16>().prop_map(|addr| Inst::Jmp { addr }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rs, rt, addr)| Inst::Beq { rs, rt, addr }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rs, rt, addr)| Inst::Bne { rs, rt, addr }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rs, rt, addr)| Inst::Blt { rs, rt, addr }),
        (arb_reg(), arb_reg(), any::<u16>()).prop_map(|(rs, rt, addr)| Inst::Bge { rs, rt, addr }),
        any::<u16>().prop_map(|addr| Inst::Call { addr }),
        arb_reg().prop_map(|rs| Inst::Callr { rs }),
        arb_reg().prop_map(|rs| Inst::Jr { rs }),
        any::<u8>().prop_map(|num| Inst::Sys { num }),
        (arb_reg(), any::<u16>()).prop_map(|(rs, table)| Inst::Pckt { rs, table }),
    ]
}

proptest! {
    /// Every instruction round-trips through its encoding exactly.
    #[test]
    fn encode_decode_round_trip(inst in arb_inst()) {
        prop_assert_eq!(decode(encode(inst)), Ok(inst));
    }

    /// Strict decoding: any 32-bit word either decodes to an
    /// instruction whose re-encoding is bit-identical, or errors.
    /// (No word decodes "loosely".)
    #[test]
    fn decode_is_strict(word in any::<u32>()) {
        if let Ok(inst) = decode(word) {
            prop_assert_eq!(encode(inst), word);
        }
    }

    /// The machine is deterministic: two runs of the same program with
    /// the same thread layout retire identical step counts and end in
    /// identical register states.
    #[test]
    fn machine_is_deterministic(
        seed_vals in prop::collection::vec(any::<u16>(), 1..8),
        threads in 1usize..4,
    ) {
        // A small, always-terminating program parameterized by data.
        let mut src = String::from("start:\n");
        for (i, v) in seed_vals.iter().enumerate() {
            src.push_str(&format!("    movi r{}, {}\n", 1 + (i % 6), v));
            src.push_str(&format!("    add r7, r7, r{}\n", 1 + (i % 6)));
        }
        src.push_str("    movi r9, 5\nloop:\n    addi r9, r9, -1\n    bne r9, r0, loop\n    halt\n");
        let program = asm::assemble_source(&src).unwrap();

        let run = || {
            let mut m = Machine::load(&program, MachineConfig::default());
            for _ in 0..threads {
                m.spawn_thread(program.entry);
            }
            m.run(&mut NoSyscalls, 100_000);
            let regs: Vec<Vec<u64>> = (0..threads)
                .map(|t| (0..16).map(|r| m.reg(t, r).unwrap()).collect())
                .collect();
            (m.total_steps(), regs)
        };
        prop_assert_eq!(run(), run());
    }

    /// The predecoded engine and the word-at-a-time engine produce
    /// identical step-outcome traces (including exception PCs and
    /// kinds) and identical final register/memory/step state — for
    /// random programs, random undecodable words, and random mid-run
    /// text corruptions, which must invalidate the decoded cache.
    #[test]
    fn predecoded_engine_is_trace_identical(
        text in prop::collection::vec(
            prop_oneof![
                arb_inst().prop_map(encode),
                arb_inst().prop_map(encode),
                arb_inst().prop_map(encode),
                arb_inst().prop_map(encode),
                any::<u32>(),
            ],
            4..48,
        ),
        threads in 1usize..3,
        corruptions in prop::collection::vec(
            (0u64..1_500, any::<prop::sample::Index>(), any::<u32>()),
            0..4,
        ),
    ) {
        let program =
            Program { text, symbols: std::collections::BTreeMap::new(), entry: 0 };
        let mk = |engine: Engine| {
            let mut m = Machine::load(&program, MachineConfig { engine });
            for _ in 0..threads {
                m.spawn_thread(program.entry);
            }
            m
        };
        let mut fast = mk(Engine::Decoded);
        let mut slow = mk(Engine::Slow);
        for step in 0..1_500u64 {
            for &(at, ref idx, word) in &corruptions {
                if at == step {
                    let addr = idx.index(program.text.len());
                    fast.store_text(addr, word);
                    slow.store_text(addr, word);
                }
            }
            let a = fast.step(&mut NoSyscalls);
            let b = slow.step(&mut NoSyscalls);
            prop_assert_eq!(a, b, "trace diverged at step {}", step);
            if a == StepOutcome::Idle {
                break;
            }
        }
        prop_assert_eq!(fast.total_steps(), slow.total_steps());
        prop_assert_eq!(fast.text(), slow.text());
        for t in 0..threads {
            prop_assert_eq!(fast.thread_state(t), slow.thread_state(t));
            prop_assert_eq!(fast.pc(t), slow.pc(t));
            prop_assert_eq!(fast.thread_steps(t), slow.thread_steps(t));
            for r in 0..16 {
                prop_assert_eq!(fast.reg(t, r), slow.reg(t, r));
            }
            prop_assert_eq!(fast.data(t), slow.data(t));
        }
    }

    /// Assembled programs never contain words that fail to decode
    /// (data words emitted via `.word` excluded by construction here).
    #[test]
    fn assembler_emits_decodable_text(n in 1usize..20) {
        let mut src = String::from("start:\n");
        for i in 0..n {
            src.push_str(&format!("    addi r1, r1, {}\n", i % 100));
        }
        src.push_str("    halt\n");
        let program = asm::assemble_source(&src).unwrap();
        for &word in &program.text {
            prop_assert!(decode(word).is_ok());
        }
    }
}
