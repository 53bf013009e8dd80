//! The multi-threaded interpreter.
//!
//! Threads are scheduled round-robin, one instruction per quantum,
//! which both models the paper's multi-threaded call-processing client
//! and creates the injection window it describes: "in the time interval
//! between reaching the breakpoint and restoring the correct
//! instruction, other thread(s) may come and execute the erroneous
//! instruction".
//!
//! Exceptions do not silently kill threads: [`Machine::step`] returns
//! the [`ExceptionInfo`] and parks the thread in
//! [`ThreadState::Faulted`], leaving the *policy* to the caller — the
//! PECOS signal handler checks whether the faulting PC lies inside an
//! assertion block and either terminates just that thread (graceful
//! recovery) or lets the process crash (system detection).

use serde::{Deserialize, Serialize};

use crate::decoded::{DecodedCache, FusedPlan, PlanSlot};
use crate::inst::{decode, Inst};
use crate::program::Program;
use crate::ThreadId;

/// Which execution engine [`Machine::run`] dispatches from. Both are
/// observationally identical — same retired-step counts, exception
/// PCs/kinds, register files and `peek_next` sequences — and differ
/// only in speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Engine {
    /// The original word-at-a-time interpreter: strict decode on every
    /// fetch, round-robin scan on every step. The semantics reference
    /// the parity tests and the overhead bench compare against.
    Slow,
    /// The predecoded cache: decode-once slots, materialized `PCKT`
    /// tables, fused assertion supersteps, batched dispatch. The
    /// default.
    #[default]
    Decoded,
}

impl Engine {
    /// All engines, for A/B matrices.
    pub const ALL: [Engine; 2] = [Engine::Slow, Engine::Decoded];

    /// Parses the CLI spelling (`slow`/`decoded`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "slow" => Some(Engine::Slow),
            "decoded" => Some(Engine::Decoded),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Slow => "slow",
            Engine::Decoded => "decoded",
        }
    }
}

/// Configuration for a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Words of per-thread data memory (stack + locals). The stack
    /// pointer (`r15`) starts here and grows down.
    pub data_words: usize,
    /// Maximum size of a PECOS target table; a stored count above this
    /// is treated as a failed assertion (corrupted table).
    pub max_pckt_table: u32,
    /// The execution engine ([`Engine::Decoded`] by default).
    #[serde(default)]
    pub engine: Engine,
}

impl MachineConfig {
    /// The engine this configuration selects (the same as `engine`;
    /// the end-to-end benchmark's header line reads it).
    pub fn effective_engine(&self) -> Engine {
        self.engine
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { data_words: 4_096, max_pckt_table: 1_024, engine: Engine::default() }
    }
}

/// Superblock-tier activity counters. The superblock tier no longer
/// exists, so both always read zero; the type remains only until the
/// end-to-end benchmark drops its `isa.superblock_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperblockStats {
    /// Block executions (always 0).
    pub entered: u64,
    /// Blocks discarded by text-write invalidation (always 0).
    pub invalidated: u64,
}

/// Why a thread faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExceptionKind {
    /// `DIVU` with a zero divisor, or a failed `PCKT` membership test.
    /// PECOS assertion blocks raise exactly this.
    DivideByZero,
    /// The fetched word did not decode (SIGILL-class).
    IllegalInstruction,
    /// The program counter left the text segment (wild jump;
    /// SIGSEGV-class).
    TextFault {
        /// The bad address.
        addr: u32,
    },
    /// A data-memory access left the thread's data segment
    /// (SIGSEGV-class), including stack overflow/underflow.
    MemoryFault {
        /// The bad word address.
        addr: i64,
    },
}

/// A reported exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExceptionInfo {
    /// The faulting thread.
    pub thread: ThreadId,
    /// Address of the faulting instruction (the PC the signal handler
    /// examines).
    pub pc: u16,
    /// The exception class.
    pub kind: ExceptionKind,
}

/// Lifecycle state of a machine thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Executed `HALT` (normal completion).
    Halted,
    /// Raised an exception; awaiting a policy decision by the caller.
    Faulted(ExceptionKind),
    /// Terminated by a recovery action (e.g. the PECOS signal
    /// handler).
    Killed,
}

/// A syscall captured from a `SYS` instruction: the number and the six
/// argument registers `r1`–`r6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallRequest {
    /// The calling thread.
    pub thread: ThreadId,
    /// Syscall number (the `SYS` immediate).
    pub num: u8,
    /// Argument registers `r1..=r6` at the call.
    pub args: [u64; 6],
}

/// Receiver for `SYS` instructions. The call-processing client's
/// database operations arrive here.
pub trait SyscallHandler {
    /// Handles one syscall; the return value is written to `r1`.
    fn handle(&mut self, req: SyscallRequest) -> u64;
}

/// A handler that ignores every syscall (returns 0).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSyscalls;

impl SyscallHandler for NoSyscalls {
    fn handle(&mut self, _req: SyscallRequest) -> u64 {
        0
    }
}

/// Result of one [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired normally.
    Executed {
        /// The thread that ran.
        thread: ThreadId,
        /// Address of the executed instruction.
        pc: u16,
    },
    /// The running thread raised an exception and is now
    /// [`ThreadState::Faulted`].
    Exception(ExceptionInfo),
    /// No thread is runnable.
    Idle,
}

#[derive(Debug, Clone)]
struct Thread {
    regs: [u64; 16],
    pc: u16,
    data: Vec<u64>,
    state: ThreadState,
    steps: u64,
}

/// The machine: shared mutable text segment plus per-thread register
/// files and data memories.
#[derive(Debug, Clone)]
pub struct Machine {
    text: Vec<u32>,
    threads: Vec<Thread>,
    config: MachineConfig,
    engine: Engine,
    next: usize,
    total_steps: u64,
    supersteps: u64,
    cache: DecodedCache,
}

impl Machine {
    /// Loads a program. Threads must be spawned explicitly.
    pub fn load(program: &Program, config: MachineConfig) -> Self {
        Machine {
            cache: DecodedCache::new(program.text.len()),
            text: program.text.clone(),
            threads: Vec::new(),
            engine: config.effective_engine(),
            config,
            next: 0,
            total_steps: 0,
            supersteps: 0,
        }
    }

    /// Spawns a thread at `entry` with a fresh register file and data
    /// memory; returns its id.
    pub fn spawn_thread(&mut self, entry: u16) -> ThreadId {
        let mut regs = [0u64; 16];
        regs[15] = self.config.data_words as u64; // stack grows down
        self.threads.push(Thread {
            regs,
            pc: entry,
            data: vec![0; self.config.data_words],
            state: ThreadState::Runnable,
            steps: 0,
        });
        self.threads.len() - 1
    }

    /// Shared text segment (read).
    pub fn text(&self) -> &[u32] {
        &self.text
    }

    /// Shared text segment (write) — the injector's escape hatch for
    /// arbitrary mutation. The whole decoded cache is conservatively
    /// invalidated because the caller may write any word through the
    /// returned slice; prefer [`Machine::store_text`] for single-word
    /// writes.
    pub fn text_mut(&mut self) -> &mut [u32] {
        self.cache.invalidate_all();
        &mut self.text
    }

    /// Writes one text word (the injector's corruption primitive) and
    /// invalidates exactly the cached state derived from it: the
    /// word's decoded slot, any fused assertion plan reading it, and
    /// any materialized `PCKT` table containing it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the text segment.
    pub fn store_text(&mut self, addr: usize, word: u32) {
        self.text[addr] = word;
        self.cache.invalidate_word(addr);
    }

    /// Registers the PECOS assertion blocks `[start, end)` (with the
    /// protected CFI at `end`) as candidates for fused superstep
    /// execution in [`Machine::run`]. Blocks whose instructions do not
    /// match a known instrumenter shape — or that are later corrupted
    /// into not matching — simply execute word-at-a-time; installing
    /// regions never changes observable behavior, only speed.
    pub fn install_fused_regions(&mut self, ranges: &[(u16, u16)]) {
        self.cache.install_regions(ranges);
    }

    /// The engine in effect (resolved from the config at load).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Superblock-tier activity: always zero, since the tier is gone.
    /// Kept only until the end-to-end benchmark stops reading it.
    pub fn superblock_stats(&self) -> SuperblockStats {
        SuperblockStats::default()
    }

    /// Per-thread data memory (read) — lets parity tests compare final
    /// memory images across engines.
    pub fn data(&self, t: ThreadId) -> Option<&[u64]> {
        Some(&self.threads.get(t)?.data)
    }

    /// Number of spawned threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// State of a thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` was never spawned.
    pub fn thread_state(&self, t: ThreadId) -> ThreadState {
        self.threads[t].state
    }

    /// Register `r` of thread `t`, or `None` for an unknown thread or
    /// register.
    pub fn reg(&self, t: ThreadId, r: usize) -> Option<u64> {
        self.threads.get(t)?.regs.get(r).copied()
    }

    /// Sets register `r` of thread `t` (test and harness support).
    ///
    /// # Panics
    ///
    /// Panics on an unknown thread or register index.
    pub fn set_reg(&mut self, t: ThreadId, r: usize, v: u64) {
        self.threads[t].regs[r] = v;
    }

    /// Current program counter of a thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` was never spawned.
    pub fn pc(&self, t: ThreadId) -> u16 {
        self.threads[t].pc
    }

    /// Instructions executed by thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` was never spawned.
    pub fn thread_steps(&self, t: ThreadId) -> u64 {
        self.threads[t].steps
    }

    /// Instructions executed across all threads.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Assertion blocks executed as fused supersteps (diagnostic: lets
    /// tests and benches verify the fast path actually engaged).
    pub fn fused_supersteps(&self) -> u64 {
        self.supersteps
    }

    /// Terminates a thread as a recovery action (PECOS signal handler,
    /// manager). The thread will never run again.
    pub fn kill_thread(&mut self, t: ThreadId) {
        if let Some(th) = self.threads.get_mut(t) {
            th.state = ThreadState::Killed;
        }
    }

    /// Returns a faulted thread to the runnable state *at the faulting
    /// instruction* (used by handlers that repair state and retry).
    pub fn resume_thread(&mut self, t: ThreadId) {
        if let Some(th) = self.threads.get_mut(t) {
            if matches!(th.state, ThreadState::Faulted(_)) {
                th.state = ThreadState::Runnable;
            }
        }
    }

    /// True while at least one thread is runnable.
    pub fn has_runnable(&self) -> bool {
        self.threads.iter().any(|t| t.state == ThreadState::Runnable)
    }

    /// The thread the next [`Machine::step`] will run and the address
    /// it will execute, or `None` when idle. The injector uses this as
    /// its breakpoint hook.
    pub fn peek_next(&self) -> Option<(ThreadId, u16)> {
        let n = self.threads.len();
        if n == 0 {
            return None;
        }
        for i in 0..n {
            let idx = (self.next + i) % n;
            if self.threads[idx].state == ThreadState::Runnable {
                return Some((idx, self.threads[idx].pc));
            }
        }
        None
    }

    /// Executes one instruction of the next runnable thread
    /// (round-robin).
    pub fn step(&mut self, sys: &mut dyn SyscallHandler) -> StepOutcome {
        let Some((tid, pc)) = self.peek_next() else {
            return StepOutcome::Idle;
        };
        let n = self.threads.len();
        self.next = (tid + 1) % n;
        self.total_steps += 1;
        self.threads[tid].steps += 1;

        // Fetch.
        let Some(&word) = self.text.get(pc as usize) else {
            return self.fault(tid, pc, ExceptionKind::TextFault { addr: pc as u32 });
        };
        // Decode — through the predecoded cache on the fast path, so
        // strict decoding runs once per word instead of once per step.
        let inst = if self.engine != Engine::Slow {
            match self.cache.decode_at(pc as usize, word) {
                Some(i) => i,
                None => return self.fault(tid, pc, ExceptionKind::IllegalInstruction),
            }
        } else {
            match decode(word) {
                Ok(i) => i,
                Err(_) => return self.fault(tid, pc, ExceptionKind::IllegalInstruction),
            }
        };
        // Execute.
        match self.execute(tid, pc, inst, sys) {
            Ok(()) => StepOutcome::Executed { thread: tid, pc },
            Err(kind) => self.fault(tid, pc, kind),
        }
    }

    /// Runs until `max_steps` instructions have retired, a thread
    /// faults, or the machine goes idle. Returns the last outcome.
    ///
    /// On [`Engine::Decoded`], work reached by the only runnable thread
    /// is dispatched in descending-granularity order — a fused
    /// assertion superstep, then a decoded batch — each declining to
    /// the next tier whenever its exactness preconditions do not hold,
    /// with identical retired-step accounting, register effects, and
    /// fault PCs at every tier.
    pub fn run(&mut self, sys: &mut dyn SyscallHandler, max_steps: u64) -> StepOutcome {
        let mut last = StepOutcome::Idle;
        let mut remaining = max_steps;
        while remaining > 0 {
            if let Some((out, retired)) = self.try_superstep(remaining) {
                remaining -= retired;
                last = out;
            } else if let Some((out, retired)) = self.run_batch(sys, remaining) {
                remaining -= retired;
                last = out;
            } else {
                remaining -= 1;
                last = self.step(sys);
            }
            match last {
                StepOutcome::Executed { .. } => {}
                _ => break,
            }
        }
        last
    }

    /// Fast-path dispatch batch: when exactly one thread is runnable,
    /// steps it repeatedly without the per-step round-robin scan and
    /// modulo arithmetic of [`Machine::step`] — stopping at a fused
    /// region start (handed back to [`Machine::try_superstep`]), a
    /// non-`Executed` outcome, a thread-state change, or the end of the
    /// budget. Bookkeeping (retired counts, `next` rotation, fault
    /// sites) is identical to single-stepping.
    fn run_batch(
        &mut self,
        sys: &mut dyn SyscallHandler,
        remaining: u64,
    ) -> Option<(StepOutcome, u64)> {
        if self.engine == Engine::Slow {
            return None;
        }
        let mut runnable =
            self.threads.iter().enumerate().filter(|(_, t)| t.state == ThreadState::Runnable);
        let (tid, _) = runnable.next()?;
        if runnable.next().is_some() {
            return None;
        }
        let n = self.threads.len();
        self.next = if tid + 1 == n { 0 } else { tid + 1 };
        let mut retired: u64 = 0;
        loop {
            // The first step runs unconditionally: try_superstep already
            // declined this address, so deferring would livelock.
            let pc = self.threads[tid].pc;
            self.total_steps += 1;
            self.threads[tid].steps += 1;
            retired += 1;
            let Some(&word) = self.text.get(pc as usize) else {
                return Some((
                    self.fault(tid, pc, ExceptionKind::TextFault { addr: pc as u32 }),
                    retired,
                ));
            };
            let Some(inst) = self.cache.decode_at(pc as usize, word) else {
                return Some((self.fault(tid, pc, ExceptionKind::IllegalInstruction), retired));
            };
            let last = match self.execute(tid, pc, inst, sys) {
                Ok(()) => StepOutcome::Executed { thread: tid, pc },
                Err(kind) => self.fault(tid, pc, kind),
            };
            if retired == remaining
                || !matches!(last, StepOutcome::Executed { .. })
                || self.threads[tid].state != ThreadState::Runnable
                || self.cache.region_starting_at(self.threads[tid].pc).is_some()
            {
                return Some((last, retired));
            }
        }
    }

    /// Attempts to execute a whole fused assertion block in one go.
    /// Returns the resulting outcome and the number of retired steps,
    /// or `None` to fall back to single-stepping.
    ///
    /// The fusion preconditions keep every observable identical to
    /// word-at-a-time execution: only the sole runnable thread may
    /// fuse (so round-robin interleaving is unaffected), the remaining
    /// budget must cover the whole block (so `max_steps` cutoffs land
    /// on the same instruction), and runtime faults other than the
    /// assertion's own divide-by-zero (e.g. a bad stack pointer under
    /// the `ret` block's load) bail out to the slow path.
    fn try_superstep(&mut self, remaining: u64) -> Option<(StepOutcome, u64)> {
        if self.engine == Engine::Slow || !self.cache.has_regions() {
            return None;
        }
        let mut runnable =
            self.threads.iter().enumerate().filter(|(_, t)| t.state == ThreadState::Runnable);
        let (tid, _) = runnable.next()?;
        if runnable.next().is_some() {
            return None;
        }
        let idx = self.cache.region_starting_at(self.threads[tid].pc)?;
        let (start, end) = self.cache.region(idx);
        let len = u64::from(end - start);
        if remaining < len {
            return None;
        }
        let plan = match self.cache.plan(&self.text, idx) {
            PlanSlot::Ready(p) => p,
            _ => return None,
        };

        // From here on the whole block retires (a failing assertion
        // faults on its last instruction, which still counts).
        let (r12, pass) = match plan {
            FusedPlan::Static { r11, r12, pass } => {
                if let Some(v) = r11 {
                    self.threads[tid].regs[11] = v;
                }
                (r12, pass)
            }
            FusedPlan::StackTable { table } => {
                let sp = self.threads[tid].regs[15];
                if sp as i64 >= self.config.data_words as i64 || (sp as i64) < 0 {
                    return None; // the block's `ld` would memory-fault
                }
                let value = self.threads[tid].data[sp as usize];
                (value, self.table_pass(table, value as u32)?)
            }
            FusedPlan::RegTable { src, table } => {
                let value = self.threads[tid].regs[src as usize & 0xF];
                (value, self.table_pass(table, value as u32)?)
            }
        };

        self.next = (tid + 1) % self.threads.len();
        self.total_steps += len;
        self.supersteps += 1;
        let th = &mut self.threads[tid];
        th.steps += len;
        th.regs[12] = r12;
        if matches!(plan, FusedPlan::Static { .. }) {
            th.regs[13] = pass as u64;
        }
        if pass {
            th.pc = end;
            Some((StepOutcome::Executed { thread: tid, pc: end - 1 }, len))
        } else {
            th.pc = end - 1;
            Some((self.fault(tid, end - 1, ExceptionKind::DivideByZero), len))
        }
    }

    /// Membership result for a fused table check, or `None` when the
    /// table itself is faulty in a way whose exception the slow path
    /// must raise (so the superstep bails out).
    fn table_pass(&mut self, table: u16, value: u32) -> Option<bool> {
        let entry = self.cache.table(&self.text, table, self.config.max_pckt_table);
        match &entry.result {
            Ok(words) => Some(words.binary_search(&value).is_ok()),
            // A corrupted count is a failed assertion (divide-by-zero
            // at the PCKT), which the fail path below raises anyway.
            Err(ExceptionKind::DivideByZero) => Some(false),
            // Text faults have different kinds/addresses: slow path.
            Err(_) => None,
        }
    }

    fn fault(&mut self, tid: ThreadId, pc: u16, kind: ExceptionKind) -> StepOutcome {
        self.threads[tid].state = ThreadState::Faulted(kind);
        StepOutcome::Exception(ExceptionInfo { thread: tid, pc, kind })
    }

    fn execute(
        &mut self,
        tid: ThreadId,
        pc: u16,
        inst: Inst,
        sys: &mut dyn SyscallHandler,
    ) -> Result<(), ExceptionKind> {
        let data_words = self.config.data_words as i64;
        let next_pc = pc.wrapping_add(1);
        // Helper closures cannot borrow self twice; work on the thread
        // via index.
        macro_rules! th {
            () => {
                self.threads[tid]
            };
        }
        let r = |t: &Thread, i: u8| t.regs[i as usize & 0xF];
        let mem_addr = |base: u64, off: i16| -> Result<usize, ExceptionKind> {
            let addr = base as i64 + off as i64;
            if addr < 0 || addr >= data_words {
                Err(ExceptionKind::MemoryFault { addr })
            } else {
                Ok(addr as usize)
            }
        };

        match inst {
            Inst::Nop => th!().pc = next_pc,
            Inst::Halt => th!().state = ThreadState::Halted,
            Inst::Movi { rd, imm } => {
                th!().regs[rd as usize & 0xF] = imm as u64;
                th!().pc = next_pc;
            }
            Inst::Mov { rd, rs } => {
                let v = r(&th!(), rs);
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Add { rd, rs, rt } => {
                let v = r(&th!(), rs).wrapping_add(r(&th!(), rt));
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Sub { rd, rs, rt } => {
                let v = r(&th!(), rs).wrapping_sub(r(&th!(), rt));
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Mul { rd, rs, rt } => {
                let v = r(&th!(), rs).wrapping_mul(r(&th!(), rt));
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Divu { rd, rs, rt } => {
                let divisor = r(&th!(), rt);
                if divisor == 0 {
                    return Err(ExceptionKind::DivideByZero);
                }
                let v = r(&th!(), rs) / divisor;
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::And { rd, rs, rt } => {
                let v = r(&th!(), rs) & r(&th!(), rt);
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Or { rd, rs, rt } => {
                let v = r(&th!(), rs) | r(&th!(), rt);
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Xor { rd, rs, rt } => {
                let v = r(&th!(), rs) ^ r(&th!(), rt);
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Addi { rd, rs, imm } => {
                let v = r(&th!(), rs).wrapping_add(imm as i64 as u64);
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Andi { rd, rs, imm } => {
                let v = r(&th!(), rs) & imm as u64;
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Seqz { rd, rs } => {
                let v = (r(&th!(), rs) == 0) as u64;
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::Ld { rd, rs, imm } => {
                let addr = mem_addr(r(&th!(), rs), imm)?;
                let v = th!().data[addr];
                th!().regs[rd as usize & 0xF] = v;
                th!().pc = next_pc;
            }
            Inst::St { rs, rt, imm } => {
                let addr = mem_addr(r(&th!(), rs), imm)?;
                let v = r(&th!(), rt);
                th!().data[addr] = v;
                th!().pc = next_pc;
            }
            Inst::Ldt { rd, addr } => {
                let Some(&w) = self.text.get(addr as usize) else {
                    return Err(ExceptionKind::TextFault { addr: addr as u32 });
                };
                th!().regs[rd as usize & 0xF] = w as u64;
                th!().pc = next_pc;
            }
            Inst::Jmp { addr } => th!().pc = addr,
            Inst::Beq { rs, rt, addr } => {
                let taken = r(&th!(), rs) == r(&th!(), rt);
                th!().pc = if taken { addr } else { next_pc };
            }
            Inst::Bne { rs, rt, addr } => {
                let taken = r(&th!(), rs) != r(&th!(), rt);
                th!().pc = if taken { addr } else { next_pc };
            }
            Inst::Blt { rs, rt, addr } => {
                let taken = r(&th!(), rs) < r(&th!(), rt);
                th!().pc = if taken { addr } else { next_pc };
            }
            Inst::Bge { rs, rt, addr } => {
                let taken = r(&th!(), rs) >= r(&th!(), rt);
                th!().pc = if taken { addr } else { next_pc };
            }
            Inst::Call { addr } => {
                let sp = r(&th!(), 15).wrapping_sub(1);
                let slot = mem_addr(sp, 0)?;
                th!().data[slot] = next_pc as u64;
                th!().regs[15] = sp;
                th!().pc = addr;
            }
            Inst::Ret => {
                let sp = r(&th!(), 15);
                let slot = mem_addr(sp, 0)?;
                let ra = th!().data[slot];
                th!().regs[15] = sp.wrapping_add(1);
                th!().pc = ra as u16;
            }
            Inst::Callr { rs } => {
                let target = r(&th!(), rs) as u16;
                let sp = r(&th!(), 15).wrapping_sub(1);
                let slot = mem_addr(sp, 0)?;
                th!().data[slot] = next_pc as u64;
                th!().regs[15] = sp;
                th!().pc = target;
            }
            Inst::Jr { rs } => {
                let target = r(&th!(), rs) as u16;
                th!().pc = target;
            }
            Inst::Sys { num } => {
                let t = &self.threads[tid];
                let req = SyscallRequest {
                    thread: tid,
                    num,
                    args: [t.regs[1], t.regs[2], t.regs[3], t.regs[4], t.regs[5], t.regs[6]],
                };
                let ret = sys.handle(req);
                th!().regs[1] = ret;
                th!().pc = next_pc;
            }
            Inst::Pckt { rs, table } => {
                let value = r(&th!(), rs) as u32;
                if self.engine != Engine::Slow {
                    // Binary search over the materialized sorted table;
                    // build-time faults were cached in slow-path order.
                    let entry = self.cache.table(&self.text, table, self.config.max_pckt_table);
                    match &entry.result {
                        Err(kind) => return Err(*kind),
                        Ok(words) => {
                            if words.binary_search(&value).is_err() {
                                return Err(ExceptionKind::DivideByZero);
                            }
                        }
                    }
                } else {
                    let Some(&count) = self.text.get(table as usize) else {
                        return Err(ExceptionKind::TextFault { addr: table as u32 });
                    };
                    if count > self.config.max_pckt_table {
                        // A corrupted table counts as a failed assertion.
                        return Err(ExceptionKind::DivideByZero);
                    }
                    let start = table as usize + 1;
                    let end = start + count as usize;
                    if end > self.text.len() {
                        return Err(ExceptionKind::TextFault { addr: end as u32 });
                    }
                    let member = self.text[start..end].contains(&value);
                    if !member {
                        return Err(ExceptionKind::DivideByZero);
                    }
                }
                th!().pc = next_pc;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_source;

    fn run_program(src: &str, max: u64) -> (Machine, ThreadId, StepOutcome) {
        let p = assemble_source(src).unwrap();
        let mut m = Machine::load(&p, MachineConfig::default());
        let t = m.spawn_thread(p.entry);
        let out = m.run(&mut NoSyscalls, max);
        (m, t, out)
    }

    #[test]
    fn arithmetic_and_loop() {
        let (m, t, _) = run_program(
            r#"
            start:
                movi r1, 10
                movi r2, 0
            loop:
                add  r2, r2, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            "#,
            1_000,
        );
        assert_eq!(m.thread_state(t), ThreadState::Halted);
        assert_eq!(m.reg(t, 2), Some(55));
    }

    #[test]
    fn call_and_ret_use_the_stack() {
        let (m, t, _) = run_program(
            r#"
            start:
                movi r1, 3
                call double
                call double
                halt
            double:
                add r1, r1, r1
                ret
            "#,
            1_000,
        );
        assert_eq!(m.thread_state(t), ThreadState::Halted);
        assert_eq!(m.reg(t, 1), Some(12));
        // Stack pointer restored.
        assert_eq!(m.reg(t, 15), Some(MachineConfig::default().data_words as u64));
    }

    #[test]
    fn nested_calls() {
        let (m, t, _) = run_program(
            r#"
            start:
                movi r1, 1
                call a
                halt
            a:
                addi r1, r1, 10
                call b
                ret
            b:
                addi r1, r1, 100
                ret
            "#,
            1_000,
        );
        assert_eq!(m.thread_state(t), ThreadState::Halted);
        assert_eq!(m.reg(t, 1), Some(111));
    }

    #[test]
    fn indirect_call_via_register() {
        let (m, t, _) = run_program(
            r#"
            start:
                movi r4, f
                callr r4
                halt
            f:
                movi r1, 77
                ret
            "#,
            1_000,
        );
        assert_eq!(m.thread_state(t), ThreadState::Halted);
        assert_eq!(m.reg(t, 1), Some(77));
    }

    #[test]
    fn divide_by_zero_faults() {
        let (m, t, out) = run_program("start: movi r1, 5\nmovi r2, 0\ndivu r3, r1, r2\nhalt\n", 10);
        assert_eq!(m.thread_state(t), ThreadState::Faulted(ExceptionKind::DivideByZero));
        match out {
            StepOutcome::Exception(info) => {
                assert_eq!(info.kind, ExceptionKind::DivideByZero);
                assert_eq!(info.pc, 2);
            }
            other => panic!("expected exception, got {other:?}"),
        }
    }

    #[test]
    fn wild_jump_text_faults() {
        let (m, t, _) = run_program("start: jmp 9999\n", 10);
        assert!(matches!(m.thread_state(t), ThreadState::Faulted(ExceptionKind::TextFault { .. })));
    }

    #[test]
    fn illegal_instruction_faults() {
        let p = assemble_source("start: nop\nhalt\n").unwrap();
        let mut m = Machine::load(&p, MachineConfig::default());
        m.text_mut()[0] = 0xFF00_0000;
        let t = m.spawn_thread(0);
        m.run(&mut NoSyscalls, 10);
        assert_eq!(m.thread_state(t), ThreadState::Faulted(ExceptionKind::IllegalInstruction));
    }

    #[test]
    fn memory_fault_on_bad_store() {
        let (m, t, _) = run_program("start: movi r1, 0\nst [r1-1], r0\nhalt\n", 10);
        assert!(matches!(
            m.thread_state(t),
            ThreadState::Faulted(ExceptionKind::MemoryFault { .. })
        ));
    }

    #[test]
    fn stack_overflow_faults() {
        // Infinite recursion exhausts the data segment.
        let (m, t, _) = run_program("start: call start\n", 100_000);
        assert!(matches!(
            m.thread_state(t),
            ThreadState::Faulted(ExceptionKind::MemoryFault { .. })
        ));
    }

    #[test]
    fn pckt_membership() {
        // Passing check: value 7 in table {5, 7}.
        let (m, t, _) = run_program(
            "start: movi r12, 7\npckt r12, tab\nhalt\ntab: .word 2\n.word 5\n.word 7\n",
            10,
        );
        assert_eq!(m.thread_state(t), ThreadState::Halted);
        // Failing check raises divide-by-zero (the PECOS signal).
        let (m, t, _) = run_program(
            "start: movi r12, 9\npckt r12, tab\nhalt\ntab: .word 2\n.word 5\n.word 7\n",
            10,
        );
        assert_eq!(m.thread_state(t), ThreadState::Faulted(ExceptionKind::DivideByZero));
    }

    #[test]
    fn pckt_corrupted_count_is_failed_assertion() {
        let p = assemble_source("start: movi r12, 5\npckt r12, tab\nhalt\ntab: .word 1\n.word 5\n")
            .unwrap();
        let mut m = Machine::load(&p, MachineConfig::default());
        let tab = p.symbol("tab").unwrap() as usize;
        m.text_mut()[tab] = 0xFFFF_FFFF;
        let t = m.spawn_thread(p.entry);
        m.run(&mut NoSyscalls, 10);
        assert_eq!(m.thread_state(t), ThreadState::Faulted(ExceptionKind::DivideByZero));
    }

    #[test]
    fn syscalls_reach_the_handler() {
        struct Recorder(Vec<SyscallRequest>);
        impl SyscallHandler for Recorder {
            fn handle(&mut self, req: SyscallRequest) -> u64 {
                self.0.push(req);
                req.args[0] + 1
            }
        }
        let p = assemble_source("start: movi r1, 41\nsys 9\nhalt\n").unwrap();
        let mut m = Machine::load(&p, MachineConfig::default());
        let t = m.spawn_thread(p.entry);
        let mut rec = Recorder(Vec::new());
        m.run(&mut rec, 10);
        assert_eq!(rec.0.len(), 1);
        assert_eq!(rec.0[0].num, 9);
        assert_eq!(rec.0[0].args[0], 41);
        assert_eq!(m.reg(t, 1), Some(42)); // return value in r1
    }

    #[test]
    fn round_robin_interleaves_threads() {
        let p = assemble_source("start: addi r1, r1, 1\njmp start\n").unwrap();
        let mut m = Machine::load(&p, MachineConfig::default());
        let a = m.spawn_thread(0);
        let b = m.spawn_thread(0);
        for _ in 0..100 {
            m.step(&mut NoSyscalls);
        }
        // Both threads made equal progress.
        assert_eq!(m.thread_steps(a), 50);
        assert_eq!(m.thread_steps(b), 50);
        assert_eq!(m.total_steps(), 100);
    }

    #[test]
    fn kill_and_resume() {
        let p = assemble_source("start: movi r1, 0\ndivu r1, r1, r1\nhalt\n").unwrap();
        let mut m = Machine::load(&p, MachineConfig::default());
        let a = m.spawn_thread(0);
        let b = m.spawn_thread(0);
        // Run until both fault.
        while m.has_runnable() {
            m.step(&mut NoSyscalls);
        }
        assert!(matches!(m.thread_state(a), ThreadState::Faulted(_)));
        // Kill a: stays dead. Resume b at the faulting instruction: it
        // faults again (divisor still zero).
        m.kill_thread(a);
        assert_eq!(m.thread_state(a), ThreadState::Killed);
        m.resume_thread(b);
        assert_eq!(m.thread_state(b), ThreadState::Runnable);
        let out = m.step(&mut NoSyscalls);
        assert!(matches!(out, StepOutcome::Exception(_)));
    }

    #[test]
    fn peek_next_predicts_step() {
        let p = assemble_source("start: nop\nnop\nhalt\n").unwrap();
        let mut m = Machine::load(&p, MachineConfig::default());
        let t = m.spawn_thread(0);
        assert_eq!(m.peek_next(), Some((t, 0)));
        assert_eq!(m.step(&mut NoSyscalls), StepOutcome::Executed { thread: t, pc: 0 });
        assert_eq!(m.peek_next(), Some((t, 1)));
    }

    #[test]
    fn idle_when_everything_halts() {
        let (mut m, _, out) = run_program("start: halt\n", 10);
        assert_eq!(out, StepOutcome::Idle);
        assert_eq!(m.step(&mut NoSyscalls), StepOutcome::Idle);
        assert!(!m.has_runnable());
        assert_eq!(m.peek_next(), None);
    }

    const LOOP_SRC: &str = "
    start:
        movi r9, 5
    loop:
        addi r9, r9, -1
        add  r1, r1, r9
        bne  r9, r0, loop
        halt
    ";

    /// The breakpoint contract under batched dispatch: between
    /// `run` batches of any size, `peek_next` must observe the same
    /// (thread, pc) sequence on every engine — the injector arms its
    /// breakpoints on exactly this view.
    #[test]
    fn peek_next_sequence_identical_across_engines_between_run_batches() {
        let p = assemble_source(LOOP_SRC).unwrap();
        let budgets = [1u64, 2, 3, 5, 7, 16, 31, 4, 9];
        for threads in [1usize, 2] {
            let drive = |engine: Engine| {
                let mut m = Machine::load(&p, MachineConfig { engine, ..MachineConfig::default() });
                for _ in 0..threads {
                    m.spawn_thread(0);
                }
                let mut seq = Vec::new();
                let mut i = 0;
                loop {
                    seq.push(m.peek_next());
                    let out = m.run(&mut NoSyscalls, budgets[i % budgets.len()]);
                    if matches!(out, StepOutcome::Idle) {
                        break;
                    }
                    i += 1;
                    assert!(i < 10_000, "runaway run: {out:?}");
                }
                seq.push(m.peek_next());
                (seq, m.total_steps())
            };
            let slow = drive(Engine::Slow);
            assert_eq!(drive(Engine::Decoded), slow, "decoded diverged ({threads} threads)");
        }
    }

    #[test]
    fn engine_parse_names_and_default() {
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
            let config = MachineConfig { engine, ..Default::default() };
            assert_eq!(config.effective_engine(), engine);
        }
        assert_eq!(Engine::parse("warp"), None);
        assert_eq!(Engine::parse("superblock"), None);
        assert_eq!(MachineConfig::default().effective_engine(), Engine::Decoded);
    }
}
