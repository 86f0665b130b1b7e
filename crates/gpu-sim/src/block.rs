//! Block execution: warps, divergence, barriers, and the per-lane
//! bookkeeping of a warp step.
//!
//! Scheduling is deterministic by construction: blocks run in linear order,
//! warps within a block are stepped round-robin one instruction-group at a
//! time, and within a warp the group at the minimum program counter issues
//! (a simple model of Volta-style independent thread scheduling). Determinism
//! matters here more than on real hardware: it makes the profiler's
//! dynamic-instruction numbering exactly reproducible, so a fault site
//! `<kernel, instance, instruction index>` always lands on the same
//! architectural event.
//!
//! An issued instruction is decoded once per warp step
//! ([`crate::exec::exec_warp`]); [`Lanes::each`] then runs its active lanes
//! in ascending order, each with its own budget check, dynamic index,
//! hooks and next pc, exactly as if the lanes had issued one at a time.

use crate::cycles::{latency, HOOK_CYCLES};
use crate::exec::{exec_warp, Flow, Mem};
use crate::grid::Dim3;
use crate::hooks::{InstrSite, Instrumentation, ThreadCtx, ThreadMeta};
use crate::memory::{GlobalMem, SharedMem};
use crate::regfile::RegFile;
use crate::trap::{TrapInfo, TrapKind};
use gpu_isa::{Dst, Instr, Kernel, Operand, Reg, Space, WARP_SIZE};

/// A thread's architectural state apart from its pc and scheduling flags,
/// which its [`Warp`] holds.
pub(crate) struct ThreadState {
    pub regs: RegFile,
    pub ret_stack: Vec<u32>,
    pub local: Vec<u8>,
    pub meta: ThreadMeta,
}

impl ThreadState {
    /// A thread about to run a block of a kernel that names GPRs below
    /// `regs` only.
    pub fn new(meta: ThreadMeta, local_bytes: u32, regs: usize) -> ThreadState {
        let mut t =
            ThreadState { regs: RegFile::new(), ret_stack: Vec::new(), local: Vec::new(), meta };
        t.reset(meta, local_bytes, regs);
        t
    }

    /// Return a pooled thread to the state [`ThreadState::new`] creates,
    /// at a cost proportional to the registers stored, not to the 256 a
    /// thread can name.
    fn reset(&mut self, meta: ThreadMeta, local_bytes: u32, regs: usize) {
        self.regs.reset(regs);
        self.ret_stack.clear();
        self.local.clear();
        self.local.resize(local_bytes as usize, 0);
        self.meta = meta;
    }
}

/// A warp's scheduling state, kept apart from its threads so the
/// per-step scan reads one small array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Warp {
    /// Each lane's next pc.
    pub pc: [u32; WARP_SIZE],
    /// The lanes that hold a thread (a block's last warp may be partial).
    lanes: u32,
    /// Lanes whose thread has exited.
    pub exited: u32,
    /// Lanes waiting at a barrier.
    pub waiting: u32,
}

impl Warp {
    /// A warp of `n` threads, all at pc 0.
    pub fn new(n: usize) -> Warp {
        let lanes = if n >= WARP_SIZE { u32::MAX } else { (1 << n) - 1 };
        Warp { pc: [0; WARP_SIZE], lanes, exited: 0, waiting: 0 }
    }
}

/// Thread and warp states kept across blocks and launches, so a block's
/// set-up costs the registers its kernel names instead of a fresh 1 KiB
/// register file per thread. Sized by the largest block launched so far.
#[derive(Default)]
pub(crate) struct ThreadPool {
    threads: Vec<ThreadState>,
    warps: Vec<Warp>,
}

impl Clone for ThreadPool {
    /// Pooled threads hold nothing a launch can observe, so a clone starts
    /// empty.
    fn clone(&self) -> Self {
        ThreadPool::default()
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool({} threads)", self.threads.len())
    }
}

/// Running totals for one kernel launch.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    /// Guard-passing thread-level dynamic instructions executed so far.
    pub executed: u64,
    /// Simulated cycles consumed so far.
    pub cycles: u64,
    /// Launch budget: exceeding it raises [`TrapKind::Timeout`].
    pub budget: u64,
    /// Wall-clock deadline: passing it raises [`TrapKind::DeadlineExceeded`].
    /// Polled every [`DEADLINE_POLL_INTERVAL`] instructions, piggybacking on
    /// the budget check so the common case costs one extra branch.
    pub deadline: Option<std::time::Instant>,
}

/// How many dynamic instructions run between wall-clock deadline polls.
/// A power of two so the check is a mask; coarse enough that `Instant::now`
/// never shows up in profiles, fine enough to bound overrun to milliseconds.
pub(crate) const DEADLINE_POLL_INTERVAL: u64 = 1 << 14;

pub(crate) struct BlockState<'a> {
    pub threads: &'a mut [ThreadState],
    pub warps: &'a mut [Warp],
    pub shared: SharedMem,
    pub flat_ctaid: u32,
}

enum StepOutcome {
    Ran,
    Idle,
}

/// A lane's trap: its kind and the lane's index within the warp.
pub(crate) type LaneTrap = (TrapKind, usize);

/// Whether any instruction of `kernel` addresses local memory. Only such
/// kernels get a per-thread local allocation: no other instruction can
/// reach it.
pub(crate) fn uses_local_memory(kernel: &Kernel) -> bool {
    kernel
        .instrs()
        .iter()
        .any(|i| i.srcs.iter().any(|s| matches!(s, Operand::Mem(m) if m.space == Space::Local)))
}

/// One past the highest GPR any operand of `kernel` names, with pairs
/// counting both halves: the registers its threads store. Warp dispatch
/// reads and writes only these; a hook that writes a higher one grows its
/// thread's register file.
pub(crate) fn register_count(kernel: &Kernel) -> usize {
    let mut count = 0;
    let mut name = |r: Reg, halves: usize| {
        if !r.is_zero_reg() {
            count = count.max(r.index() + halves);
        }
    };
    for i in kernel.instrs() {
        for s in i.srcs {
            match s {
                Operand::R(r) => name(r, 1),
                Operand::R64(r) => name(r, 2),
                Operand::Mem(m) => name(m.base, 1),
                _ => {}
            }
        }
        for d in i.dsts {
            match d {
                Dst::R(r) => name(r, 1),
                Dst::R64(r) => name(r, 2),
                _ => {}
            }
        }
    }
    count
}

impl<'a> BlockState<'a> {
    /// Set up block `flat_ctaid` on pooled threads.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pool: &'a mut ThreadPool,
        kernel: &Kernel,
        grid: Dim3,
        block: Dim3,
        flat_ctaid: u32,
        sm: u32,
        local_bytes: u32,
        regs: usize,
    ) -> BlockState<'a> {
        let nthreads = block.count() as usize;
        let ctaid = grid.unflatten(flat_ctaid);
        let ThreadPool { threads: pool, warps } = pool;
        pool.reserve_exact(nthreads.saturating_sub(pool.len()));
        for flat_tid in 0..nthreads as u32 {
            // A pooled thread last used in a block of the same shape keeps
            // its thread index.
            let tid = match pool.get(flat_tid as usize) {
                Some(t) if t.meta.ntid == block => t.meta.tid,
                _ => block.unflatten(flat_tid),
            };
            let meta = ThreadMeta {
                tid,
                ctaid,
                ntid: block,
                nctaid: grid,
                flat_tid,
                flat_ctaid,
                lane: flat_tid % WARP_SIZE as u32,
                warp: flat_tid / WARP_SIZE as u32,
                sm,
            };
            match pool.get_mut(flat_tid as usize) {
                Some(t) => t.reset(meta, local_bytes, regs),
                None => pool.push(ThreadState::new(meta, local_bytes, regs)),
            }
        }
        warps.clear();
        warps
            .extend((0..nthreads.div_ceil(WARP_SIZE)).map(|w| Warp::new(nthreads - w * WARP_SIZE)));
        BlockState {
            threads: &mut pool[..nthreads],
            warps,
            shared: SharedMem::new(kernel.shared_bytes()),
            flat_ctaid,
        }
    }

    fn trap(&self, kernel: &Kernel, kind: TrapKind, pc: u32, thread: u32) -> TrapInfo {
        TrapInfo {
            kind,
            kernel: kernel.name().to_string(),
            pc: Some(pc),
            block: Some(self.flat_ctaid),
            thread: Some(thread),
        }
    }

    /// Run the block to completion.
    pub fn run(
        &mut self,
        kernel: &Kernel,
        global: &mut GlobalMem,
        cmem: &[u8],
        counters: &mut Counters,
        instrumentation: &mut Option<&mut Instrumentation<'_>>,
    ) -> Result<(), TrapInfo> {
        loop {
            let mut progressed = false;
            for w in 0..self.warps.len() {
                match self.step_warp(w, kernel, global, cmem, counters, instrumentation)? {
                    StepOutcome::Ran => progressed = true,
                    StepOutcome::Idle => {}
                }
            }
            if self.warps.iter().all(|w| w.exited == w.lanes) {
                return Ok(());
            }
            if !progressed {
                if self.warps.iter().all(|w| w.exited | w.waiting == w.lanes) {
                    // Barrier release: every live thread arrived.
                    for w in self.warps.iter_mut() {
                        w.waiting = 0;
                    }
                } else {
                    return Err(TrapInfo {
                        kind: TrapKind::BarrierDeadlock,
                        kernel: kernel.name().to_string(),
                        pc: None,
                        block: Some(self.flat_ctaid),
                        thread: None,
                    });
                }
            }
        }
    }

    /// Issue one instruction group for warp `w`.
    fn step_warp(
        &mut self,
        w: usize,
        kernel: &Kernel,
        global: &mut GlobalMem,
        cmem: &[u8],
        counters: &mut Counters,
        instrumentation: &mut Option<&mut Instrumentation<'_>>,
    ) -> Result<StepOutcome, TrapInfo> {
        let lo = w * WARP_SIZE;
        let hi = ((w + 1) * WARP_SIZE).min(self.threads.len());
        let warp = &mut self.warps[w];
        let runnable = warp.lanes & !(warp.exited | warp.waiting);
        if runnable == 0 {
            return Ok(StepOutcome::Idle);
        }
        // The minimum pc among the runnable lanes, and the lanes at it.
        let mut at_pc = 0u32;
        let mut pc = u32::MAX;
        let mut bits = runnable;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let bit = 1u32 << lane;
            if warp.pc[lane] < pc {
                pc = warp.pc[lane];
                at_pc = bit;
            } else if warp.pc[lane] == pc {
                at_pc |= bit;
            }
        }
        if pc as usize >= kernel.len() {
            let t = (lo + runnable.trailing_zeros() as usize) as u32;
            return Err(self.trap(kernel, TrapKind::PcOverrun, pc, t));
        }
        let instr = &kernel.instrs()[pc as usize];
        let fam = instr.op.family();
        counters.cycles += latency(fam);

        // Guard evaluation: failing threads skip the instruction silently
        // (and are excluded from profiling, per paper §III-A).
        let mut active = at_pc;
        if !instr.guard.is_always() {
            let mut bits = at_pc;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !instr.guard.passes(self.threads[lo + lane].regs.read_p(instr.guard.pred)) {
                    active &= !(1 << lane);
                    warp.pc[lane] += 1;
                }
            }
        }
        if active == 0 {
            return Ok(StepOutcome::Ran);
        }

        let mut lanes = Lanes::new(
            &mut self.threads[lo..hi],
            warp,
            active,
            pc,
            instr,
            counters,
            instrumentation.as_deref_mut(),
        );
        let mut mem =
            Mem { global, shared: &mut self.shared, cmem, kernel_len: kernel.len() as u32 };
        match exec_warp(instr, fam, &mut lanes, &mut mem) {
            Ok(()) => Ok(StepOutcome::Ran),
            Err((kind, lane)) => Err(self.trap(kernel, kind, pc, (lo + lane) as u32)),
        }
    }
}

/// The active lanes of one warp step and the per-lane bookkeeping around
/// each lane's execution.
pub(crate) struct Lanes<'a, 'i> {
    /// The warp's threads, indexed by lane.
    threads: &'a mut [ThreadState],
    /// The warp's pcs and scheduling flags.
    warp: &'a mut Warp,
    /// The lanes that execute, as a bit mask.
    active: u32,
    pc: u32,
    instr: &'a Instr,
    counters: &'a mut Counters,
    /// The attached tool, present only when this pc is marked.
    hooks: Option<&'a mut Instrumentation<'i>>,
    hook_before: bool,
    hook_after: bool,
    /// Whether the budget or the deadline poll can fire inside this step,
    /// so each lane must check them.
    checked: bool,
}

impl<'a, 'i> Lanes<'a, 'i> {
    pub fn new(
        threads: &'a mut [ThreadState],
        warp: &'a mut Warp,
        active: u32,
        pc: u32,
        instr: &'a Instr,
        counters: &'a mut Counters,
        instrumentation: Option<&'a mut Instrumentation<'i>>,
    ) -> Lanes<'a, 'i> {
        let marked = |mask: &[bool]| mask.get(pc as usize).copied().unwrap_or(false);
        let (hook_before, hook_after) = match instrumentation.as_deref() {
            Some(ins) => (marked(ins.before_mask), marked(ins.after_mask)),
            None => (false, false),
        };
        let hooks = instrumentation.filter(|_| hook_before || hook_after);
        // The lanes use dynamic indices first..end. A lane checks the
        // budget at index >= budget and polls the deadline at multiples of
        // the poll interval; if neither lies in the range, no lane can trap
        // on them and the step skips the per-lane checks.
        let first = counters.executed;
        let end = first.saturating_add(active.count_ones() as u64);
        let polls =
            counters.deadline.is_some() && first.next_multiple_of(DEADLINE_POLL_INTERVAL) < end;
        let checked = end > counters.budget || polls;
        Lanes {
            threads,
            warp,
            active,
            pc,
            instr,
            counters,
            hooks,
            hook_before,
            hook_after,
            checked,
        }
    }

    /// The pc this step issues.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The active lanes' threads with their lane indices, in ascending
    /// order, read-only and without any per-lane bookkeeping.
    pub fn active_threads(&self) -> impl Iterator<Item = (usize, &ThreadState)> + '_ {
        let (threads, mut bits) = (&*self.threads, self.active);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                (lane, &threads[lane])
            })
        })
    }

    /// Execute `f` for each active lane in ascending order. Per lane: the
    /// budget and deadline checks (when the step needs them), the dynamic
    /// index, the before-hook, `f` given the thread and the running cycle
    /// count, the resulting [`Flow`], then the after-hook. Stops at the
    /// first lane that traps.
    #[inline(always)]
    pub fn each(
        &mut self,
        mut f: impl FnMut(&mut ThreadState, u64) -> Result<Flow, TrapKind>,
    ) -> Result<(), LaneTrap> {
        let Lanes {
            threads,
            warp,
            active,
            pc,
            instr,
            counters,
            hooks,
            hook_before,
            hook_after,
            checked,
        } = self;
        let (pc, instr, hook_before, hook_after) = (*pc, *instr, *hook_before, *hook_after);
        // A step that checks limits or calls hooks takes the out-of-line
        // per-lane paths; the common step only counts.
        let slow = *checked || hooks.is_some();
        let mut bits = *active;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let t = &mut threads[lane];
            if slow {
                let before = hooks.as_deref_mut().filter(|_| hook_before);
                if let Some(kind) = enter_lane(counters, *checked, before, t, (pc, instr)) {
                    return Err((kind, lane));
                }
            } else {
                counters.executed += 1;
            }

            match f(t, counters.cycles) {
                Ok(Flow::Next) => warp.pc[lane] = pc + 1,
                Ok(Flow::Branch(target)) => warp.pc[lane] = target,
                Ok(Flow::Exit) => warp.exited |= 1 << lane,
                Ok(Flow::Barrier) => {
                    warp.waiting |= 1 << lane;
                    warp.pc[lane] = pc + 1;
                }
                Err(kind) => return Err((kind, lane)),
            }

            if slow && hook_after {
                if let Some(ins) = hooks.as_deref_mut() {
                    let dyn_index = counters.executed - 1;
                    fire_hook(ins, t, counters, (pc, instr), dyn_index, true);
                }
            }
        }
        Ok(())
    }
}

/// A lane's entry on the slow path: the budget check and deadline poll
/// (when the step needs them), which trap before the lane is counted, then
/// its dynamic index and its before-hook, if any.
#[inline(never)]
fn enter_lane(
    counters: &mut Counters,
    checked: bool,
    before: Option<&mut Instrumentation<'_>>,
    t: &mut ThreadState,
    site: (u32, &Instr),
) -> Option<TrapKind> {
    if checked {
        if counters.executed >= counters.budget {
            return Some(TrapKind::Timeout);
        }
        if counters.executed.is_multiple_of(DEADLINE_POLL_INTERVAL) {
            if let Some(deadline) = counters.deadline {
                if std::time::Instant::now() >= deadline {
                    return Some(TrapKind::DeadlineExceeded);
                }
            }
        }
    }
    let dyn_index = counters.executed;
    counters.executed += 1;
    if let Some(ins) = before {
        fire_hook(ins, t, counters, site, dyn_index, false);
    }
    None
}

/// Call the tool's before- or after-hook for one lane, charging
/// [`HOOK_CYCLES`].
#[inline(never)]
fn fire_hook(
    ins: &mut Instrumentation<'_>,
    t: &mut ThreadState,
    counters: &mut Counters,
    (pc, instr): (u32, &Instr),
    dyn_index: u64,
    after: bool,
) {
    counters.cycles += HOOK_CYCLES;
    let mut ctx = ThreadCtx { regs: &mut t.regs, meta: t.meta, dyn_index };
    let site = InstrSite { pc, instr, kernel_instance: ins.kernel_instance };
    if after {
        ins.hook.after(&mut ctx, site);
    } else {
        ins.hook.before(&mut ctx, site);
    }
}
