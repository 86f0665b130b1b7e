//! Block execution: warps, divergence, barriers, and cross-lane ops.
//!
//! Scheduling is deterministic by construction: blocks run in linear order,
//! warps within a block are stepped round-robin one instruction-group at a
//! time, and within a warp the group at the minimum program counter issues
//! (a simple model of Volta-style independent thread scheduling). Determinism
//! matters here more than on real hardware: it makes the profiler's
//! dynamic-instruction numbering exactly reproducible, so a fault site
//! `<kernel, instance, instruction index>` always lands on the same
//! architectural event.

use crate::cycles::{latency, HOOK_CYCLES};
use crate::exec::{exec_scalar, ExecEnv, Flow};
use crate::grid::Dim3;
use crate::hooks::{InstrSite, Instrumentation, ThreadCtx, ThreadMeta};
use crate::memory::{GlobalMem, SharedMem};
use crate::regfile::RegFile;
use crate::trap::{TrapInfo, TrapKind};
use gpu_isa::{ExecFamily, Kernel, Modifier, Operand, ShflMode, Space, WARP_SIZE};

pub(crate) struct ThreadState {
    pub regs: RegFile,
    pub pc: u32,
    pub exited: bool,
    pub at_barrier: bool,
    pub ret_stack: Vec<u32>,
    pub local: Vec<u8>,
    pub meta: ThreadMeta,
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

pub(crate) struct BlockState {
    pub threads: Vec<ThreadState>,
    pub shared: SharedMem,
    pub nwarps: usize,
    pub flat_ctaid: u32,
    /// Threads that have not exited yet.
    live: usize,
}

enum StepOutcome {
    Ran,
    Idle,
}

/// The source values of a cross-lane instruction's active lanes, captured
/// at issue before any lane writes its result.
struct WarpSnapshot {
    /// Lanes that execute the instruction.
    active: u32,
    /// `srcs[0]` as a value, indexed by lane.
    vals: [u32; WARP_SIZE],
    /// Lanes whose `srcs[0]` predicate holds.
    preds: u32,
}

impl WarpSnapshot {
    /// The value of `lane` if it is active.
    fn val(&self, lane: u32) -> Option<u32> {
        (lane < WARP_SIZE as u32 && self.active & (1 << lane) != 0)
            .then(|| self.vals[lane as usize])
    }
}

/// Whether any instruction of `kernel` addresses local memory. Only such
/// kernels get a per-thread local allocation: no other instruction can
/// reach it.
pub(crate) fn uses_local_memory(kernel: &Kernel) -> bool {
    kernel
        .instrs()
        .iter()
        .any(|i| i.srcs.iter().any(|s| matches!(s, Operand::Mem(m) if m.space == Space::Local)))
}

impl BlockState {
    pub fn new(
        kernel: &Kernel,
        grid: Dim3,
        block: Dim3,
        flat_ctaid: u32,
        sm: u32,
        local_bytes: u32,
    ) -> BlockState {
        let nthreads = block.count() as usize;
        let nwarps = nthreads.div_ceil(WARP_SIZE);
        let ctaid = grid.unflatten(flat_ctaid);
        let threads = (0..nthreads as u32)
            .map(|flat_tid| ThreadState {
                regs: RegFile::new(),
                pc: 0,
                exited: false,
                at_barrier: false,
                ret_stack: Vec::new(),
                local: vec![0; local_bytes as usize],
                meta: ThreadMeta {
                    tid: block.unflatten(flat_tid),
                    ctaid,
                    ntid: block,
                    nctaid: grid,
                    flat_tid,
                    flat_ctaid,
                    lane: flat_tid % WARP_SIZE as u32,
                    warp: flat_tid / WARP_SIZE as u32,
                    sm,
                },
            })
            .collect();
        BlockState {
            threads,
            shared: SharedMem::new(kernel.shared_bytes()),
            nwarps,
            flat_ctaid,
            live: nthreads,
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
            for w in 0..self.nwarps {
                match self.step_warp(w, kernel, global, cmem, counters, instrumentation)? {
                    StepOutcome::Ran => progressed = true,
                    StepOutcome::Idle => {}
                }
            }
            if self.live == 0 {
                return Ok(());
            }
            if !progressed {
                if self.threads.iter().all(|t| t.exited || t.at_barrier) {
                    // Barrier release: every live thread arrived.
                    for t in &mut self.threads {
                        t.at_barrier = false;
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
        // One pass: the runnable lanes, the minimum pc among them, and the
        // lanes sitting at that pc.
        let mut runnable = 0u32;
        let mut at_pc = 0u32;
        let mut pc = u32::MAX;
        for (lane, t) in self.threads[lo..hi].iter().enumerate() {
            if t.exited || t.at_barrier {
                continue;
            }
            let bit = 1u32 << lane;
            runnable |= bit;
            if t.pc < pc {
                pc = t.pc;
                at_pc = bit;
            } else if t.pc == pc {
                at_pc |= bit;
            }
        }
        if runnable == 0 {
            return Ok(StepOutcome::Idle);
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
            for_each_lane(at_pc, |lane| {
                let t = &mut self.threads[lo + lane];
                if !instr.guard.passes(t.regs.read_p(instr.guard.pred)) {
                    active &= !(1 << lane);
                    t.pc += 1;
                }
            });
        }
        if active == 0 {
            return Ok(StepOutcome::Ran);
        }

        // Cross-lane ops read other lanes' state as of instruction issue:
        // snapshot the source before any writes.
        let snapshot = matches!(fam, ExecFamily::Shfl | ExecFamily::Vote | ExecFamily::FSwzAdd)
            .then(|| {
                let mut snap = WarpSnapshot { active, vals: [0; WARP_SIZE], preds: 0 };
                for_each_lane(active, |lane| {
                    let regs = &self.threads[lo + lane].regs;
                    snap.vals[lane] = match instr.srcs[0] {
                        Operand::R(r) => regs.read(r),
                        Operand::Imm(v) => v,
                        _ => 0,
                    };
                    let pred = match instr.srcs[0] {
                        Operand::P(p) => regs.read_p(p),
                        Operand::NotP(p) => !regs.read_p(p),
                        _ => regs.read(gpu_isa::Reg(0)) != 0,
                    };
                    snap.preds |= (pred as u32) << lane;
                });
                snap
            });

        let (hook_before, hook_after) = match instrumentation.as_deref() {
            Some(ins) => (
                ins.before_mask.get(pc as usize).copied().unwrap_or(false),
                ins.after_mask.get(pc as usize).copied().unwrap_or(false),
            ),
            None => (false, false),
        };

        let mut bits = active;
        while bits != 0 {
            let ti = lo + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if counters.executed >= counters.budget {
                return Err(self.trap(kernel, TrapKind::Timeout, pc, ti as u32));
            }
            if counters.executed.is_multiple_of(DEADLINE_POLL_INTERVAL) {
                if let Some(deadline) = counters.deadline {
                    if std::time::Instant::now() >= deadline {
                        return Err(self.trap(kernel, TrapKind::DeadlineExceeded, pc, ti as u32));
                    }
                }
            }
            let dyn_index = counters.executed;
            counters.executed += 1;

            let BlockState { threads, shared, .. } = self;
            let t = &mut threads[ti];

            if hook_before {
                if let Some(ins) = instrumentation.as_deref_mut() {
                    counters.cycles += HOOK_CYCLES;
                    let mut ctx = ThreadCtx { regs: &mut t.regs, meta: t.meta, dyn_index };
                    ins.hook.before(
                        &mut ctx,
                        InstrSite { pc, instr, kernel_instance: ins.kernel_instance },
                    );
                }
            }

            let flow = match &snapshot {
                Some(snap) => exec_cross_lane(instr, fam, t, snap),
                None => {
                    let mut env = ExecEnv {
                        regs: &mut t.regs,
                        global,
                        shared,
                        local: &mut t.local,
                        cmem,
                        ret_stack: &mut t.ret_stack,
                        meta: &t.meta,
                        clock: counters.cycles,
                        pc,
                        kernel_len: kernel.len() as u32,
                    };
                    exec_scalar(instr, &mut env)
                }
            };

            let flow = match flow {
                Ok(f) => f,
                Err(kind) => return Err(self.trap(kernel, kind, pc, ti as u32)),
            };

            match flow {
                Flow::Next => t.pc = pc + 1,
                Flow::Branch(target) => t.pc = target,
                Flow::Exit => {
                    t.exited = true;
                    self.live -= 1;
                }
                Flow::Barrier => {
                    t.at_barrier = true;
                    t.pc = pc + 1;
                }
            }

            if hook_after {
                if let Some(ins) = instrumentation.as_deref_mut() {
                    counters.cycles += HOOK_CYCLES;
                    let t = &mut self.threads[ti];
                    let mut ctx = ThreadCtx { regs: &mut t.regs, meta: t.meta, dyn_index };
                    ins.hook.after(
                        &mut ctx,
                        InstrSite { pc, instr, kernel_instance: ins.kernel_instance },
                    );
                }
            }
        }
        Ok(StepOutcome::Ran)
    }
}

/// Call `f` with each set lane of `mask`, in ascending order.
#[inline]
fn for_each_lane(mut mask: u32, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Execute a cross-lane instruction for one thread, given the warp snapshot
/// of all active lanes.
fn exec_cross_lane(
    instr: &gpu_isa::Instr,
    fam: ExecFamily,
    t: &mut ThreadState,
    snap: &WarpSnapshot,
) -> Result<Flow, TrapKind> {
    let my_lane = t.meta.lane;
    match fam {
        ExecFamily::Shfl => {
            let mode = match instr.modifier {
                Modifier::Shfl(m) => m,
                _ => ShflMode::Idx,
            };
            let operand = match instr.srcs[1] {
                Operand::Imm(v) => v,
                Operand::R(r) => t.regs.read(r),
                _ => 0,
            };
            let src_lane = match mode {
                ShflMode::Idx => operand,
                ShflMode::Up => my_lane.wrapping_sub(operand),
                ShflMode::Down => my_lane + operand,
                ShflMode::Bfly => my_lane ^ operand,
            };
            let my_val = snap.val(my_lane).unwrap_or(0);
            // Inactive or out-of-range source lane: keep own value
            // (CUDA leaves the destination undefined; "own value" is the
            // common hardware behaviour and is deterministic).
            let v = snap.val(src_lane).unwrap_or(my_val);
            if let gpu_isa::Dst::R(r) = instr.dsts[0] {
                t.regs.write(r, v);
            }
        }
        ExecFamily::Vote => {
            // VOTE = BALLOT: bit per active lane whose source predicate holds.
            if let gpu_isa::Dst::R(r) = instr.dsts[0] {
                t.regs.write(r, snap.preds);
            }
        }
        ExecFamily::FSwzAdd => {
            // Butterfly-partner add: value + partner lane's value.
            let partner = my_lane ^ 1;
            let my_val = snap.val(my_lane).unwrap_or(0);
            let pv = snap.val(partner).unwrap_or(my_val);
            let sum = f32::from_bits(my_val) + f32::from_bits(pv);
            if let gpu_isa::Dst::R(r) = instr.dsts[0] {
                t.regs.write(r, sum.to_bits());
            }
        }
        _ => return Err(TrapKind::IllegalInstruction),
    }
    Ok(Flow::Next)
}
