//! Instruction semantics, executed one warp step at a time.
//!
//! [`exec_warp`] matches an issued instruction's family once, resolves its
//! modifier and operands once — a source becomes a register index, a
//! constant (immediates, `RZ` and absent operands) or a predicate; a
//! destination becomes a register index — and then runs the step's active
//! lanes in ascending order inside that arm through [`Lanes::each`], which
//! owns each lane's budget check, dynamic index, hooks and next pc.
//! Cross-lane families (`SHFL`, `VOTE`, `FSWZADD`) first snapshot their
//! source across the active lanes, so every lane reads the values as of
//! issue.

use crate::block::{LaneTrap, Lanes, ThreadState};
use crate::hooks::ThreadMeta;
use crate::memory::{const_load, local_load, local_store, GlobalMem, SharedMem};
use crate::regfile::RegFile;
use crate::trap::TrapKind;
use gpu_isa::half::{pack, unpack_hi, unpack_lo};
use gpu_isa::{
    AtomOp, BoolOp, CmpOp, Dst, ExecFamily, Instr, MemWidth, Modifier, MufuFunc, Operand, PReg,
    Reg, RoundMode, ShflMode, Space, SpecialReg, WARP_SIZE,
};

/// What a thread does next after executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Fall through to `pc + 1`.
    Next,
    /// Jump to an instruction index.
    Branch(u32),
    /// The thread has exited.
    Exit,
    /// The thread arrived at a block-wide barrier.
    Barrier,
}

/// The memory a warp step reaches besides each thread's local memory.
pub(crate) struct Mem<'a> {
    /// Device global memory.
    pub global: &'a mut GlobalMem,
    /// The block's shared memory.
    pub shared: &'a mut SharedMem,
    /// Constant memory (kernel parameters at offset 0).
    pub cmem: &'a [u8],
    /// Number of static instructions in the kernel (for indirect-branch
    /// validation).
    pub kernel_len: u32,
}

impl Mem<'_> {
    #[inline(never)]
    fn load(&self, local: &[u8], space: Space, addr: u32, w: MemWidth) -> Result<u64, TrapKind> {
        match space {
            Space::Global => self.global.load(addr, w),
            Space::Shared => self.shared.load(addr, w),
            Space::Local => local_load(local, addr, w),
            Space::Const => const_load(self.cmem, addr, w),
        }
    }

    #[inline(never)]
    fn store(
        &mut self,
        local: &mut [u8],
        space: Space,
        addr: u32,
        w: MemWidth,
        v: u64,
    ) -> Result<(), TrapKind> {
        match space {
            Space::Global => self.global.store(addr, w, v),
            Space::Shared => self.shared.store(addr, w, v),
            Space::Local => local_store(local, addr, w, v),
            Space::Const => {
                Err(TrapKind::OutOfBounds { space: Space::Const, addr, width: w.bytes() })
            }
        }
    }
}

fn read_sr(m: &ThreadMeta, sr: SpecialReg, clock: u64) -> u32 {
    match sr {
        SpecialReg::TidX => m.tid.x,
        SpecialReg::TidY => m.tid.y,
        SpecialReg::TidZ => m.tid.z,
        SpecialReg::CtaIdX => m.ctaid.x,
        SpecialReg::CtaIdY => m.ctaid.y,
        SpecialReg::CtaIdZ => m.ctaid.z,
        SpecialReg::NTidX => m.ntid.x,
        SpecialReg::NTidY => m.ntid.y,
        SpecialReg::NTidZ => m.ntid.z,
        SpecialReg::NCtaIdX => m.nctaid.x,
        SpecialReg::NCtaIdY => m.nctaid.y,
        SpecialReg::NCtaIdZ => m.nctaid.z,
        SpecialReg::LaneId => m.lane,
        SpecialReg::WarpId => m.warp,
        SpecialReg::SmId => m.sm,
        SpecialReg::ClockLo => clock as u32,
        SpecialReg::GlobalTidX => (m.global_tid() & 0xFFFF_FFFF) as u32,
    }
}

/// A source operand read as a 32-bit value, resolved at issue.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A general-purpose register other than `RZ`; a pair reads its low
    /// half.
    Reg(u8),
    /// An immediate; `RZ`, absent and memory operands read as 0.
    Imm(u32),
    /// A predicate read as 0 or 1, negated if the flag is set.
    Pred(PReg, bool),
    /// A special register (`SR_CLOCKLO` reads the lane's cycle count).
    Sr(SpecialReg),
}

impl Src {
    fn new(op: Operand) -> Src {
        match op {
            Operand::R(r) | Operand::R64(r) if !r.is_zero_reg() => Src::Reg(r.0),
            Operand::Imm(v) => Src::Imm(v),
            Operand::P(p) => Src::Pred(p, false),
            Operand::NotP(p) => Src::Pred(p, true),
            Operand::Sr(sr) => Src::Sr(sr),
            Operand::R(_) | Operand::R64(_) | Operand::None | Operand::Mem(_) => Src::Imm(0),
        }
    }

    #[inline(always)]
    fn get(self, t: &ThreadState, clock: u64) -> u32 {
        match self {
            Src::Reg(r) => t.regs.get(r),
            Src::Imm(v) => v,
            _ => self.get_rare(t, clock),
        }
    }

    /// Predicate and special-register reads, out of line to keep each
    /// lane loop small.
    #[inline(never)]
    fn get_rare(self, t: &ThreadState, clock: u64) -> u32 {
        match self {
            Src::Pred(p, negated) => (t.regs.read_p(p) != negated) as u32,
            Src::Sr(sr) => read_sr(&t.meta, sr, clock),
            Src::Reg(r) => t.regs.get(r),
            Src::Imm(v) => v,
        }
    }

    #[inline(always)]
    fn f32(self, t: &ThreadState, clock: u64) -> f32 {
        f32::from_bits(self.get(t, clock))
    }

    #[inline(always)]
    fn i32(self, t: &ThreadState, clock: u64) -> i32 {
        self.get(t, clock) as i32
    }
}

/// A source operand read as a 64-bit value, resolved at issue.
#[derive(Debug, Clone, Copy)]
enum Src64 {
    /// A register pair.
    Pair(Reg),
    /// A 32-bit register, zero-extended.
    Reg(u8),
    /// A constant: a 32-bit immediate carries `f32` bits, widened to
    /// `f64`; `RZ`, absent and other operands read as 0.
    Imm(u64),
}

impl Src64 {
    fn new(op: Operand) -> Src64 {
        match op {
            Operand::R64(r) => Src64::Pair(r),
            Operand::R(r) if !r.is_zero_reg() => Src64::Reg(r.0),
            Operand::Imm(v) => Src64::Imm((f32::from_bits(v) as f64).to_bits()),
            _ => Src64::Imm(0),
        }
    }

    #[inline(always)]
    fn get(self, t: &ThreadState) -> u64 {
        match self {
            Src64::Pair(r) => t.regs.read64(r),
            Src64::Reg(r) => t.regs.get(r) as u64,
            Src64::Imm(v) => v,
        }
    }

    #[inline(always)]
    fn f64(self, t: &ThreadState) -> f64 {
        f64::from_bits(self.get(t))
    }
}

/// A source operand read as a condition, resolved at issue.
#[derive(Debug, Clone, Copy)]
enum Cond {
    /// A predicate, negated if the flag is set.
    Pred(PReg, bool),
    /// A 32-bit register other than `RZ`: true when nonzero.
    Reg(u8),
    /// A constant: an immediate is true when nonzero, `RZ` is false, and
    /// absent or other operands are true.
    Const(bool),
}

impl Cond {
    fn new(op: Operand) -> Cond {
        match op {
            Operand::P(p) => Cond::Pred(p, false),
            Operand::NotP(p) => Cond::Pred(p, true),
            Operand::Imm(v) => Cond::Const(v != 0),
            Operand::R(r) if r.is_zero_reg() => Cond::Const(false),
            Operand::R(r) => Cond::Reg(r.0),
            _ => Cond::Const(true),
        }
    }

    #[inline(always)]
    fn get(self, t: &ThreadState) -> bool {
        match self {
            Cond::Pred(p, negated) => t.regs.read_p(p) != negated,
            Cond::Reg(r) => t.regs.get(r) != 0,
            Cond::Const(b) => b,
        }
    }
}

/// The GPR a 32-bit result goes to: `dsts[0]`, or its pair's low half;
/// `None` for `RZ` or a non-register destination.
fn dst32(d: Dst) -> Option<u8> {
    match d {
        Dst::R(r) | Dst::R64(r) if !r.is_zero_reg() => Some(r.0),
        _ => None,
    }
}

/// The GPRs a 64-bit result goes to: both halves of a pair destination,
/// only the low word for a 32-bit one.
#[derive(Debug, Clone, Copy)]
struct Dst64 {
    lo: Option<u8>,
    hi: Option<u8>,
}

impl Dst64 {
    fn new(d: Dst) -> Dst64 {
        let hi = match d {
            Dst::R64(r) if !r.pair_hi().is_zero_reg() => Some(r.pair_hi().0),
            _ => None,
        };
        Dst64 { lo: dst32(d), hi }
    }

    #[inline(always)]
    fn put(self, regs: &mut RegFile, v: u64) {
        if let Some(lo) = self.lo {
            regs.set(lo, v as u32);
        }
        if let Some(hi) = self.hi {
            regs.set(hi, (v >> 32) as u32);
        }
    }
}

/// The predicate a boolean result goes to.
fn dst_pred(d: Dst) -> Option<PReg> {
    match d {
        Dst::P(p) => Some(p),
        _ => None,
    }
}

fn cmp_f(c: CmpOp, a: f32, b: f32) -> bool {
    match a.partial_cmp(&b) {
        Some(ord) => c.eval(ord),
        None => c == CmpOp::Ne, // unordered: only NE holds
    }
}

fn cmp_d(c: CmpOp, a: f64, b: f64) -> bool {
    match a.partial_cmp(&b) {
        Some(ord) => c.eval(ord),
        None => c == CmpOp::Ne,
    }
}

fn cmp_i(c: CmpOp, a: i32, b: i32) -> bool {
    c.eval(a.cmp(&b))
}

fn modifier_cmp(m: Modifier) -> (CmpOp, BoolOp) {
    match m {
        Modifier::Cmp(c) => (c, BoolOp::And),
        Modifier::CmpBool(c, b) => (c, b),
        _ => (CmpOp::Eq, BoolOp::And),
    }
}

fn mem_width(m: Modifier) -> MemWidth {
    match m {
        Modifier::Width(w) => w,
        _ => MemWidth::B32,
    }
}

fn round_mode(m: Modifier) -> RoundMode {
    match m {
        Modifier::Round(r) => r,
        _ => RoundMode::Rn,
    }
}

fn lut(m: Modifier) -> u8 {
    match m {
        Modifier::Lut(l) => l,
        _ => 0xC0, // default to AND(a, b)
    }
}

/// Three-input logic: bit `i` of the result is bit `(a_i b_i c_i)` of
/// `lut`, computed word-wide as the OR of the minterms `lut` selects.
fn lop3(a: u32, b: u32, c: u32, lut: u8) -> u32 {
    let mut out = 0u32;
    for m in 0..8 {
        if lut & (1 << m) != 0 {
            let pick = |x: u32, bit: u8| if m & bit != 0 { x } else { !x };
            out |= pick(a, 4) & pick(b, 2) & pick(c, 1);
        }
    }
    out
}

fn f2i_sat(x: f64) -> i32 {
    if x.is_nan() {
        0
    } else if x >= i32::MAX as f64 {
        i32::MAX
    } else if x <= i32::MIN as f64 {
        i32::MIN
    } else {
        x as i32
    }
}

fn apply_atom(op: AtomOp, old: u64, v: u64, v2: u64, width: MemWidth) -> u64 {
    match (op, width) {
        (AtomOp::Add, MemWidth::B64) => old.wrapping_add(v),
        (AtomOp::Add, _) => (old as u32).wrapping_add(v as u32) as u64,
        (AtomOp::Min, _) => (old as u32 as i32).min(v as u32 as i32) as u32 as u64,
        (AtomOp::Max, _) => (old as u32 as i32).max(v as u32 as i32) as u32 as u64,
        (AtomOp::Exch, _) => v,
        (AtomOp::Cas, _) => {
            if old == v {
                v2
            } else {
                old
            }
        }
        (AtomOp::And, _) => old & v,
        (AtomOp::Or, _) => old | v,
        (AtomOp::Xor, _) => old ^ v,
        (AtomOp::FAdd, _) => {
            (f32::from_bits(old as u32) + f32::from_bits(v as u32)).to_bits() as u64
        }
    }
}

/// Run the lanes, writing one 32-bit result per lane to `dsts[0]`.
#[inline(always)]
fn gpr32(
    l: &mut Lanes<'_, '_>,
    i: &Instr,
    mut f: impl FnMut(&ThreadState, u64) -> u32,
) -> Result<(), LaneTrap> {
    let d = dst32(i.dsts[0]);
    l.each(|t, clock| {
        let v = f(t, clock);
        if let Some(d) = d {
            t.regs.set(d, v);
        }
        Ok(Flow::Next)
    })
}

/// Run the lanes, writing one 64-bit result per lane to `dsts[0]`.
#[inline(always)]
fn gpr64(
    l: &mut Lanes<'_, '_>,
    i: &Instr,
    mut f: impl FnMut(&ThreadState, u64) -> u64,
) -> Result<(), LaneTrap> {
    let d = Dst64::new(i.dsts[0]);
    l.each(|t, clock| {
        let v = f(t, clock);
        d.put(&mut t.regs, v);
        Ok(Flow::Next)
    })
}

/// Run the lanes, writing one predicate per lane to `dsts[0]`.
#[inline(always)]
fn pred(
    l: &mut Lanes<'_, '_>,
    i: &Instr,
    mut f: impl FnMut(&ThreadState, u64) -> bool,
) -> Result<(), LaneTrap> {
    let d = dst_pred(i.dsts[0]);
    l.each(|t, clock| {
        let v = f(t, clock);
        if let Some(p) = d {
            t.regs.write_p(p, v);
        }
        Ok(Flow::Next)
    })
}

/// Run the lanes of a packed-FP16 op: `f(a, b, c, min)` per half, with
/// the halves of sources 0–2 and source 2 as a condition.
#[inline(always)]
fn half2(
    l: &mut Lanes<'_, '_>,
    i: &Instr,
    f: impl Fn(f32, f32, f32, bool) -> f32,
) -> Result<(), LaneTrap> {
    let (a, b, c, min) =
        (Src::new(i.srcs[0]), Src::new(i.srcs[1]), Src::new(i.srcs[2]), Cond::new(i.srcs[2]));
    gpr32(l, i, |t, k| {
        let (a, b, c, min) = (a.get(t, k), b.get(t, k), c.get(t, k), min.get(t));
        pack(
            f(unpack_lo(a), unpack_lo(b), unpack_lo(c), min),
            f(unpack_hi(a), unpack_hi(b), unpack_hi(c), min),
        )
    })
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
    fn take(l: &Lanes<'_, '_>, src: Operand) -> WarpSnapshot {
        let mut snap = WarpSnapshot { active: 0, vals: [0; WARP_SIZE], preds: 0 };
        for (lane, t) in l.active_threads() {
            snap.active |= 1 << lane;
            snap.vals[lane] = match src {
                Operand::R(r) => t.regs.read(r),
                Operand::Imm(v) => v,
                _ => 0,
            };
            let pred = match src {
                Operand::P(p) => t.regs.read_p(p),
                Operand::NotP(p) => !t.regs.read_p(p),
                _ => t.regs.read(Reg(0)) != 0,
            };
            snap.preds |= (pred as u32) << lane;
        }
        snap
    }

    /// The value of `lane` if it is active.
    fn val(&self, lane: u32) -> Option<u32> {
        (lane < WARP_SIZE as u32 && self.active & (1 << lane) != 0)
            .then(|| self.vals[lane as usize])
    }
}

/// Execute one issued instruction for the active lanes of a warp step.
///
/// # Errors
///
/// Returns the [`TrapKind`] of the first lane that traps, with that lane's
/// index; later lanes have not executed.
pub(crate) fn exec_warp(
    i: &Instr,
    fam: ExecFamily,
    l: &mut Lanes<'_, '_>,
    mem: &mut Mem<'_>,
) -> Result<(), LaneTrap> {
    use ExecFamily::*;
    let src = |k: usize| Src::new(i.srcs[k]);
    let src64 = |k: usize| Src64::new(i.srcs[k]);
    let cond = |k: usize| Cond::new(i.srcs[k]);
    match fam {
        // ---- FP32 -----------------------------------------------------
        FAdd => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| (a.f32(t, k) + b.f32(t, k)).to_bits())
        }
        FMul => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| (a.f32(t, k) * b.f32(t, k)).to_bits())
        }
        FFma => {
            let (a, b, c) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| a.f32(t, k).mul_add(b.f32(t, k), c.f32(t, k)).to_bits())
        }
        FMnMx => {
            let (a, b, min) = (src(0), src(1), cond(2));
            gpr32(l, i, |t, k| {
                let (a, b) = (a.f32(t, k), b.f32(t, k));
                if min.get(t) { a.min(b) } else { a.max(b) }.to_bits()
            })
        }
        FSel | Sel => {
            let (a, b, p) = (src(0), src(1), cond(2));
            gpr32(l, i, |t, k| if p.get(t) { a.get(t, k) } else { b.get(t, k) })
        }
        FSet => {
            let ((c, _), a, b) = (modifier_cmp(i.modifier), src(0), src(1));
            gpr32(l, i, |t, k| if cmp_f(c, a.f32(t, k), b.f32(t, k)) { u32::MAX } else { 0 })
        }
        FSetP => {
            let ((c, op), a, b, p) = (modifier_cmp(i.modifier), src(0), src(1), cond(2));
            pred(l, i, |t, k| op.eval(cmp_f(c, a.f32(t, k), b.f32(t, k)), p.get(t)))
        }
        FChk => {
            let (a, b) = (src(0), src(1));
            pred(l, i, |t, k| !(a.f32(t, k) / b.f32(t, k)).is_finite())
        }
        Mufu => {
            let f = match i.modifier {
                Modifier::Func(f) => f,
                _ => MufuFunc::Rcp,
            };
            let a = src(0);
            gpr32(l, i, |t, k| f.eval(a.f32(t, k)).to_bits())
        }
        FCmp => {
            let ((c, _), a, b, x) = (modifier_cmp(i.modifier), src(0), src(1), src(2));
            gpr32(l, i, |t, k| if cmp_f(c, x.f32(t, k), 0.0) { a.get(t, k) } else { b.get(t, k) })
        }
        FRnd => {
            let (r, a) = (round_mode(i.modifier), src(0));
            gpr32(l, i, |t, k| (r.round_f64(a.f32(t, k) as f64) as f32).to_bits())
        }
        // ---- Packed FP16 (two halves per register, computed in f32) -----
        HAdd2 => half2(l, i, |a, b, _, _| a + b),
        HMul2 => half2(l, i, |a, b, _, _| a * b),
        HFma2 => half2(l, i, |a, b, c, _| a.mul_add(b, c)),
        HMnMx2 => half2(l, i, |a, b, _, min| if min { a.min(b) } else { a.max(b) }),
        HSet2 => {
            let ((c, _), a, b) = (modifier_cmp(i.modifier), src(0), src(1));
            gpr32(l, i, |t, k| {
                let (a, b) = (a.get(t, k), b.get(t, k));
                let lo = cmp_f(c, unpack_lo(a), unpack_lo(b));
                let hi = cmp_f(c, unpack_hi(a), unpack_hi(b));
                (if lo { 0xFFFFu32 } else { 0 }) | (if hi { 0xFFFF_0000 } else { 0 })
            })
        }
        HSetP2 => {
            // Both halves compared; the modifier's boolean op combines the
            // two half-results into the single predicate destination.
            let ((c, op), a, b) = (modifier_cmp(i.modifier), src(0), src(1));
            pred(l, i, |t, k| {
                let (a, b) = (a.get(t, k), b.get(t, k));
                op.eval(cmp_f(c, unpack_lo(a), unpack_lo(b)), cmp_f(c, unpack_hi(a), unpack_hi(b)))
            })
        }
        // ---- FP64 ------------------------------------------------------
        DAdd => {
            let (a, b) = (src64(0), src64(1));
            gpr64(l, i, |t, _| (a.f64(t) + b.f64(t)).to_bits())
        }
        DMul => {
            let (a, b) = (src64(0), src64(1));
            gpr64(l, i, |t, _| (a.f64(t) * b.f64(t)).to_bits())
        }
        DFma => {
            let (a, b, c) = (src64(0), src64(1), src64(2));
            gpr64(l, i, |t, _| a.f64(t).mul_add(b.f64(t), c.f64(t)).to_bits())
        }
        DMnMx => {
            let (a, b, min) = (src64(0), src64(1), cond(2));
            gpr64(l, i, |t, _| {
                let (a, b) = (a.f64(t), b.f64(t));
                if min.get(t) { a.min(b) } else { a.max(b) }.to_bits()
            })
        }
        DSet => {
            let ((c, _), a, b) = (modifier_cmp(i.modifier), src64(0), src64(1));
            gpr32(l, i, |t, _| if cmp_d(c, a.f64(t), b.f64(t)) { u32::MAX } else { 0 })
        }
        DSetP => {
            let ((c, op), a, b, p) = (modifier_cmp(i.modifier), src64(0), src64(1), cond(2));
            pred(l, i, |t, _| op.eval(cmp_d(c, a.f64(t), b.f64(t)), p.get(t)))
        }
        // ---- Integer ------------------------------------------------------
        IAdd => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| a.get(t, k).wrapping_add(b.get(t, k)))
        }
        ISub => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| a.get(t, k).wrapping_sub(b.get(t, k)))
        }
        IAdd3 => {
            let (a, b, c) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| a.get(t, k).wrapping_add(b.get(t, k)).wrapping_add(c.get(t, k)))
        }
        IMad => {
            let (a, b, c) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| a.get(t, k).wrapping_mul(b.get(t, k)).wrapping_add(c.get(t, k)))
        }
        IMul => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| a.get(t, k).wrapping_mul(b.get(t, k)))
        }
        IMnMx => {
            let (a, b, min) = (src(0), src(1), cond(2));
            gpr32(l, i, |t, k| {
                let (a, b) = (a.i32(t, k), b.i32(t, k));
                (if min.get(t) { a.min(b) } else { a.max(b) }) as u32
            })
        }
        IScAdd | Lea => {
            let (a, b, s) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| (a.get(t, k) << (s.get(t, k) & 31)).wrapping_add(b.get(t, k)))
        }
        ISet => {
            let ((c, _), a, b) = (modifier_cmp(i.modifier), src(0), src(1));
            gpr32(l, i, |t, k| if cmp_i(c, a.i32(t, k), b.i32(t, k)) { u32::MAX } else { 0 })
        }
        ISetP => {
            let ((c, op), a, b, p) = (modifier_cmp(i.modifier), src(0), src(1), cond(2));
            pred(l, i, |t, k| op.eval(cmp_i(c, a.i32(t, k), b.i32(t, k)), p.get(t)))
        }
        ICmp => {
            let ((c, _), a, b, x) = (modifier_cmp(i.modifier), src(0), src(1), src(2));
            gpr32(l, i, |t, k| if cmp_i(c, x.i32(t, k), 0) { a.get(t, k) } else { b.get(t, k) })
        }
        ISad => {
            let (a, b, c) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| {
                a.i32(t, k).wrapping_sub(b.i32(t, k)).unsigned_abs().wrapping_add(c.get(t, k))
            })
        }
        IAbs => {
            let a = src(0);
            gpr32(l, i, |t, k| a.i32(t, k).wrapping_abs() as u32)
        }
        Lop | Lop3 => {
            let (a, b, c, lut) = (src(0), src(1), src(2), lut(i.modifier));
            gpr32(l, i, |t, k| lop3(a.get(t, k), b.get(t, k), c.get(t, k), lut))
        }
        Popc => {
            let a = src(0);
            gpr32(l, i, |t, k| a.get(t, k).count_ones())
        }
        Flo => {
            let a = src(0);
            gpr32(l, i, |t, k| match a.get(t, k) {
                0 => u32::MAX,
                a => 31 - a.leading_zeros(),
            })
        }
        Brev => {
            let a = src(0);
            gpr32(l, i, |t, k| a.get(t, k).reverse_bits())
        }
        Bmsk => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| {
                let (pos, width) = (a.get(t, k) & 31, b.get(t, k).min(32));
                (((1u64 << width) - 1) << pos) as u32
            })
        }
        Bfe => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| {
                let (a, ctl) = (a.get(t, k), b.get(t, k));
                let (pos, len) = (ctl & 31, (ctl >> 8) & 63);
                let mask = if len >= 32 { u32::MAX } else { (1u32 << len).wrapping_sub(1) };
                (a >> pos) & mask
            })
        }
        Bfi => {
            let (a, b, c) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| {
                let (a, ctl, c) = (a.get(t, k), b.get(t, k), c.get(t, k));
                let (pos, len) = (ctl & 31, (ctl >> 8) & 63);
                let field = if len >= 32 { u32::MAX } else { (1u32 << len).wrapping_sub(1) };
                let mask = field << pos;
                (c & !mask) | ((a << pos) & mask)
            })
        }
        Shf => {
            let (a, b, s) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| {
                let (lo, hi) = (a.get(t, k) as u64, b.get(t, k) as u64);
                (((hi << 32) | lo) >> (s.get(t, k) & 31)) as u32
            })
        }
        Shl => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| match b.get(t, k) {
                s @ 0..=31 => a.get(t, k) << s,
                _ => 0,
            })
        }
        Shr => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| match b.get(t, k) {
                s @ 0..=31 => a.get(t, k) >> s,
                _ => 0,
            })
        }
        Xmad => {
            let (a, b, c) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| {
                (a.get(t, k) & 0xFFFF).wrapping_mul(b.get(t, k) & 0xFFFF).wrapping_add(c.get(t, k))
            })
        }
        // ---- Conversions ---------------------------------------------------
        F2F => match i.dsts[0] {
            Dst::R64(_) => {
                let a = src(0);
                gpr64(l, i, |t, k| (a.f32(t, k) as f64).to_bits())
            }
            _ => {
                let a = src64(0);
                gpr32(l, i, |t, _| (a.f64(t) as f32).to_bits())
            }
        },
        F2I => {
            let r = round_mode(i.modifier);
            match i.srcs[0] {
                Operand::R64(_) => {
                    let a = src64(0);
                    gpr32(l, i, |t, _| f2i_sat(r.round_f64(a.f64(t))) as u32)
                }
                _ => {
                    let a = src(0);
                    gpr32(l, i, |t, k| f2i_sat(r.round_f64(a.f32(t, k) as f64)) as u32)
                }
            }
        }
        I2F => {
            let a = src(0);
            match i.dsts[0] {
                Dst::R64(_) => gpr64(l, i, |t, k| (a.i32(t, k) as f64).to_bits()),
                _ => gpr32(l, i, |t, k| (a.i32(t, k) as f32).to_bits()),
            }
        }
        I2I => {
            let a = src(0);
            gpr32(l, i, |t, k| a.get(t, k))
        }
        // ---- Data movement ----------------------------------------------------
        Mov => match i.dsts[0] {
            Dst::R64(_) => {
                let a = src64(0);
                gpr64(l, i, |t, _| a.get(t))
            }
            _ => {
                let a = src(0);
                gpr32(l, i, |t, k| a.get(t, k))
            }
        },
        Prmt => {
            let (a, b, s) = (src(0), src(1), src(2));
            gpr32(l, i, |t, k| {
                let pool = ((b.get(t, k) as u64) << 32) | a.get(t, k) as u64;
                let sel = s.get(t, k);
                let mut out = 0u32;
                for byte in 0..4 {
                    let nib = ((sel >> (4 * byte)) & 0x7) as u64;
                    out |= (((pool >> (8 * nib)) & 0xFF) as u32) << (8 * byte);
                }
                out
            })
        }
        Sgxt => {
            let (a, b) = (src(0), src(1));
            gpr32(l, i, |t, k| {
                let a = a.get(t, k);
                match b.get(t, k).min(32) {
                    0 => 0,
                    32 => a,
                    bits => (((a << (32 - bits)) as i32) >> (32 - bits)) as u32,
                }
            })
        }
        S2R => {
            let a = match i.srcs[0] {
                Operand::Sr(sr) => Src::Sr(sr),
                _ => Src::Imm(0),
            };
            gpr32(l, i, |t, k| a.get(t, k))
        }
        P2R => gpr32(l, i, |t, _| t.regs.pred_bits()),
        R2P => {
            let (a, b) = (src(0), src(1));
            l.each(|t, k| {
                let (bits, mask) = (a.get(t, k), b.get(t, k));
                t.regs.set_pred_bits(bits, mask);
                Ok(Flow::Next)
            })
        }
        PSet => {
            let ((_, op), a, b) = (modifier_cmp(i.modifier), cond(0), cond(1));
            gpr32(l, i, |t, _| if op.eval(a.get(t), b.get(t)) { u32::MAX } else { 0 })
        }
        PSetP => {
            let ((_, op), a, b) = (modifier_cmp(i.modifier), cond(0), cond(1));
            pred(l, i, |t, _| op.eval(a.get(t), b.get(t)))
        }
        PLop3 => {
            let (a, b, c, lut) = (cond(0), cond(1), cond(2), lut(i.modifier));
            pred(l, i, |t, _| {
                let idx = ((a.get(t) as u8) << 2) | ((b.get(t) as u8) << 1) | c.get(t) as u8;
                (lut >> idx) & 1 != 0
            })
        }
        // ---- Memory ---------------------------------------------------------
        Ld | St | Atom | Red => {
            let Some(m) = i.mem_ref() else {
                return l.each(|_, _| Err(TrapKind::IllegalInstruction));
            };
            let (w, space) = (mem_width(i.modifier), m.space);
            let (base, offset) = (Src::new(Operand::R(m.base)), m.offset as i32 as u32);
            let addr = move |t: &ThreadState, k: u64| base.get(t, k).wrapping_add(offset);
            match fam {
                Ld => {
                    let d = if w == MemWidth::B64 {
                        Dst64::new(i.dsts[0])
                    } else {
                        Dst64 { lo: dst32(i.dsts[0]), hi: None }
                    };
                    l.each(|t, k| {
                        let v = mem.load(&t.local, space, addr(t, k), w)?;
                        d.put(&mut t.regs, v);
                        Ok(Flow::Next)
                    })
                }
                St if w == MemWidth::B64 => {
                    let v = src64(1);
                    l.each(|t, k| {
                        let (a, v) = (addr(t, k), v.get(t));
                        mem.store(&mut t.local, space, a, w, v)?;
                        Ok(Flow::Next)
                    })
                }
                St => {
                    let v = src(1);
                    l.each(|t, k| {
                        let (a, v) = (addr(t, k), v.get(t, k) as u64);
                        mem.store(&mut t.local, space, a, w, v)?;
                        Ok(Flow::Next)
                    })
                }
                _ => {
                    let op = match i.modifier {
                        Modifier::AtomOp(a) => a,
                        _ => AtomOp::Add,
                    };
                    let (v, v2) = (src(1), src(2));
                    let d = if fam == Atom { dst32(i.dsts[0]) } else { None };
                    l.each(|t, k| {
                        let (v, v2) = (v.get(t, k) as u64, v2.get(t, k) as u64);
                        let a = addr(t, k);
                        let old = mem.load(&t.local, space, a, w)?;
                        mem.store(&mut t.local, space, a, w, apply_atom(op, old, v, v2, w))?;
                        if let Some(d) = d {
                            t.regs.set(d, old as u32);
                        }
                        Ok(Flow::Next)
                    })
                }
            }
        }
        // ---- Control flow ------------------------------------------------------
        Bra => {
            let target = i.target;
            l.each(|_, _| Ok(Flow::Branch(target)))
        }
        Brx => {
            let (a, len) = (src(0), mem.kernel_len);
            l.each(|t, k| match a.get(t, k) {
                target if target >= len => Err(TrapKind::InvalidBranch { target }),
                target => Ok(Flow::Branch(target)),
            })
        }
        Call => {
            let (target, ret) = (i.target, l.pc() + 1);
            let valid = target < mem.kernel_len;
            l.each(|t, _| {
                if !valid {
                    return Err(TrapKind::InvalidBranch { target });
                }
                t.ret_stack.push(ret);
                Ok(Flow::Branch(target))
            })
        }
        Ret => {
            let len = mem.kernel_len;
            l.each(|t, _| match t.ret_stack.pop().ok_or(TrapKind::RetUnderflow)? {
                target if target >= len => Err(TrapKind::InvalidBranch { target }),
                target => Ok(Flow::Branch(target)),
            })
        }
        Exit => l.each(|_, _| Ok(Flow::Exit)),
        Bar => l.each(|_, _| Ok(Flow::Barrier)),
        Kill => l.each(|_, _| Err(TrapKind::Killed)),
        Bpt => l.each(|_, _| Err(TrapKind::Breakpoint)),
        Nop | MemFence | NanoSleep | ReconvHint => l.each(|_, _| Ok(Flow::Next)),
        // ---- Cross-lane: every lane reads the issue-time snapshot --------
        Shfl => {
            let snap = WarpSnapshot::take(l, i.srcs[0]);
            let mode = match i.modifier {
                Modifier::Shfl(m) => m,
                _ => ShflMode::Idx,
            };
            let operand = match i.srcs[1] {
                Operand::Imm(v) => Src::Imm(v),
                Operand::R(r) => Src::new(Operand::R(r)),
                _ => Src::Imm(0),
            };
            let d = cross_lane_dst(i.dsts[0]);
            l.each(|t, k| {
                let (me, operand) = (t.meta.lane, operand.get(t, k));
                let src_lane = match mode {
                    ShflMode::Idx => operand,
                    ShflMode::Up => me.wrapping_sub(operand),
                    ShflMode::Down => me + operand,
                    ShflMode::Bfly => me ^ operand,
                };
                // Inactive or out-of-range source lane: keep own value
                // (CUDA leaves the destination undefined; "own value" is
                // the common hardware behaviour and is deterministic).
                let own = snap.val(me).unwrap_or(0);
                if let Some(d) = d {
                    t.regs.set(d, snap.val(src_lane).unwrap_or(own));
                }
                Ok(Flow::Next)
            })
        }
        Vote => {
            // VOTE = BALLOT: bit per active lane whose source predicate holds.
            let ballot = WarpSnapshot::take(l, i.srcs[0]).preds;
            let d = cross_lane_dst(i.dsts[0]);
            l.each(|t, _| {
                if let Some(d) = d {
                    t.regs.set(d, ballot);
                }
                Ok(Flow::Next)
            })
        }
        FSwzAdd => {
            // Butterfly-partner add: value + partner lane's value.
            let snap = WarpSnapshot::take(l, i.srcs[0]);
            let d = cross_lane_dst(i.dsts[0]);
            l.each(|t, _| {
                let own = snap.val(t.meta.lane).unwrap_or(0);
                let partner = snap.val(t.meta.lane ^ 1).unwrap_or(own);
                if let Some(d) = d {
                    t.regs.set(d, (f32::from_bits(own) + f32::from_bits(partner)).to_bits());
                }
                Ok(Flow::Next)
            })
        }
        Unimplemented => l.each(|_, _| Err(TrapKind::IllegalInstruction)),
    }
}

/// Cross-lane ops write a 32-bit register destination only.
fn cross_lane_dst(d: Dst) -> Option<u8> {
    match d {
        Dst::R(r) if !r.is_zero_reg() => Some(r.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Counters, Warp};
    use crate::grid::Dim3;
    use gpu_isa::{Guard, MemRef, Opcode};
    use proptest::prelude::*;

    fn meta() -> ThreadMeta {
        ThreadMeta {
            tid: Dim3::from(3),
            ctaid: Dim3::from(1),
            ntid: Dim3::from(32),
            nctaid: Dim3::from(4),
            flat_tid: 3,
            flat_ctaid: 1,
            lane: 3,
            warp: 0,
            sm: 1,
        }
    }

    /// Execute `i` for the single thread `t`, as a one-lane warp step from
    /// lane 0's pc in `warp`, and report the flow it took.
    fn exec_scalar(
        i: &Instr,
        t: &mut ThreadState,
        warp: &mut Warp,
        mem: &mut Mem<'_>,
    ) -> Result<Flow, TrapKind> {
        let pc = warp.pc[0];
        warp.exited = 0;
        warp.waiting = 0;
        let mut counters = Counters { budget: u64::MAX, ..Counters::default() };
        let threads = std::slice::from_mut(t);
        let mut lanes = Lanes::new(threads, warp, 1, pc, i, &mut counters, None);
        exec_warp(i, i.op.family(), &mut lanes, mem).map_err(|(kind, _)| kind)?;
        Ok(if warp.exited != 0 {
            Flow::Exit
        } else if warp.waiting != 0 {
            Flow::Barrier
        } else if warp.pc[0] == pc + 1 {
            Flow::Next
        } else {
            Flow::Branch(warp.pc[0])
        })
    }

    struct Fixture {
        t: ThreadState,
        warp: Warp,
        global: GlobalMem,
        shared: SharedMem,
        cmem: Vec<u8>,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                t: ThreadState::new(meta(), 256, 256),
                warp: Warp::new(1),
                global: GlobalMem::new(1 << 16),
                shared: SharedMem::new(1024),
                cmem: vec![0; 64],
            }
        }

        fn run(&mut self, i: &Instr) -> Result<Flow, TrapKind> {
            let mut mem = Mem {
                global: &mut self.global,
                shared: &mut self.shared,
                cmem: &self.cmem,
                kernel_len: 16,
            };
            exec_scalar(i, &mut self.t, &mut self.warp, &mut mem)
        }
    }

    fn instr(op: Opcode) -> Instr {
        Instr::new(op)
    }

    #[test]
    fn fadd_adds() {
        let mut f = Fixture::new();
        f.t.regs.write_f32(Reg(1), 1.5);
        f.t.regs.write_f32(Reg(2), 2.25);
        let mut i = instr(Opcode::FADD);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs[0] = Operand::R(Reg(1));
        i.srcs[1] = Operand::R(Reg(2));
        assert_eq!(f.run(&i), Ok(Flow::Next));
        assert_eq!(f.t.regs.read_f32(Reg(0)), 3.75);
    }

    #[test]
    fn ffma_fuses() {
        let mut f = Fixture::new();
        f.t.regs.write_f32(Reg(1), 2.0);
        f.t.regs.write_f32(Reg(2), 3.0);
        f.t.regs.write_f32(Reg(3), 4.0);
        let mut i = instr(Opcode::FFMA);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::R(Reg(3)), Operand::None];
        f.run(&i).expect("exec");
        assert_eq!(f.t.regs.read_f32(Reg(0)), 10.0);
    }

    #[test]
    fn dfma_uses_pairs() {
        let mut f = Fixture::new();
        f.t.regs.write_f64(Reg(2), 2.0);
        f.t.regs.write_f64(Reg(4), 3.0);
        f.t.regs.write_f64(Reg(6), 0.5);
        let mut i = instr(Opcode::DFMA);
        i.dsts[0] = Dst::R64(Reg(8));
        i.srcs = [Operand::R64(Reg(2)), Operand::R64(Reg(4)), Operand::R64(Reg(6)), Operand::None];
        f.run(&i).expect("exec");
        assert_eq!(f.t.regs.read_f64(Reg(8)), 6.5);
    }

    #[test]
    fn isetp_with_bool_combine() {
        let mut f = Fixture::new();
        f.t.regs.write(Reg(1), 5);
        f.t.regs.write_p(PReg(1), true);
        let mut i = instr(Opcode::ISETP);
        i.modifier = Modifier::CmpBool(CmpOp::Lt, BoolOp::And);
        i.dsts[0] = Dst::P(PReg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::Imm(10), Operand::P(PReg(1)), Operand::None];
        f.run(&i).expect("exec");
        assert!(f.t.regs.read_p(PReg(0)));
    }

    #[test]
    fn nan_compares_unordered() {
        let mut f = Fixture::new();
        f.t.regs.write_f32(Reg(1), f32::NAN);
        f.t.regs.write_f32(Reg(2), 1.0);
        for (cmp, expect) in [(CmpOp::Lt, false), (CmpOp::Eq, false), (CmpOp::Ne, true)] {
            let mut i = instr(Opcode::FSETP);
            i.modifier = Modifier::Cmp(cmp);
            i.dsts[0] = Dst::P(PReg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::P(PReg::PT), Operand::None];
            f.run(&i).expect("exec");
            assert_eq!(f.t.regs.read_p(PReg(0)), expect, "{cmp:?}");
        }
    }

    #[test]
    fn lop3_truth_tables() {
        let mut f = Fixture::new();
        f.t.regs.write(Reg(1), 0b1100);
        f.t.regs.write(Reg(2), 0b1010);
        for (lut_v, expect) in [(0xC0u8, 0b1000u32), (0xFC, 0b1110), (0x3C, 0b0110)] {
            let mut i = instr(Opcode::LOP3);
            i.modifier = Modifier::Lut(lut_v);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::R(Reg::RZ), Operand::None];
            f.run(&i).expect("exec");
            assert_eq!(f.t.regs.read(Reg(0)), expect, "lut {lut_v:#x}");
        }
    }

    #[test]
    fn shift_clamps_at_32() {
        let mut f = Fixture::new();
        f.t.regs.write(Reg(1), 0xFFFF_FFFF);
        let mut i = instr(Opcode::SHL);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::Imm(33), Operand::None, Operand::None];
        f.run(&i).expect("exec");
        assert_eq!(f.t.regs.read(Reg(0)), 0);
    }

    #[test]
    fn global_load_store() {
        let mut f = Fixture::new();
        let p = f.global.alloc(64).expect("alloc");
        f.t.regs.write(Reg(4), p.0);
        f.t.regs.write(Reg(5), 0xABCD);
        let mut st = instr(Opcode::STG);
        st.modifier = Modifier::Width(MemWidth::B32);
        st.srcs = [
            Operand::Mem(MemRef { base: Reg(4), offset: 8, space: Space::Global }),
            Operand::R(Reg(5)),
            Operand::None,
            Operand::None,
        ];
        f.run(&st).expect("store");
        let mut ld = instr(Opcode::LDG);
        ld.modifier = Modifier::Width(MemWidth::B32);
        ld.dsts[0] = Dst::R(Reg(6));
        ld.srcs[0] = Operand::Mem(MemRef { base: Reg(4), offset: 8, space: Space::Global });
        f.run(&ld).expect("load");
        assert_eq!(f.t.regs.read(Reg(6)), 0xABCD);
    }

    #[test]
    fn corrupted_pointer_traps() {
        let mut f = Fixture::new();
        f.t.regs.write(Reg(4), 0); // null
        let mut ld = instr(Opcode::LDG);
        ld.modifier = Modifier::Width(MemWidth::B32);
        ld.dsts[0] = Dst::R(Reg(6));
        ld.srcs[0] = Operand::Mem(MemRef { base: Reg(4), offset: 0, space: Space::Global });
        assert!(matches!(f.run(&ld), Err(TrapKind::OutOfBounds { .. })));
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut f = Fixture::new();
        let p = f.global.alloc(16).expect("alloc");
        f.global.write_u32s(p, &[100]).expect("write");
        f.t.regs.write(Reg(4), p.0);
        f.t.regs.write(Reg(5), 7);
        let mut a = instr(Opcode::ATOMG);
        a.modifier = Modifier::AtomOp(AtomOp::Add);
        a.dsts[0] = Dst::R(Reg(6));
        a.srcs = [
            Operand::Mem(MemRef { base: Reg(4), offset: 0, space: Space::Global }),
            Operand::R(Reg(5)),
            Operand::None,
            Operand::None,
        ];
        f.run(&a).expect("atom");
        assert_eq!(f.t.regs.read(Reg(6)), 100);
        assert_eq!(f.global.read_u32s(p, 1).expect("read"), vec![107]);
    }

    #[test]
    fn call_ret_flow() {
        let mut f = Fixture::new();
        let mut call = instr(Opcode::CALL);
        call.target = 5;
        assert_eq!(f.run(&call), Ok(Flow::Branch(5)));
        let ret = instr(Opcode::RET);
        assert_eq!(f.run(&ret), Ok(Flow::Branch(1)));
        assert_eq!(f.run(&ret), Err(TrapKind::RetUnderflow));
    }

    #[test]
    fn brx_validates_target() {
        let mut f = Fixture::new();
        f.t.regs.write(Reg(1), 99);
        let mut b = instr(Opcode::BRX);
        b.srcs[0] = Operand::R(Reg(1));
        assert_eq!(f.run(&b), Err(TrapKind::InvalidBranch { target: 99 }));
        f.t.regs.write(Reg(1), 3);
        assert_eq!(f.run(&b), Ok(Flow::Branch(3)));
    }

    #[test]
    fn control_flow_basics() {
        let mut f = Fixture::new();
        assert_eq!(f.run(&instr(Opcode::EXIT)), Ok(Flow::Exit));
        assert_eq!(f.run(&instr(Opcode::BAR)), Ok(Flow::Barrier));
        assert_eq!(f.run(&instr(Opcode::NOP)), Ok(Flow::Next));
        assert_eq!(f.run(&instr(Opcode::KILL)), Err(TrapKind::Killed));
        assert_eq!(f.run(&instr(Opcode::BPT)), Err(TrapKind::Breakpoint));
    }

    #[test]
    fn unimplemented_opcode_traps() {
        let mut f = Fixture::new();
        assert_eq!(f.run(&instr(Opcode::TEX)), Err(TrapKind::IllegalInstruction));
        assert_eq!(f.run(&instr(Opcode::HMMA)), Err(TrapKind::IllegalInstruction));
    }

    #[test]
    fn s2r_reads_identity() {
        let mut f = Fixture::new();
        let mut i = instr(Opcode::S2R);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs[0] = Operand::Sr(SpecialReg::LaneId);
        f.run(&i).expect("exec");
        assert_eq!(f.t.regs.read(Reg(0)), 3);
        i.srcs[0] = Operand::Sr(SpecialReg::SmId);
        f.run(&i).expect("exec");
        assert_eq!(f.t.regs.read(Reg(0)), 1);
    }

    #[test]
    fn conversions_roundtrip() {
        let mut f = Fixture::new();
        f.t.regs.write(Reg(1), (-7i32) as u32);
        let mut i2f = instr(Opcode::I2F);
        i2f.dsts[0] = Dst::R(Reg(2));
        i2f.srcs[0] = Operand::R(Reg(1));
        f.run(&i2f).expect("exec");
        assert_eq!(f.t.regs.read_f32(Reg(2)), -7.0);

        let mut f2i = instr(Opcode::F2I);
        f2i.modifier = Modifier::Round(RoundMode::Rz);
        f2i.dsts[0] = Dst::R(Reg(3));
        f2i.srcs[0] = Operand::R(Reg(2));
        f.run(&f2i).expect("exec");
        assert_eq!(f.t.regs.read(Reg(3)) as i32, -7);
    }

    #[test]
    fn f2i_saturates_nan_and_range() {
        assert_eq!(f2i_sat(f64::NAN), 0);
        assert_eq!(f2i_sat(1e300), i32::MAX);
        assert_eq!(f2i_sat(-1e300), i32::MIN);
    }

    #[test]
    fn predicated_guard_not_checked_here() {
        // exec_warp runs the lanes whose guard already passed; guard
        // handling is the scheduler's job. A guarded instruction still
        // executes.
        let mut f = Fixture::new();
        let mut i = instr(Opcode::MOV32I);
        i.guard = Guard::if_true(PReg(0)); // P0 is false
        i.dsts[0] = Dst::R(Reg(1));
        i.srcs[0] = Operand::Imm(9);
        f.run(&i).expect("exec");
        assert_eq!(f.t.regs.read(Reg(1)), 9);
    }

    /// Bit-at-a-time LUT evaluation: the oracle for `lop3`.
    fn lop3_bitwise(a: u32, b: u32, c: u32, lut: u8) -> u32 {
        let mut out = 0u32;
        for bit in 0..32 {
            let idx = (((a >> bit) & 1) << 2) | (((b >> bit) & 1) << 1) | ((c >> bit) & 1);
            out |= (((lut >> idx) & 1) as u32) << bit;
        }
        out
    }

    proptest! {
        #[test]
        fn lop3_matches_the_bit_loop(
            a in any::<u32>(),
            b in any::<u32>(),
            c in any::<u32>(),
            lut in any::<u8>(),
        ) {
            prop_assert_eq!(lop3(a, b, c, lut), lop3_bitwise(a, b, c, lut));
        }
    }
}

#[cfg(test)]
mod fp16_tests {
    use super::*;
    use crate::block::{Counters, Warp};
    use crate::grid::Dim3;
    use gpu_isa::Opcode;

    fn meta() -> ThreadMeta {
        ThreadMeta {
            tid: Dim3::from(0),
            ctaid: Dim3::from(0),
            ntid: Dim3::from(32),
            nctaid: Dim3::from(1),
            flat_tid: 0,
            flat_ctaid: 0,
            lane: 0,
            warp: 0,
            sm: 0,
        }
    }

    fn run_one(i: &Instr, t: &mut ThreadState) -> Result<Flow, TrapKind> {
        let mut global = GlobalMem::new(4096);
        let mut shared = SharedMem::new(64);
        let mut mem =
            Mem { global: &mut global, shared: &mut shared, cmem: &[0; 16], kernel_len: 8 };
        let mut counters = Counters { budget: u64::MAX, ..Counters::default() };
        let mut warp = Warp::new(1);
        let threads = std::slice::from_mut(t);
        let mut lanes = Lanes::new(threads, &mut warp, 1, 0, i, &mut counters, None);
        exec_warp(i, i.op.family(), &mut lanes, &mut mem).map_err(|(kind, _)| kind)?;
        Ok(Flow::Next)
    }

    fn thread() -> ThreadState {
        ThreadState::new(meta(), 0, 256)
    }

    #[test]
    fn hadd2_adds_both_halves() {
        let mut t = thread();
        t.regs.write(Reg(1), pack(1.5, -2.0));
        t.regs.write(Reg(2), pack(0.25, 10.0));
        let mut i = Instr::new(Opcode::HADD2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut t).expect("exec");
        assert_eq!(t.regs.read(Reg(0)), pack(1.75, 8.0));
    }

    #[test]
    fn hfma2_fuses_both_halves() {
        let mut t = thread();
        t.regs.write(Reg(1), pack(2.0, 3.0));
        t.regs.write(Reg(2), pack(4.0, 0.5));
        t.regs.write(Reg(3), pack(1.0, -1.0));
        let mut i = Instr::new(Opcode::HFMA2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::R(Reg(3)), Operand::None];
        run_one(&i, &mut t).expect("exec");
        assert_eq!(t.regs.read(Reg(0)), pack(9.0, 0.5));
    }

    #[test]
    fn hmul2_saturates_to_f16_range() {
        let mut t = thread();
        t.regs.write(Reg(1), pack(60000.0, 2.0));
        t.regs.write(Reg(2), pack(2.0, 2.0));
        let mut i = Instr::new(Opcode::HMUL2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut t).expect("exec");
        // 60000 rounds to the nearest representable f16 first; ×2 overflows
        // to +inf in the low half, 4.0 in the high half.
        let lo = unpack_lo(t.regs.read(Reg(0)));
        assert!(lo.is_infinite() && lo > 0.0);
        assert_eq!(unpack_hi(t.regs.read(Reg(0))), 4.0);
    }

    #[test]
    fn hset2_masks_per_half() {
        let mut t = thread();
        t.regs.write(Reg(1), pack(1.0, 5.0));
        t.regs.write(Reg(2), pack(2.0, 4.0));
        let mut i = Instr::new(Opcode::HSET2);
        i.modifier = Modifier::Cmp(CmpOp::Lt);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut t).expect("exec");
        assert_eq!(t.regs.read(Reg(0)), 0x0000_FFFF, "lo: 1<2 true, hi: 5<4 false");
    }

    #[test]
    fn hsetp2_combines_halves_with_boolop() {
        let mut t = thread();
        t.regs.write(Reg(1), pack(1.0, 5.0));
        t.regs.write(Reg(2), pack(2.0, 4.0));
        let mut i = Instr::new(Opcode::HSETP2);
        i.modifier = Modifier::Cmp(CmpOp::Lt); // AND-combined by default
        i.dsts[0] = Dst::P(PReg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
        run_one(&i, &mut t).expect("exec");
        assert!(!t.regs.read_p(PReg(0)), "true AND false");
        i.modifier = Modifier::CmpBool(CmpOp::Lt, BoolOp::Or);
        run_one(&i, &mut t).expect("exec");
        assert!(t.regs.read_p(PReg(0)), "true OR false");
    }

    #[test]
    fn hmnmx2_selects_per_half() {
        let mut t = thread();
        t.regs.write(Reg(1), pack(1.0, 5.0));
        t.regs.write(Reg(2), pack(2.0, 4.0));
        let mut i = Instr::new(Opcode::HMNMX2);
        i.dsts[0] = Dst::R(Reg(0));
        i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::P(PReg::PT), Operand::None];
        run_one(&i, &mut t).expect("exec");
        assert_eq!(t.regs.read(Reg(0)), pack(1.0, 4.0), "min per half");
    }
}
