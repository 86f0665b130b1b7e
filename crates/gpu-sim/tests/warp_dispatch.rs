//! Warp-step dispatch: exact trap points, per-lane hook timing and
//! register reuse across blocks, launches and tools.
//!
//! The expected clock values and cycle counts below were recorded with a
//! per-thread dispatch loop; a warp-wide loop must reproduce them exactly.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{CmpOp, Dst, Instr, MemRef, MemWidth, Modifier, Opcode, Operand, PReg, Reg, Space};
use gpu_isa::{Kernel, SpecialReg};
use gpu_sim::{
    Dim3, ExecHook, GlobalMem, Gpu, GpuConfig, InstrSite, Instrumentation, Launch, LaunchStats,
    SimError, ThreadCtx, TrapInfo, TrapKind,
};

/// Launch `grid` blocks of `block` threads, with `hook` (if any) called
/// before and after every instruction.
fn launch(
    gpu: &mut Gpu,
    kernel: &Kernel,
    (grid, block): (u32, u32),
    params: &[u32],
    budget: u64,
    mem: &mut GlobalMem,
    hook: Option<&mut dyn ExecHook>,
) -> Result<LaunchStats, SimError> {
    let marks = vec![true; kernel.len()];
    let mut ins = hook.map(|hook| Instrumentation {
        before_mask: &marks,
        after_mask: &marks,
        hook,
        kernel_instance: 0,
    });
    gpu.launch(
        &Launch {
            kernel,
            grid: Dim3::from(grid),
            block: Dim3::from(block),
            params,
            instr_budget: Some(budget),
        },
        mem,
        ins.as_mut(),
    )
}

fn trap(result: Result<LaunchStats, SimError>) -> (TrapInfo, LaunchStats) {
    match result {
        Err(SimError::Trap { info, stats }) => (info, stats),
        other => panic!("expected a trap, got {other:?}"),
    }
}

/// Order-sensitive digest of an output buffer (FNV-1a over words).
fn digest(words: &[u32]) -> u64 {
    words
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &w| (h ^ w as u64).wrapping_mul(0x100_0000_01b3))
}

fn spin() -> Kernel {
    let mut k = KernelBuilder::new("spin");
    let top = k.new_label();
    k.bind(top);
    k.bra(top);
    k.exit();
    k.finish()
}

#[test]
fn budget_ending_on_a_warp_boundary_traps_at_lane_zero() {
    // 312 full warp steps use exactly 9984 instructions; the next step's
    // first lane is the one over budget.
    let mut gpu = Gpu::new(GpuConfig::default());
    let mut mem = GlobalMem::new(4096);
    let (info, stats) = trap(launch(&mut gpu, &spin(), (1, 32), &[], 312 * 32, &mut mem, None));
    assert_eq!(info.kind, TrapKind::Timeout);
    assert_eq!((info.pc, info.block, info.thread), (Some(0), Some(0), Some(0)));
    assert_eq!((stats.dyn_instrs, stats.cycles), (312 * 32, SPIN_BOUNDARY_CYCLES));
}

const SPIN_BOUNDARY_CYCLES: u64 = 2504;

#[test]
fn budget_ending_mid_warp_with_hooks_traps_at_the_same_lane() {
    let mut gpu = Gpu::new(GpuConfig::default());
    let mut mem = GlobalMem::new(4096);
    let mut hook = Recorder::default();
    let (info, stats) =
        trap(launch(&mut gpu, &spin(), (1, 64), &[], 10_000, &mut mem, Some(&mut hook)));
    assert_eq!(info.kind, TrapKind::Timeout);
    // 156 rounds of two warps use 9984; warp 0's first 16 lanes finish the
    // budget and its lane 16 traps before its hooks run.
    assert_eq!((info.pc, info.thread), (Some(0), Some(16)));
    assert_eq!(stats.dyn_instrs, 10_000);
    assert_eq!(hook.before.len(), 10_000);
    assert_eq!(hook.after.len(), 10_000);
    assert_eq!(stats.cycles, SPIN_HOOKED_CYCLES);
}

const SPIN_HOOKED_CYCLES: u64 = 362_504;

/// Records every hook call as `(flat_tid, pc, dyn_index)`, plus `R2` after
/// each instruction.
#[derive(Default)]
struct Recorder {
    before: Vec<(u32, u32, u64)>,
    after: Vec<(u32, u32, u64, u32)>,
}

impl ExecHook for Recorder {
    fn before(&mut self, t: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        self.before.push((t.meta.flat_tid, site.pc, t.dyn_index));
    }
    fn after(&mut self, t: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        self.after.push((t.meta.flat_tid, site.pc, t.dyn_index, t.read_reg(Reg(2))));
    }
}

/// Each thread stores `tid + 100` to `out[tid]`, then loads `in[tid]` into
/// R2; lane `k`'s load address is off by one byte. `STORE_PC`/`LOAD_PC`
/// name the two memory instructions.
fn misaligned_kernel(k: u32) -> Kernel {
    let mut b = KernelBuilder::new("misaligned");
    let (out, inp, tid, off, v) = (Reg(4), Reg(5), Reg(0), Reg(1), Reg(3));
    b.ldc(out, 0);
    b.ldc(inp, 4);
    b.s2r(tid, SpecialReg::TidX);
    b.shli(off, tid, 2);
    b.iadd(out, out, off);
    b.iadd(inp, inp, off);
    b.isetp(PReg(0), CmpOp::Eq, tid, k as i32);
    b.iaddi(inp, inp, 1).guard = gpu_isa::Guard::if_true(PReg(0));
    b.iaddi(v, tid, 100);
    b.stg(out, 0, v);
    b.ldg(Reg(2), inp, 0);
    b.stg(out, 0, Reg(2));
    b.exit();
    b.finish()
}

const STORE_PC: u32 = 9;
const LOAD_PC: u32 = 10;

#[test]
fn misaligned_load_traps_after_lower_lanes_and_before_higher_ones() {
    let k = 13u32;
    let mut gpu = Gpu::new(GpuConfig::default());
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    let inp = mem.alloc(32 * 4).expect("in");
    mem.write_u32s(inp, &(0..32).map(|i| 7000 + i).collect::<Vec<_>>()).expect("write");
    let mut hook = Recorder::default();
    let result = launch(
        &mut gpu,
        &misaligned_kernel(k),
        (1, 32),
        &[out.addr(), inp.addr()],
        1_000_000,
        &mut mem,
        Some(&mut hook),
    );
    let (info, stats) = trap(result);
    assert_eq!(
        info.kind,
        TrapKind::Misaligned { space: Space::Global, addr: inp.addr() + 4 * k + 1, align: 4 }
    );
    assert_eq!((info.pc, info.thread), (Some(LOAD_PC), Some(k)));
    // Nine full-warp instructions, the guarded add (lane k only), then
    // the load in lanes 0..=k: the trapping lane counts.
    assert_eq!(stats.dyn_instrs, 9 * 32 + 1 + k as u64 + 1);

    // Lanes below k loaded their word; the hook saw it after the load.
    let loaded: Vec<(u32, u32)> =
        hook.after.iter().filter(|a| a.1 == LOAD_PC).map(|a| (a.0, a.3)).collect();
    assert_eq!(loaded, (0..k).map(|t| (t, 7000 + t)).collect::<Vec<_>>());
    // Lane k got its before-hook and no after-hook; higher lanes got none.
    let before_load: Vec<u32> =
        hook.before.iter().filter(|b| b.1 == LOAD_PC).map(|b| b.0).collect();
    assert_eq!(before_load, (0..=k).collect::<Vec<_>>());
    // No lane reached the second store: memory holds the first one's
    // values, for every lane.
    let stored = mem.read_u32s(out, 32).expect("read");
    assert_eq!(stored, (0..32).map(|t| t + 100).collect::<Vec<_>>());
    assert!(hook.after.iter().all(|a| a.1 <= LOAD_PC));
    assert_eq!(hook.after.iter().filter(|a| a.1 == STORE_PC).count(), 32);
}

#[test]
fn misaligned_store_leaves_lower_lanes_written_and_higher_lanes_untouched() {
    // The store's lane k address is off by one: lanes below k have stored,
    // lanes above k have not.
    let k = 21u32;
    let mut b = KernelBuilder::new("misaligned_store");
    let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
    b.ldc(out, 0);
    b.s2r(tid, SpecialReg::TidX);
    b.shli(off, tid, 2);
    b.iadd(out, out, off);
    b.isetp(PReg(0), CmpOp::Eq, tid, k as i32);
    b.iaddi(out, out, 2).guard = gpu_isa::Guard::if_true(PReg(0));
    b.stg(out, 0, tid);
    b.exit();
    let kernel = b.finish();
    let mut gpu = Gpu::new(GpuConfig::default());
    let mut mem = GlobalMem::new(1 << 16);
    let buf = mem.alloc(32 * 4).expect("out");
    mem.write_u32s(buf, &[0xEEEE_EEEE; 32]).expect("fill");
    let (info, stats) =
        trap(launch(&mut gpu, &kernel, (1, 32), &[buf.addr()], 1_000_000, &mut mem, None));
    assert_eq!((info.pc, info.thread), (Some(6), Some(k)));
    assert_eq!(stats.dyn_instrs, 5 * 32 + 1 + k as u64 + 1);
    let words = mem.read_u32s(buf, 32).expect("read");
    for (t, w) in words.iter().enumerate() {
        let want = if (t as u32) < k { t as u32 } else { 0xEEEE_EEEE };
        assert_eq!(*w, want, "lane {t}");
    }
}

/// A no-op hook.
struct Nop;
impl ExecHook for Nop {}

/// Threads diverge on `tid & 3` (0–3 loop iterations), then read
/// `SR_CLOCKLO` into `out[2 tid]`; after a barrier they read it again
/// into `out[2 tid + 1]`.
fn clock_kernel() -> Kernel {
    let mut k = KernelBuilder::new("clock");
    let (out, tid, n, i, off, c) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3), Reg(5));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.movi(Reg(9), 3);
    k.and(n, tid, Reg(9));
    k.movi(i, 0);
    let (top, done) = (k.new_label(), k.new_label());
    k.bind(top);
    k.isetp_r(PReg(0), CmpOp::Ge, i, n);
    k.bra_if(PReg(0), done);
    k.iaddi(i, i, 1);
    k.bra(top);
    k.bind(done);
    k.s2r(c, SpecialReg::ClockLo);
    k.shli(off, tid, 3);
    k.iadd(out, out, off);
    k.stg(out, 0, c);
    k.bar();
    k.s2r(c, SpecialReg::ClockLo);
    k.stg(out, 4, c);
    k.exit();
    k.finish()
}

#[test]
fn clock_reads_are_per_lane_with_and_without_hooks() {
    let kernel = clock_kernel();
    let mut got = Vec::new();
    for hooked in [false, true] {
        let mut gpu = Gpu::new(GpuConfig::default());
        let mut mem = GlobalMem::new(1 << 16);
        let out = mem.alloc(2 * 48 * 4).expect("out");
        let mut nop = Nop;
        let hook: Option<&mut dyn ExecHook> = if hooked { Some(&mut nop) } else { None };
        let stats = launch(&mut gpu, &kernel, (2, 48), &[out.addr()], 1_000_000, &mut mem, hook)
            .expect("launch");
        let words = mem.read_u32s(out, 2 * 48).expect("read");
        got.push((stats.dyn_instrs, stats.cycles, words[0], words[1], words[2], digest(&words)));
    }
    assert_eq!(got, CLOCK_EXPECTED);
}

const CLOCK_EXPECTED: [(u64, u64, u32, u32, u32, u64); 2] = [
    (1872, 852, 724, 828, 724, 18322704026702985509),
    (1872, 68244, 54310, 63054, 54346, 6773303492921594149),
];

fn local(base: Reg, offset: i16) -> Operand {
    Operand::Mem(MemRef { base, offset, space: Space::Local })
}

/// Stores what this thread sees in `R200`, `P3` (via `P2R`) and local
/// word 0 to `out[3 gtid ..]`, then dirties all three.
fn leak_probe() -> Kernel {
    let mut k = KernelBuilder::new("leak_probe");
    let (out, gtid, off, zero) = (Reg(4), Reg(0), Reg(1), Reg(2));
    k.ldc(out, 0);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.imadi(off, gtid, 12, Reg::RZ);
    k.iadd(out, out, off);
    k.stg(out, 0, Reg(200));
    let mut p2r = Instr::new(Opcode::P2R);
    p2r.dsts[0] = Dst::R(Reg(6));
    k.push(p2r);
    k.stg(out, 4, Reg(6));
    k.movi(zero, 0);
    let mut ldl = Instr::new(Opcode::LDL);
    ldl.modifier = Modifier::Width(MemWidth::B32);
    ldl.dsts[0] = Dst::R(Reg(7));
    ldl.srcs[0] = local(zero, 0);
    k.push(ldl);
    k.stg(out, 8, Reg(7));
    k.iaddi(Reg(200), gtid, 1);
    k.isetp(PReg(3), CmpOp::Ge, gtid, 0);
    let mut stl = Instr::new(Opcode::STL);
    stl.modifier = Modifier::Width(MemWidth::B32);
    stl.srcs = [local(zero, 0), Operand::R(Reg(200)), Operand::None, Operand::None];
    k.push(stl);
    k.exit();
    k.finish()
}

/// `out[gtid] = R<reg>`.
fn read_reg_kernel(reg: u8) -> Kernel {
    let mut k = KernelBuilder::new("read_reg");
    let (out, gtid, off) = (Reg(4), Reg(0), Reg(1));
    k.ldc(out, 0);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.shli(off, gtid, 2);
    k.iadd(out, out, off);
    k.stg(out, 0, Reg(reg));
    k.exit();
    k.finish()
}

/// `R<reg> = 0xDEAD` in every thread.
fn write_reg_kernel(reg: u8) -> Kernel {
    let mut k = KernelBuilder::new("write_reg");
    k.movi(Reg(reg), 0xDEAD);
    k.exit();
    k.finish()
}

#[test]
fn no_state_leaks_across_blocks_or_launches() {
    let mut gpu = Gpu::new(GpuConfig::default());
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(3 * 4 * 80).expect("out");
    let probe = leak_probe();
    for _ in 0..2 {
        mem.write_u32s(out, &[0xFFFF_FFFF; 3 * 80]).expect("fill");
        launch(&mut gpu, &probe, (2, 40), &[out.addr()], 1_000_000, &mut mem, None)
            .expect("launch");
        assert_eq!(mem.read_u32s(out, 3 * 80).expect("read"), vec![0; 3 * 80]);
    }
}

#[test]
fn a_high_register_written_by_one_kernel_reads_zero_in_the_next() {
    let mut gpu = Gpu::new(GpuConfig::default());
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(64 * 4).expect("out");
    launch(&mut gpu, &write_reg_kernel(240), (2, 32), &[], 1_000_000, &mut mem, None)
        .expect("writer");
    // A kernel naming only low registers runs in between.
    launch(&mut gpu, &read_reg_kernel(3), (2, 32), &[out.addr()], 1_000_000, &mut mem, None)
        .expect("low reader");
    launch(&mut gpu, &read_reg_kernel(240), (2, 32), &[out.addr()], 1_000_000, &mut mem, None)
        .expect("reader");
    assert_eq!(mem.read_u32s(out, 64).expect("read"), vec![0; 64]);
}

/// Writes `R250` after every instruction it is called for.
struct Clobber;
impl ExecHook for Clobber {
    fn after(&mut self, t: &mut ThreadCtx<'_>, _site: InstrSite<'_>) {
        t.write_reg(Reg(250), 0xBAD);
    }
}

#[test]
fn a_register_written_by_a_tool_reads_zero_in_a_later_kernel() {
    let mut gpu = Gpu::new(GpuConfig::default());
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(64 * 4).expect("out");
    let mut clobber = Clobber;
    launch(
        &mut gpu,
        &read_reg_kernel(3),
        (2, 32),
        &[out.addr()],
        1_000_000,
        &mut mem,
        Some(&mut clobber),
    )
    .expect("hooked");
    launch(&mut gpu, &read_reg_kernel(250), (2, 32), &[out.addr()], 1_000_000, &mut mem, None)
        .expect("reader");
    assert_eq!(mem.read_u32s(out, 64).expect("read"), vec![0; 64]);
}
