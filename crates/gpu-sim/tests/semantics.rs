//! Instruction-semantics tests through the public API: one small kernel per
//! family, executed on the device and checked against a host reference.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{
    AtomOp, CmpOp, Dst, Instr, MemWidth, Modifier, Opcode, Operand, PReg, Reg, RoundMode, ShflMode,
    SpecialReg,
};
use gpu_sim::{Dim3, GlobalMem, Gpu, GpuConfig, Launch};

fn run_kernel(kernel: &gpu_isa::Kernel, threads: u32, params: &[u32], mem: &mut GlobalMem) {
    Gpu::new(GpuConfig::default())
        .launch(
            &Launch {
                kernel,
                grid: Dim3::from(1),
                block: Dim3::from(threads),
                params,
                instr_budget: Some(10_000_000),
            },
            mem,
            None,
        )
        .expect("launch");
}

/// Build a kernel that loads `in[tid]` into R1 and a second operand
/// `in2[tid]` into R2, runs `body`, and stores R0 to `out[tid]`.
fn unary_binary_harness(name: &str, body: impl FnOnce(&mut KernelBuilder)) -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new(name);
    let (out, a, b, tid, off) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.ldc(a, 4);
    k.ldc(b, 8);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.iadd(a, a, off);
    k.iadd(b, b, off);
    k.ldg(Reg(1), a, 0);
    k.ldg(Reg(2), b, 0);
    body(&mut k);
    k.stg(out, 0, Reg(0));
    k.exit();
    k.finish()
}

/// Run a two-input u32 kernel over `xs`/`ys` and return the outputs.
fn eval2(body: impl FnOnce(&mut KernelBuilder), xs: &[u32], ys: &[u32]) -> Vec<u32> {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    let kernel = unary_binary_harness("t", body);
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc((n * 4) as u32).expect("out");
    let a = mem.alloc((n * 4) as u32).expect("a");
    let b = mem.alloc((n * 4) as u32).expect("b");
    mem.write_u32s(a, xs).expect("w");
    mem.write_u32s(b, ys).expect("w");
    run_kernel(&kernel, n as u32, &[out.addr(), a.addr(), b.addr()], &mut mem);
    mem.read_u32s(out, n).expect("r")
}

#[test]
fn popc_flo_brev() {
    let xs = [0u32, 1, 0xFFFF_FFFF, 0x8000_0000, 0x0F0F_0F0F];
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::POPC);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs[0] = Operand::R(Reg(1));
            k.push(i);
        },
        &xs,
        &[0; 5],
    );
    assert_eq!(got, vec![0, 1, 32, 1, 16]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::FLO);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs[0] = Operand::R(Reg(1));
            k.push(i);
        },
        &xs,
        &[0; 5],
    );
    assert_eq!(got, vec![u32::MAX, 0, 31, 31, 27]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::BREV);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs[0] = Operand::R(Reg(1));
            k.push(i);
        },
        &xs,
        &[0; 5],
    );
    assert_eq!(got, xs.iter().map(|v| v.reverse_bits()).collect::<Vec<_>>());
}

#[test]
fn bfe_bfi_extract_insert() {
    // BFE: extract 8 bits at position 4.
    let ctl = 4 | (8 << 8);
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::BFE);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(ctl), Operand::None, Operand::None];
            k.push(i);
        },
        &[0xABCD_EF12, 0xFFFF_FFFF],
        &[0, 0],
    );
    assert_eq!(got, vec![(0xABCD_EF12u32 >> 4) & 0xFF, 0xFF]);

    // BFI: insert R1's low bits into R2 at position 8, length 4.
    let ctl = 8 | (4 << 8);
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::BFI);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(ctl), Operand::R(Reg(2)), Operand::None];
            k.push(i);
        },
        &[0xF, 0x3],
        &[0x0000_0000, 0xFFFF_FFFF],
    );
    assert_eq!(got, vec![0xF00, 0xFFFF_F3FF]);
}

#[test]
fn funnel_shift_and_xmad() {
    // SHF: funnel (R2:R1) >> 8.
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::SHF);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(8), Operand::None];
            k.push(i);
        },
        &[0x1234_5678],
        &[0xAABB_CCDD],
    );
    assert_eq!(got, vec![(0xDD12_3456u32)]);

    // XMAD: lo16(a)*lo16(b) + c — c is R2 here.
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::XMAD);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(100), Operand::R(Reg(2)), Operand::None];
            k.push(i);
        },
        &[0x0001_0005], // lo16 = 5
        &[7],
    );
    assert_eq!(got, vec![5 * 100 + 7]);
}

#[test]
fn prmt_selects_bytes() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::PRMT);
            i.dsts[0] = Dst::R(Reg(0));
            // selector 0x5410: byte0=pool[0], byte1=pool[1], byte2=pool[4], byte3=pool[5]
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(0x5410), Operand::None];
            k.push(i);
        },
        &[0x4433_2211],
        &[0x8877_6655],
    );
    assert_eq!(got, vec![0x6655_2211]);
}

#[test]
fn sgxt_sign_extends() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::SGXT);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::Imm(8), Operand::None, Operand::None];
            k.push(i);
        },
        &[0x0000_0080, 0x0000_007F, 0x0000_01FF],
        &[0, 0, 0],
    );
    assert_eq!(got, vec![0xFFFF_FF80, 0x7F, 0xFFFF_FFFF]);
}

#[test]
fn iscadd_and_isad() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ISCADD);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(4), Operand::None];
            k.push(i);
        },
        &[3],
        &[10],
    );
    assert_eq!(got, vec![3 * 16 + 10]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ISAD);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(5), Operand::None];
            k.push(i);
        },
        &[3, 10u32.wrapping_neg()],
        &[10, 3],
    );
    assert_eq!(got, vec![7 + 5, 13 + 5]);
}

#[test]
fn icmp_and_fcmp_select() {
    // ICMP.GT d, a, b, c: d = (c > 0) ? a : b
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ICMP);
            i.modifier = Modifier::Cmp(CmpOp::Gt);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::Imm(1), Operand::None];
            k.push(i);
        },
        &[111, 222],
        &[999, 888],
    );
    assert_eq!(got, vec![111, 222], "c=1 > 0 picks a");

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::FCMP);
            i.modifier = Modifier::Cmp(CmpOp::Lt);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs =
                [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::imm_f32(-1.0), Operand::None];
            k.push(i);
        },
        &[5],
        &[6],
    );
    assert_eq!(got, vec![5], "-1 < 0 picks a");
}

#[test]
fn fset_iset_write_masks() {
    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::FSET);
            i.modifier = Modifier::Cmp(CmpOp::Gt);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
            k.push(i);
        },
        &[2.0f32.to_bits(), 1.0f32.to_bits()],
        &[1.0f32.to_bits(), 2.0f32.to_bits()],
    );
    assert_eq!(got, vec![u32::MAX, 0]);

    let got = eval2(
        |k| {
            let mut i = Instr::new(Opcode::ISET);
            i.modifier = Modifier::Cmp(CmpOp::Le);
            i.dsts[0] = Dst::R(Reg(0));
            i.srcs = [Operand::R(Reg(1)), Operand::R(Reg(2)), Operand::None, Operand::None];
            k.push(i);
        },
        &[5, (-3i32) as u32],
        &[5, 2],
    );
    assert_eq!(got, vec![u32::MAX, u32::MAX], "signed compare");
}

#[test]
fn frnd_rounding_modes() {
    for (mode, input, expect) in [
        (RoundMode::Rz, 2.7f32, 2.0f32),
        (RoundMode::Rm, -2.1, -3.0),
        (RoundMode::Rp, 2.1, 3.0),
        (RoundMode::Rn, 2.5, 2.0),
    ] {
        let got = eval2(
            |k| {
                let mut i = Instr::new(Opcode::FRND);
                i.modifier = Modifier::Round(mode);
                i.dsts[0] = Dst::R(Reg(0));
                i.srcs[0] = Operand::R(Reg(1));
                k.push(i);
            },
            &[input.to_bits()],
            &[0],
        );
        assert_eq!(f32::from_bits(got[0]), expect, "{mode:?}({input})");
    }
}

#[test]
fn f2f_widen_narrow_roundtrip() {
    // Widen f32 → f64 in a pair, then narrow back.
    let mut k = KernelBuilder::new("f2f");
    let (out, inp, tid, off) = (Reg(4), Reg(5), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.ldc(inp, 4);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.iadd(inp, inp, off);
    k.ldg(Reg(1), inp, 0);
    k.f2d(Reg(10), Reg(1));
    k.d2f(Reg(0), Reg(10));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(8).expect("out");
    let inp = mem.alloc(8).expect("in");
    mem.write_f32s(inp, &[1.61803, -0.5]).expect("w");
    run_kernel(&kernel, 2, &[out.addr(), inp.addr()], &mut mem);
    assert_eq!(mem.read_f32s(out, 2).expect("r"), vec![1.61803, -0.5]);
}

#[test]
fn local_memory_per_thread_isolation() {
    // Each thread writes tid to local[0] then reads it back; local memory
    // must be private per thread.
    let mut k = KernelBuilder::new("local");
    let (out, tid, off) = (Reg(4), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    let mut st = Instr::new(Opcode::STL);
    st.modifier = Modifier::Width(MemWidth::B32);
    st.srcs = [
        Operand::Mem(gpu_isa::MemRef { base: Reg::RZ, offset: 16, space: gpu_isa::Space::Local }),
        Operand::R(tid),
        Operand::None,
        Operand::None,
    ];
    k.push(st);
    let mut ld = Instr::new(Opcode::LDL);
    ld.modifier = Modifier::Width(MemWidth::B32);
    ld.dsts[0] = Dst::R(Reg(0));
    ld.srcs[0] =
        Operand::Mem(gpu_isa::MemRef { base: Reg::RZ, offset: 16, space: gpu_isa::Space::Local });
    k.push(ld);
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    assert_eq!(mem.read_u32s(out, 32).expect("r"), (0..32).collect::<Vec<u32>>());
}

#[test]
fn vote_ballot_reflects_predicates() {
    // Lanes with tid < 5 set P0; VOTE returns the ballot mask 0b11111.
    let mut k = KernelBuilder::new("vote");
    let (out, tid) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.isetp(PReg(0), CmpOp::Lt, tid, 5);
    let mut v = Instr::new(Opcode::VOTE);
    v.dsts[0] = Dst::R(Reg(0));
    v.srcs[0] = Operand::P(PReg(0));
    k.push(v);
    k.shli(Reg(8), tid, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    let got = mem.read_u32s(out, 32).expect("r");
    assert!(got.iter().all(|m| *m == 0b11111), "{got:?}");
}

#[test]
fn atomic_cas_swaps_only_on_match() {
    // CAS(expected=7, swap=99): only the slot holding 7 changes.
    let mut k = KernelBuilder::new("cas");
    let (out, tid, addr) = (Reg(4), Reg(7), Reg(8));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(addr, tid, 2);
    k.iadd(addr, out, addr);
    let mut cas = Instr::new(Opcode::ATOMG);
    cas.modifier = Modifier::AtomOp(AtomOp::Cas);
    cas.dsts[0] = Dst::R(Reg(0));
    cas.srcs = [
        Operand::Mem(gpu_isa::MemRef { base: addr, offset: 0, space: gpu_isa::Space::Global }),
        Operand::Imm(7),
        Operand::Imm(99),
        Operand::None,
    ];
    k.push(cas);
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(4 * 4).expect("out");
    mem.write_u32s(out, &[7, 8, 7, 9]).expect("w");
    run_kernel(&kernel, 4, &[out.addr()], &mut mem);
    assert_eq!(mem.read_u32s(out, 4).expect("r"), vec![99, 8, 99, 9]);
}

#[test]
fn shfl_idx_and_up_down() {
    // Broadcast lane 3's value with SHFL.IDX.
    let mut k = KernelBuilder::new("shfl");
    let (out, lane) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(lane, SpecialReg::LaneId);
    k.imad(Reg(1), lane, lane, Reg::RZ); // value = lane²
    k.shfl(ShflMode::Idx, Reg(0), Reg(1), 3);
    k.shli(Reg(8), lane, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    let got = mem.read_u32s(out, 32).expect("r");
    assert!(got.iter().all(|v| *v == 9), "broadcast of lane 3: {got:?}");
}

#[test]
fn fswzadd_pairs_lanes() {
    let mut k = KernelBuilder::new("swz");
    let (out, lane) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(lane, SpecialReg::LaneId);
    k.i2f(Reg(1), lane);
    let mut s = Instr::new(Opcode::FSWZADD);
    s.dsts[0] = Dst::R(Reg(0));
    s.srcs[0] = Operand::R(Reg(1));
    k.push(s);
    k.shli(Reg(8), lane, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(32 * 4).expect("out");
    run_kernel(&kernel, 32, &[out.addr()], &mut mem);
    let got = mem.read_f32s(out, 32).expect("r");
    for (lane, v) in got.iter().enumerate() {
        let partner = lane ^ 1;
        assert_eq!(*v, (lane + partner) as f32, "lane {lane}");
    }
}

#[test]
fn dset_and_dsetp_compare_doubles() {
    let mut k = KernelBuilder::new("dset");
    let (out, tid) = (Reg(4), Reg(7));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.i2d(Reg(10), tid); // pair R10 = tid as f64
    k.movi(Reg(1), 5);
    k.i2d(Reg(12), Reg(1)); // pair R12 = 5.0
                            // R0 = (tid < 5) ? mask : 0
    let mut d = Instr::new(Opcode::DSET);
    d.modifier = Modifier::Cmp(CmpOp::Lt);
    d.dsts[0] = Dst::R(Reg(0));
    d.srcs = [Operand::R64(Reg(10)), Operand::R64(Reg(12)), Operand::None, Operand::None];
    k.push(d);
    k.shli(Reg(8), tid, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, Reg(0));
    k.exit();
    let kernel = k.finish();
    let mut mem = GlobalMem::new(1 << 16);
    let out = mem.alloc(8 * 4).expect("out");
    run_kernel(&kernel, 8, &[out.addr()], &mut mem);
    let got = mem.read_u32s(out, 8).expect("r");
    for (tid, v) in got.iter().enumerate() {
        assert_eq!(*v, if tid < 5 { u32::MAX } else { 0 }, "tid {tid}");
    }
}

// ---- Warp-stepping regression tests ------------------------------------------
//
// These pin the scheduler's observable behaviour: dynamic-instruction
// counts, simulated cycles, outputs and trap sites. The expected values are
// fixed reference numbers, not derived from the code under test, so any
// change to issue order, divergence handling or cross-lane semantics fails
// here. Never update them to make a scheduler change pass.

/// Launch `kernel` on `grid` blocks of `block` threads with a fresh output
/// buffer of `out_words` words as parameter 0; returns the launch result
/// and the buffer contents.
fn launch_with_output(
    kernel: &gpu_isa::Kernel,
    grid: u32,
    block: u32,
    out_words: usize,
) -> (Result<gpu_sim::LaunchStats, gpu_sim::SimError>, Vec<u32>) {
    let mut mem = GlobalMem::new(1 << 20);
    let out = mem.alloc((out_words * 4) as u32).expect("out");
    let result = Gpu::new(GpuConfig { num_sms: 4, ..GpuConfig::default() }).launch(
        &Launch {
            kernel,
            grid: Dim3::from(grid),
            block: Dim3::from(block),
            params: &[out.addr()],
            instr_budget: Some(10_000_000),
        },
        &mut mem,
        None,
    );
    (result, mem.read_u32s(out, out_words).expect("read"))
}

/// Order-sensitive digest of an output buffer.
fn digest(words: &[u32]) -> u64 {
    words
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &w| (h ^ w as u64).wrapping_mul(0x100_0000_01b3))
}

/// `out[tid] = tid * (tid & 3) + (tid < 7 ? 100 : 0)`, with a per-thread
/// loop of `tid & 3` iterations and a guarded add.
fn divergent_loop_kernel() -> gpu_isa::Kernel {
    let mut k = KernelBuilder::new("divergent_loop");
    let (out, tid, n, acc, i, off) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3), Reg(5));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.movi(Reg(9), 3);
    k.and(n, tid, Reg(9));
    k.movi(acc, 0);
    k.movi(i, 0);
    let (top, done) = (k.new_label(), k.new_label());
    k.bind(top);
    k.isetp_r(PReg(0), CmpOp::Ge, i, n);
    k.bra_if(PReg(0), done);
    k.iadd(acc, acc, tid);
    k.iaddi(i, i, 1);
    k.bra(top);
    k.bind(done);
    k.isetp(PReg(1), CmpOp::Lt, tid, 7);
    k.iaddi(acc, acc, 100).guard = gpu_isa::Guard::if_true(PReg(1));
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.stg(out, 0, acc);
    k.exit();
    k.finish()
}

#[test]
fn warp_stepping_counts_are_stable_across_block_sizes() {
    let kernel = divergent_loop_kernel();
    let mut got = Vec::new();
    for block in [1u32, 33, 65, 1000] {
        let (stats, out) = launch_with_output(&kernel, 2, block, block as usize);
        let stats = stats.expect("launch");
        let want: Vec<u32> =
            (0..block).map(|t| t * (t & 3) + if t < 7 { 100 } else { 0 }).collect();
        assert_eq!(out, want, "block {block}");
        got.push((block, stats.dyn_instrs, stats.cycles, digest(&out)));
    }
    assert_eq!(got, WARP_SIZES_EXPECTED);
}

const WARP_SIZES_EXPECTED: [(u32, u64, u64, u64); 4] = [
    (1, 28, 202, 12638183902020757363),
    (33, 1256, 578, 2577980297538475107),
    (65, 2472, 954, 18396810935548995),
    (1000, 38014, 12032, 15460407979819814705),
];

#[test]
fn lanes_exit_while_others_wait_at_barrier() {
    // Even threads publish their tid to shared memory, wait at BAR, then
    // read their neighbour's slot. Odd threads never reach the barrier:
    // they spin `tid & 7` times and exit, some while even lanes of the same
    // warp are already waiting.
    let mut k = KernelBuilder::new("exit_at_bar");
    k.shared_bytes(64 * 4);
    let (out, tid, off, i, lim) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.shli(off, tid, 2);
    k.iadd(out, out, off);
    k.movi(Reg(9), 1);
    k.and(Reg(6), tid, Reg(9));
    k.isetp(PReg(0), CmpOp::Ne, Reg(6), 0);
    let odd = k.new_label();
    k.bra_if(PReg(0), odd);
    k.sts(off, 0, tid);
    k.bar();
    k.iaddi(Reg(7), tid, 2);
    k.movi(Reg(9), 63);
    k.and(Reg(7), Reg(7), Reg(9));
    k.shli(Reg(7), Reg(7), 2);
    k.lds(Reg(8), Reg(7), 0);
    k.stg(out, 0, Reg(8));
    k.exit();
    k.bind(odd);
    k.movi(Reg(9), 7);
    k.and(lim, tid, Reg(9));
    k.movi(i, 0);
    let (top, end) = (k.new_label(), k.new_label());
    k.bind(top);
    k.isetp_r(PReg(2), CmpOp::Ge, i, lim);
    k.bra_if(PReg(2), end);
    k.iaddi(i, i, 1);
    k.bra(top);
    k.bind(end);
    k.stg(out, 0, i);
    k.exit();
    let kernel = k.finish();

    let (stats, out) = launch_with_output(&kernel, 3, 64, 64);
    let stats = stats.expect("launch");
    let want: Vec<u32> = (0..64).map(|t| if t % 2 == 1 { t & 7 } else { (t + 2) % 64 }).collect();
    assert_eq!(out, want);
    assert_eq!((stats.dyn_instrs, stats.cycles, digest(&out)), EXIT_AT_BAR_EXPECTED);
}

const EXIT_AT_BAR_EXPECTED: (u64, u64, u64) = (4128, 2322, 16408060086670606501);

#[test]
fn cross_lane_ops_skip_inactive_and_exited_lanes() {
    // 40 threads: a full warp and an 8-lane partial warp. Lanes ≥ 28 exit
    // first; the cross-lane ops are guarded so only some of the remaining
    // lanes issue them. Each thread writes four results.
    let mut k = KernelBuilder::new("cross_lane");
    let (out, tid, lane, v, fv) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.s2r(lane, SpecialReg::LaneId);
    k.isetp(PReg(3), CmpOp::Ge, lane, 28);
    k.exit().guard = gpu_isa::Guard::if_true(PReg(3));
    k.imad(v, lane, lane, Reg::RZ);
    k.i2f(fv, lane);
    k.isetp(PReg(0), CmpOp::Lt, lane, 19);
    k.movi(Reg(9), 1);
    k.and(Reg(6), lane, Reg(9));
    k.isetp(PReg(1), CmpOp::Eq, Reg(6), 0);
    for d in 10..14 {
        k.movi(Reg(d), 0xdead);
    }
    let on_p0 = gpu_isa::Guard::if_true(PReg(0));
    k.shfl(ShflMode::Down, Reg(10), v, 1).guard = on_p0;
    k.shfl(ShflMode::Bfly, Reg(11), v, 3).guard = on_p0;
    let mut vote = Instr::new(Opcode::VOTE);
    vote.dsts[0] = Dst::R(Reg(12));
    vote.srcs[0] = Operand::P(PReg(0));
    vote.guard = gpu_isa::Guard::if_true(PReg(1));
    k.push(vote);
    let mut swz = Instr::new(Opcode::FSWZADD);
    swz.dsts[0] = Dst::R(Reg(13));
    swz.srcs[0] = Operand::R(fv);
    swz.guard = on_p0;
    k.push(swz);
    k.shli(Reg(7), tid, 4);
    k.iadd(out, out, Reg(7));
    k.stg(out, 0, Reg(10));
    k.stg(out, 4, Reg(11));
    k.stg(out, 8, Reg(12));
    k.stg(out, 12, Reg(13));
    k.exit();
    let kernel = k.finish();

    let (stats, out) = launch_with_output(&kernel, 1, 40, 40 * 4);
    let stats = stats.expect("launch");
    let row = |t: usize| &out[t * 4..t * 4 + 4];
    // Lane 18's SHFL.DOWN source (lane 19) is inactive: own value.
    assert_eq!(row(18)[0], 18 * 18);
    assert_eq!(row(17)[0], 18 * 18);
    // Lane 18's FSWZADD partner (lane 19) is inactive: doubled own value.
    assert_eq!(f32::from_bits(row(18)[3]), 36.0);
    // Even lanes vote on P0: the ballot of even lanes below 19.
    assert_eq!(row(0)[2], 0b0101_0101_0101_0101_0101);
    // Exited and guarded-off lanes leave the buffer or their sentinel.
    assert_eq!(row(30), [0, 0, 0, 0]);
    assert_eq!(row(20)[0], 0xdead);
    assert_eq!((stats.dyn_instrs, stats.cycles, digest(&out)), CROSS_LANE_EXPECTED);
}

const CROSS_LANE_EXPECTED: (u64, u64, u64) = (875, 388, 6655046877874123323);

/// Each thread stores `tid + k` to local slot `k` (k = 0..4) at
/// `base + 4k`, then sums them back. The thread with global id `bad_gtid`
/// instead uses base 1016, whose last two slots lie past the 1024-byte
/// local window.
fn local_memory_kernel(bad_gtid: i32) -> gpu_isa::Kernel {
    let local = |base: Reg, offset: i16| {
        Operand::Mem(gpu_isa::MemRef { base, offset, space: gpu_isa::Space::Local })
    };
    let mut k = KernelBuilder::new("local_slots");
    let (out, tid, gtid, base, acc) = (Reg(4), Reg(0), Reg(1), Reg(2), Reg(3));
    k.ldc(out, 0);
    k.s2r(tid, SpecialReg::TidX);
    k.s2r(gtid, SpecialReg::GlobalTidX);
    k.movi(Reg(9), 15);
    k.and(base, tid, Reg(9));
    k.shli(base, base, 4);
    k.isetp(PReg(0), CmpOp::Eq, gtid, bad_gtid);
    k.movi(base, 1016).guard = gpu_isa::Guard::if_true(PReg(0));
    for slot in 0..4i16 {
        k.iaddi(Reg(6), tid, slot as i32);
        let mut st = Instr::new(Opcode::STL);
        st.modifier = Modifier::Width(MemWidth::B32);
        st.srcs = [local(base, slot * 4), Operand::R(Reg(6)), Operand::None, Operand::None];
        k.push(st);
    }
    k.movi(acc, 0);
    for slot in 0..4i16 {
        let mut ld = Instr::new(Opcode::LDL);
        ld.modifier = Modifier::Width(MemWidth::B32);
        ld.dsts[0] = Dst::R(Reg(7));
        ld.srcs[0] = local(base, slot * 4);
        k.push(ld);
        k.iadd(acc, acc, Reg(7));
    }
    k.shli(Reg(8), gtid, 2);
    k.iadd(out, out, Reg(8));
    k.stg(out, 0, acc);
    k.exit();
    k.finish()
}

#[test]
fn local_memory_kernel_counts_and_out_of_bounds_trap() {
    let (stats, out) = launch_with_output(&local_memory_kernel(-1), 2, 65, 130);
    let stats = stats.expect("launch");
    let want: Vec<u32> = (0..130).map(|g| 4 * (g % 65) + 6).collect();
    assert_eq!(out, want);
    assert_eq!((stats.dyn_instrs, stats.cycles, digest(&out)), LOCAL_EXPECTED);

    // Global thread 102 is block 1, thread 37: its third store, at byte
    // 1024, is out of bounds.
    let (result, out) = launch_with_output(&local_memory_kernel(102), 2, 65, 130);
    let Err(gpu_sim::SimError::Trap { info, stats }) = result else {
        panic!("expected a trap, got {result:?}");
    };
    assert_eq!(
        info,
        gpu_sim::TrapInfo {
            kind: gpu_sim::TrapKind::OutOfBounds {
                space: gpu_isa::Space::Local,
                addr: 1024,
                width: 4
            },
            kernel: "local_slots".into(),
            pc: Some(LOCAL_TRAP_PC),
            block: Some(1),
            thread: Some(37),
        }
    );
    assert_eq!((stats.dyn_instrs, stats.cycles, digest(&out)), LOCAL_TRAP_EXPECTED);
}

const LOCAL_EXPECTED: (u64, u64, u64) = (3640, 1908, 6017596719097186765);
const LOCAL_TRAP_PC: u32 = 13;
const LOCAL_TRAP_EXPECTED: (u64, u64, u64) = (2639, 1273, 973132424838028955);
