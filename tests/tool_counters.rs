//! Tool counters are exact after a run, including a run whose target launch
//! traps part-way through a block: the framework's device-call count and
//! every injector's per-call counters are published when a launch
//! completes, trapped or not.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{encode, Module, Opcode, Reg, SpecialReg};
use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError, Termination};
use gpu_sim::GpuConfig;
use nvbit::NvBitStats;
use nvbitfi::ext::{ActivationPattern, CorruptionFn, ExtFault, ExtInjector};
use nvbitfi::{
    BitFlipModel, InstrGroup, PermanentInjector, PermanentParams, TransientInjector,
    TransientParams,
};

/// `out[gtid] = gtid + 1` over 4 blocks of 32 threads, launched twice. The
/// second launch is handed a pointer 256 bytes into the 512-byte buffer, so
/// the first thread of block 2 (global thread 64) stores past the last
/// allocation and traps after blocks 0 and 1 have completed.
struct TrapsOnSecondLaunch;

/// Per thread: LDC, S2R, IADD32I, SHL, IADD, STG, EXIT.
const INSTRS_PER_THREAD: u64 = 7;
/// Per thread, the instructions with a register destination (`G_GP`).
const GP_PER_THREAD: u64 = 5;

impl Program for TrapsOnSecondLaunch {
    fn name(&self) -> &str {
        "traps_on_second_launch"
    }

    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let mut k = KernelBuilder::new("inc");
        let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
        k.ldc(out, 0);
        k.s2r(tid, SpecialReg::GlobalTidX);
        k.iaddi(Reg(2), tid, 1);
        k.shli(off, tid, 2);
        k.iadd(out, out, off);
        k.stg(out, 0, Reg(2));
        k.exit();
        let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
        let m = rt.load_module(&bytes)?;
        let k = rt.get_kernel(m, "inc")?;
        let buf = rt.alloc(128 * 4)?;
        rt.launch(k, 4u32, 32u32, &[buf.addr()])?;
        rt.launch(k, 4u32, 32u32, &[buf.offset(256).addr()])?;
        rt.synchronize()?;
        Ok(())
    }
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig {
        gpu: GpuConfig { num_sms: 2, ..GpuConfig::default() },
        ..RuntimeConfig::default()
    }
}

/// Run the program under `tool` and check the second launch trapped where
/// the comments above say it does.
fn run_trapping(tool: Box<dyn gpu_runtime::Tool>) {
    let out = run_program(&TrapsOnSecondLaunch, cfg(), Some(tool));
    assert_eq!(out.termination, Termination::Normal { exit_code: 1 }, "{}", out.stdout);
    let trap = out.anomalies.first().expect("the second launch traps");
    assert_eq!((trap.block, trap.thread, trap.pc), (Some(2), Some(0), Some(5)), "{trap}");
}

fn transient(instruction_count: u64) -> TransientParams {
    TransientParams {
        group: InstrGroup::Gp,
        bit_flip: BitFlipModel::FlipSingleBit,
        kernel_name: "inc".into(),
        kernel_count: 1,
        instruction_count,
        destination_register: 0.0,
        bit_pattern: 0.0,
    }
}

#[test]
fn transient_counts_are_exact_when_the_target_launch_traps() {
    // An unreachable index: the target launch runs uncorrupted until its
    // own trap, after blocks 0–1 in full and the five group instructions
    // of all 32 threads of block 2.
    let (tool, handle) = TransientInjector::new(transient(1 << 40));
    let stats = tool.stats_handle();
    run_trapping(Box::new(tool));
    let seen = (64 + 32) * GP_PER_THREAD;
    let rec = handle.get();
    assert!(!rec.injected);
    assert_eq!(rec.group_instrs_seen, seen);
    assert_eq!(
        *stats.lock(),
        NvBitStats {
            kernels_instrumented: 1,
            cache_hits: 1,
            launches_instrumented: 1,
            launches_unmodified: 1,
            device_calls: seen,
        }
    );
}

#[test]
fn transient_counts_are_exact_when_the_injected_fault_traps() {
    // Index 0 is thread 0's LDC: a bit flip in the output pointer makes
    // block 0's first store misaligned, after all 32 threads of block 0
    // ran their five group instructions.
    let (tool, handle) = TransientInjector::new(transient(0));
    let stats = tool.stats_handle();
    let out = run_program(&TrapsOnSecondLaunch, cfg(), Some(Box::new(tool)));
    assert_eq!(out.termination, Termination::Normal { exit_code: 1 });
    let trap = out.anomalies.first().expect("the injected fault traps");
    assert_eq!((trap.block, trap.thread), (Some(0), Some(0)), "{trap}");
    let rec = handle.get();
    assert!(rec.injected);
    assert_eq!(rec.group_instrs_seen, 32 * GP_PER_THREAD);
    assert_eq!(stats.lock().device_calls, 32 * GP_PER_THREAD);
}

#[test]
fn permanent_counts_are_exact_across_a_trapping_launch() {
    // IADD32I once per thread. Launch 0: 128 executions; lane 7 of blocks
    // 1 and 3 (SM 1) activates. Launch 1: blocks 0–2 reach it (96
    // executions) before the trap; only block 1 is on SM 1.
    let params =
        PermanentParams { sm_id: 1, lane_id: 7, bit_mask: 0, opcode_id: Opcode::IADD32I.encode() };
    let (tool, handle) = PermanentInjector::new(params);
    let stats = tool.stats_handle();
    run_trapping(Box::new(tool));
    let rec = handle.get();
    assert_eq!((rec.executions, rec.activations), (128 + 96, 2 + 1));
    let s = *stats.lock();
    assert_eq!((s.launches_instrumented, s.device_calls), (2, 128 + 96));
}

#[test]
fn ext_counts_are_exact_across_a_trapping_launch() {
    let fault = |activation| ExtFault {
        opcodes: vec![Opcode::IADD32I, Opcode::SHL],
        sm_id: 1,
        lane_id: 7,
        corruption: CorruptionFn::Xor(0),
        activation,
    };
    // Two opcodes per thread: lane 7 of SM 1 has 2 × (2 + 1) opportunities.
    let (tool, handle) = ExtInjector::new(fault(ActivationPattern::Always));
    let stats = tool.stats_handle();
    run_trapping(Box::new(tool));
    let rec = handle.get();
    assert_eq!((rec.opportunities, rec.activations), (6, 6));
    assert_eq!(stats.lock().device_calls, 2 * (128 + 96));

    let (tool, handle) = ExtInjector::new(fault(ActivationPattern::Burst { start: 3, len: 2 }));
    run_trapping(Box::new(tool));
    let rec = handle.get();
    assert_eq!((rec.opportunities, rec.activations), (6, 2));
}

#[test]
fn uninstrumented_run_executes_the_counted_instructions() {
    // Anchor for the constants above: launch 0 runs all 128 threads, launch
    // 1 runs blocks 0–1 in full, block 2 up to its STG, and the trapping
    // STG itself.
    let out = run_program(&TrapsOnSecondLaunch, cfg(), None);
    assert_eq!(out.summary.dyn_instrs, (128 + 64) * INSTRS_PER_THREAD + 32 * GP_PER_THREAD + 1);
}
