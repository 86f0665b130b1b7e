//! The transient-fault injector — NVBitFI's `injector.so`.
//!
//! Driven by a [`TransientParams`] file, the injector:
//!
//! 1. instruments *only* the target kernel, and only instructions in the
//!    selected group (everything else runs unmodified — the selectivity the
//!    paper credits for NVBitFI's low injection overhead),
//! 2. enables instrumentation only for the target *dynamic instance*
//!    (`kernel count`),
//! 3. counts group instructions as they execute, thread-level, in the
//!    simulator's deterministic order, and
//! 4. when the count reaches `instruction count`, corrupts one destination
//!    register of that dynamic instruction — after its result is written —
//!    using the bit-flip model's XOR mask.

use crate::bitflip::BitFlipModel;
use crate::igid::InstrGroup;
use crate::params::TransientParams;
use gpu_isa::{Instr, Kernel, Opcode, PReg, Reg, RegSlot};
use gpu_runtime::{KernelLaunchInfo, LaunchRecord};
use nvbit::{CallSite, Inserter, NvBit, NvBitTool, When};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What the injector corrupted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptedTarget {
    /// A general-purpose register was XORed.
    Gpr {
        /// The register.
        reg: u8,
        /// Value before corruption.
        old: u32,
        /// The XOR mask applied.
        mask: u32,
        /// Value after corruption.
        new: u32,
    },
    /// A predicate register was overwritten.
    Pred {
        /// The predicate register.
        reg: u8,
        /// Value before corruption.
        old: bool,
        /// Value after corruption.
        new: bool,
    },
    /// The selected dynamic instruction had no writable destination
    /// (e.g. a `G_NODEST` site, or all destinations were `RZ`).
    NoWritableDest,
}

/// A record of one performed injection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionDetail {
    /// Kernel the fault landed in.
    pub kernel: String,
    /// Dynamic instance of the kernel.
    pub instance: u64,
    /// Static instruction index.
    pub pc: u32,
    /// The instruction's opcode.
    pub opcode: Opcode,
    /// Global thread id of the corrupted thread.
    pub global_tid: u64,
    /// What was corrupted.
    pub target: CorruptedTarget,
}

/// Outcome of the injector's attempt (readable after the run).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// `true` once the fault was injected.
    pub injected: bool,
    /// Details, when injected.
    pub detail: Option<InjectionDetail>,
    /// Group instructions observed in the target kernel instance (even if
    /// the target index was never reached — diagnostic for approximate
    /// profiles that overestimate a kernel's length).
    pub group_instrs_seen: u64,
}

/// Handle to read the [`InjectionRecord`] after the run.
#[derive(Debug, Clone)]
pub struct InjectionHandle(Arc<Mutex<InjectionRecord>>);

impl InjectionHandle {
    /// Snapshot the record.
    pub fn get(&self) -> InjectionRecord {
        self.0.lock().clone()
    }
}

/// The destination register unit the *destination register* parameter
/// (Table II) selects for `instr` under `group` targeting, or `None` when
/// the instruction has no writable destination for the group.
///
/// This is the single source of truth shared by the injector (which
/// corrupts the unit) and static dead-fault pruning (which asks whether
/// the unit is dead at the injection point): GPR candidates order before
/// predicate candidates, and `destination_register ∈ [0,1)` indexes the
/// combined list.
pub fn select_destination(
    instr: &Instr,
    group: InstrGroup,
    destination_register: f64,
) -> Option<RegSlot> {
    let gprs: Vec<Reg> = if group.targets_gprs() { instr.gpr_dests() } else { Vec::new() };
    let preds: Vec<PReg> = if group.targets_predicates() { instr.pred_dests() } else { Vec::new() };
    let total = gprs.len() + preds.len();
    if total == 0 {
        return None;
    }
    let idx = ((destination_register * total as f64) as usize).min(total - 1);
    Some(if idx < gprs.len() {
        RegSlot::Gpr(gprs[idx])
    } else {
        RegSlot::Pred(preds[idx - gprs.len()])
    })
}

/// The transient injector tool (attachable via [`nvbit::NvBit`]).
pub struct TransientInjector {
    params: TransientParams,
    /// Group instructions seen so far; published to the record as each
    /// launch completes, so counting takes no lock.
    seen: u64,
    record: Arc<Mutex<InjectionRecord>>,
}

impl TransientInjector {
    /// Create an injector for one fault, plus the handle to its record.
    pub fn new(params: TransientParams) -> (NvBit<TransientInjector>, InjectionHandle) {
        let record = Arc::new(Mutex::new(InjectionRecord::default()));
        let inj = TransientInjector { params, seen: 0, record: Arc::clone(&record) };
        (NvBit::new(inj), InjectionHandle(record))
    }

    fn corrupt(&self, site: &CallSite<'_>, thread: &mut gpu_sim::ThreadCtx<'_>) -> CorruptedTarget {
        // Table II: destination register ∈ [0,1) selects among candidates.
        let selected = select_destination(
            site.instr.instr(),
            self.params.group,
            self.params.destination_register,
        );
        match selected {
            None => CorruptedTarget::NoWritableDest,
            Some(RegSlot::Gpr(reg)) => {
                let old = thread.read_reg(reg);
                let mask = self.params.bit_flip.mask(self.params.bit_pattern, old);
                let new = thread.corrupt_reg(reg, mask) ^ mask;
                CorruptedTarget::Gpr { reg: reg.0, old, mask, new }
            }
            Some(RegSlot::Pred(p)) => {
                let old = thread.read_pred(p);
                let new = match self.params.bit_flip {
                    BitFlipModel::ZeroValue => false,
                    BitFlipModel::RandomValue => self.params.bit_pattern >= 0.5,
                    BitFlipModel::FlipSingleBit | BitFlipModel::FlipTwoBits => !old,
                };
                if new != old {
                    thread.corrupt_pred(p);
                }
                CorruptedTarget::Pred { reg: p.0, old, new }
            }
        }
    }
}

impl NvBitTool for TransientInjector {
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        // Only the target kernel is instrumented, and only the group's
        // instructions within it.
        if kernel.name() != self.params.kernel_name {
            return;
        }
        for (pc, instr) in kernel.instrs().iter().enumerate() {
            if self.params.group.contains(instr.op) {
                inserter.insert_call(pc, When::After, 0, Vec::new());
            }
        }
    }

    fn launch_enabled(&mut self, info: &KernelLaunchInfo<'_>) -> bool {
        info.kernel.name() == self.params.kernel_name && info.instance == self.params.kernel_count
    }

    fn device_call(&mut self, site: &CallSite<'_>, thread: &mut gpu_sim::ThreadCtx<'_>) {
        let index = self.seen;
        self.seen += 1;
        // `seen` only grows, so the target index matches exactly once.
        if index != self.params.instruction_count {
            return;
        }
        let target = self.corrupt(site, thread);
        let mut rec = self.record.lock();
        rec.injected = true;
        rec.detail = Some(InjectionDetail {
            kernel: site.kernel.to_string(),
            instance: site.kernel_instance,
            pc: site.instr.pc(),
            opcode: site.instr.opcode(),
            global_tid: thread.meta.global_tid(),
            target,
        });
    }

    fn on_kernel_complete(&mut self, _record: &LaunchRecord) {
        self.record.lock().group_instrs_seen = self.seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igid::InstrGroup;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, SpecialReg};
    use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError};

    /// out[tid] = tid + 1, launched twice.
    struct App;
    impl Program for App {
        fn name(&self) -> &str {
            "app"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            let mut k = KernelBuilder::new("inc");
            let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
            k.ldc(out, 0);
            k.s2r(tid, SpecialReg::TidX);
            k.iaddi(Reg(2), tid, 1);
            k.shli(off, tid, 2);
            k.iadd(out, out, off);
            k.stg(out, 0, Reg(2));
            k.exit();
            let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
            let m = rt.load_module(&bytes)?;
            let k = rt.get_kernel(m, "inc")?;
            let out0 = rt.alloc(32 * 4)?;
            let out1 = rt.alloc(32 * 4)?;
            rt.launch(k, 1u32, 32u32, &[out0.addr()])?;
            rt.launch(k, 1u32, 32u32, &[out1.addr()])?;
            rt.synchronize()?;
            let v0 = rt.read_u32s(out0, 32)?;
            let v1 = rt.read_u32s(out1, 32)?;
            rt.println(format!("sum0={} sum1={}", v0.iter().sum::<u32>(), v1.iter().sum::<u32>()));
            Ok(())
        }
    }

    fn params(kernel_count: u64, instruction_count: u64) -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "inc".into(),
            kernel_count,
            instruction_count,
            destination_register: 0.0,
            bit_pattern: 0.0, // flips bit 0
        }
    }

    #[test]
    fn pointer_corruption_becomes_a_detected_error() {
        // Group index 0 is thread 0's LDC — the output *pointer*. A single
        // bit flip there sends the store to a misaligned address: the
        // kernel traps, the checking host sees the sticky error, and the
        // process exits non-zero (an application-detected DUE).
        let (tool, handle) = TransientInjector::new(params(0, 0));
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(handle.get().injected);
        assert_eq!(
            out.termination,
            gpu_runtime::Termination::Normal { exit_code: 1 },
            "{}",
            out.stdout
        );
        assert!(out.has_anomaly());
    }

    #[test]
    fn injects_exactly_one_fault_in_target_instance() {
        // G_GP instructions per thread in `inc`: LDC, S2R, IADD32I, SHL,
        // IADD = 5 of 7 (STG and EXIT are NODEST). 32 threads step in
        // lockstep, so group indices 0..32 are the LDCs, 32..64 the S2Rs,
        // 64..96 the IADD32Is, … Target index 74: thread 10's IADD32I in
        // the second launch (instance 1) — a value, not a pointer, so the
        // program completes and the corruption flows to the output.
        let (tool, handle) = TransientInjector::new(params(1, 74));
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert!(rec.injected);
        let detail = rec.detail.expect("detail");
        assert_eq!(detail.instance, 1);
        assert_eq!(detail.kernel, "inc");
        match detail.target {
            CorruptedTarget::Gpr { mask, old, new, .. } => {
                assert_eq!(mask, 1);
                assert_eq!(new, old ^ 1);
            }
            other => panic!("expected GPR corruption, got {other:?}"),
        }
        // The fault flipped bit 0 of some intermediate — output may or may
        // not change, but the uncorrupted first launch must be identical.
        assert!(out.stdout.contains("sum0=528"), "first launch untouched: {}", out.stdout);
        assert!(!out.stdout.contains("sum1=528"), "bit flip must surface: {}", out.stdout);
    }

    #[test]
    fn unreachable_instruction_count_never_injects() {
        // Only 160 group instructions exist per instance; target #5000.
        let (tool, handle) = TransientInjector::new(params(0, 5000));
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        assert!(!rec.injected, "site beyond execution must be a no-op");
        assert_eq!(rec.group_instrs_seen, 160);
        assert!(out.stdout.contains("sum0=528 sum1=528"));
    }

    #[test]
    fn wrong_kernel_name_is_never_instrumented() {
        let mut p = params(0, 0);
        p.kernel_name = "other_kernel".into();
        let (tool, handle) = TransientInjector::new(p);
        let stats = tool.stats_handle();
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        assert!(!handle.get().injected);
        assert_eq!(stats.lock().launches_instrumented, 0);
        assert_eq!(stats.lock().device_calls, 0);
    }

    #[test]
    fn non_target_instance_runs_unmodified() {
        let (tool, _handle) = TransientInjector::new(params(1, 70));
        let stats = tool.stats_handle();
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let s = *stats.lock();
        assert_eq!(s.launches_instrumented, 1, "only instance 1");
        assert_eq!(s.launches_unmodified, 1, "instance 0 untouched");
    }

    #[test]
    fn zero_value_model_zeroes_destination() {
        let mut p = params(0, 67); // thread 3's IADD32I result
        p.bit_flip = BitFlipModel::ZeroValue;
        let (tool, handle) = TransientInjector::new(p);
        let out = run_program(&App, RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        match handle.get().detail.expect("detail").target {
            CorruptedTarget::Gpr { new, .. } => assert_eq!(new, 0),
            other => panic!("expected GPR, got {other:?}"),
        }
    }
}
