//! The permanent-fault injector — NVBitFI's `pf_injector.so`.
//!
//! A permanent fault "affects all dynamic instances of an instruction type"
//! (§III-B): every execution of the target opcode on the target SM and
//! hardware lane has its destination registers XORed with the same bit
//! mask. No profile is required, but one makes campaigns efficient by
//! skipping opcodes the program never executes.

use crate::params::PermanentParams;
use gpu_isa::{Kernel, Opcode};
use gpu_runtime::LaunchRecord;
use nvbit::{CallSite, Inserter, NvBit, NvBitTool, When};
use parking_lot::Mutex;
use std::sync::Arc;

/// What a permanent-fault run did (readable after the run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PermanentRecord {
    /// Times the target opcode executed on the target SM and lane (each one
    /// corrupted).
    pub activations: u64,
    /// Times the target opcode executed anywhere (activation opportunity).
    pub executions: u64,
}

/// Handle to read the [`PermanentRecord`] after the run.
#[derive(Debug, Clone)]
pub struct PermanentHandle(Arc<Mutex<PermanentRecord>>);

impl PermanentHandle {
    /// Snapshot the record.
    pub fn get(&self) -> PermanentRecord {
        self.0.lock().clone()
    }
}

/// The permanent injector tool (attachable via [`nvbit::NvBit`]).
pub struct PermanentInjector {
    params: PermanentParams,
    opcode: Opcode,
    /// Running counts, published to `record` as each launch completes so
    /// the per-execution path takes no lock.
    counts: PermanentRecord,
    record: Arc<Mutex<PermanentRecord>>,
}

impl PermanentInjector {
    /// Create an injector for one permanent fault, plus its record handle.
    ///
    /// # Panics
    ///
    /// Panics if `params.opcode_id` is not a valid opcode; call
    /// [`PermanentParams::validate`] first.
    pub fn new(params: PermanentParams) -> (NvBit<PermanentInjector>, PermanentHandle) {
        let opcode = params.opcode();
        let record = Arc::new(Mutex::new(PermanentRecord::default()));
        let inj = PermanentInjector {
            params,
            opcode,
            counts: PermanentRecord::default(),
            record: Arc::clone(&record),
        };
        (NvBit::new(inj), PermanentHandle(record))
    }
}

impl NvBitTool for PermanentInjector {
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        for (pc, instr) in kernel.instrs().iter().enumerate() {
            if instr.op == self.opcode {
                inserter.insert_call(pc, When::After, 0, Vec::new());
            }
        }
    }

    fn device_call(&mut self, site: &CallSite<'_>, thread: &mut gpu_sim::ThreadCtx<'_>) {
        self.counts.executions += 1;
        // The fault lives at one physical (SM, lane): only threads that map
        // there activate it (Table III).
        if thread.meta.sm != self.params.sm_id || thread.meta.lane != self.params.lane_id {
            return;
        }
        self.counts.activations += 1;
        for reg in site.instr.gpr_dests() {
            thread.corrupt_reg(reg, self.params.bit_mask);
        }
        if self.params.bit_mask != 0 {
            for p in site.instr.pred_dests() {
                thread.corrupt_pred(p);
            }
        }
    }

    fn on_kernel_complete(&mut self, _record: &LaunchRecord) {
        *self.record.lock() = self.counts.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{encode, Module, Reg, SpecialReg};
    use gpu_runtime::{run_program, Program, Runtime, RuntimeConfig, RuntimeError};
    use gpu_sim::GpuConfig;

    /// out[gtid] = gtid + 1 across 4 blocks of 32 threads.
    struct App;
    impl Program for App {
        fn name(&self) -> &str {
            "app"
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
            let out_buf = rt.alloc(128 * 4)?;
            rt.launch(k, 4u32, 32u32, &[out_buf.addr()])?;
            rt.synchronize()?;
            let v = rt.read_u32s(out_buf, 128)?;
            for (i, x) in v.iter().enumerate() {
                rt.println(format!("{i} {x}"));
            }
            Ok(())
        }
    }

    fn cfg(num_sms: u32) -> RuntimeConfig {
        RuntimeConfig {
            gpu: GpuConfig { num_sms, ..GpuConfig::default() },
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn corrupts_every_instance_on_target_sm_and_lane() {
        // 2 SMs: blocks 0,2 on SM 0; blocks 1,3 on SM 1. Target SM 1,
        // lane 7 → threads 39 and 103 (gtid = block*32 + 7).
        let params = PermanentParams {
            sm_id: 1,
            lane_id: 7,
            bit_mask: 0x1,
            opcode_id: Opcode::IADD32I.encode(),
        };
        let (tool, handle) = PermanentInjector::new(params);
        let out = run_program(&App, cfg(2), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        let rec = handle.get();
        // IADD32I executes once per thread: 128 executions, 2 activations.
        assert_eq!(rec.executions, 128);
        assert_eq!(rec.activations, 2);
        // Affected threads: 1*32+7=39 → (39+1)^1 = 41; 3*32+7=103 → 105.
        assert!(out.stdout.contains("39 41"), "{}", out.stdout);
        assert!(out.stdout.contains("103 105"));
        // An unaffected lane on the same SM is untouched.
        assert!(out.stdout.contains("38 39"));
    }

    #[test]
    fn unused_opcode_never_activates() {
        let params = PermanentParams {
            sm_id: 0,
            lane_id: 0,
            bit_mask: 0xFFFF_FFFF,
            opcode_id: Opcode::DFMA.encode(),
        };
        let (tool, handle) = PermanentInjector::new(params);
        let stats = tool.stats_handle();
        let out = run_program(&App, cfg(2), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        assert_eq!(handle.get().executions, 0);
        // No DFMA in the kernel → empty instrumentation → unmodified run.
        assert_eq!(stats.lock().launches_instrumented, 0);
    }

    #[test]
    fn zero_mask_records_but_does_not_corrupt() {
        let params = PermanentParams {
            sm_id: 0,
            lane_id: 0,
            bit_mask: 0,
            opcode_id: Opcode::IADD32I.encode(),
        };
        let (tool, handle) = PermanentInjector::new(params);
        let out = run_program(&App, cfg(2), Some(Box::new(tool)));
        assert!(out.termination.is_clean());
        assert!(handle.get().activations > 0);
        assert!(out.stdout.contains("0 1"), "mask 0 leaves values intact");
    }
}
