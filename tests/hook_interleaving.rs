//! Hooks interleave with execution lane by lane without changing it.
//!
//! Every suite program runs twice at test scale: plain, and under an NVBit
//! tool that inserts a no-op call before and after every instruction. The
//! hooked run must produce the same output and dynamic instruction count,
//! and cost exactly two `HOOK_CYCLES` per executed instruction more. The
//! cycle identity holds because no suite kernel reads `SR_CLOCKLO`.

use gpu_runtime::{run_program, RuntimeConfig};
use gpu_sim::cycles::HOOK_CYCLES;
use gpu_sim::ThreadCtx;
use nvbit::{CallSite, Inserter, NvBit, NvBitTool, When};
use workloads::Scale;

/// Calls before and after every instruction, doing nothing.
struct EveryPc;

impl NvBitTool for EveryPc {
    fn instrument_kernel(&mut self, _kernel: &gpu_isa::Kernel, ins: &mut Inserter<'_>) {
        ins.insert_call_everywhere(When::Before, 0);
        ins.insert_call_everywhere(When::After, 1);
    }

    fn device_call(&mut self, _site: &CallSite<'_>, _thread: &mut ThreadCtx<'_>) {}
}

#[test]
fn no_op_hooks_at_every_pc_change_only_the_cycle_count() {
    for e in workloads::suite(Scale::Test) {
        let plain = run_program(e.program.as_ref(), RuntimeConfig::default(), None);
        let tool = NvBit::new(EveryPc);
        let stats = tool.stats_handle();
        let hooked =
            run_program(e.program.as_ref(), RuntimeConfig::default(), Some(Box::new(tool)));
        assert!(plain.termination.is_clean(), "{}", e.name);
        assert_eq!(hooked.termination, plain.termination, "{}", e.name);
        assert_eq!(hooked.stdout, plain.stdout, "{}", e.name);
        assert_eq!(hooked.files, plain.files, "{}", e.name);
        let n = plain.summary.dyn_instrs;
        assert_eq!(hooked.summary.dyn_instrs, n, "{}", e.name);
        assert_eq!(stats.lock().device_calls, 2 * n, "{}", e.name);
        assert_eq!(hooked.summary.cycles, plain.summary.cycles + 2 * HOOK_CYCLES * n, "{}", e.name);
    }
}
