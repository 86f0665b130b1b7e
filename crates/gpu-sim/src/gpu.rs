//! The device front-end: configuration, launches, and statistics.

use crate::block::{uses_local_memory, BlockState, Counters};
use crate::error::SimError;
use crate::grid::Dim3;
use crate::hooks::Instrumentation;
use crate::memory::GlobalMem;
use gpu_isa::Kernel;
use serde::{Deserialize, Serialize};

/// Maximum threads per block, matching CUDA.
pub const MAX_BLOCK_THREADS: u64 = 1024;

/// Maximum bytes of kernel parameters (CUDA's 4 KiB launch-parameter limit).
pub const MAX_PARAM_BYTES: usize = 4096;

/// Simulated device configuration.
///
/// Defaults model a Titan V (the paper's evaluation GPU): 80 SMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors; blocks are assigned
    /// `sm = block_id % num_sms`.
    pub num_sms: u32,
    /// Per-thread local-memory bytes, allocated only for kernels that
    /// contain a local-memory access.
    pub local_mem_bytes: u32,
    /// Default per-launch dynamic-instruction budget (the hang detector).
    pub default_instr_budget: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig { num_sms: 80, local_mem_bytes: 1024, default_instr_budget: 2_000_000_000 }
    }
}

/// A simulated GPU device.
///
/// ```
/// use gpu_sim::{Gpu, GpuConfig, GlobalMem, Launch, Dim3};
/// use gpu_isa::asm::KernelBuilder;
/// use gpu_isa::{Reg, SpecialReg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Kernel: out[gtid] = gtid
/// let mut k = KernelBuilder::new("iota");
/// k.ldc(Reg(4), 0); // param 0: output base pointer
/// k.s2r(Reg(0), SpecialReg::GlobalTidX);
/// k.shli(Reg(1), Reg(0), 2);
/// k.iadd(Reg(4), Reg(4), Reg(1));
/// k.stg(Reg(4), 0, Reg(0));
/// k.exit();
/// let kernel = k.finish();
///
/// let gpu = Gpu::new(GpuConfig::default());
/// let mut mem = GlobalMem::new(1 << 20);
/// let out = mem.alloc(64 * 4)?;
/// let stats = gpu.launch(
///     &Launch { kernel: &kernel, grid: Dim3::from(2), block: Dim3::from(32), params: &[out.addr()], instr_budget: None },
///     &mut mem,
///     None,
/// )?;
/// assert_eq!(mem.read_u32s(out, 64)?, (0..64).collect::<Vec<u32>>());
/// assert!(stats.dyn_instrs > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gpu {
    cfg: GpuConfig,
    deadline: Option<std::time::Instant>,
    limits: Option<crate::ResourceLimits>,
}

/// One kernel launch request.
#[derive(Debug)]
pub struct Launch<'a> {
    /// The kernel to run.
    pub kernel: &'a Kernel,
    /// Grid dimensions (blocks).
    pub grid: Dim3,
    /// Block dimensions (threads).
    pub block: Dim3,
    /// Kernel parameters, copied to constant memory at offset 0.
    pub params: &'a [u32],
    /// Dynamic-instruction budget override (hang detector threshold).
    pub instr_budget: Option<u64>,
}

/// Statistics from a (possibly partial) launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchStats {
    /// Guard-passing thread-level dynamic instructions executed.
    pub dyn_instrs: u64,
    /// Simulated cycles consumed (includes instrumentation-callback cost).
    pub cycles: u64,
    /// Blocks in the grid.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u64,
}

impl Gpu {
    /// Create a device with the given configuration.
    pub fn new(cfg: GpuConfig) -> Gpu {
        Gpu { cfg, deadline: None, limits: None }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Arm (or disarm) the wall-clock deadline. While armed, every launch
    /// polls the clock alongside the instruction-budget hang check and traps
    /// with [`crate::TrapKind::DeadlineExceeded`] once `deadline` passes —
    /// the fault-isolation backstop for runaway injection runs.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Arm (or disarm) the resource governor's launch-time caps. While
    /// armed, a kernel declaring more static shared memory than
    /// [`crate::ResourceLimits::max_shared_bytes`] traps with
    /// [`crate::TrapKind::ResourceLimit`] instead of allocating it.
    pub fn set_limits(&mut self, limits: Option<crate::ResourceLimits>) {
        self.limits = limits;
    }

    /// Run a kernel to completion.
    ///
    /// Blocks execute in linear order; each block runs on
    /// `sm = block_id % num_sms` for the purpose of `SR_SMID` and the
    /// permanent-fault model's SM targeting.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid launch configurations, and
    /// [`SimError::Trap`] — with partial [`LaunchStats`] attached — when the
    /// kernel faults or exceeds its instruction budget.
    pub fn launch(
        &self,
        l: &Launch<'_>,
        global: &mut GlobalMem,
        mut instrumentation: Option<&mut Instrumentation<'_>>,
    ) -> Result<LaunchStats, SimError> {
        let threads = l.block.count();
        if threads == 0 || l.grid.count() == 0 {
            return Err(SimError::EmptyLaunch);
        }
        if threads > MAX_BLOCK_THREADS {
            return Err(SimError::BlockTooLarge { threads });
        }
        if l.kernel.is_empty() {
            return Err(SimError::EmptyKernel);
        }
        let param_bytes: Vec<u8> = l.params.iter().flat_map(|w| w.to_le_bytes()).collect();
        if param_bytes.len() > MAX_PARAM_BYTES {
            return Err(SimError::ParamsTooLarge { bytes: param_bytes.len() });
        }
        if let Some(ins) = instrumentation.as_deref() {
            if ins.before_mask.len() != l.kernel.len() || ins.after_mask.len() != l.kernel.len() {
                return Err(SimError::BadInstrumentationMask {
                    mask_len: ins.before_mask.len(),
                    kernel_len: l.kernel.len(),
                });
            }
        }

        // Governor check: a fault-corrupted shared-memory declaration traps
        // like a sandbox kill instead of materializing a huge scratchpad.
        if let Some(limits) = self.limits {
            if l.kernel.shared_bytes() > limits.max_shared_bytes {
                return Err(SimError::Trap {
                    info: crate::trap::TrapInfo {
                        kind: crate::trap::TrapKind::ResourceLimit {
                            space: gpu_isa::Space::Shared,
                            requested: l.kernel.shared_bytes(),
                            limit: limits.max_shared_bytes,
                        },
                        kernel: l.kernel.name().to_string(),
                        pc: None,
                        block: None,
                        thread: None,
                    },
                    stats: LaunchStats {
                        dyn_instrs: 0,
                        cycles: 0,
                        blocks: l.grid.count(),
                        threads_per_block: threads,
                    },
                });
            }
        }

        let mut counters = Counters {
            executed: 0,
            cycles: 0,
            budget: l.instr_budget.unwrap_or(self.cfg.default_instr_budget),
            deadline: self.deadline,
        };
        // An already-expired deadline traps before any instruction executes,
        // so even trivially short launches cannot extend a runaway run.
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(SimError::Trap {
                    info: crate::trap::TrapInfo {
                        kind: crate::trap::TrapKind::DeadlineExceeded,
                        kernel: l.kernel.name().to_string(),
                        pc: None,
                        block: None,
                        thread: None,
                    },
                    stats: LaunchStats {
                        dyn_instrs: 0,
                        cycles: 0,
                        blocks: l.grid.count(),
                        threads_per_block: threads,
                    },
                });
            }
        }
        let local_bytes = if uses_local_memory(l.kernel) { self.cfg.local_mem_bytes } else { 0 };
        let nblocks = l.grid.count() as u32;
        for b in 0..nblocks {
            let sm = b % self.cfg.num_sms;
            let mut block = BlockState::new(l.kernel, l.grid, l.block, b, sm, local_bytes);
            let run =
                block.run(l.kernel, global, &param_bytes, &mut counters, &mut instrumentation);
            if let Err(info) = run {
                return Err(SimError::Trap {
                    info,
                    stats: LaunchStats {
                        dyn_instrs: counters.executed,
                        cycles: counters.cycles,
                        blocks: l.grid.count(),
                        threads_per_block: threads,
                    },
                });
            }
        }
        Ok(LaunchStats {
            dyn_instrs: counters.executed,
            cycles: counters.cycles,
            blocks: l.grid.count(),
            threads_per_block: threads,
        })
    }
}
