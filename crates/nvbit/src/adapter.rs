//! The NVBit core: tool trait, per-static-kernel instrumentation cache, and
//! the adapter that attaches an [`NvBitTool`] to the runtime.

use crate::insert::{CachedInstrumentation, InsertedCall, Inserter, When};
use crate::instr_view::InstrView;
use gpu_isa::{Instr, Kernel, Module};
use gpu_runtime::{InstrMasks, KernelLaunchInfo, LaunchRecord, RunSummary, Tool};
use gpu_sim::{ExecHook, InstrSite, ThreadCtx};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Where a device callback fired, with its bound arguments.
#[derive(Debug)]
pub struct CallSite<'a> {
    /// The inserted call (tool-chosen id plus constant args).
    pub call: &'a InsertedCall,
    /// Before or after the instruction.
    pub when: When,
    /// Instruction view at the site.
    pub instr: InstrView<'a>,
    /// Kernel name.
    pub kernel: &'a str,
    /// Zero-based dynamic instance of the kernel name.
    pub kernel_instance: u64,
}

/// A dynamic binary-instrumentation tool in the NVBit style.
///
/// Lifecycle per the paper §III-C: the first launch of each static kernel
/// triggers [`NvBitTool::instrument_kernel`] (the JIT step) whose result is
/// cached; every launch then consults [`NvBitTool::launch_enabled`] — when
/// `false` the kernel executes completely unmodified, which is how NVBitFI
/// confines overhead to the single target dynamic kernel.
pub trait NvBitTool: Send {
    /// Decide instrumentation for a static kernel (called once per kernel
    /// name, at its first launch — the JIT-compile event).
    fn instrument_kernel(&mut self, kernel: &Kernel, inserter: &mut Inserter<'_>) {
        let _ = (kernel, inserter);
    }

    /// Whether the cached instrumentation is *enabled* for this dynamic
    /// launch. Disabled launches run the original, unmodified kernel.
    fn launch_enabled(&mut self, info: &KernelLaunchInfo<'_>) -> bool {
        let _ = info;
        true
    }

    /// A device callback inserted with [`Inserter::insert_call`] fired.
    fn device_call(&mut self, site: &CallSite<'_>, thread: &mut ThreadCtx<'_>);

    /// A module binary was loaded.
    fn on_module_load(&mut self, module: &Module) {
        let _ = module;
    }

    /// A kernel launch completed (with statistics, trap, or skip flag).
    fn on_kernel_complete(&mut self, record: &LaunchRecord) {
        let _ = record;
    }

    /// The target program is exiting.
    fn on_exit(&mut self, summary: &RunSummary) {
        let _ = summary;
    }
}

/// Counters describing what the framework did — used by the overhead
/// benches and by tests asserting the caching behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvBitStats {
    /// Static kernels instrumented (JIT compilations).
    pub kernels_instrumented: u64,
    /// Launches that reused a cached instrumented kernel.
    pub cache_hits: u64,
    /// Launches that ran with instrumentation enabled.
    pub launches_instrumented: u64,
    /// Launches that ran the unmodified kernel.
    pub launches_unmodified: u64,
    /// Device callbacks delivered, published as each launch completes.
    pub device_calls: u64,
}

/// The framework adapter: wraps an [`NvBitTool`] into a runtime
/// [`Tool`], implementing the instrumentation cache and callback dispatch.
pub struct NvBit<T: NvBitTool> {
    tool: T,
    cache: HashMap<String, Arc<CachedInstrumentation>>,
    /// Instrumentation active for the imminent/ongoing launch.
    current: Option<Arc<CachedInstrumentation>>,
    current_kernel: String,
    current_instance: u64,
    /// Device callbacks delivered in the ongoing launch, flushed into
    /// `stats` when it completes so dispatch takes no lock.
    launch_calls: u64,
    stats: Arc<Mutex<NvBitStats>>,
}

impl<T: NvBitTool> std::fmt::Debug for NvBit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvBit")
            .field("cached_kernels", &self.cache.len())
            .field("stats", &*self.stats.lock())
            .finish_non_exhaustive()
    }
}

impl<T: NvBitTool> NvBit<T> {
    /// Wrap a tool.
    pub fn new(tool: T) -> NvBit<T> {
        NvBit {
            tool,
            cache: HashMap::new(),
            current: None,
            current_kernel: String::new(),
            current_instance: 0,
            launch_calls: 0,
            stats: Arc::new(Mutex::new(NvBitStats::default())),
        }
    }

    /// A shared handle to the framework counters; clone it *before*
    /// attaching the adapter to a runtime so the numbers remain readable
    /// after the run.
    pub fn stats_handle(&self) -> Arc<Mutex<NvBitStats>> {
        Arc::clone(&self.stats)
    }

    /// Access the wrapped tool.
    pub fn tool(&self) -> &T {
        &self.tool
    }

    fn dispatch(&mut self, when: When, thread: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        let NvBit { tool, current, current_kernel, current_instance, launch_calls, .. } = self;
        let Some(cached) = current.as_deref() else {
            return;
        };
        let calls = cached.calls(when, site.pc);
        *launch_calls += calls.len() as u64;
        for call in calls {
            let cs = CallSite {
                call,
                when,
                instr: InstrView::new(site.pc, site.instr),
                kernel: current_kernel,
                kernel_instance: *current_instance,
            };
            tool.device_call(&cs, thread);
        }
    }
}

impl<T: NvBitTool> ExecHook for NvBit<T> {
    fn before(&mut self, thread: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        self.dispatch(When::Before, thread, site);
    }

    fn after(&mut self, thread: &mut ThreadCtx<'_>, site: InstrSite<'_>) {
        self.dispatch(When::After, thread, site);
    }
}

impl<T: NvBitTool> Tool for NvBit<T> {
    fn on_module_load(&mut self, module: &Module) {
        self.tool.on_module_load(module);
    }

    fn instrument(&mut self, info: &KernelLaunchInfo<'_>) -> Option<InstrMasks> {
        let name = info.kernel.name().to_string();
        // JIT-and-cache: first launch of a static kernel instruments it;
        // later launches reuse the cached variant (paper §III-C).
        let cached = match self.cache.get(&name) {
            Some(c) => {
                self.stats.lock().cache_hits += 1;
                Arc::clone(c)
            }
            None => {
                let mut inserter = Inserter::new(info.kernel);
                self.tool.instrument_kernel(info.kernel, &mut inserter);
                let built = Arc::new(inserter.finish());
                if !built.is_empty() {
                    // Empty instrumentation is not a JIT compile: NVBit runs
                    // such kernels unmodified without building a variant.
                    self.stats.lock().kernels_instrumented += 1;
                }
                self.cache.insert(name.clone(), Arc::clone(&built));
                built
            }
        };

        let enabled = !cached.is_empty() && self.tool.launch_enabled(info);
        self.current_kernel = name;
        self.current_instance = info.instance;
        if enabled {
            self.stats.lock().launches_instrumented += 1;
            let masks = cached.masks().clone();
            self.current = Some(cached);
            Some(masks)
        } else {
            self.stats.lock().launches_unmodified += 1;
            self.current = None;
            None
        }
    }

    fn after_launch(&mut self, record: &LaunchRecord) {
        self.current = None;
        if self.launch_calls != 0 {
            self.stats.lock().device_calls += std::mem::take(&mut self.launch_calls);
        }
        self.tool.on_kernel_complete(record);
    }

    fn on_exit(&mut self, summary: &RunSummary) {
        self.tool.on_exit(summary);
    }
}

/// Convenience: build instruction views for a whole kernel.
pub fn instr_views(kernel: &Kernel) -> impl Iterator<Item = InstrView<'_>> {
    kernel.instrs().iter().enumerate().map(|(pc, i)| InstrView::new(pc as u32, i))
}

/// Convenience: the raw instruction at a pc, if in range.
pub fn instr_at(kernel: &Kernel, pc: u32) -> Option<&Instr> {
    kernel.instrs().get(pc as usize)
}
