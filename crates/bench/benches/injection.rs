//! Micro-benchmarks of the fault-injection primitives: mask computation,
//! module decode (the launch-time cost NVBit pays once per static kernel),
//! fault-site location in a profile, and raw simulator launch throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_isa::{encode, Module};
use gpu_sim::{Dim3, GlobalMem, Gpu, GpuConfig, Launch};
use nvbitfi::{select_transient, BitFlipModel, InstrGroup, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_bitflip(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitflip_mask");
    for model in BitFlipModel::ALL {
        g.bench_function(model.name(), |b| {
            let mut v = 0.0f64;
            b.iter(|| {
                v = (v + 0.137) % 1.0;
                std::hint::black_box(model.mask(v, 0xDEAD_BEEF))
            })
        });
    }
    g.finish();
}

fn bench_module_decode(c: &mut Criterion) {
    let kernel = workloads::kernels::stencil5_f32("k");
    let bytes = encode::encode_module(&Module::new("m", vec![kernel]));
    let mut g = c.benchmark_group("module_decode");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("stencil_kernel", |b| {
        b.iter(|| encode::decode_module(std::hint::black_box(&bytes)).expect("decode"))
    });
    g.finish();
}

fn bench_site_selection(c: &mut Criterion) {
    // A profile with many dynamic kernels, as a long-running app would have.
    let counts: std::collections::BTreeMap<gpu_isa::Opcode, u64> = [
        (gpu_isa::Opcode::FADD, 1000u64),
        (gpu_isa::Opcode::LDG, 400),
        (gpu_isa::Opcode::EXIT, 32),
    ]
    .into_iter()
    .collect();
    let profile = Profile {
        mode: nvbitfi::ProfilingMode::Exact,
        kernels: (0..1000)
            .map(|i| nvbitfi::KernelProfile {
                kernel: format!("k{}", i % 20),
                instance: i / 20,
                counts: counts.clone(),
            })
            .collect(),
    };
    let mut g = c.benchmark_group("fault_site_selection");
    g.bench_function("select_1000_dynamic_kernels", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            select_transient(&profile, InstrGroup::GpPr, BitFlipModel::FlipSingleBit, &mut rng)
                .expect("select")
        })
    });
    g.finish();
}

fn bench_sim_throughput(c: &mut Criterion) {
    let kernel = workloads::kernels::saxpy_f32("saxpy");
    let mut gpu = Gpu::new(GpuConfig::default());
    let n = 1024u32;
    let mut g = c.benchmark_group("simulator_throughput");
    g.bench_function("saxpy_1024_threads", |b| {
        b.iter(|| {
            let mut mem = GlobalMem::new(1 << 20);
            let y = mem.alloc(n * 4).expect("y");
            let x = mem.alloc(n * 4).expect("x");
            gpu.launch(
                &Launch {
                    kernel: &kernel,
                    grid: Dim3::from(n / 64),
                    block: Dim3::from(64),
                    params: &[y.addr(), x.addr(), 2.0f32.to_bits(), n],
                    instr_budget: None,
                },
                &mut mem,
                None,
            )
            .expect("launch")
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_bitflip, bench_module_decode, bench_site_selection, bench_sim_throughput
}
criterion_main!(benches);
