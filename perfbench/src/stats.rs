//! Order statistics, host memory readings and host-speed calibration.

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks, the same rule as Python's `statistics.quantiles(method="inclusive")`).
/// Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident memory in MiB: the larger of this process's high-water
/// mark (`VmHWM`) and the largest waited-for child's `ru_maxrss`.
pub fn peak_rss_mib() -> f64 {
    let own_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0);
    own_kib.max(children_max_rss_kib()) as f64 / 1024.0
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_max_rss_kib() -> u64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 × i64) followed by
    // 14 `long`s, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size and layout of the
    // platform's `struct rusage`, which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.0[4]).unwrap_or(0)
    } else {
        0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_max_rss_kib() -> u64 {
    0
}

/// The calibration time, in seconds, of the reference host speed that
/// reported times are scaled to (about this loop's time on the 2-vCPU host
/// the baseline was measured on).
pub const REFERENCE_CALIBRATION_S: f64 = 0.025;

/// Host time of a fixed interpreter-like loop (register-array arithmetic,
/// data-dependent branches, loads and stores over 256 KiB), run on
/// `threads` threads at once: the median of all samples, in seconds, less
/// the share the hypervisor stole meanwhile (see [`stolen_share`]).
///
/// The loop is part of the benchmark, not of the program under test, so
/// it measures only how fast the host is running right now: shared hosts
/// drift by tens of percent over minutes, and scaling each pass's times by
/// `REFERENCE_CALIBRATION_S / calibrate(..)` cancels most of that drift.
pub fn calibrate(threads: usize) -> f64 {
    let samples = std::sync::Mutex::new(Vec::new());
    let ticks = cpu_ticks();
    std::thread::scope(|s| {
        for t in 0..threads {
            let samples = &samples;
            s.spawn(move || {
                for rep in 0..5u64 {
                    let start = std::time::Instant::now();
                    std::hint::black_box(calibration_work(std::hint::black_box(
                        t as u64 * 5 + rep,
                    )));
                    let secs = start.elapsed().as_secs_f64();
                    samples.lock().expect("sample store poisoned").push(secs);
                }
            });
        }
    });
    let stolen = stolen_share(ticks, cpu_ticks());
    median(&samples.into_inner().expect("sample store poisoned")) * (1.0 - stolen)
}

/// The machine-wide `/proc/stat` CPU counters (user, nice, system, idle,
/// iowait, irq, softirq, steal), or zeros where they are unavailable.
fn cpu_ticks() -> [u64; 8] {
    let mut ticks = [0; 8];
    if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
        let fields = stat.lines().next().unwrap_or("").split_whitespace().skip(1);
        for (slot, v) in ticks.iter_mut().zip(fields) {
            *slot = v.parse().unwrap_or(0);
        }
    }
    ticks
}

/// The share of busy vCPU time the hypervisor stole between two
/// [`cpu_ticks`] readings: steal / (steal + every non-idle state). Removing
/// it from a wall time estimates the time the work would have taken had
/// its vCPUs not been descheduled.
fn stolen_share(before: [u64; 8], after: [u64; 8]) -> f64 {
    let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a.saturating_sub(b) as f64).collect();
    let busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7];
    if busy > 0.0 {
        (d[7] / busy).min(0.9)
    } else {
        0.0
    }
}

fn calibration_work(seed: u64) -> u64 {
    let mut mem = vec![0u32; 1 << 16];
    let mut regs = [0u64; 16];
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mask = mem.len() - 1;
    for i in 0..1_500_000usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (a, b) = ((x & 15) as usize, ((x >> 4) & 15) as usize);
        match x >> 61 {
            0 => regs[a] = regs[a].wrapping_add(regs[b] ^ x),
            1 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            2 => regs[a] ^= u64::from(mem[(regs[b] as usize ^ i) & mask]),
            3 => mem[(regs[a] as usize ^ i) & mask] = regs[b] as u32,
            4 => regs[a] = regs[a].rotate_left((regs[b] & 63) as u32),
            5 => regs[a] = regs[a].wrapping_sub(regs[b]) >> 1,
            6 => regs[a] = regs[b] >> 3,
            _ => regs[a] = regs[a].wrapping_add(i as u64),
        }
    }
    regs.iter().fold(0, |h, r| h ^ r) ^ mem.iter().fold(0u64, |h, &m| h.wrapping_add(u64::from(m)))
}

/// Run `f` between two calibrations. Returns its result and the factor
/// that scales host times measured during it to the reference host speed,
/// with the share of vCPU time stolen during `f` removed.
pub fn at_reference_speed<T, E>(
    threads: usize,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let before = calibrate(threads);
    let ticks = cpu_ticks();
    let r = f()?;
    let stolen = stolen_share(ticks, cpu_ticks());
    let after = calibrate(threads);
    Ok((r, (1.0 - stolen) * 2.0 * REFERENCE_CALIBRATION_S / (before + after)))
}
