//! Host identity and the ceilings every layer number is read against,
//! all measured by the benchmark's own code in the same run.

use crate::stats::{median, median_secs};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads and connections the benchmark may use: `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time counters of the whole guest, in clock ticks since boot
/// (`/proc/stat`; zeros where absent).
#[derive(Clone, Copy)]
pub struct CpuTicks {
    /// Time the hypervisor gave to other guests while a vCPU was
    /// runnable.
    steal: u64,
    /// user + nice + system + irq + softirq.
    busy: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTicks {
            steal: at(7),
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
        }
    }

    /// The share of the CPU time the guest wanted since `self` that the
    /// hypervisor gave to other guests: steal / (busy + steal), 0 when
    /// nothing ran or the host reports no steal.
    pub fn steal_share(&self) -> f64 {
        let now = CpuTicks::now();
        let steal = now.steal.saturating_sub(self.steal);
        let wanted = steal + now.busy.saturating_sub(self.busy);
        if wanted == 0 {
            0.0
        } else {
            steal as f64 / wanted as f64
        }
    }
}

/// The ISA the ceilings loop runs on (and the JIT emits for).
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Data/unified cache sizes by level as sysfs reports them for cpu0,
/// e.g. `L1d 48K, L2 2048K, L3 307200K`.
pub fn caches() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut out = Vec::new();
    for idx in 0..8 {
        let read = |f: &str| {
            std::fs::read_to_string(format!("{base}/index{idx}/{f}"))
                .map(|s| s.trim().to_string())
                .ok()
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind == "Instruction" {
            continue;
        }
        let tag = if kind == "Data" { "d" } else { "" };
        out.push(format!("L{level}{tag} {size}"));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// The revision of the checkout, read from `.git` when there is one
/// (a plain export has none: `unknown`).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(String::from))
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host and run stamp printed ahead of every result.
pub fn stamp(workload: &str, seed: u64, trace: bool, extra: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("cpu_model", json_str(&cpu_model())),
        ("isa", json_str(isa())),
        ("jit_available", egemm::jit_available().to_string()),
        ("nproc", nproc().to_string()),
        ("caches", json_str(&caches())),
        ("git_revision", json_str(&git_revision())),
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

// ---------------------------------------------------------------------
// Ceilings
// ---------------------------------------------------------------------

/// Independent accumulator chains: enough to cover the add latency on
/// two vector ports.
const CHAINS: usize = 12;
/// Inner iterations per timed call: about 40 ms of one core at the
/// AVX-512 peak.
const ITERS: u64 = 1 << 24;

/// One core's multiply-add loop: per lane, a separate multiply and a
/// separate add (never a fused multiply-add), the JIT microkernel's
/// instruction mix. Returns the flops executed (mul and add count 1
/// each).
fn muladd_loop() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F verified just above.
            unsafe { x86::muladd_avx512(ITERS) };
            return (ITERS * CHAINS as u64 * 2 * 16) as f64;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 verified just above.
            unsafe { x86::muladd_avx2(ITERS) };
            return (ITERS * CHAINS as u64 * 2 * 8) as f64;
        }
    }
    let mut acc = [0f32; CHAINS];
    let x = black_box(1e-7f32);
    for _ in 0..ITERS {
        for a in acc.iter_mut() {
            *a += x * x;
        }
    }
    black_box(acc);
    (ITERS * CHAINS as u64 * 2) as f64
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn muladd_avx512(iters: u64) {
        let x = _mm512_set1_ps(black_box(1e-7));
        let y = _mm512_set1_ps(black_box(0.5));
        let mut acc = [_mm512_setzero_ps(); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(x, y));
            }
        }
        black_box(acc);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn muladd_avx2(iters: u64) {
        let x = _mm256_set1_ps(black_box(1e-7));
        let y = _mm256_set1_ps(black_box(0.5));
        let mut acc = [_mm256_setzero_ps(); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(x, y));
            }
        }
        black_box(acc);
    }
}

/// Copy buffer size, bytes (each of source and destination).
pub const COPY_BYTES: usize = 128 << 20;

/// The ceilings of this host, measured now.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Single-core mul+add peak, GFLOP/s.
    pub muladd_gflops: f64,
    /// Aggregate over `nproc` concurrent copies of the loop divided by
    /// one copy alone.
    pub parallel_ceiling: f64,
    /// Memory copy bandwidth, GB/s (bytes read plus bytes written).
    pub copy_gbs: f64,
}

/// Measure the ceilings: each figure is the median of `reps` timings.
/// Single and concurrent loops alternate, and the parallel ceiling is
/// the median of the per-pair ratios, so a slow stretch of the host
/// moves both sides of a ratio alike.
pub fn ceilings(reps: usize) -> Ceilings {
    let n = nproc();
    let (mut single, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        let one = muladd_loop() / t.elapsed().as_secs_f64() / 1e9;
        let t = Instant::now();
        let flops: f64 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..n).map(|_| s.spawn(muladd_loop)).collect();
            hs.into_iter()
                .map(|h| h.join().expect("ceiling loop"))
                .sum()
        });
        let all = flops / t.elapsed().as_secs_f64() / 1e9;
        single.push(one);
        ratios.push(all / one);
    }
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    dst.copy_from_slice(&src);
    let secs = median_secs(reps, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    });
    Ceilings {
        muladd_gflops: median(&single),
        parallel_ceiling: median(&ratios),
        copy_gbs: 2.0 * COPY_BYTES as f64 / secs / 1e9,
    }
}
