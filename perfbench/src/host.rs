//! Facts about the machine a result was measured on, and the process
//! CPU clock.
//!
//! Results from different hosts must never be compared blindly, so every
//! result carries the core count, CPU model, cache sizes and whether
//! hardware performance counters exist.

use std::fs;
use std::path::Path;
use std::time::Duration;

/// What the benchmark records about its host.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name, or `unknown`.
    pub cpu_model: String,
    /// Size of the per-core L2 cache as the kernel states it, or `unknown`.
    pub l2: String,
    /// Size of the L3 cache, or `unknown`.
    pub l3: String,
    /// Whether the kernel exposes a hardware performance-counter PMU.
    pub hw_counters: bool,
}

/// Reads the host facts from the kernel; missing entries read `unknown`.
pub fn probe() -> HostFacts {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    HostFacts {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        l2: cache_size(2),
        l3: cache_size(3),
        hw_counters: Path::new("/sys/bus/event_source/devices/cpu").exists(),
    }
}

/// The size of CPU 0's data or unified cache at `level`.
fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for index in 0..8 {
        let dir = base.join(format!("index{index}"));
        let read = |name: &str| fs::read_to_string(dir.join(name)).ok();
        let (Some(lvl), Some(kind)) = (read("level"), read("type")) else {
            continue;
        };
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            if let Some(size) = read("size") {
                return size.trim().to_string();
            }
        }
    }
    "unknown".into()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time consumed so far by every thread of this
/// process, including threads that have already exited.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) for the whole
    // call, and the clock id is a constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds are below one second"),
    )
}

impl HostFacts {
    /// The facts as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"l2\": {}, \"l3\": {}, \"hw_counters\": {}}}",
            self.nproc,
            crate::report::json_str(&self.cpu_model),
            crate::report::json_str(&self.l2),
            crate::report::json_str(&self.l3),
            self.hw_counters
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_time() > before);
    }

    #[test]
    fn host_facts_serialize() {
        let facts = probe();
        assert!(facts.nproc >= 1);
        let json = facts.to_json();
        assert!(json.starts_with("{\"nproc\": ") && json.ends_with('}'));
    }
}
