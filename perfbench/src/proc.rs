//! Process counters read from outside the program: CPU time and context
//! switches from `getrusage(RUSAGE_SELF)`, which sums every thread the
//! process ever ran (threads that already exited included, unlike a walk
//! of `/proc/self/task`), and the peak resident set from `VmHWM`; the
//! CPU time a hypervisor stole from the process's CPU (`/proc/stat`); and
//! the pinning of the process to one CPU.

use std::sync::OnceLock;
use std::time::Duration;

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// `cpu_set_t` of Linux: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// The CPU the process is pinned to, once [`pin_to_one_cpu`] succeeded.
static PINNED: OnceLock<usize> = OnceLock::new();

/// Pin the process to the highest-numbered CPU it may run on, before it
/// starts any thread (threads inherit the mask), and return that CPU.
///
/// On a guest with a few vCPUs of a shared machine, threads that hand work
/// to each other across vCPUs measure the host's scheduler: the daemon's
/// pipeline ran anywhere between 13k and 26k Coflows/s unpinned and
/// 26k–32k pinned. Pinned, `available_parallelism` is 1, so the default
/// `OnlineConfig` resolves to one replan thread, as on a one-core host.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a live, writable `cpu_set_t` of `size` bytes, and
    // pid 0 names the calling process.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` holds exactly one allowed CPU.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return None;
    }
    Some(*PINNED.get_or_init(|| cpu))
}

/// CPU time and context switches of the whole process so far, and the
/// machine's stolen time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    pub user: Duration,
    pub system: Duration,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
    /// CPU time that the hypervisor ran other guests while this machine
    /// had work (`steal` in `/proc/stat`): on the pinned CPU, or summed
    /// over every CPU when the process is not pinned.
    pub stolen: Duration,
}

/// The `steal` column of `/proc/stat`'s line for the pinned CPU (`cpuN`),
/// or of its `cpu` line when the process is not pinned; zero where the
/// kernel does not report it.
fn stolen_so_far() -> Duration {
    let label = match PINNED.get() {
        Some(cpu) => format!("cpu{cpu}"),
        None => "cpu".to_string(),
    };
    // /proc/stat counts in USER_HZ, which Linux fixes at 100 per second.
    let ticks: u64 = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let mut cols = l.split_whitespace();
                (cols.next()? == label).then(|| cols.nth(7)?.parse().ok())?
            })
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

impl Usage {
    /// Counters of the whole process, all threads summed.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the C
        // layout of 64-bit Linux, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let dur = |tv: TimeVal| {
            Duration::from_secs(tv.sec.max(0) as u64) + Duration::from_micros(tv.usec.max(0) as u64)
        };
        Usage {
            user: dur(ru.utime),
            system: dur(ru.stime),
            voluntary_switches: ru.nvcsw.max(0) as u64,
            involuntary_switches: ru.nivcsw.max(0) as u64,
            stolen: stolen_so_far(),
        }
    }

    /// What accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            system: self.system.saturating_sub(earlier.system),
            voluntary_switches: self.voluntary_switches - earlier.voluntary_switches,
            involuntary_switches: self.involuntary_switches - earlier.involuntary_switches,
            stolen: self.stolen.saturating_sub(earlier.stolen),
        }
    }

    /// The share of the CPU time the process could run on that was stolen
    /// over `wall`.
    pub fn steal_share(&self, wall: Duration) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.stolen.as_secs_f64() / (wall.as_secs_f64() * cpus as f64)
    }

    pub fn cpu(&self) -> Duration {
        self.user + self.system
    }

    pub fn switches(&self) -> u64 {
        self.voluntary_switches + self.involuntary_switches
    }
}

/// The process's peak resident set (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_grow_with_work() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let spent = Usage::now().since(&before);
        assert!(spent.cpu() > Duration::ZERO);
        assert!(peak_rss_mb() > 0.0);
    }
}
