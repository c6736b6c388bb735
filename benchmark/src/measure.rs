//! Clocks, memory, percentiles and the seeded generator.
//!
//! Two CPU clocks are read from `/proc`: the process total from
//! `/proc/self/stat` (10 ms ticks, includes threads that have exited —
//! the robust one, used for `cpu_ms_per_op` over a whole timed phase)
//! and the per-thread `schedstat` sums (nanoseconds, live threads only —
//! fine-grained enough to time one 20 ms daemon op).
//!
//! A run stays on one CPU ([`pin_to_current_cpu`]), and a workload whose
//! threads sleep between hand-offs keeps that CPU from halting with a
//! [`Spinner`]: both take the scheduler's choices out of the CPU time;
//! see "Why the daemon workloads are timed on CPU" in the README.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

// From the C library `std` links on Linux; `std` itself has no call for
// either.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_IDLE` of `<sched.h>`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;
/// Words of the C library's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// The CPU the process last ran on (field 39) from the text of
/// `/proc/<pid>/stat`.
pub fn parse_stat_processor(stat: &str) -> Option<usize> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3.
    rest.split_ascii_whitespace().nth(36)?.parse().ok()
}

/// Confines the calling thread, and every thread it starts from now on,
/// to the CPU it is running on. Threads that hand work to each other then
/// neither migrate nor wake each other across CPUs, which in a virtual
/// machine costs an interrupt a time, paid on somebody's CPU clock.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let cpu = parse_stat_processor(&stat).ok_or("/proc/self/stat: unexpected format")?;
    let mut mask = [0u64; CPU_SET_WORDS];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} does not fit a cpu_set_t"))? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly the size
    // passed, which the call only reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// A thread that computes nothing at the lowest priority the kernel has,
/// for as long as the value lives. Any other runnable thread preempts it
/// at once, so it takes no time from the program; it fills the gaps in
/// which a closed loop's threads all sleep, so that the CPU never halts
/// between two hand-offs. Waking a halted virtual CPU costs an exit to the
/// host, and what the CPU finds in its caches afterwards depends on what
/// else ran: measured on `daemon_warm` beside two busy processes, the
/// median op cost 4.4 % more CPU than alone and spread 3.9 % without
/// pinning and spinner, 1.4 % more and 0.3 % with them. The spinner's
/// own CPU time is not the program's: the clocks below leave it out.
pub struct Spinner {
    stop: Arc<AtomicBool>,
    tid: u32,
    thread: Option<JoinHandle<()>>,
}

impl Spinner {
    pub fn start() -> Result<Spinner, String> {
        // Publishes no data: the thread only has to see it change.
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let ready = own_tid().and_then(|tid| idle_priority().map(|()| tid));
            let spin = ready.is_ok();
            let _ = tx.send(ready);
            // No `spin_loop` hint: a virtual CPU that pauses in a loop is
            // taken for one waiting on a lock and descheduled by the host.
            let mut n = 0u64;
            while spin && !flag.load(Ordering::Relaxed) {
                n = std::hint::black_box(n.wrapping_add(1));
            }
        });
        let tid = rx
            .recv()
            .map_err(|_| "the spinner thread died".to_string())
            .and_then(|ready| ready);
        match tid {
            Ok(tid) => Ok(Spinner {
                stop,
                tid,
                thread: Some(thread),
            }),
            Err(e) => {
                let _ = thread.join();
                Err(e)
            }
        }
    }

    /// The kernel's id of the spinning thread, as under `/proc/self/task`.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

impl Drop for Spinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The calling thread's id, from where `/proc/thread-self` points
/// (`<pid>/task/<tid>`).
fn own_tid() -> Result<u32, String> {
    let link = fs::read_link("/proc/thread-self").map_err(|e| format!("/proc/thread-self: {e}"))?;
    link.file_name()
        .and_then(|name| name.to_str()?.parse().ok())
        .ok_or_else(|| format!("/proc/thread-self: unexpected target {}", link.display()))
}

/// Moves the calling thread to `SCHED_IDLE`.
fn idle_priority() -> Result<(), String> {
    let priority = 0i32;
    // SAFETY: `priority` is a live `int`, the whole of a `struct
    // sched_param`, which the call only reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
    if rc != 0 {
        return Err(format!(
            "sched_setscheduler: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// On-CPU nanoseconds (the first field) from a `schedstat` file.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Process CPU time (user + system, every thread that ever ran) in ms.
/// Linux reports these fields in `USER_HZ` = 100 ticks per second on
/// every architecture.
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("/proc/self/stat: unexpected format")?;
    Ok(ticks as f64 * 10.0)
}

/// On-CPU nanoseconds of one thread of this process.
pub fn thread_cpu_ns(tid: u32) -> Result<u64, String> {
    let path = format!("/proc/self/task/{tid}/schedstat");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_schedstat_ns(&text).ok_or(format!("{path}: unexpected format"))
}

/// On-CPU nanoseconds summed over the live threads of this process,
/// except thread `idler` (a [`Spinner`]'s).
pub fn threads_cpu_ns(idler: Option<u32>) -> Result<u64, String> {
    let mut total = 0;
    let idler = idler.map(|tid| tid.to_string());
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        if idler.as_deref().is_some_and(|tid| task.file_name() == tid) {
            continue;
        }
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        total += parse_schedstat_ns(&text)
            .ok_or("schedstat: unexpected format (kernel without scheduler statistics?)")?;
    }
    Ok(total)
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("/proc/self/status: no VmHWM line")?;
    Ok(kb as f64 / 1024.0)
}

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated
/// between the two closest ranks. `values` need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance procedure uses for the spread of ten runs.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// SplitMix64: the workloads' only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        let stat = "1234 (evil) name (x)) R 1 1 1 0 -1 4194304 100 0 0 0 \
                    57 13 0 0 20 0 4 0 100 1000 10 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(70));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn stat_parser_finds_the_processor() {
        // A real line: field 39 follows exit_signal (17).
        let stat = "4242 (earth (bench)) R 1 1 1 0 -1 4194304 100 0 0 0 57 13 0 0 20 0 4 0 \
                    100 1000 10 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0";
        assert_eq!(parse_stat_processor(stat), Some(3));
        assert_eq!(parse_stat_processor("1 (x) R 1 2"), None);
    }

    /// The spinner runs at idle priority on a thread of its own, which the
    /// sum over the program's threads can leave out, and ends with its value.
    #[test]
    fn the_spinner_idles_on_its_own_thread() {
        let spinner = Spinner::start().unwrap();
        let tid = spinner.tid();
        let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
        let policy = stat[stat.rfind(')').unwrap() + 1..]
            .split_ascii_whitespace()
            .nth(38)
            .unwrap();
        assert_eq!(policy, SCHED_IDLE.to_string(), "field 41 of {stat}");
        // Both clocks only advance, so without the spinner's share the
        // earlier reading cannot exceed the later one with it.
        let without = threads_cpu_ns(Some(tid)).unwrap();
        assert!(without <= threads_cpu_ns(None).unwrap());
        assert!(thread_cpu_ns(tid).is_ok());
        drop(spinner);
        assert!(thread_cpu_ns(tid).is_err(), "the thread is gone");
    }

    #[test]
    fn schedstat_and_status_parsers() {
        assert_eq!(
            parse_schedstat_ns("506485610 11587896 52\n"),
            Some(506_485_610)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1724 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1724));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn the_live_clocks_read_and_advance() {
        let before = threads_cpu_ns(None).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(threads_cpu_ns(None).unwrap() > before);
        assert!(process_cpu_ms().is_ok());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut v: Vec<u32> = (0..16).collect();
            r.shuffle(&mut v);
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u32>>());
    }
}
