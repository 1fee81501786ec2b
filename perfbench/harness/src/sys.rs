//! Order statistics and the operating-system counters the benchmark reads:
//! CPU time and peak resident memory of the processes it drives.

use std::io;

/// The `q`-quantile of `xs` by nearest rank (`xs` need not be sorted).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture the kernel exports to user space).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of a live process, all of its threads.
pub fn process_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |k: usize| -> io::Result<f64> {
        fields
            .get(k)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_S)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident memory (`VmHWM`) of a live process, in MiB.
pub fn process_peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// Steal and total jiffies of all CPUs since boot, from `/proc/stat`.
pub fn cpu_jiffies() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if fields.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed /proc/stat",
        ));
    }
    Ok((fields[7], fields[..8].iter().sum()))
}

/// The share of CPU time the host stole between two [`cpu_jiffies`]
/// readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds and peak resident memory (MiB) of every child process
/// that has been waited for: the only way to see the peak memory of a
/// short-lived `fg` batch process after it exits.
pub fn children_usage() -> io::Result<(f64, f64)> {
    let mut u = RUsage::default();
    // SAFETY: `u` is a valid, writable `struct rusage` for 64-bit Linux
    // (`#[repr(C)]`, `timeval` = two `i64`, then fourteen `long`s), and
    // `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Ok((secs(u.utime) + secs(u.stime), u.maxrss as f64 / 1024.0))
}

#[repr(C)]
struct Linger {
    onoff: i32,
    linger: i32,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
}

const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;

/// Makes closing `stream` send a reset instead of a FIN, so the socket
/// leaves no `TIME_WAIT` entry behind. A run opens tens of thousands of
/// loopback connections; with a normal close their `TIME_WAIT` entries
/// fill the ephemeral port range across back-to-back runs, and `connect`
/// slows down from one run to the next. The daemon reads the reset as
/// the end of the connection, as it reads an orderly close.
pub fn reset_on_close(stream: &std::net::TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    let linger = Linger {
        onoff: 1,
        linger: 0,
    };
    // SAFETY: the descriptor is a live socket owned by `stream`, and
    // `linger` is a valid `struct linger` (two C ints) whose exact size is
    // passed; `setsockopt` only reads it.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Available parallelism, the `nproc` the workloads scale to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn own_process_counters_are_readable() {
        let pid = std::process::id();
        assert!(process_cpu_s(pid).unwrap() >= 0.0);
        assert!(process_peak_rss_mb(pid).unwrap() > 0.0);
        assert!(children_usage().is_ok());
        let (steal, total) = cpu_jiffies().unwrap();
        assert!(steal <= total && total > 0);
    }
}
