//! The timed, untraced runs: cold starts for `setup_s`, then a closed loop
//! over the workload for the measured seconds, every reply checked.
//!
//! The measured phase is cut into windows of `WINDOW`, and the harness
//! reads the host's CPU steal (`/proc/stat`) over each. The
//! timing metrics pool the samples of the `KEPT_WINDOWS` windows with the
//! least steal. On a shared virtual machine the host takes the CPUs away
//! for tens of seconds at a time: 10 s samples of steal went from 0% to
//! 31%, and in a burst the same `corpus_batch` inputs ran at half their
//! throughput. A window in such a burst measures the host more than the
//! program. The windows are chosen by what the host did, not by how fast
//! the program ran, so a change that slows the program shows in every
//! window, the kept ones included.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::drive::{self, Daemon, TranslateKeys, Verdict};
use crate::inputs::{self, Input, Method};
use crate::sys;

/// Cold starts before and again after the measured phase; `setup_s` is
/// the median of all of them. The host's speed drifts over seconds, and
/// two groups half a minute apart see more of its states than one.
const COLD_STARTS: u64 = 16;
/// Untimed closed-loop warm-up before the measured phase.
const WARM_UP: Duration = Duration::from_secs(1);
/// Length of a measured window.
pub const WINDOW: Duration = Duration::from_secs(1);
/// The measured windows whose samples the timing metrics pool: those with
/// the least steal.
pub const KEPT_WINDOWS: usize = 10;
/// The daemon's peak resident memory is read when this many replies have
/// arrived since it started. The daemon's memory grows with the requests it
/// has served, so a fixed count compares like with like across speeds; a
/// read at the end of a fixed-time run would follow throughput instead.
pub const RSS_AFTER_REPLIES: u64 = 4000;

/// Per-method answer-key tallies.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub ok: u64,
    pub impure: u64,
    pub wrong: u64,
}

impl Tally {
    fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Ok => self.ok += 1,
            Verdict::Impure => self.impure += 1,
            Verdict::Wrong => self.wrong += 1,
        }
    }
}

/// One window of the measured phase.
#[derive(Default)]
pub struct Window {
    /// Per request (daemon workloads) or per batch (`corpus_batch`)
    /// started in the window.
    pub latencies_ms: Vec<f64>,
    /// Inputs started in the window: requests, or programs in batches.
    pub inputs: u64,
    /// CPU seconds of the server or batch processes in the window.
    pub cpu_s: f64,
    /// The share of the machine's CPU time the host stole in the window.
    pub steal: f64,
}

/// What a timed run measured.
pub struct E2e {
    pub setup_samples_s: Vec<f64>,
    pub windows: Vec<Window>,
    pub peak_rss_mb: f64,
    /// Measured-phase tallies, by method.
    pub by_method: BTreeMap<&'static str, Tally>,
    /// Wrong replies outside the measured phase (cold starts, warm-up).
    pub wrong_untimed: u64,
    pub cache_hits_seen: u64,
}

impl E2e {
    /// The `KEPT_WINDOWS` windows with the least steal; on a tie, the
    /// earlier window.
    pub fn kept(&self) -> Vec<&Window> {
        let mut by_steal: Vec<&Window> = self.windows.iter().collect();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        by_steal.truncate(KEPT_WINDOWS);
        by_steal
    }

    pub fn total(&self) -> Tally {
        self.by_method
            .values()
            .fold(Tally::default(), |a, t| Tally {
                ok: a.ok + t.ok,
                impure: a.impure + t.impure,
                wrong: a.wrong + t.wrong,
            })
    }
}

/// One daemon cold start: spawn to first correct reply.
fn daemon_cold_start(fg: &Path, input: &Input) -> io::Result<(f64, bool)> {
    let start = Instant::now();
    let daemon = Daemon::spawn(fg)?;
    let reply = daemon.call(input, 1)?;
    let secs = start.elapsed().as_secs_f64();
    daemon.shutdown()?;
    Ok((secs, drive::check_reply(input, &reply) == Some(Verdict::Ok)))
}

/// One batch cold start: spawn of a one-program batch to its exit.
fn batch_cold_start(fg: &Path, jobs: usize, dir: &Path, input: &Input) -> io::Result<(f64, bool)> {
    let batch = std::slice::from_ref(input);
    let (code, stdout, secs) = drive::run_batch(fg, jobs, dir, batch, &[])?;
    Ok((
        secs,
        code == 0 && Some(stdout) == drive::batch_expected(batch),
    ))
}

/// One group of `COLD_STARTS` cold starts, appended to `samples`; returns
/// the number of wrong first replies. The first group begins with one
/// unrecorded start, so the binary is in the page cache for all of them.
fn cold_starts(
    seed: u64,
    daemon: bool,
    samples: &mut Vec<f64>,
    mut start: impl FnMut(&Input) -> io::Result<(f64, bool)>,
) -> io::Result<u64> {
    let unrecorded = u64::from(samples.is_empty());
    let mut wrong = 0;
    for k in 0..COLD_STARTS + unrecorded {
        let (secs, ok) = start(&inputs::setup_input(seed, samples.len() as u64, daemon))?;
        wrong += u64::from(!ok);
        if k >= unrecorded {
            samples.push(secs);
        }
    }
    Ok(wrong)
}

/// One request of a closed loop.
pub struct Record {
    /// The measured window it started in; `None` during warm-up.
    window: Option<usize>,
    method: Method,
    latency_ms: f64,
    cached: bool,
    /// `None` while a translate reply awaits its fresh-process key.
    verdict: Option<Verdict>,
    pending: Option<(Input, String)>,
}

/// What a closed loop against a daemon measured.
pub struct Load {
    pub records: Vec<Record>,
    /// The daemon's CPU seconds and the host's steal share in each
    /// measured window.
    pub windows: Vec<Window>,
    /// The daemon's peak resident memory (MiB) when its
    /// `RSS_AFTER_REPLIES`-th reply arrived, if it did.
    pub rss_mb_at_count: Option<f64>,
}

/// A closed loop of `clients` connections against a fresh daemon: each
/// client sends its next request only when the previous reply has arrived.
pub fn daemon_load(
    daemon: &Daemon,
    clients: u64,
    warm_up: Duration,
    measure: Duration,
    next: &(dyn Fn(u64, u64) -> Input + Sync),
) -> io::Result<Load> {
    let warm_end = Instant::now() + warm_up;
    let end = warm_end + measure;
    let windows = windows_in(measure);
    let records = Mutex::new(Vec::new());
    let failure: Mutex<Option<io::Error>> = Mutex::new(None);
    let replies = AtomicU64::new(0);
    let rss: OnceLock<io::Result<f64>> = OnceLock::new();
    let mut marks = Vec::with_capacity(windows + 1);
    std::thread::scope(|s| -> io::Result<()> {
        for client in 0..clients {
            let records = &records;
            let failure = &failure;
            let (replies, rss) = (&replies, &rss);
            s.spawn(move || {
                let mut mine = Vec::new();
                for i in 0.. {
                    let input = next(client, i);
                    let t0 = Instant::now();
                    if t0 >= end {
                        break;
                    }
                    let reply = daemon.call(&input, i * clients + client);
                    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                    if replies.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REPLIES {
                        let _ = rss.set(sys::process_peak_rss_mb(daemon.pid()));
                    }
                    let (verdict, cached, pending) = match reply {
                        Ok(r) => match drive::check_reply(&input, &r) {
                            Some(v) => (Some(v), r.cached, None),
                            None => (None, r.cached, Some((input.clone(), r.output))),
                        },
                        Err(e) => {
                            // The run fails; stop this client.
                            failure.lock().expect("no panics hold it").get_or_insert(e);
                            break;
                        }
                    };
                    mine.push(Record {
                        window: window_of(t0, warm_end, windows),
                        method: input.method,
                        latency_ms,
                        cached,
                        verdict,
                        pending,
                    });
                }
                records.lock().expect("no panics hold it").extend(mine);
            });
        }
        for w in 0..=windows {
            let boundary = warm_end + WINDOW * w as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            marks.push((sys::process_cpu_s(daemon.pid())?, sys::cpu_jiffies()?));
        }
        Ok(())
    })?;
    if let Some(e) = failure.into_inner().expect("no panics hold it") {
        return Err(e);
    }
    Ok(Load {
        records: records.into_inner().expect("no panics hold it"),
        windows: marks
            .windows(2)
            .map(|m| Window {
                cpu_s: m[1].0 - m[0].0,
                steal: sys::steal_share(m[0].1, m[1].1),
                ..Window::default()
            })
            .collect(),
        rss_mb_at_count: rss.into_inner().transpose()?,
    })
}

/// The number of whole windows in the measured phase.
fn windows_in(measure: Duration) -> usize {
    (measure.as_secs_f64() / WINDOW.as_secs_f64()) as usize
}

/// The measured window an input started at `t` falls in, if any.
fn window_of(t: Instant, warm_end: Instant, windows: usize) -> Option<usize> {
    let into = t.checked_duration_since(warm_end)?;
    let w = (into.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
    (w < windows).then_some(w)
}

/// Resolves the pending translate verdicts.
fn settle(fg: &Path, records: &mut [Record], keys: &mut TranslateKeys) -> io::Result<()> {
    for r in records.iter_mut() {
        if let Some((input, output)) = r.pending.take() {
            r.verdict = Some(keys.judge(fg, &input, &output)?);
        }
    }
    Ok(())
}

/// `prelude_serve` and `daemon_mixed`: cold starts, then the closed loop
/// against one long-lived daemon.
pub fn daemon_workload(
    fg: &Path,
    seed: u64,
    clients: u64,
    seconds: f64,
    next: &(dyn Fn(u64, u64) -> Input + Sync),
) -> io::Result<E2e> {
    let mut setup_samples_s = Vec::new();
    let cold = |input: &Input| daemon_cold_start(fg, input);
    let mut wrong_untimed = cold_starts(seed, true, &mut setup_samples_s, cold)?;
    let daemon = Daemon::spawn(fg)?;
    let measure = Duration::from_secs_f64(seconds);
    let load = daemon_load(&daemon, clients, WARM_UP, measure, next)?;
    daemon.shutdown()?;
    let mut records = load.records;
    let peak_rss_mb = load.rss_mb_at_count.ok_or_else(|| {
        io::Error::other(format!(
            "the daemon served fewer than {RSS_AFTER_REPLIES} requests, \
             where its peak memory is read"
        ))
    })?;
    wrong_untimed += cold_starts(seed, true, &mut setup_samples_s, cold)?;
    settle(fg, &mut records, &mut TranslateKeys::default())?;

    let mut by_method: BTreeMap<&'static str, Tally> = BTreeMap::new();
    let mut windows = load.windows;
    let mut cache_hits_seen = 0;
    for r in &records {
        let verdict = r.verdict.expect("settled");
        if let Some(w) = r.window {
            by_method.entry(r.method.name()).or_default().add(verdict);
            windows[w].latencies_ms.push(r.latency_ms);
            windows[w].inputs += 1;
            cache_hits_seen += u64::from(r.cached);
        } else {
            wrong_untimed += u64::from(verdict == Verdict::Wrong);
        }
    }
    Ok(E2e {
        setup_samples_s,
        windows,
        peak_rss_mb,
        by_method,
        wrong_untimed,
        cache_hits_seen,
    })
}

/// `corpus_batch`: cold starts, then back-to-back `fg --jobs <nproc> run`
/// batches.
pub fn batch_workload(fg: &Path, work: &Path, seed: u64, seconds: f64) -> io::Result<E2e> {
    let jobs = sys::nproc();
    let mut setup_samples_s = Vec::new();
    let cold = |input: &Input| batch_cold_start(fg, jobs, work, input);
    let mut wrong_untimed = cold_starts(seed, false, &mut setup_samples_s, cold)?;
    let mut tally = Tally::default();
    let measure = Duration::from_secs_f64(seconds);
    let mut windows: Vec<Window> = (0..windows_in(measure))
        .map(|_| Window::default())
        .collect();
    // `/proc/stat` at the first batch start of each window, and at the end.
    let mut marks = Vec::with_capacity(windows.len() + 1);
    let warm_end = Instant::now() + WARM_UP;
    let end = warm_end + measure;
    for j in 0.. {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let window = window_of(now, warm_end, windows.len());
        if let Some(w) = window {
            while marks.len() <= w {
                marks.push(sys::cpu_jiffies()?);
            }
        }
        let batch = inputs::corpus_batch(seed, j);
        let cpu0 = sys::children_usage()?.0;
        let (code, stdout, secs) = drive::run_batch(fg, jobs, work, &batch, &[])?;
        let cpu_s = sys::children_usage()?.0 - cpu0;
        let expected = drive::batch_expected(&batch).unwrap_or_default();
        let ok = code == 0 && stdout == expected;
        if !ok {
            drive::report_wrong(
                &format!("batch {j}"),
                &expected,
                &format!("exit {code}: {stdout}"),
            );
        }
        if let Some(w) = window {
            let window = &mut windows[w];
            window.latencies_ms.push(secs * 1e3);
            window.inputs += batch.len() as u64;
            window.cpu_s += cpu_s;
            let verdict = if ok { Verdict::Ok } else { Verdict::Wrong };
            for _ in &batch {
                tally.add(verdict);
            }
        } else {
            wrong_untimed += u64::from(!ok);
        }
    }
    while marks.len() <= windows.len() {
        marks.push(sys::cpu_jiffies()?);
    }
    for (window, m) in windows.iter_mut().zip(marks.windows(2)) {
        window.steal = sys::steal_share(m[0], m[1]);
    }
    let peak_rss_mb = sys::children_usage()?.1;
    wrong_untimed += cold_starts(seed, false, &mut setup_samples_s, cold)?;
    let mut by_method = BTreeMap::new();
    by_method.insert(Method::Run.name(), tally);
    Ok(E2e {
        setup_samples_s,
        windows,
        peak_rss_mb,
        by_method,
        wrong_untimed,
        cache_hits_seen: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_windows_are_those_of_least_steal() {
        let steals = [
            0.30, 0.0, 0.05, 0.0, 0.2, 0.01, 0.0, 0.4, 0.02, 0.0, 0.03, 0.1,
        ];
        let windows = steals
            .iter()
            .enumerate()
            .map(|(k, &steal)| Window {
                inputs: k as u64,
                steal,
                ..Window::default()
            })
            .collect();
        let run = E2e {
            setup_samples_s: Vec::new(),
            windows,
            peak_rss_mb: 0.0,
            by_method: BTreeMap::new(),
            wrong_untimed: 0,
            cache_hits_seen: 0,
        };
        let kept: Vec<u64> = run.kept().iter().map(|w| w.inputs).collect();
        assert_eq!(kept, [1, 3, 6, 9, 5, 8, 10, 2, 11, 4]);
    }
}
