//! Deterministic fault injection for the F_G pipeline.
//!
//! A [`FaultPlan`] names instrumented points in the pipeline (the
//! stages call [`hit`] with their point name) and arms each with a
//! countdown and a mode. Plans are parsed from the `FG_FAULT`
//! environment variable or the `--inject-fault` CLI flag, with the
//! grammar
//!
//! ```text
//! plan  ::= fault ("," fault)*
//! fault ::= point ["@" N] [":panic"]
//! ```
//!
//! `point` is one of the instrumented points in [`POINTS`], such as
//! `check.expr`; any other name is rejected. `@N` fires on the N-th
//! visit to that point (1-based, default 1);
//! `:panic` panics at the site instead of returning an injected error —
//! used to prove the CLI's `catch_unwind` isolation boundary.
//!
//! Injection is deterministic: the same plan against the same input
//! fires at the same visit. Tests install plans with the scoped,
//! thread-local [`with_plan`]; the CLI installs one process-wide with
//! [`install`]. When no plan is active anywhere, [`hit`] is a single
//! relaxed atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Every instrumented point, in pipeline order: the F_G parser, the
/// checker's expression walk, model lookup and where-clause entry, the
/// direct interpreter, the System F evaluator, and the VM. This is the
/// only list; [`FaultPlan::parse`] rejects any other name.
pub const POINTS: &[&str] = &[
    "parse",
    "check.expr",
    "check.resolve_model",
    "check.where_enter",
    "interp.eval",
    "sf.eval",
    "vm.run",
];

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The site returns its structured "injected" error and unwinds
    /// cleanly through ordinary error propagation.
    Error,
    /// The site panics, exercising the `catch_unwind` boundary.
    Panic,
}

#[derive(Debug)]
struct Fault {
    point: String,
    /// Fires on the `arm`-th visit (1-based).
    arm: u64,
    mode: FaultMode,
    hits: AtomicU64,
}

/// A parsed, armed fault plan. Visit counters live inside the plan, so
/// a plan is single-use: parse a fresh one per run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses the `point[@N][:panic]` comma-separated grammar.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an empty or unknown point
    /// name, a bad visit count, or an unknown mode suffix.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (head, mode) = match raw.strip_suffix(":panic") {
                Some(h) => (h, FaultMode::Panic),
                None => match raw.split_once(':') {
                    Some((_, m)) => return Err(format!("unknown fault mode `{m}` in `{raw}`")),
                    None => (raw, FaultMode::Error),
                },
            };
            let (point, arm) = match head.split_once('@') {
                Some((p, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("bad visit count `{n}` in `{raw}`"))?;
                    if n == 0 {
                        return Err(format!("visit count must be >= 1 in `{raw}`"));
                    }
                    (p, n)
                }
                None => (head, 1),
            };
            if point.is_empty() {
                return Err(format!("empty fault point in `{raw}`"));
            }
            if !POINTS.contains(&point) {
                return Err(format!(
                    "unknown fault point `{point}` (known: {})",
                    POINTS.join(", ")
                ));
            }
            faults.push(Fault {
                point: point.to_string(),
                arm,
                mode,
                hits: AtomicU64::new(0),
            });
        }
        if faults.is_empty() {
            return Err("empty fault plan".to_string());
        }
        Ok(FaultPlan { faults })
    }

    /// Records a visit to `point` and reports whether an armed fault
    /// fires on this visit.
    pub fn should_fail(&self, point: &str) -> Option<FaultMode> {
        let mut fired = None;
        for f in &self.faults {
            if f.point == point {
                let n = f.hits.fetch_add(1, Ordering::Relaxed) + 1;
                if n == f.arm {
                    fired = Some(f.mode);
                }
            }
        }
        fired
    }
}

/// Nonzero while any plan (global or scoped) is active; gates the fast
/// path of [`hit`] to one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// `true` while any fault plan (global or scoped) is armed. Callers use
/// this to switch off result caches whose hits would change which visit
/// a countdown fault fires on.
pub fn armed() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

static GLOBAL: OnceLock<Arc<FaultPlan>> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
}

/// Installs a process-wide plan (the CLI does this once at startup
/// from `FG_FAULT` / `--inject-fault`). The first installation wins.
pub fn install(plan: FaultPlan) {
    if GLOBAL.set(Arc::new(plan)).is_ok() {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
}

/// Runs `f` with `plan` active on this thread only; the plan is
/// removed when `f` returns *or unwinds* (so a `:panic` fault cannot
/// leak the plan into later tests on the same thread).
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<Arc<FaultPlan>>);
    impl Drop for Reset {
        fn drop(&mut self) {
            SCOPED.with(|s| *s.borrow_mut() = self.0.take());
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let prev = SCOPED.with(|s| s.borrow_mut().replace(Arc::new(plan)));
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    let _reset = Reset(prev);
    f()
}

/// Called by instrumented points. Returns `Some(mode)` when an armed
/// fault fires at `point` on this visit; otherwise `None`. Near-free
/// when no plan is active: one relaxed load, inlined into the caller.
#[inline]
pub fn hit(point: &str) -> Option<FaultMode> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    hit_armed(point)
}

/// [`hit`] once some plan is armed.
fn hit_armed(point: &str) -> Option<FaultMode> {
    debug_assert!(POINTS.contains(&point), "unlisted fault point `{point}`");
    let scoped = SCOPED.with(|s| s.borrow().clone());
    if let Some(plan) = scoped {
        return plan.should_fail(point);
    }
    GLOBAL.get().and_then(|plan| plan.should_fail(point))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar() {
        let p = FaultPlan::parse("check.expr").unwrap();
        assert_eq!(p.faults.len(), 1);
        assert_eq!(p.faults[0].arm, 1);
        assert_eq!(p.faults[0].mode, FaultMode::Error);

        let p = FaultPlan::parse("interp.eval@3:panic, parse@2").unwrap();
        assert_eq!(p.faults.len(), 2);
        assert_eq!(p.faults[0].point, "interp.eval");
        assert_eq!(p.faults[0].arm, 3);
        assert_eq!(p.faults[0].mode, FaultMode::Panic);
        assert_eq!(p.faults[1].point, "parse");
        assert_eq!(p.faults[1].arm, 2);
        assert_eq!(p.faults[1].mode, FaultMode::Error);

        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("parse@0").is_err());
        assert!(FaultPlan::parse("parse@zzz").is_err());
        assert!(FaultPlan::parse("parse:explode").is_err());
        assert!(FaultPlan::parse("@2").is_err());
    }

    #[test]
    fn unknown_points_are_rejected() {
        for point in POINTS {
            assert!(FaultPlan::parse(point).is_ok(), "{point}");
        }
        for bad in ["bogus.point", "sf.parse", "check", "parse,bogus@2", "Parse"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("unknown fault point"), "{bad}: {err}");
        }
    }

    #[test]
    fn fires_on_the_nth_visit_only() {
        let p = FaultPlan::parse("sf.eval@3").unwrap();
        assert_eq!(p.should_fail("sf.eval"), None);
        assert_eq!(p.should_fail("vm.run"), None);
        assert_eq!(p.should_fail("sf.eval"), None);
        assert_eq!(p.should_fail("sf.eval"), Some(FaultMode::Error));
        assert_eq!(p.should_fail("sf.eval"), None);
    }

    #[test]
    fn scoped_plan_is_removed_after_the_closure() {
        assert_eq!(hit("check.expr"), None);
        let fired = with_plan(FaultPlan::parse("check.expr").unwrap(), || {
            hit("check.expr")
        });
        assert_eq!(fired, Some(FaultMode::Error));
        assert_eq!(hit("check.expr"), None);
    }

    #[test]
    fn scoped_plan_is_removed_on_unwind() {
        let r = std::panic::catch_unwind(|| {
            with_plan(FaultPlan::parse("interp.eval:panic").unwrap(), || {
                if hit("interp.eval") == Some(FaultMode::Panic) {
                    panic!("injected");
                }
            })
        });
        assert!(r.is_err());
        assert_eq!(hit("interp.eval"), None);
    }

    #[test]
    fn scoped_plans_do_not_leak_across_threads() {
        with_plan(FaultPlan::parse("vm.run").unwrap(), || {
            let other = std::thread::spawn(|| hit("vm.run")).join().unwrap();
            assert_eq!(other, None);
            assert_eq!(hit("vm.run"), Some(FaultMode::Error));
        });
    }
}
