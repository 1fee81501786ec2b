//! Shared resource budget for the F_G pipeline.
//!
//! Every stage (parse, check, congruence closure, translate, evaluate)
//! charges work against one [`Budget`] so that a hostile or accidental
//! pathological input — a 6000-paren expression, an exponentially
//! refining concept diamond, a divergent Ω term — produces a structured
//! [`Exhausted`] record instead of a stack overflow or a spinning
//! process.
//!
//! # Design
//!
//! The budget is **sticky and polled**, not transactional:
//!
//! * Hot infallible APIs (congruence-closure `term`/`merge`, type
//!   normalization) *charge* the budget and ignore the result; the first
//!   failed charge latches an [`Exhausted`] record.
//! * Fallible layers (the checker per expression node, the evaluators
//!   per step) *poll* with [`Budget::ok`] and convert the latched record
//!   into their own structured error. Overshoot between polls is bounded
//!   by one operation.
//!
//! All counters are atomics so one `Arc<Budget>` can be shared across
//! the checker's big-stack worker thread and the calling thread.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Abstract work units: one AST node checked, one evaluation step,
    /// one congruence union, one VM instruction batch.
    Fuel,
    /// Recursion depth (parser nesting, checker/evaluator recursion).
    Depth,
    /// Hash-consed congruence-closure nodes.
    CcTerms,
    /// Dictionary-plan nodes of where-clause discharge, counted as the
    /// nested-tuple tree the dictionaries unfold to (refinement diamonds
    /// are exponential without this cap).
    DictNodes,
    /// Wall-clock deadline, in milliseconds.
    WallClock,
    /// Not a real resource: a fault injected by
    /// [`crate::fault::FaultPlan`] to exercise an error path.
    Injected,
}

impl Resource {
    /// Stable machine-readable name (used in metrics keys and traces).
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::Fuel => "fuel",
            Resource::Depth => "depth",
            Resource::CcTerms => "cc-terms",
            Resource::DictNodes => "dict-nodes",
            Resource::WallClock => "wall-clock",
            Resource::Injected => "injected",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A latched resource-exhaustion record: what ran out and the cap that
/// was in force. Deliberately `Copy` + `Eq` so error enums carrying it
/// stay cheap and comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// The resource that ran out.
    pub resource: Resource,
    /// The configured cap (milliseconds for [`Resource::WallClock`]).
    pub limit: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::WallClock => write!(f, "deadline of {} ms exceeded", self.limit),
            Resource::Injected => write!(f, "injected fault"),
            r => write!(f, "{} budget of {} exhausted", r, self.limit),
        }
    }
}

/// Configured caps. `None` means unlimited for that dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Abstract work units across the whole pipeline.
    pub fuel: Option<u64>,
    /// Maximum recursion depth for any single stage.
    pub max_depth: Option<u64>,
    /// Maximum hash-consed congruence nodes.
    pub max_cc_terms: Option<u64>,
    /// Maximum dictionary-plan nodes.
    pub max_dict_nodes: Option<u64>,
    /// Wall-clock deadline in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl Limits {
    /// No caps at all: the budget behind the library's short entry
    /// points (`parse_expr`, `check_program`, `eval`, ...).
    pub const UNLIMITED: Limits = Limits {
        fuel: None,
        max_depth: None,
        max_cc_terms: None,
        max_dict_nodes: None,
        timeout_ms: None,
    };

    /// The CLI's default caps: generous enough that the entire paper
    /// corpus passes untouched, tight enough that every file in
    /// `examples/adversarial/` dies with a diagnostic in well under the
    /// deadline.
    pub const DEFAULT_CAPS: Limits = Limits {
        fuel: Some(50_000_000),
        max_depth: Some(4_096),
        max_cc_terms: Some(1_000_000),
        max_dict_nodes: Some(250_000),
        timeout_ms: Some(10_000),
    };

    /// Reads `FG_FUEL`, `FG_MAX_DEPTH`, `FG_MAX_TERMS`,
    /// `FG_MAX_DICT_NODES`, and `FG_TIMEOUT_MS` on top of `self`.
    /// A value of `0`, `none`, or `unlimited` lifts that cap; anything
    /// unparseable is ignored (the CLI is not the place to crash on a
    /// stale environment variable).
    pub fn with_env(mut self) -> Limits {
        fn read(name: &str, slot: &mut Option<u64>) {
            if let Ok(v) = std::env::var(name) {
                let v = v.trim();
                if v.eq_ignore_ascii_case("none") || v.eq_ignore_ascii_case("unlimited") || v == "0"
                {
                    *slot = None;
                } else if let Ok(n) = v.parse::<u64>() {
                    *slot = Some(n);
                }
            }
        }
        read("FG_FUEL", &mut self.fuel);
        read("FG_MAX_DEPTH", &mut self.max_depth);
        read("FG_MAX_TERMS", &mut self.max_cc_terms);
        read("FG_MAX_DICT_NODES", &mut self.max_dict_nodes);
        read("FG_TIMEOUT_MS", &mut self.timeout_ms);
        self
    }
}

/// How often (in fuel charges) the deadline is re-checked; `Instant::now`
/// is too expensive to call per AST node.
const DEADLINE_POLL_MASK: u64 = 0x3FF;

/// A shared, sticky resource budget. See the module docs for the
/// charge/poll protocol. `Default` is [`Budget::unlimited`], so types
/// embedding an `Arc<Budget>` can keep deriving `Default`.
#[derive(Debug)]
pub struct Budget {
    limits: Limits,
    started: Instant,
    fuel_spent: AtomicU64,
    depth: AtomicU64,
    depth_peak: AtomicU64,
    cc_terms: AtomicU64,
    dict_nodes: AtomicU64,
    exhausted: OnceLock<Exhausted>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::new(Limits::UNLIMITED)
    }
}

impl Budget {
    /// A budget enforcing `limits`, with the wall clock starting now.
    pub fn new(limits: Limits) -> Budget {
        Budget {
            limits,
            started: Instant::now(),
            fuel_spent: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            depth_peak: AtomicU64::new(0),
            cc_terms: AtomicU64::new(0),
            dict_nodes: AtomicU64::new(0),
            exhausted: OnceLock::new(),
        }
    }

    /// A budget that never runs out (but still counts, so callers can
    /// measure consumption).
    pub fn unlimited() -> Budget {
        Budget::new(Limits::UNLIMITED)
    }

    /// The caps this budget enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The latched exhaustion record, if any charge has ever failed.
    pub fn exhausted(&self) -> Option<Exhausted> {
        self.exhausted.get().copied()
    }

    /// Polls the sticky state: `Err` once anything has been exhausted.
    pub fn ok(&self) -> Result<(), Exhausted> {
        match self.exhausted.get() {
            Some(e) => Err(*e),
            None => Ok(()),
        }
    }

    /// Latches an exhaustion record. The first trip wins; later trips
    /// return the original record so every error path reports one
    /// consistent cause.
    pub fn trip(&self, resource: Resource, limit: u64) -> Exhausted {
        let _ = self.exhausted.set(Exhausted { resource, limit });
        *self.exhausted.get().expect("exhausted was just set")
    }

    /// Charges `n` abstract work units; re-checks the deadline every
    /// [`DEADLINE_POLL_MASK`]+1 charges.
    pub fn charge_fuel(&self, n: u64) -> Result<(), Exhausted> {
        self.ok()?;
        let spent = self.fuel_spent.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.limits.fuel {
            if spent > limit {
                return Err(self.trip(Resource::Fuel, limit));
            }
        }
        if spent & DEADLINE_POLL_MASK == 0 {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Charges one hash-consed congruence node.
    pub fn charge_cc_term(&self) -> Result<(), Exhausted> {
        self.ok()?;
        let made = self.cc_terms.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.limits.max_cc_terms {
            if made > limit {
                return Err(self.trip(Resource::CcTerms, limit));
            }
        }
        Ok(())
    }

    /// Charges `n` dictionary-plan nodes: one for a node built fresh, a
    /// shared sub-plan's whole tree size when it is reused. Re-checks the
    /// deadline whenever the count crosses a multiple of 1024, as
    /// [`Budget::charge_fuel`] does every 1024 fuel units. However large
    /// `n` is, a trip leaves the count at exactly `limit + 1`.
    pub fn charge_dict_nodes(&self, n: u64) -> Result<(), Exhausted> {
        self.ok()?;
        let cap = self.limits.max_dict_nodes.map_or(u64::MAX, |l| l.saturating_add(1));
        let before = self
            .dict_nodes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_add(n).min(cap))
            })
            .unwrap_or_else(|prev| prev);
        let made = before.saturating_add(n);
        if let Some(limit) = self.limits.max_dict_nodes {
            if made > limit {
                return Err(self.trip(Resource::DictNodes, limit));
            }
        }
        if made > before | DEADLINE_POLL_MASK {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Checks the wall-clock deadline now.
    pub fn check_deadline(&self) -> Result<(), Exhausted> {
        self.ok()?;
        if let Some(ms) = self.limits.timeout_ms {
            if self.started.elapsed().as_millis() as u64 > ms {
                return Err(self.trip(Resource::WallClock, ms));
            }
        }
        Ok(())
    }

    /// Enters one level of recursion; the returned guard leaves it on
    /// drop. Fails when the depth cap is exceeded.
    pub fn enter(&self) -> Result<DepthGuard<'_>, Exhausted> {
        self.ok()?;
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.limits.max_depth {
            if d > limit {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return Err(self.trip(Resource::Depth, limit));
            }
        }
        self.depth_peak.fetch_max(d, Ordering::Relaxed);
        Ok(DepthGuard(self))
    }

    /// Fuel spent so far.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent.load(Ordering::Relaxed)
    }

    /// Congruence nodes created so far.
    pub fn cc_terms(&self) -> u64 {
        self.cc_terms.load(Ordering::Relaxed)
    }

    /// Dictionary-plan nodes charged so far.
    pub fn dict_nodes(&self) -> u64 {
        self.dict_nodes.load(Ordering::Relaxed)
    }

    /// The deepest recursion observed.
    pub fn depth_peak(&self) -> u64 {
        self.depth_peak.load(Ordering::Relaxed)
    }

    /// Milliseconds elapsed since the budget was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// RAII guard from [`Budget::enter`]: decrements the depth on drop, so
/// early returns and `?` propagation keep the counter balanced.
#[derive(Debug)]
pub struct DepthGuard<'a>(&'a Budget);

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.0.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge_fuel(1).unwrap();
            b.charge_cc_term().unwrap();
            b.charge_dict_nodes(1).unwrap();
        }
        let _g1 = b.enter().unwrap();
        let _g2 = b.enter().unwrap();
        assert!(b.ok().is_ok());
        assert_eq!(b.fuel_spent(), 10_000);
        assert_eq!(b.cc_terms(), 10_000);
        assert_eq!(b.dict_nodes(), 10_000);
        assert_eq!(b.depth_peak(), 2);
    }

    #[test]
    fn fuel_trips_at_exactly_the_limit() {
        let b = Budget::new(Limits {
            fuel: Some(5),
            ..Limits::UNLIMITED
        });
        for _ in 0..5 {
            b.charge_fuel(1).unwrap();
        }
        let err = b.charge_fuel(1).unwrap_err();
        assert_eq!(
            err,
            Exhausted {
                resource: Resource::Fuel,
                limit: 5
            }
        );
        // Sticky: every later poll and charge reports the same record.
        assert_eq!(b.ok().unwrap_err(), err);
        assert_eq!(b.charge_cc_term().unwrap_err(), err);
        assert_eq!(b.exhausted(), Some(err));
    }

    #[test]
    fn first_trip_wins() {
        let b = Budget::new(Limits {
            fuel: Some(1),
            max_cc_terms: Some(1),
            ..Limits::UNLIMITED
        });
        b.charge_cc_term().unwrap();
        let first = b.charge_cc_term().unwrap_err();
        assert_eq!(first.resource, Resource::CcTerms);
        // A later fuel overrun still reports the original cause.
        assert_eq!(b.charge_fuel(100).unwrap_err().resource, Resource::CcTerms);
    }

    #[test]
    fn depth_guard_balances_on_drop() {
        let b = Budget::new(Limits {
            max_depth: Some(2),
            ..Limits::UNLIMITED
        });
        {
            let _a = b.enter().unwrap();
            let _b = b.enter().unwrap();
            assert_eq!(b.enter().unwrap_err().resource, Resource::Depth);
        }
        assert_eq!(b.depth.load(Ordering::Relaxed), 0);
        assert_eq!(b.depth_peak(), 2);
    }

    #[test]
    fn bulk_dict_node_charge_over_the_cap_reads_limit_plus_one() {
        let b = Budget::new(Limits {
            max_dict_nodes: Some(100),
            ..Limits::UNLIMITED
        });
        b.charge_dict_nodes(1).unwrap();
        b.charge_dict_nodes(99).unwrap();
        assert_eq!(b.dict_nodes(), 100);
        let err = b.charge_dict_nodes(1 << 20).unwrap_err();
        assert_eq!(
            err,
            Exhausted {
                resource: Resource::DictNodes,
                limit: 100
            }
        );
        assert_eq!(b.dict_nodes(), 101);
        // Sticky: a later charge fails without counting.
        assert_eq!(b.charge_dict_nodes(5).unwrap_err(), err);
        assert_eq!(b.dict_nodes(), 101);
        // An unlimited budget saturates instead of wrapping.
        let u = Budget::unlimited();
        u.charge_dict_nodes(u64::MAX).unwrap();
        u.charge_dict_nodes(u64::MAX).unwrap();
        assert_eq!(u.dict_nodes(), u64::MAX);
    }

    #[test]
    fn dict_node_charge_crossing_a_1024_boundary_polls_the_deadline() {
        let b = Budget::new(Limits {
            timeout_ms: Some(0),
            ..Limits::UNLIMITED
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        // Below the first boundary nothing looks at the clock.
        b.charge_dict_nodes(1000).unwrap();
        b.charge_dict_nodes(23).unwrap();
        assert!(b.ok().is_ok());
        // One bulk charge from 1023 past 2048 crosses, so it polls.
        let err = b.charge_dict_nodes(1100).unwrap_err();
        assert_eq!(err.resource, Resource::WallClock);
        assert_eq!(b.dict_nodes(), 2123);
    }

    #[test]
    fn zero_deadline_trips() {
        let b = Budget::new(Limits {
            timeout_ms: Some(0),
            ..Limits::UNLIMITED
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(b.check_deadline().unwrap_err().resource, Resource::WallClock);
    }

    #[test]
    fn display_is_stable() {
        let e = Exhausted {
            resource: Resource::DictNodes,
            limit: 7,
        };
        assert_eq!(e.to_string(), "dict-nodes budget of 7 exhausted");
        let w = Exhausted {
            resource: Resource::WallClock,
            limit: 100,
        };
        assert_eq!(w.to_string(), "deadline of 100 ms exceeded");
    }

    #[test]
    fn budget_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Budget>();
    }
}
