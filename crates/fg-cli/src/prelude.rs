//! The prefix a request's body is checked against: empty, or the STL
//! prelude of `fg::stdlib`, checked once per worker.
//!
//! A [`Snapshot`] holds the type interner its checker shares (an `Rc`),
//! so it cannot move between threads: each pool worker keeps its own in a
//! thread-local, built on its first `--prelude` request. The parsed
//! prelude and the snapshot are each built under a budget of their own,
//! made from the request's limits, and kept only if the build succeeds.
//! A request's budget and counters therefore cover its body alone,
//! whatever requests came before. The cache is keyed by those limits, so
//! a request under other caps never reuses a prelude checked under these.
//!
//! A traced request, or one run under an armed fault plan, builds a
//! throwaway prelude through the same code, with its own tracer and the
//! fault plan: its event stream and fault-visit counts then cover the
//! prelude exactly as a whole-program run does.

// `CheckError` carries the offending types inline (as in `fg` itself);
// a snapshot is built once per worker, so its size costs nothing here.
#![allow(clippy::result_large_err)]

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use fg::prefix::{relay_exhaustion, Prefix, Snapshot};
use fg::CheckError;
use system_f::ParseError;
use telemetry::limits::{Budget, Limits};
use telemetry::trace::Tracer;

thread_local! {
    static WORKER: RefCell<Cached> = RefCell::new(Cached::default());
}

/// This worker's prelude, built under `limits`.
#[derive(Default)]
struct Cached {
    limits: Option<Limits>,
    prefix: Option<Rc<Prefix>>,
    snapshot: Option<Rc<Snapshot>>,
}

impl Cached {
    /// The entry for `limits`, emptied if it was built under others.
    fn at(&mut self, limits: Limits) -> &mut Cached {
        if self.limits != Some(limits) {
            *self = Cached {
                limits: Some(limits),
                ..Cached::default()
            };
        }
        self
    }
}

/// How a request uses the prelude.
#[derive(Clone, Copy)]
pub enum Prelude {
    /// No prelude: the body is the whole program.
    None,
    /// This worker's cached prelude.
    Cached,
    /// A prelude built for this request alone.
    Throwaway,
}

impl Prelude {
    /// The mode for a request: `--prelude` or not, and whether the
    /// request is traced.
    pub fn for_request(use_prelude: bool, tracer: &Tracer) -> Prelude {
        if !use_prelude {
            Prelude::None
        } else if tracer.is_enabled() || telemetry::fault::armed() {
            Prelude::Throwaway
        } else {
            Prelude::Cached
        }
    }

    /// The parsed prefix. A prelude's is parsed under a budget of its
    /// own; if that runs out, `budget` is tripped alike.
    pub fn prefix(self, budget: &Budget) -> Result<Rc<Prefix>, ParseError> {
        let limits = *budget.limits();
        let parse = || {
            let own = Arc::new(Budget::new(limits));
            fg::stdlib::prelude_prefix(Arc::clone(&own))
                .map(Rc::new)
                .inspect_err(|_| relay_exhaustion(&own, budget))
        };
        match self {
            Prelude::None => Ok(Rc::new(Prefix::empty())),
            Prelude::Throwaway => parse(),
            Prelude::Cached => WORKER.with(|w| {
                let mut w = w.borrow_mut();
                let w = w.at(limits);
                if let Some(prefix) = &w.prefix {
                    return Ok(Rc::clone(prefix));
                }
                let prefix = parse()?;
                w.prefix = Some(Rc::clone(&prefix));
                Ok(prefix)
            }),
        }
    }

    /// The checked `prefix`. A prelude's is checked under a budget of
    /// its own; if that runs out, `budget` is tripped alike.
    pub fn snapshot(
        self,
        prefix: &Rc<Prefix>,
        tracer: &Tracer,
        budget: &Arc<Budget>,
    ) -> Result<Rc<Snapshot>, CheckError> {
        let limits = *budget.limits();
        let own = || Arc::new(Budget::new(limits));
        let relayed = |own: &Budget, checked: Result<Snapshot, CheckError>| {
            checked
                .map(Rc::new)
                .inspect_err(|_| relay_exhaustion(own, budget))
        };
        match self {
            Prelude::None => {
                Snapshot::check(Rc::clone(prefix), tracer.clone(), Arc::clone(budget)).map(Rc::new)
            }
            Prelude::Throwaway => {
                let own = own();
                let checked = Snapshot::check(Rc::clone(prefix), tracer.clone(), Arc::clone(&own));
                relayed(&own, checked)
            }
            Prelude::Cached => WORKER.with(|w| {
                let mut w = w.borrow_mut();
                let w = w.at(limits);
                if let Some(snapshot) = &w.snapshot {
                    return Ok(Rc::clone(snapshot));
                }
                let own = own();
                let snapshot = relayed(
                    &own,
                    Snapshot::check_shared(Rc::clone(prefix), Arc::clone(&own)),
                )?;
                w.snapshot = Some(Rc::clone(&snapshot));
                Ok(snapshot)
            }),
        }
    }
}
