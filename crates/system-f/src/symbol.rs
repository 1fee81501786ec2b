//! Interned identifiers.
//!
//! Both System F and F_G terms refer to names (variables, type variables,
//! concept names, member names) constantly; interning makes them `Copy`,
//! O(1)-comparable, and cheap to hash. The interner is a process-global
//! table — interned strings are leaked, so `as_str` can hand out
//! `&'static str` without lifetime plumbing.
//!
//! The table holds the names programs spell and the names compiling them
//! generates: a [`NameSupply`]'s `base_N` (dictionaries, associated-type
//! binders, hygiene renames, member locals) and the `v_k` a
//! capture-avoiding substitution renames a binder to
//! ([`Symbol::rename_binders`]). Each generated name is a function of the
//! program alone — its counter belongs to one compilation, and a renaming
//! depends only on the terms involved — so compiling a program again
//! interns nothing new, and the table grows with the distinct names seen,
//! not with the number of compilations.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Two `Symbol`s are equal exactly when the strings they intern are equal.
///
/// ```
/// use system_f::Symbol;
///
/// let a = Symbol::intern("accumulate");
/// let b = Symbol::intern("accumulate");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "accumulate");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    by_name: HashMap<&'static str, Symbol>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its canonical symbol.
    pub fn intern(name: &str) -> Symbol {
        let mut int = interner().lock().expect("interner poisoned");
        if let Some(&sym) = int.by_name.get(name) {
            return sym;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let sym = Symbol(u32::try_from(int.names.len()).expect("interner overflow"));
        int.names.push(leaked);
        int.by_name.insert(leaked, sym);
        sym
    }

    /// `self_k`: this name with a numeric suffix.
    fn numbered(self, k: u32) -> Symbol {
        Symbol::intern(&format!("{}_{k}", self.as_str()))
    }

    /// The binders `vars` that a capture-avoiding substitution goes
    /// under, renamed where they would capture: each `v` for which
    /// `captures` holds (it is free in the substitution's range) becomes
    /// the first `v_k` (k = 0, 1, …) that is neither free in the range
    /// nor in `scope` (free in the binders' body) nor another binder.
    pub fn rename_binders(
        vars: &[Symbol],
        captures: impl Fn(Symbol) -> bool,
        scope: impl Fn(Symbol) -> bool,
    ) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = Vec::with_capacity(vars.len());
        for &v in vars {
            let taken = |s| captures(s) || scope(s) || vars.contains(&s) || out.contains(&s);
            let name = if captures(v) {
                (0..)
                    .map(|k| v.numbered(k))
                    .find(|&s| !taken(s))
                    .expect("a finite scope leaves a name free")
            } else {
                v
            };
            out.push(name);
        }
        out
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().lock().expect("interner poisoned").names[self.0 as usize]
    }

    /// The raw interner index, usable as a dense table key.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// The names one compilation generates for what it binds — the paper
/// writes a dictionary as `Monoid_67`. Each is `base_N` for the next `N`
/// of a counter the supply owns, skipping any name reserved for the
/// program's own identifiers, so generated names never meet a user's.
/// A clone continues from the same count.
#[derive(Debug, Clone, Default)]
pub struct NameSupply {
    reserved: HashSet<Symbol>,
    next: u32,
    minted: Vec<Symbol>,
}

impl NameSupply {
    /// Reserves `names`: the supply never generates one of them.
    pub fn reserve(&mut self, names: impl IntoIterator<Item = Symbol>) {
        self.reserved.extend(names);
    }

    /// `base_N`: a name distinct from every name this supply generated
    /// before and from every reserved one.
    pub fn fresh(&mut self, base: Symbol) -> Symbol {
        loop {
            let name = base.numbered(self.next);
            self.next += 1;
            if !self.reserved.contains(&name) {
                self.minted.push(name);
                return name;
            }
        }
    }

    /// The names generated so far, oldest first.
    pub fn minted(&self) -> &[Symbol] {
        &self.minted
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::intern("x"), Symbol::intern("x"));
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn as_str_round_trips() {
        let s = Symbol::intern("Monoid");
        assert_eq!(s.as_str(), "Monoid");
    }

    #[test]
    fn generated_names_are_distinct_within_a_compilation() {
        let (a, b) = (Symbol::intern("dict"), Symbol::intern("Monoid"));
        let mut names = NameSupply::default();
        let got = [names.fresh(a), names.fresh(b), names.fresh(a)];
        assert_eq!(got.map(Symbol::as_str), ["dict_0", "Monoid_1", "dict_2"]);
        assert_eq!(names.minted(), got);
    }

    #[test]
    fn generated_names_skip_reserved_identifiers() {
        let base = Symbol::intern("clash");
        let mut names = NameSupply::default();
        names.reserve(["clash_0", "clash_1", "clash_3"].map(Symbol::intern));
        assert_eq!(names.fresh(base).as_str(), "clash_2");
        assert_eq!(names.fresh(base).as_str(), "clash_4");
    }

    #[test]
    fn generated_names_repeat_across_compilations() {
        let compile = || {
            let mut names = NameSupply::default();
            names.reserve([Symbol::intern("Monoid_0")]);
            let base = Symbol::intern("Monoid");
            [names.fresh(base), names.fresh(base)]
        };
        let first = compile();
        // Names interned in between change nothing.
        Symbol::intern("Monoid_3");
        assert_eq!(compile(), first);
        // A clone continues from its original's count.
        let mut names = NameSupply::default();
        names.fresh(Symbol::intern("x"));
        let mut copy = names.clone();
        assert_eq!(
            copy.fresh(Symbol::intern("y")),
            names.fresh(Symbol::intern("y"))
        );
    }

    #[test]
    fn capturing_binders_take_the_first_free_suffix() {
        let [t, u, t_0, t_1] = ["t", "u", "t_0", "t_1"].map(Symbol::intern);
        // `t_0` is another binder and `t_1` is free in the body.
        let renamed = Symbol::rename_binders(&[t, u, t_0], |s| s == t || s == u, |s| s == t_1);
        let names: Vec<&str> = renamed.into_iter().map(Symbol::as_str).collect();
        assert_eq!(names, ["t_2", "u_0", "t_0"]);
        // Nothing captured, nothing renamed.
        assert_eq!(Symbol::rename_binders(&[t], |_| false, |_| true), [t]);
    }

    #[test]
    fn from_str_matches_intern() {
        let s: Symbol = "hello".into();
        assert_eq!(s, Symbol::intern("hello"));
    }
}
