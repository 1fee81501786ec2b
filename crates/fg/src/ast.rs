//! Surface abstract syntax of F_G.
//!
//! This follows Figure 4 (base language) and Figure 11 (associated types
//! and same-type constraints) of the paper, extended with the §6 features
//! implemented by this crate: *nested requirements* (`require C<τ̄>;`
//! inside a concept) and *concept-member defaults* (`x : τ = e;`).
//!
//! Names in the surface syntax are unresolved; the typechecker
//! ([`crate::check`]) resolves concept names against the lexical
//! environment, producing [`crate::rty::RTy`] types.

use std::collections::HashSet;

use system_f::lexer::Span;
use system_f::{Prim, Symbol};

/// A surface type expression (`τ` in Figures 4 and 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FgTy {
    /// A type variable (or type-alias name).
    Var(Symbol),
    /// The integer base type.
    Int,
    /// The boolean base type.
    Bool,
    /// `list τ`.
    List(Box<FgTy>),
    /// `fn(τ̄) -> τ`.
    Fn(Vec<FgTy>, Box<FgTy>),
    /// `forall t̄ where C̄<τ̄>, τ == τ′ . τ` — a constrained polymorphic
    /// type. An empty constraint list is plain System F quantification.
    Forall {
        /// The bound type variables.
        vars: Vec<Symbol>,
        /// The `where` clause.
        constraints: Vec<Constraint>,
        /// The quantified body.
        body: Box<FgTy>,
    },
    /// An associated-type projection `C<τ̄>.s` (Figure 11).
    Assoc {
        /// The concept name.
        concept: Symbol,
        /// The concept's type arguments.
        args: Vec<FgTy>,
        /// The associated type's name within the concept.
        name: Symbol,
    },
}

impl FgTy {
    /// Convenience constructor for `fn(params…) -> ret`.
    pub fn func(params: Vec<FgTy>, ret: FgTy) -> FgTy {
        FgTy::Fn(params, Box::new(ret))
    }

    /// Convenience constructor for `list τ`.
    pub fn list(elem: FgTy) -> FgTy {
        FgTy::List(Box::new(elem))
    }

    /// Convenience constructor for a type variable.
    pub fn var(name: &str) -> FgTy {
        FgTy::Var(Symbol::intern(name))
    }
}

/// A single `where`-clause constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// A concept requirement `C<τ̄>`: the instantiation must supply a model.
    Model {
        /// The concept name.
        concept: Symbol,
        /// Its type arguments.
        args: Vec<FgTy>,
    },
    /// A same-type constraint `τ == τ′` (Figure 11).
    SameTy(FgTy, FgTy),
}

/// One requirement inside a `concept` declaration body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConceptItem {
    /// `types s₁, …, sₙ;` — associated type requirements.
    AssocTypes(Vec<Symbol>),
    /// `refines C<τ̄>;` — concept refinement (inheritance).
    Refines {
        /// The refined concept.
        concept: Symbol,
        /// Its type arguments (may mention the concept's parameters and
        /// associated types).
        args: Vec<FgTy>,
    },
    /// `require C<τ̄>;` — a nested requirement (§6 extension): like a
    /// refinement it obligates models to supply a model of `C<τ̄>`, but it
    /// does not export `C`'s members through this concept.
    Requires {
        /// The required concept.
        concept: Symbol,
        /// Its type arguments.
        args: Vec<FgTy>,
    },
    /// `x : τ;` or `x : τ = default;` — an operation requirement, with an
    /// optional default implementation (§6 extension).
    Member {
        /// The member name.
        name: Symbol,
        /// Its required type.
        ty: FgTy,
        /// An optional default body, elaborated at each model that omits
        /// the member.
        default: Option<Expr>,
    },
    /// `same τ == τ′;` — a same-type requirement among the concept's
    /// parameters and associated types.
    Same(FgTy, FgTy),
}

/// A `concept` declaration (without the `in body` continuation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptDecl {
    /// The concept's name.
    pub name: Symbol,
    /// Its type parameters (at least one).
    pub params: Vec<Symbol>,
    /// The body items, in source order.
    pub items: Vec<ConceptItem>,
    /// Where the declaration appeared.
    pub span: Span,
}

/// One binding inside a `model` declaration body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelItem {
    /// `types s = τ;` — an associated-type assignment.
    AssocType(Symbol, FgTy),
    /// `x = e;` — a member implementation.
    Member(Symbol, Expr),
}

/// A `model` declaration (without the `in body` continuation).
///
/// A *parameterized* model (§6 extension) universally quantifies over type
/// parameters, optionally under constraints — e.g.
/// `model forall t where Eq<t>. Eq<list t> { … }` — and its `args` are
/// then patterns over those parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelDecl {
    /// Universally quantified parameters (empty for ordinary models).
    pub params: Vec<Symbol>,
    /// Constraints on the parameters (requires `params` nonempty).
    pub constraints: Vec<Constraint>,
    /// The concept being modeled.
    pub concept: Symbol,
    /// The type arguments at which it is modeled (patterns over `params`
    /// for parameterized models).
    pub args: Vec<FgTy>,
    /// The body items, in source order.
    pub items: Vec<ModelItem>,
    /// Where the declaration appeared.
    pub span: Span,
}

/// An F_G expression together with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// The expression proper.
    pub kind: ExprKind,
    /// Where it was parsed from (zero for programmatically built terms).
    pub span: Span,
}

impl Expr {
    /// Wraps a kind with a dummy span (for programmatic construction).
    pub fn new(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::default(),
        }
    }

    /// Wraps a kind with a source span.
    pub fn spanned(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// The hole of a declaration prefix ([`crate::prefix::Prefix`]): the
    /// place a program body goes. It is a variable no source text can
    /// name, so it never clashes with a program's own.
    pub fn hole(span: Span) -> Expr {
        Expr::spanned(ExprKind::Var(hole_symbol()), span)
    }

    /// Whether this is [`Expr::hole`].
    pub fn is_hole(&self) -> bool {
        matches!(self.kind, ExprKind::Var(x) if x == hole_symbol())
    }

    /// The body a `concept`, `model`, `type` or `let` declaration scopes
    /// over; `None` for every other form.
    pub fn decl_body(&self) -> Option<&Expr> {
        match &self.kind {
            ExprKind::Concept(_, body)
            | ExprKind::Model(_, body)
            | ExprKind::TypeAlias(_, _, body)
            | ExprKind::Let(_, _, body) => Some(body),
            _ => None,
        }
    }

    /// [`Expr::decl_body`], mutably.
    fn decl_body_mut(&mut self) -> Option<&mut Expr> {
        match &mut self.kind {
            ExprKind::Concept(_, body)
            | ExprKind::Model(_, body)
            | ExprKind::TypeAlias(_, _, body)
            | ExprKind::Let(_, _, body) => Some(body),
            _ => None,
        }
    }

    /// A copy of this declaration chain with `body` in place of its hole
    /// (the hole reached through [`Expr::decl_body`] links); `None` if
    /// the chain ends without one.
    pub(crate) fn fill_hole(&self, body: Expr) -> Option<Expr> {
        let mut out = self.clone();
        let mut slot = &mut out;
        while !slot.is_hole() {
            slot = slot.decl_body_mut()?;
        }
        *slot = body;
        Some(out)
    }

    /// The identifiers the program spells that have the shape `base_N`
    /// of a generated name ([`system_f::NameSupply`]), the only ones a
    /// generated name can equal. They are read off the program's
    /// concrete syntax, which parses back to this very tree. A
    /// compilation reserves them, so its names never meet the program's.
    pub fn names(&self) -> HashSet<Symbol> {
        let text = self.to_string();
        let in_ident = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'\'';
        let numbered = |word: &&[u8]| {
            let digits = word.iter().rev().take_while(|b| b.is_ascii_digit()).count();
            digits > 0 && digits + 1 < word.len() && word[word.len() - digits - 1] == b'_'
        };
        text.as_bytes()
            .split(|b| !in_ident(b))
            .filter(numbered)
            .map(|word| Symbol::intern(std::str::from_utf8(word).expect("identifiers are ASCII")))
            .collect()
    }
}

/// The name of [`Expr::hole`]: `<` cannot start an identifier.
pub(crate) fn hole_symbol() -> Symbol {
    static HOLE: std::sync::OnceLock<Symbol> = std::sync::OnceLock::new();
    *HOLE.get_or_init(|| Symbol::intern("<hole>"))
}

/// The F_G expression forms (`e` in Figures 4 and 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// A term variable.
    Var(Symbol),
    /// An integer literal.
    IntLit(i64),
    /// A boolean literal.
    BoolLit(bool),
    /// A primitive constant (shared with System F).
    Prim(Prim),
    /// Application `f(ē)`.
    App(Box<Expr>, Vec<Expr>),
    /// Abstraction `lam x̄:τ̄. e`.
    Lam(Vec<(Symbol, FgTy)>, Box<Expr>),
    /// Constrained type abstraction `biglam t̄ where …. e` — the heart of
    /// F_G: the `where` clause both restricts instantiation and brings
    /// proxy models into scope for the body.
    TyAbs {
        /// The bound type variables.
        vars: Vec<Symbol>,
        /// The `where` clause (empty for plain System F abstraction).
        constraints: Vec<Constraint>,
        /// The body.
        body: Box<Expr>,
    },
    /// Instantiation `e[τ̄]`: looks up a model for each requirement in the
    /// lexical scope and passes it implicitly.
    TyApp(Box<Expr>, Vec<FgTy>),
    /// `let x = e₁ in e₂`.
    Let(Symbol, Box<Expr>, Box<Expr>),
    /// `if c then t else e`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `fix x:τ. e` — recursion.
    Fix(Symbol, FgTy, Box<Expr>),
    /// `concept C<t̄> { … } in e` — lexically scoped concept declaration.
    Concept(Box<ConceptDecl>, Box<Expr>),
    /// `model C<τ̄> { … } in e` — lexically scoped model declaration.
    Model(Box<ModelDecl>, Box<Expr>),
    /// `type t = τ in e` — type alias (Figure 11), expressed via the
    /// same-type equality infrastructure.
    TypeAlias(Symbol, FgTy, Box<Expr>),
    /// Model member access `C<τ̄>.x`.
    MemberAccess {
        /// The concept name.
        concept: Symbol,
        /// Its type arguments.
        args: Vec<FgTy>,
        /// The member to project.
        member: Symbol,
    },
}

impl ExprKind {
    /// Wraps into an [`Expr`] with a dummy span.
    pub fn into_expr(self) -> Expr {
        Expr::new(self)
    }
}

/// Renames free type variables in a surface type according to `map`,
/// respecting `forall` binders.
pub fn rename_ty_vars(ty: &FgTy, map: &std::collections::HashMap<Symbol, Symbol>) -> FgTy {
    if map.is_empty() {
        return ty.clone();
    }
    match ty {
        FgTy::Var(v) => FgTy::Var(map.get(v).copied().unwrap_or(*v)),
        FgTy::Int | FgTy::Bool => ty.clone(),
        FgTy::List(t) => FgTy::List(Box::new(rename_ty_vars(t, map))),
        FgTy::Fn(ps, r) => FgTy::Fn(
            ps.iter().map(|p| rename_ty_vars(p, map)).collect(),
            Box::new(rename_ty_vars(r, map)),
        ),
        FgTy::Forall {
            vars,
            constraints,
            body,
        } => {
            let inner: std::collections::HashMap<Symbol, Symbol> = map
                .iter()
                .filter(|(k, _)| !vars.contains(k))
                .map(|(k, v)| (*k, *v))
                .collect();
            FgTy::Forall {
                vars: vars.clone(),
                constraints: constraints
                    .iter()
                    .map(|c| rename_ty_vars_constraint(c, &inner))
                    .collect(),
                body: Box::new(rename_ty_vars(body, &inner)),
            }
        }
        FgTy::Assoc {
            concept,
            args,
            name,
        } => FgTy::Assoc {
            concept: *concept,
            args: args.iter().map(|a| rename_ty_vars(a, map)).collect(),
            name: *name,
        },
    }
}

fn rename_ty_vars_constraint(
    c: &Constraint,
    map: &std::collections::HashMap<Symbol, Symbol>,
) -> Constraint {
    match c {
        Constraint::Model { concept, args } => Constraint::Model {
            concept: *concept,
            args: args.iter().map(|a| rename_ty_vars(a, map)).collect(),
        },
        Constraint::SameTy(a, b) => {
            Constraint::SameTy(rename_ty_vars(a, map), rename_ty_vars(b, map))
        }
    }
}

/// Renames free type variables inside all type annotations of an
/// expression, respecting every binder that scopes type variables
/// (`biglam`, `forall`, `type … in`, concept and parameterized-model
/// declarations). Used to check concept-member default bodies
/// hygienically at model sites.
pub fn rename_ty_vars_expr(
    e: &Expr,
    map: &std::collections::HashMap<Symbol, Symbol>,
) -> Expr {
    if map.is_empty() {
        return e.clone();
    }
    let kind = match &e.kind {
        ExprKind::Var(_) | ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::Prim(_) => {
            e.kind.clone()
        }
        ExprKind::App(f, args) => ExprKind::App(
            Box::new(rename_ty_vars_expr(f, map)),
            args.iter().map(|a| rename_ty_vars_expr(a, map)).collect(),
        ),
        ExprKind::Lam(params, body) => ExprKind::Lam(
            params
                .iter()
                .map(|(x, t)| (*x, rename_ty_vars(t, map)))
                .collect(),
            Box::new(rename_ty_vars_expr(body, map)),
        ),
        ExprKind::TyAbs {
            vars,
            constraints,
            body,
        } => {
            let inner: std::collections::HashMap<Symbol, Symbol> = map
                .iter()
                .filter(|(k, _)| !vars.contains(k))
                .map(|(k, v)| (*k, *v))
                .collect();
            ExprKind::TyAbs {
                vars: vars.clone(),
                constraints: constraints
                    .iter()
                    .map(|c| rename_ty_vars_constraint(c, &inner))
                    .collect(),
                body: Box::new(rename_ty_vars_expr(body, &inner)),
            }
        }
        ExprKind::TyApp(f, tys) => ExprKind::TyApp(
            Box::new(rename_ty_vars_expr(f, map)),
            tys.iter().map(|t| rename_ty_vars(t, map)).collect(),
        ),
        ExprKind::Let(x, bound, body) => ExprKind::Let(
            *x,
            Box::new(rename_ty_vars_expr(bound, map)),
            Box::new(rename_ty_vars_expr(body, map)),
        ),
        ExprKind::If(c, t, f) => ExprKind::If(
            Box::new(rename_ty_vars_expr(c, map)),
            Box::new(rename_ty_vars_expr(t, map)),
            Box::new(rename_ty_vars_expr(f, map)),
        ),
        ExprKind::Fix(x, ty, body) => ExprKind::Fix(
            *x,
            rename_ty_vars(ty, map),
            Box::new(rename_ty_vars_expr(body, map)),
        ),
        ExprKind::Concept(decl, body) => {
            // Concept params and associated types shadow inside the items.
            let mut shadowed: Vec<Symbol> = decl.params.clone();
            for item in &decl.items {
                if let ConceptItem::AssocTypes(names) = item {
                    shadowed.extend(names.iter().copied());
                }
            }
            let inner: std::collections::HashMap<Symbol, Symbol> = map
                .iter()
                .filter(|(k, _)| !shadowed.contains(k))
                .map(|(k, v)| (*k, *v))
                .collect();
            let items = decl
                .items
                .iter()
                .map(|item| match item {
                    ConceptItem::AssocTypes(names) => ConceptItem::AssocTypes(names.clone()),
                    ConceptItem::Refines { concept, args } => ConceptItem::Refines {
                        concept: *concept,
                        args: args.iter().map(|a| rename_ty_vars(a, &inner)).collect(),
                    },
                    ConceptItem::Requires { concept, args } => ConceptItem::Requires {
                        concept: *concept,
                        args: args.iter().map(|a| rename_ty_vars(a, &inner)).collect(),
                    },
                    ConceptItem::Member { name, ty, default } => ConceptItem::Member {
                        name: *name,
                        ty: rename_ty_vars(ty, &inner),
                        default: default.as_ref().map(|d| rename_ty_vars_expr(d, &inner)),
                    },
                    ConceptItem::Same(a, b) => {
                        ConceptItem::Same(rename_ty_vars(a, &inner), rename_ty_vars(b, &inner))
                    }
                })
                .collect();
            ExprKind::Concept(
                Box::new(ConceptDecl {
                    name: decl.name,
                    params: decl.params.clone(),
                    items,
                    span: decl.span,
                }),
                Box::new(rename_ty_vars_expr(body, map)),
            )
        }
        ExprKind::Model(decl, body) => {
            let inner: std::collections::HashMap<Symbol, Symbol> = map
                .iter()
                .filter(|(k, _)| !decl.params.contains(k))
                .map(|(k, v)| (*k, *v))
                .collect();
            let items = decl
                .items
                .iter()
                .map(|item| match item {
                    ModelItem::AssocType(n, t) => {
                        ModelItem::AssocType(*n, rename_ty_vars(t, &inner))
                    }
                    ModelItem::Member(n, e2) => {
                        ModelItem::Member(*n, rename_ty_vars_expr(e2, &inner))
                    }
                })
                .collect();
            ExprKind::Model(
                Box::new(ModelDecl {
                    params: decl.params.clone(),
                    constraints: decl
                        .constraints
                        .iter()
                        .map(|c| rename_ty_vars_constraint(c, &inner))
                        .collect(),
                    concept: decl.concept,
                    args: decl.args.iter().map(|a| rename_ty_vars(a, &inner)).collect(),
                    items,
                    span: decl.span,
                }),
                Box::new(rename_ty_vars_expr(body, map)),
            )
        }
        ExprKind::TypeAlias(name, ty, body) => {
            let inner: std::collections::HashMap<Symbol, Symbol> = map
                .iter()
                .filter(|(k, _)| k != &name)
                .map(|(k, v)| (*k, *v))
                .collect();
            ExprKind::TypeAlias(
                *name,
                rename_ty_vars(ty, map),
                Box::new(rename_ty_vars_expr(body, &inner)),
            )
        }
        ExprKind::MemberAccess {
            concept,
            args,
            member,
        } => ExprKind::MemberAccess {
            concept: *concept,
            args: args.iter().map(|a| rename_ty_vars(a, map)).collect(),
            member: *member,
        },
    };
    Expr::spanned(kind, e.span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let t = FgTy::func(vec![FgTy::var("t")], FgTy::list(FgTy::Int));
        assert_eq!(
            t,
            FgTy::Fn(
                vec![FgTy::Var(Symbol::intern("t"))],
                Box::new(FgTy::List(Box::new(FgTy::Int)))
            )
        );
    }

    #[test]
    fn names_are_the_identifiers_shaped_like_generated_ones() {
        let e = crate::parser::parse_expr(
            "let x_1 = 1 in let y = 2 in lam a_: t_20. iadd(x_1, C_3<int>.m_0)",
        )
        .unwrap();
        let mut names: Vec<&str> = e.names().into_iter().map(Symbol::as_str).collect();
        names.sort_unstable();
        assert_eq!(names, ["C_3", "m_0", "t_20", "x_1"]);
    }

    #[test]
    fn expr_wrapping() {
        let e = ExprKind::IntLit(3).into_expr();
        assert_eq!(e.span, Span::default());
        assert!(matches!(e.kind, ExprKind::IntLit(3)));
    }

    fn rename_map(from: &str, to: &str) -> std::collections::HashMap<Symbol, Symbol> {
        let mut m = std::collections::HashMap::new();
        m.insert(Symbol::intern(from), Symbol::intern(to));
        m
    }

    #[test]
    fn rename_hits_free_type_variables() {
        let e = crate::parser::parse_expr("lam x: t. x").unwrap();
        let r = rename_ty_vars_expr(&e, &rename_map("t", "u"));
        assert_eq!(r.to_string(), "lam x: u. x");
    }

    #[test]
    fn rename_respects_biglam_binders() {
        let e = crate::parser::parse_expr("lam y: t. biglam t. lam x: t. x").unwrap();
        let r = rename_ty_vars_expr(&e, &rename_map("t", "u"));
        assert_eq!(r.to_string(), "lam y: u. biglam t. lam x: t. x");
    }

    #[test]
    fn rename_respects_forall_binders_in_types() {
        let ty = crate::parser::parse_fg_ty("fn(t) -> forall t. fn(t) -> t").unwrap();
        let r = rename_ty_vars(&ty, &rename_map("t", "u"));
        assert_eq!(r.to_string(), "fn(u) -> forall t. fn(t) -> t");
    }

    #[test]
    fn rename_respects_type_alias_binders() {
        let e = crate::parser::parse_expr(
            "lam y: t. type t = int in lam x: t. x",
        )
        .unwrap();
        let r = rename_ty_vars_expr(&e, &rename_map("t", "u"));
        // The alias rhs is outside the binder; occurrences after it are
        // shadowed.
        assert_eq!(r.to_string(), "lam y: u. type t = int in lam x: t. x");
    }

    #[test]
    fn rename_descends_into_member_access_and_tyapps() {
        let e = crate::parser::parse_expr("C<t>.op(f[t](1))").unwrap();
        let r = rename_ty_vars_expr(&e, &rename_map("t", "u"));
        assert_eq!(r.to_string(), "C<u>.op(f[u](1))");
    }

    #[test]
    fn rename_respects_concept_param_shadowing() {
        let e = crate::parser::parse_expr(
            "concept C<t> { op : fn(t) -> t; } in lam x: t. x",
        )
        .unwrap();
        let r = rename_ty_vars_expr(&e, &rename_map("t", "u"));
        assert_eq!(
            r.to_string(),
            "concept C<t> { op : fn(t) -> t; } in lam x: u. x"
        );
    }

    #[test]
    fn rename_respects_parameterized_model_params() {
        let e = crate::parser::parse_expr(
            "model forall t. C<list t> { op = lam x: t. x; } in lam y: t. y",
        )
        .unwrap();
        let r = rename_ty_vars_expr(&e, &rename_map("t", "u"));
        assert_eq!(
            r.to_string(),
            "model forall t. C<list t> { op = lam x: t. x; } in lam y: u. y"
        );
    }
}
