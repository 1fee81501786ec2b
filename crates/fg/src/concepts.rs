//! The concept table: resolved concept declarations.
//!
//! A concept declaration `concept C<t̄> { … } in e` is checked once and
//! recorded here; every later reference (models, where clauses, member
//! accesses, associated-type projections) resolves to its [`ConceptId`].
//! Because the table is append-only, ids remain valid across the whole
//! checking run even as names are shadowed. Types in the table are
//! handles into the checker's type arena.

use crate::ast::Expr;
use crate::rty::{ConceptId, TyId};
use system_f::Symbol;

/// A member (operation) requirement of a concept.
#[derive(Debug, Clone)]
pub struct MemberSig {
    /// The member's name.
    pub name: Symbol,
    /// Its type, with the concept's parameters and associated types
    /// appearing as type variables (instantiated per use by
    /// [`crate::check`]).
    pub ty: TyId,
    /// An optional default body (§6 extension), kept in surface form and
    /// elaborated at each model site that omits the member.
    pub default: Option<Expr>,
}

/// A checked concept declaration.
#[derive(Debug, Clone)]
pub struct ConceptInfo {
    /// The concept's id in the table.
    pub id: ConceptId,
    /// Its source name (for display; may be shadowed later).
    pub name: Symbol,
    /// The type parameters `t̄`.
    pub params: Vec<Symbol>,
    /// The associated-type names required by `types …;` items.
    pub assoc_types: Vec<Symbol>,
    /// Refinements `refines C′<τ̄>;` — args may mention `params` and
    /// `assoc_types` as variables.
    pub refines: Vec<(ConceptId, Vec<TyId>)>,
    /// Nested requirements `require C′<τ̄>;` (§6 extension).
    pub requires: Vec<(ConceptId, Vec<TyId>)>,
    /// Operation requirements, in source order (dictionary layout order).
    pub members: Vec<MemberSig>,
    /// Same-type requirements `same τ == τ′;`.
    pub same: Vec<(TyId, TyId)>,
}

impl ConceptInfo {
    /// Finds a member signature by name among this concept's *own*
    /// members (refinements are searched by the checker).
    pub fn member(&self, name: Symbol) -> Option<(usize, &MemberSig)> {
        self.members
            .iter()
            .enumerate()
            .find(|(_, m)| m.name == name)
    }

    /// The index of the first member slot in the concept's dictionary
    /// (refinement and requirement dictionaries come first).
    pub fn member_slot_base(&self) -> usize {
        self.refines.len() + self.requires.len()
    }
}

/// The append-only table of checked concepts.
#[derive(Debug, Clone, Default)]
pub struct ConceptTable {
    infos: Vec<ConceptInfo>,
}

impl ConceptTable {
    /// Creates an empty table.
    pub fn new() -> ConceptTable {
        ConceptTable::default()
    }

    /// The number of concepts declared so far.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Returns `true` if no concept has been declared.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Reserves the next id (the caller fills in the info with
    /// [`ConceptTable::push`]).
    pub fn next_id(&self) -> ConceptId {
        ConceptId(u32::try_from(self.infos.len()).expect("concept table overflow"))
    }

    /// Appends a checked concept; its `id` must equal [`ConceptTable::next_id`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not match the next slot.
    pub fn push(&mut self, info: ConceptInfo) -> ConceptId {
        assert_eq!(info.id, self.next_id(), "concept id mismatch");
        let id = info.id;
        self.infos.push(info);
        id
    }

    /// Looks up a concept by id.
    pub fn get(&self, id: ConceptId) -> &ConceptInfo {
        &self.infos[id.0 as usize]
    }

    /// The display name of a concept.
    pub fn name(&self, id: ConceptId) -> Symbol {
        self.infos[id.0 as usize].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rty::TyInterner;

    fn s(n: &str) -> Symbol {
        Symbol::intern(n)
    }

    fn dummy(id: ConceptId, name: &str) -> ConceptInfo {
        let types = TyInterner::new();
        let t = types.var(s("t"));
        ConceptInfo {
            id,
            name: s(name),
            params: vec![s("t")],
            assoc_types: vec![],
            refines: vec![],
            requires: vec![],
            members: vec![MemberSig {
                name: s("op"),
                ty: types.func(&[t], t),
                default: None,
            }],
            same: vec![],
        }
    }

    #[test]
    fn push_and_get() {
        let mut table = ConceptTable::new();
        let id = table.next_id();
        table.push(dummy(id, "Semigroup"));
        assert_eq!(table.len(), 1);
        assert_eq!(table.name(id), s("Semigroup"));
        assert_eq!(table.get(id).params, vec![s("t")]);
    }

    #[test]
    fn ids_are_stable_across_pushes() {
        let mut table = ConceptTable::new();
        let a = table.next_id();
        table.push(dummy(a, "A"));
        let b = table.next_id();
        table.push(dummy(b, "A")); // same *name*, distinct concept
        assert_ne!(a, b);
        assert_eq!(table.name(a), table.name(b));
    }

    #[test]
    fn member_lookup() {
        let mut table = ConceptTable::new();
        let id = table.next_id();
        table.push(dummy(id, "C"));
        let (i, m) = table.get(id).member(s("op")).unwrap();
        assert_eq!(i, 0);
        assert_eq!(m.name, s("op"));
        assert!(table.get(id).member(s("nope")).is_none());
    }

    #[test]
    #[should_panic(expected = "concept id mismatch")]
    fn mismatched_id_panics() {
        let mut table = ConceptTable::new();
        table.push(dummy(ConceptId(5), "C"));
    }
}
