//! Shared ownership of the triple store, as a sequence of immutable
//! versions.
//!
//! The paper's storage model is built once and queried forever. Live
//! updates add an occasional writer, so the engine holds a
//! [`SharedStore`]: a cloneable handle to the *current version*, an
//! `Arc<TripleStore>` kept with its epoch under one lock.
//!
//! A reader pins the current version ([`SharedStore::read`], one `Arc`
//! clone under the read lock) and resolves, plans, assembles operands and
//! decodes from it with no lock held: every answer is one store state's
//! answer, and a held version never blocks a writer. A writer takes the
//! write lock, mutates through `Arc::make_mut` and bumps the epoch in the
//! same guard — in place when no reader holds the current version,
//! through a copy when one does, so the pinned version stays as it was
//! and is freed when its last reader drops it. A copy shares every trie
//! and the dictionary's frozen part, so it costs O(predicates + staged
//! pairs + dictionary tail). Writes go through
//! [`Engine`](crate::Engine), so the write guard is crate-internal.

use std::sync::{Arc, RwLock, RwLockWriteGuard};

use eh_rdf::{Triple, TripleStore};

/// A cloneable, thread-safe handle to one live [`TripleStore`].
///
/// Clones share the same versions: data added through one handle's engine
/// is visible to every other clone. The current version carries a
/// monotonically increasing [`version`](SharedStore::version) number,
/// advanced by every change, which is the [epoch](crate::Engine::epoch)
/// of *every* engine over this store — not just the one that applied the
/// change.
#[derive(Clone, Debug, Default)]
pub struct SharedStore {
    current: Arc<RwLock<Version>>,
}

/// The current version: the store and the number of changes behind it.
/// A writer holds it through [`SharedStore::write`]'s guard, changes the
/// store through `Arc::make_mut` — in place unless a reader pins it — and
/// advances `epoch` in the same guard.
#[derive(Debug, Default)]
pub(crate) struct Version {
    pub(crate) epoch: u64,
    pub(crate) store: Arc<TripleStore>,
}

impl SharedStore {
    /// Wrap an existing (committed) store.
    pub fn new(store: TripleStore) -> SharedStore {
        let version = Version { epoch: 0, store: Arc::new(store) };
        SharedStore { current: Arc::new(RwLock::new(version)) }
    }

    /// Bulk-build a committed store and wrap it.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> SharedStore {
        SharedStore::new(TripleStore::from_triples(triples))
    }

    /// Pin the current version. Later changes never reach it; holding it
    /// blocks no writer, but keeps the version's memory alive and makes
    /// the next write copy the store instead of changing it in place.
    pub fn read(&self) -> Arc<TripleStore> {
        Arc::clone(&self.current.read().expect("store lock poisoned").store)
    }

    /// Write access, crate-internal: all mutation flows through
    /// [`Engine`](crate::Engine) so the epoch bump can't be skipped.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Version> {
        self.current.write().expect("store lock poisoned")
    }

    /// The current version number: the number of changes recorded so
    /// far, and the epoch of every engine over this store.
    pub fn version(&self) -> u64 {
        self.current.read().expect("store lock poisoned").epoch
    }
}

impl From<TripleStore> for SharedStore {
    fn from(store: TripleStore) -> SharedStore {
        SharedStore::new(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_rdf::Term;

    fn t(s: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri("p"), Term::iri("o"))
    }

    #[test]
    fn clones_share_one_store() {
        let a = SharedStore::from_triples(vec![t("s")]);
        let b = a.clone();
        Arc::make_mut(&mut b.write().store).stage_add_triples(vec![t("s2")]);
        assert_eq!(a.read().num_triples(), 2);
    }
}
