//! Shared ownership of the triple store.
//!
//! The paper's storage model is built once and queried forever. Live
//! updates need the opposite — one store, many concurrent readers, an
//! occasional writer — so the engine holds a [`SharedStore`]: a cloneable
//! `Arc<RwLock<TripleStore>>` handle.
//!
//! Reads take the lock briefly (resolve a query's constants, assemble one
//! operand's layers) and never across a join — joins run against the
//! `Arc<FrozenTrie>` and `Arc<DeltaOverlay>` values each operand clones
//! out of the store under one read guard, so a writer is never blocked by
//! a long-running query, only by an operand assembly (which may build a
//! delta's overlay or an ablation re-freeze). Writes go through
//! [`Engine`](crate::Engine), which bumps the version with every change
//! under the write guard of the change it records; the raw write lock is
//! therefore not exposed outside the crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use eh_rdf::{Triple, TripleStore};

/// A cloneable, thread-safe handle to one [`TripleStore`].
///
/// Clones share the same underlying store: data added through one
/// handle's engine is visible to every other clone. The handle carries a
/// monotonically increasing [`version`](SharedStore::version), bumped on
/// every change, which is the [epoch](crate::Engine::epoch) of *every*
/// engine over this store — not just the one that applied the change.
#[derive(Clone, Debug, Default)]
pub struct SharedStore {
    inner: Arc<RwLock<TripleStore>>,
    version: Arc<AtomicU64>,
}

impl SharedStore {
    /// Wrap an existing (committed) store.
    pub fn new(store: TripleStore) -> SharedStore {
        SharedStore { inner: Arc::new(RwLock::new(store)), version: Arc::default() }
    }

    /// Bulk-build a committed store and wrap it.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> SharedStore {
        SharedStore::new(TripleStore::from_triples(triples))
    }

    /// Read access. Hold the guard only for short, non-reentrant
    /// operations (term resolution, pair copies) — never across a call
    /// that takes the lock again on the same thread.
    pub fn read(&self) -> RwLockReadGuard<'_, TripleStore> {
        self.inner.read().expect("store lock poisoned")
    }

    /// Write access, crate-internal: all mutation flows through
    /// [`Engine`](crate::Engine) so the version bump can't be skipped.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, TripleStore> {
        self.inner.write().expect("store lock poisoned")
    }

    /// The current version: the number of changes recorded so far, and
    /// the epoch of every engine over this store.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Record one change; returns the new version. Callers hold the write
    /// guard of the change it records — an applied batch, a non-empty
    /// compaction, a repartition, an [`invalidate`](crate::Engine::invalidate)
    /// — so any reader that can see the new state can also see the new
    /// version, and a reader that saw the old version before and after
    /// reading saw only the old state. That is the bracket
    /// [`Engine::run_plan`](crate::Engine::run_plan) relies on.
    pub(crate) fn bump_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::AcqRel) + 1
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

    #[test]
    fn clones_share_one_store() {
        let a = SharedStore::from_triples(vec![Triple::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::iri("o"),
        )]);
        let b = a.clone();
        b.write().stage_add_triples(vec![Triple::new(
            Term::iri("s2"),
            Term::iri("p"),
            Term::iri("o"),
        )]);
        assert_eq!(a.read().num_triples(), 2);
    }
}
