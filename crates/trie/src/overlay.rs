//! The LSM-style novelty overlay over a frozen base trie.
//!
//! A [`DeltaOverlay`] carries the staged mutations of one `(predicate,
//! order)` relation since its base arena was last frozen: an **insert
//! trie** of pairs not in the base and a **tombstone trie** of base pairs
//! deleted since the freeze (`del ⊆ base`, `ins ∩ base = ∅` — the staging
//! layer maintains both invariants). Both are ordinary arity-2
//! [`FrozenTrie`]s, so every set the overlay contributes to the join is
//! just another [`SetRef`] operand for the existing multiway kernels.
//!
//! The merged **root** — `{s ∈ base : some pair under s survives} ∪
//! ins-roots` — is computed lazily once per overlay and cached, because
//! the root set is probed by every join touching the relation. Leaf sets
//! are merged on demand by the executor (`(base − del) ∪ ins`) into
//! per-cursor buffers; the overlay only hands out the raw operand views.
//! Both merges run through the one kernel,
//! [`eh_setops::overlay_merge_into`].

use std::sync::OnceLock;

use eh_setops::{overlay_merge_into, SetRef};

use crate::frozen::{FrozenTrie, LayoutPolicy};
use crate::tuples::TupleBuffer;

/// Staged inserts and tombstones for one `(predicate, order)` relation,
/// served alongside its immutable base [`FrozenTrie`].
#[derive(Debug)]
pub struct DeltaOverlay {
    /// Pairs present in the overlay but not the base (`None` = no
    /// staged inserts). Deltas are small by construction, so sets stay
    /// in the uint layout — the kernels intersect mixed layouts anyway.
    ins: Option<FrozenTrie>,
    /// Base pairs deleted since the freeze (`None` = no tombstones).
    del: Option<FrozenTrie>,
    /// Lazily merged root set for the (base, overlay) pair; an overlay
    /// instance is always served against the one base it was built for.
    merged_root: OnceLock<Vec<u32>>,
}

impl DeltaOverlay {
    /// Build from sorted-unique delta pairs in this order's `(first,
    /// second)` orientation.
    pub fn from_pairs(ins: &[(u32, u32)], del: &[(u32, u32)]) -> DeltaOverlay {
        let freeze = |pairs: &[(u32, u32)]| {
            if pairs.is_empty() {
                None
            } else {
                Some(FrozenTrie::build(TupleBuffer::from_pairs(pairs), LayoutPolicy::UintOnly))
            }
        };
        DeltaOverlay { ins: freeze(ins), del: freeze(del), merged_root: OnceLock::new() }
    }

    /// True when the overlay stages nothing.
    pub fn is_empty(&self) -> bool {
        self.ins.is_none() && self.del.is_none()
    }

    /// Number of staged insert pairs.
    pub fn inserted(&self) -> usize {
        self.ins.as_ref().map_or(0, FrozenTrie::num_tuples)
    }

    /// Number of staged tombstone pairs.
    pub fn deleted(&self) -> usize {
        self.del.as_ref().map_or(0, FrozenTrie::num_tuples)
    }

    /// The merged root set over `base`: base roots with at least one
    /// surviving pair, unioned with the insert roots. Computed once and
    /// cached — callers must always pass the base this overlay was built
    /// against.
    pub fn root(&self, base: &FrozenTrie) -> &[u32] {
        self.merged_root.get_or_init(|| {
            debug_assert!(base.is_empty() || base.arity() == 2, "overlays patch arity-2 relations");
            let surviving: Option<Vec<u32>> = self.del.as_ref().map(|del| {
                let held = |t: &FrozenTrie, v| t.child(0, 0, v).map_or(0, |b| t.set(1, b).len());
                base.root_set().iter().filter(|&v| held(base, v) > held(del, v)).collect()
            });
            let roots = surviving.as_deref().map_or(base.root_set(), SetRef::Uint);
            let mut out = Vec::with_capacity(roots.len() + self.inserted());
            overlay_merge_into(
                Some(roots),
                None,
                self.ins.as_ref().map(FrozenTrie::root_set),
                &mut out,
            );
            out
        })
    }

    /// Staged inserts under root value `v`, if any.
    pub fn ins_child(&self, v: u32) -> Option<SetRef<'_>> {
        let t = self.ins.as_ref()?;
        Some(t.set(1, t.child(0, 0, v)?))
    }

    /// Tombstones under root value `v`, if any.
    pub fn del_child(&self, v: u32) -> Option<SetRef<'_>> {
        let t = self.del.as_ref()?;
        Some(t.set(1, t.child(0, 0, v)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(pairs: &[(u32, u32)]) -> FrozenTrie {
        FrozenTrie::build(TupleBuffer::from_pairs(pairs), LayoutPolicy::Auto)
    }

    #[test]
    fn root_drops_fully_tombstoned_subjects_and_adds_insert_roots() {
        let b = base(&[(1, 10), (1, 11), (2, 20), (3, 30)]);
        // Subject 2 fully deleted, subject 1 partially, subject 9 inserted.
        let ov = DeltaOverlay::from_pairs(&[(3, 31), (9, 90)], &[(1, 10), (2, 20)]);
        assert_eq!(ov.root(&b), &[1, 3, 9]);
        assert_eq!((ov.inserted(), ov.deleted()), (2, 2));
        assert!(!ov.is_empty());
    }

    #[test]
    fn root_over_empty_base_is_the_insert_roots() {
        let b = base(&[]);
        let ov = DeltaOverlay::from_pairs(&[(4, 1), (7, 2)], &[]);
        assert_eq!(ov.root(&b), &[4, 7]);
    }

    #[test]
    fn child_accessors_expose_delta_leaves() {
        let b = base(&[(1, 10), (1, 11)]);
        let ov = DeltaOverlay::from_pairs(&[(1, 12)], &[(1, 10)]);
        assert_eq!(ov.ins_child(1).unwrap().to_vec(), vec![12]);
        assert_eq!(ov.del_child(1).unwrap().to_vec(), vec![10]);
        assert!(ov.ins_child(2).is_none());
        assert!(ov.del_child(2).is_none());
        assert_eq!(ov.root(&b), &[1]);
    }

    #[test]
    fn pure_tombstone_overlay_keeps_surviving_roots() {
        let b = base(&[(5, 1), (5, 2), (6, 3)]);
        let ov = DeltaOverlay::from_pairs(&[], &[(6, 3)]);
        assert_eq!(ov.root(&b), &[5]);
        assert_eq!((ov.inserted(), ov.deleted()), (0, 1));
    }
}
