//! # eh-trie
//!
//! The trie data structure EmptyHeaded stores every relation in (paper
//! §II-A, Figure 1): after dictionary encoding, a relation's tuples are
//! "grouped into sets of distinct values based on a previous (if present)
//! attribute or column. Each level of the trie corresponds to an attribute
//! or column of an input relation."
//!
//! A [`FrozenTrie`] is one contiguous arena of per-level blocks; each
//! block is an encoded set (whose physical layout the set optimizer picks
//! per block — or is forced to uint arrays for the Table I +Layout
//! ablation via [`LayoutPolicy::UintOnly`]) plus the index of its first
//! child block. Children of the `r`-th element of a block start at
//! `child_base + r` on the next level.
//!
//! ```
//! use eh_trie::{FrozenTrie, TupleBuffer, LayoutPolicy};
//!
//! // The paper's Figure 1 relation: subOrganizationOf after encoding.
//! let mut t = TupleBuffer::new(2);
//! t.push(&[0, 1]); // University0 -> Department0
//! t.push(&[0, 2]); // University0 -> Department1
//! t.push(&[3, 2]); // University1 -> Department1
//! let trie = FrozenTrie::build(t, LayoutPolicy::Auto);
//! assert_eq!(trie.num_tuples(), 3);
//! assert_eq!(trie.root_set().to_vec(), vec![0, 3]);
//! // University0's departments:
//! let child = trie.child(0, 0, 0).unwrap();
//! assert_eq!(trie.set(1, child).to_vec(), vec![1, 2]);
//! ```

mod frozen;
#[cfg(test)]
mod oracle;
mod overlay;
mod tuples;

pub use frozen::{ArenaBytes, FrozenTrie, LayoutPolicy};
pub use overlay::DeltaOverlay;
pub use tuples::TupleBuffer;

// The parallel runtime shares tries (and per-morsel tuple buffers) across
// worker threads; keep that guarantee checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenTrie>();
    assert_send_sync::<DeltaOverlay>();
    assert_send_sync::<TupleBuffer>();
};

#[cfg(test)]
mod proptests;
