//! Property tests: a trie is a lossless, ordered, deduplicated container
//! under every layout policy and column permutation.

use proptest::prelude::*;
use std::collections::BTreeSet;

use crate::oracle::Trie;
use crate::{FrozenTrie, LayoutPolicy, TupleBuffer};

fn tuples(arity: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..64, arity..=arity), 0..200)
}

fn buffer_of(rows: &[Vec<u32>], arity: usize) -> TupleBuffer {
    let mut t = TupleBuffer::new(arity);
    for r in rows {
        t.push(r);
    }
    t
}

proptest! {
    #[test]
    fn roundtrip_is_sorted_distinct(rows in tuples(2)) {
        let expect: BTreeSet<Vec<u32>> = rows.iter().cloned().collect();
        for policy in [LayoutPolicy::Auto, LayoutPolicy::UintOnly] {
            let trie = FrozenTrie::build(buffer_of(&rows, 2), policy);
            prop_assert_eq!(trie.num_tuples(), expect.len());
            let mut got = Vec::new();
            trie.for_each_tuple(|r| got.push(r.to_vec()));
            prop_assert_eq!(&got, &expect.iter().cloned().collect::<Vec<_>>());
        }
    }

    #[test]
    fn ternary_roundtrip(rows in tuples(3)) {
        let expect: BTreeSet<Vec<u32>> = rows.iter().cloned().collect();
        let trie = Trie::build(buffer_of(&rows, 3));
        let out = trie.to_tuples();
        prop_assert_eq!(out.len(), expect.len());
        for (i, r) in expect.iter().enumerate() {
            prop_assert_eq!(out.row(i), r.as_slice());
        }
    }

    #[test]
    fn contains_matches_membership(rows in tuples(2), probes in tuples(2)) {
        let set: BTreeSet<Vec<u32>> = rows.iter().cloned().collect();
        let trie = Trie::build(buffer_of(&rows, 2));
        for p in &probes {
            prop_assert_eq!(trie.contains_prefix(p), set.contains(p));
        }
        for r in &rows {
            prop_assert!(trie.contains_prefix(r));
            prop_assert!(trie.contains_prefix(&r[..1]));
        }
    }

    #[test]
    fn child_navigation_consistent(rows in tuples(2)) {
        let trie = Trie::build(buffer_of(&rows, 2));
        // For every root value, the child's set is exactly the objects
        // grouped under that subject.
        for &v in trie.root_set() {
            let child = trie.child(0, 0, v).unwrap();
            let expect: BTreeSet<u32> =
                rows.iter().filter(|r| r[0] == v).map(|r| r[1]).collect();
            prop_assert_eq!(
                trie.set(1, child).to_vec(),
                expect.into_iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn permuted_build_matches_permuted_rows(rows in tuples(3)) {
        // Building a trie on permuted columns equals permuting then building.
        let perm = [2usize, 0, 1];
        let permuted_rows: Vec<Vec<u32>> =
            rows.iter().map(|r| perm.iter().map(|&c| r[c]).collect()).collect();
        let a = Trie::build(buffer_of(&rows, 3).permute(&perm));
        let b = Trie::build(buffer_of(&permuted_rows, 3));
        prop_assert_eq!(a.to_tuples(), b.to_tuples());
    }

    #[test]
    fn layout_policy_never_changes_contents(rows in tuples(2)) {
        let auto = FrozenTrie::build(buffer_of(&rows, 2), LayoutPolicy::Auto);
        let uint = FrozenTrie::build(buffer_of(&rows, 2), LayoutPolicy::UintOnly);
        prop_assert_eq!(auto.to_tuples(), uint.to_tuples());
    }

    #[test]
    fn frozen_trie_is_navigation_equivalent(rows in tuples(3), probes in tuples(3)) {
        // The arena representation must agree with the Vec-of-blocks
        // oracle on every observable: contents, membership, per-block
        // values and ranks, child links.
        let set: BTreeSet<Vec<u32>> = rows.iter().cloned().collect();
        let mutable = Trie::build(buffer_of(&rows, 3));
        for policy in [LayoutPolicy::Auto, LayoutPolicy::UintOnly] {
            let frozen = FrozenTrie::build(buffer_of(&rows, 3), policy);
            prop_assert_eq!(frozen.num_tuples(), set.len());
            prop_assert_eq!(frozen.to_tuples(), mutable.to_tuples());
            for p in &probes {
                prop_assert_eq!(frozen.contains_prefix(p), set.contains(p));
            }
            for level in 0..3 {
                prop_assert_eq!(frozen.num_blocks(level), mutable.num_blocks(level));
                for block in 0..mutable.num_blocks(level) {
                    let (fset, vals) = (frozen.set(level, block), mutable.set(level, block));
                    prop_assert_eq!(fset.to_vec(), vals);
                    for (rank, &v) in vals.iter().enumerate() {
                        prop_assert_eq!(fset.rank(v), Some(rank));
                        if level < 2 {
                            prop_assert_eq!(
                                frozen.child(level, block, v),
                                mutable.child(level, block, v)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frozen_raw_parts_roundtrip(rows in tuples(2)) {
        let frozen = FrozenTrie::build(buffer_of(&rows, 2), LayoutPolicy::Auto);
        let (arity, n, levels, arena) = frozen.raw_parts();
        let rebuilt = FrozenTrie::from_raw_parts(arity, n, levels.to_vec(), arena.to_vec());
        prop_assert_eq!(rebuilt.expect("self-produced parts validate"), frozen);
    }
}
