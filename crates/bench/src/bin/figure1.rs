//! Regenerates **Figure 1** of Aberger et al. (ICDE 2016): the
//! transformation from a vertically partitioned relation to
//! EmptyHeaded's trie representation, using the figure's own
//! `subOrganizationOf` example.

use eh_rdf::{Term, Triple, TripleStore};

fn main() {
    // The figure's predicate relation.
    let rows = [
        ("University0", "Department0"),
        ("University0", "Department1"),
        ("University1", "Department1"),
    ];
    let store =
        TripleStore::from_triples(rows.iter().map(|&(s, o)| {
            Triple::new(Term::iri(s), Term::iri("suborganizationOf"), Term::iri(o))
        }));

    println!(
        "Figure 1 reproduction: vertically partitioned relation -> dictionary encoding -> trie\n"
    );
    println!("Predicate relation (suborganizationOf):");
    println!("  subject      object");
    for (s, o) in rows {
        println!("  {s:<12} {o}");
    }

    println!("\nDictionary encoding:");
    println!("  key  term");
    for (id, term) in store.dict().iter() {
        println!("  {id:<4} {}", term.as_str());
    }

    // The store holds the relation as its tries: the subject-major one
    // is the figure's.
    let pred = store.resolve_iri("suborganizationOf").expect("predicate");
    let trie = store.trie_pair(pred).expect("predicate relation").so();
    println!("\nEncoded pairs (subject-major): {:?}", trie.pairs().collect::<Vec<_>>());

    println!("\nTrie representation:");
    let root = trie.root_set();
    for v in root.iter() {
        let subject = store.dict().decode(v).as_str();
        let child = trie.child(0, 0, v).expect("child block");
        let objects: Vec<String> = trie
            .set(1, child)
            .iter()
            .map(|o| format!("{o} ({})", store.dict().decode(o).as_str()))
            .collect();
        println!("  {v} ({subject})");
        for o in objects {
            println!("    └─ {o}");
        }
    }
    println!(
        "\n{} tuples, {} bitset blocks, {} set bytes",
        trie.num_tuples(),
        trie.bitset_blocks(),
        trie.set_bytes()
    );
}
