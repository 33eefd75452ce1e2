//! RDF terms.

use std::fmt;

/// An RDF term: an IRI or a plain literal.
///
/// LUBM and the paper's workload need nothing richer (no typed literals,
/// language tags, or blank nodes), so the model stays deliberately small.
///
/// `Hash` is implemented manually (not derived) so that it depends only on
/// the [`kind`](Term::kind) discriminant and the text — the contract the
/// [`Dictionary`](crate::Dictionary)'s allocation-free borrowed probes
/// rely on to hash a bare `&str` identically to the owned term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding angle brackets.
    Iri(String),
    /// A plain literal, stored without the surrounding quotes.
    Literal(String),
}

/// Discriminant of [`Term::Iri`] in the manual `Hash` scheme.
pub(crate) const KIND_IRI: u8 = 0;
/// Discriminant of [`Term::Literal`] in the manual `Hash` scheme.
pub(crate) const KIND_LITERAL: u8 = 1;

/// The one hashing routine shared by [`Term`] and the dictionary's
/// borrowed probes: discriminant byte, text bytes, then a terminator so
/// `("ab", KIND_IRI)` and `("a", KIND_IRI)` followed by junk can't collide
/// by concatenation (mirrors `str`'s own `Hash`).
pub(crate) fn hash_term_parts<H: std::hash::Hasher>(kind: u8, text: &str, state: &mut H) {
    state.write_u8(kind);
    state.write(text.as_bytes());
    state.write_u8(0xff);
}

impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        hash_term_parts(self.kind(), self.as_str(), state);
    }
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    /// The `Hash` discriminant of this term's variant.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Term::Iri(_) => KIND_IRI,
            Term::Literal(_) => KIND_LITERAL,
        }
    }

    /// Construct a plain-literal term.
    pub fn literal(s: impl Into<String>) -> Term {
        Term::Literal(s.into())
    }

    /// The raw text of the term (IRI or literal body).
    pub fn as_str(&self) -> &str {
        match self {
            Term::Iri(s) | Term::Literal(s) => s,
        }
    }

    /// True for [`Term::Iri`].
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }
}

impl Term {
    /// Append the term's N-Triples surface syntax — `<iri>` or
    /// `"literal"` — to `out`: delimiters plus a copy of the body, after
    /// one scan for the bytes that need a backslash escape. `"` and `\\`
    /// are escaped in literals; `\n`, `\r` and `\t` in both kinds (raw
    /// ones are invalid inside an N-Triples IRI anyway, and would break
    /// the line and tab framing of every format built on this writer).
    /// Everything appended is ASCII punctuation or a run of the body cut
    /// at ASCII bytes, so `out` stays valid UTF-8 if it was.
    pub fn write_ntriples(&self, out: &mut Vec<u8>) {
        let (open, close, body, literal) = match self {
            Term::Iri(s) => (b'<', b'>', s.as_bytes(), false),
            Term::Literal(s) => (b'"', b'"', s.as_bytes(), true),
        };
        let escape = |b: u8| match b {
            b'\n' => Some(b"\\n"),
            b'\r' => Some(b"\\r"),
            b'\t' => Some(b"\\t"),
            b'"' if literal => Some(b"\\\""),
            b'\\' if literal => Some(b"\\\\"),
            _ => None,
        };
        out.push(open);
        // Branch-free pass first (it vectorises): almost no term needs an
        // escape, and then the body is one `memcpy`.
        if body.iter().fold(false, |any, &b| any | escape(b).is_some()) {
            let mut copied = 0;
            for (i, &b) in body.iter().enumerate() {
                if let Some(escaped) = escape(b) {
                    out.extend_from_slice(&body[copied..i]);
                    out.extend_from_slice(escaped);
                    copied = i + 1;
                }
            }
            out.extend_from_slice(&body[copied..]);
        } else {
            out.extend_from_slice(body);
        }
        out.push(close);
    }
}

impl fmt::Display for Term {
    /// N-Triples surface syntax, as [`Term::write_ntriples`] renders it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::with_capacity(self.as_str().len() + 2);
        self.write_ntriples(&mut out);
        f.write_str(std::str::from_utf8(&out).expect("write_ntriples keeps UTF-8 intact"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_iri() {
        assert_eq!(Term::iri("http://x/y").to_string(), "<http://x/y>");
    }

    #[test]
    fn display_literal_escapes() {
        let t = Term::literal("a\"b\\c\nd");
        assert_eq!(t.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn control_characters_in_iris_are_escaped() {
        assert_eq!(Term::iri("a\nEND\rb\tc").to_string(), "<a\\nEND\\rb\\tc>");
        // Quotes and backslashes are legal IRI bytes as far as this
        // writer is concerned: only literals escape them.
        assert_eq!(Term::iri("a\"b\\c").to_string(), "<a\"b\\c>");
        assert_eq!(Term::iri("").to_string(), "<>");
        assert_eq!(Term::literal("").to_string(), "\"\"");
    }

    #[test]
    fn accessors() {
        assert!(Term::iri("x").is_iri());
        assert!(!Term::literal("x").is_iri());
        assert_eq!(Term::literal("hello").as_str(), "hello");
    }

    #[test]
    fn ordering_is_stable() {
        // Iri sorts before Literal (enum order) — relied on nowhere, but
        // documented by this test so a change is deliberate.
        assert!(Term::iri("z") < Term::literal("a"));
    }

    mod writer_proptests {
        use super::*;
        use proptest::prelude::*;

        /// The construction `write_ntriples` replaced: `Display` one
        /// `char` at a time, then the wire protocol's three `replace`
        /// passes over the control characters `Display` left in IRIs.
        fn reference(term: &Term) -> String {
            let text = match term {
                Term::Iri(s) => format!("<{s}>"),
                Term::Literal(s) => {
                    let mut out = String::from("\"");
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\r' => out.push_str("\\r"),
                            '\t' => out.push_str("\\t"),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                    out
                }
            };
            text.replace('\n', "\\n").replace('\r', "\\r").replace('\t', "\\t")
        }

        /// Bodies dense in the bytes that matter: every escaped byte, the
        /// delimiters, ASCII, and 2-, 3- and 4-byte UTF-8 sequences.
        fn arb_term() -> impl Strategy<Value = Term> {
            const ALPHABET: [char; 16] = [
                '\n', '\r', '\t', '"', '\\', '<', '>', ' ', 'a', 'Z', '7', '/', 'é', '€', '😀',
                '\u{0}',
            ];
            (any::<bool>(), proptest::collection::vec(0usize..ALPHABET.len(), 0..24)).prop_map(
                |(iri, picks)| {
                    let body: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
                    if iri {
                        Term::iri(body)
                    } else {
                        Term::literal(body)
                    }
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn writer_matches_the_reference_construction(
                terms in proptest::collection::vec(arb_term(), 0..6),
            ) {
                // Several terms into one buffer: the writer appends.
                let mut out = Vec::new();
                let mut expect = String::new();
                for term in &terms {
                    term.write_ntriples(&mut out);
                    expect.push_str(&reference(term));
                    prop_assert_eq!(term.to_string(), reference(term));
                }
                prop_assert_eq!(String::from_utf8(out).unwrap(), expect);
            }
        }
    }
}
