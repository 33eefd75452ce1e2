//! The protocol's verbs, parsed once per request line.

/// A request's command word. The discriminant indexes [`SPELLINGS`] and
/// the pre-resolved per-verb request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verb {
    Query,
    Profile,
    Metrics,
    Insert,
    Delete,
    Apply,
    Compact,
    Stats,
    Invalidate,
    Save,
    Replay,
    Quit,
    /// Anything else, the empty line included.
    Other,
}

/// Every verb with its protocol spelling (as `ERR` lines quote it) and the
/// `verb` label of its `eh_requests_total` series, in discriminant order.
const SPELLINGS: [(Verb, &str, &str); 13] = [
    (Verb::Query, "QUERY", "query"),
    (Verb::Profile, "PROFILE", "profile"),
    (Verb::Metrics, "METRICS", "metrics"),
    (Verb::Insert, "INSERT", "insert"),
    (Verb::Delete, "DELETE", "delete"),
    (Verb::Apply, "APPLY", "apply"),
    (Verb::Compact, "COMPACT", "compact"),
    (Verb::Stats, "STATS", "stats"),
    (Verb::Invalidate, "INVALIDATE", "invalidate"),
    (Verb::Save, "SAVE", "save"),
    (Verb::Replay, "REPLAY", "replay"),
    (Verb::Quit, "QUIT", "quit"),
    (Verb::Other, "", "other"),
];

impl Verb {
    /// The verb as the protocol spells it.
    pub fn name(self) -> &'static str {
        SPELLINGS[self as usize].1
    }

    /// Metric labels of all verbs, indexed by discriminant.
    pub fn labels() -> impl Iterator<Item = &'static str> {
        SPELLINGS.iter().map(|&(_, _, label)| label)
    }

    /// True for the verbs whose `OK` reply is multi-line and `END`-framed.
    pub fn is_framed(self) -> bool {
        matches!(self, Verb::Query | Verb::Profile | Verb::Metrics)
    }
}

/// One request line split into its verb, the command word as sent (for
/// the `unknown command` reply) and the trimmed remainder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request<'a> {
    pub verb: Verb,
    pub command: &'a str,
    pub rest: &'a str,
}

impl<'a> Request<'a> {
    /// Split at the first whitespace and match the whole command word,
    /// ASCII case-insensitively: `query …` is a query, `QUERYX …` is not.
    pub fn parse(line: &'a str) -> Request<'a> {
        let line = line.trim();
        let (command, rest) = match line.split_once(char::is_whitespace) {
            Some((command, rest)) => (command, rest.trim()),
            None => (line, ""),
        };
        let verb = SPELLINGS[..Verb::Other as usize]
            .iter()
            .find(|(_, name, _)| command.eq_ignore_ascii_case(name))
            .map_or(Verb::Other, |&(verb, _, _)| verb);
        Request { verb, command, rest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_match_whole_words_in_any_case() {
        let r = Request::parse("  query   SELECT ?x  \n");
        assert_eq!((r.verb, r.command, r.rest), (Verb::Query, "query", "SELECT ?x"));
        assert_eq!(Request::parse("QUIT now").verb, Verb::Quit);
        assert_eq!(Request::parse("Apply").rest, "");
        // A longer word that merely starts with a verb is not that verb.
        assert_eq!(Request::parse("QUERYX SELECT ?x").verb, Verb::Other);
        let empty = Request::parse("");
        assert_eq!((empty.verb, empty.command), (Verb::Other, ""));
    }

    #[test]
    fn discriminants_index_the_spelling_table() {
        for (i, &(verb, name, label)) in SPELLINGS.iter().enumerate() {
            assert_eq!(verb as usize, i);
            assert_eq!(verb.name(), name);
            assert!(verb == Verb::Other || label == name.to_ascii_lowercase());
        }
    }
}
