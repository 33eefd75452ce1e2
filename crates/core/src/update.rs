//! Update batches: the unit of live mutation the engine applies.

use eh_rdf::Triple;

/// A batch of triple insertions and deletions, applied atomically by
/// [`Engine::update`](crate::Engine::update).
///
/// Semantics follow SPARQL Update's `DELETE`/`INSERT` convention:
/// deletions apply first, then insertions, so a triple staged in both
/// lists is present afterwards. Duplicate stagings collapse (RDF set
/// semantics), deleting an absent triple is a no-op, and inserting a
/// resident one is too — only *actual* change invalidates indexes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Triples to add (dictionary grows as needed).
    pub inserts: Vec<Triple>,
    /// Triples to remove (unknown terms are ignored).
    pub deletes: Vec<Triple>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Stage an insertion.
    pub fn insert(&mut self, t: Triple) -> &mut UpdateBatch {
        self.inserts.push(t);
        self
    }

    /// Stage a deletion.
    pub fn delete(&mut self, t: Triple) -> &mut UpdateBatch {
        self.deletes.push(t);
        self
    }

    /// Number of staged operations (inserts plus deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// WAL bookkeeping for one logged batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalAppend {
    /// Sequence number the log assigned to this batch.
    pub seq: u64,
    /// Total log size in bytes after the append.
    pub wal_bytes: u64,
    /// Whether the append was `fdatasync`ed before the batch staged
    /// (per the configured [`FsyncPolicy`](eh_wal::FsyncPolicy)).
    pub fsynced: bool,
    /// Microseconds spent in `fdatasync` (0 when not synced).
    pub fsync_us: u64,
}

/// What one applied batch did, as observed by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateSummary {
    /// Triples actually added (resident duplicates don't count).
    pub inserted: usize,
    /// Triples actually removed (absent victims don't count).
    pub deleted: usize,
    /// Predicates whose relations changed.
    pub changed_predicates: usize,
    /// Base tries the batch's folds froze: both orders of every
    /// compacted predicate. Staged (overlay) updates leave this
    /// at 0 — base tries survive; only compaction re-freezes.
    pub rebuilt_tries: usize,
    /// Changed predicates whose deltas crossed the compaction threshold
    /// and were folded into fresh base tries as part of this batch. The
    /// remaining `changed_predicates - compacted_predicates` predicates
    /// serve their novelty from the in-memory overlay.
    pub compacted_predicates: usize,
    /// The engine's epoch after the batch. Unchanged when the batch was a
    /// no-op on table contents — no-ops don't invalidate anything.
    pub epoch: u64,
    /// The batch's write-ahead-log append, `None` when no log is
    /// attached (or for maintenance summaries like
    /// [`Engine::compact`](crate::Engine::compact), which change no
    /// logical contents and are never logged).
    pub wal: Option<WalAppend>,
}

impl UpdateSummary {
    /// What a batch or compaction that changed nothing reports: every
    /// count zero, the epoch where it was.
    pub(crate) fn unchanged(epoch: u64) -> UpdateSummary {
        UpdateSummary {
            inserted: 0,
            deleted: 0,
            changed_predicates: 0,
            rebuilt_tries: 0,
            compacted_predicates: 0,
            epoch,
            wal: None,
        }
    }
}
