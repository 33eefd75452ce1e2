//! The generic worst-case optimal join (paper Algorithm 1) over tries.
//!
//! Attributes are processed in a fixed order. At each depth the
//! participating relations — those whose next trie level binds here —
//! contribute their current sets; unselected attributes iterate the
//! multiway intersection, while selected attributes do a single membership
//! probe (`O(1)` on bitsets, `O(log n)` on uint arrays — the §III-A
//! asymmetry).
//!
//! ## One cursor
//!
//! "The trie is the only interface generic join needs": every relation is
//! read through one per-relation level [`Cursor`] — the LFTJ trie iterator
//! (open / seek / next / up) in the four operations this executor uses:
//! the current set view at a level ([`Cursor::set`], which also answers
//! membership probes), descend to a value ([`Cursor::descend`]), and
//! iterate the current level while deeper levels move the cursor
//! ([`Cursor::hold`] / [`Cursor::release`]). `search`, `exists`, `step`,
//! `probe_selected` and the parallel split know nothing else about where
//! tuples live. There are two sources:
//!
//! * **Arena** — one [`FrozenTrie`] of any arity: every intermediate, and
//!   every store relation that is a single base trie with nothing staged.
//!   Reads are the raw `FrozenTrie::set` / `child` calls; the arm is
//!   matched and inlined at each read, so the common no-delta relation
//!   costs one predictable branch over the bare arena read.
//! * **Layered** — an arity-2 store relation's base trie under its
//!   staged-delta overlay, read through the overlay-merged root domain.
//!   A descent routes the bound root value: a base block untouched by the
//!   delta, or an insert-only block, is served in place; a block with
//!   tombstones to subtract or inserts to add merges into the cursor's
//!   buffer and enters the kernels as a plain [`SetRef`]. A
//!   range-restricted scan would be a third source, not another copy of
//!   `step`.
//!
//! Cursors borrow from the [`JoinSpec`], which outlives the join: nothing
//! under `search` clones an `Arc` or touches any other shared atomic.
//!
//! ## Refinements from the paper's GHD setting
//!
//! * **Early existence checks** ("early aggregation"): once every
//!   remaining attribute is non-output, the join switches from iteration
//!   to an existence probe, emitting each distinct output prefix once.
//! * Emission passes the bound prefix to a callback so callers decide
//!   whether to materialise, count, or stream (pipelining).
//!
//! [`run_join_parallel`] adds the multicore path: the first *unselected*
//! attribute's candidate set is partitioned into morsels, every remaining
//! level runs per-morsel on worker threads, and per-morsel sinks merge in
//! morsel order — so parallel output is bit-identical to [`run_join`].
//!
//! The inner loop is allocation-free: every multiway intersection runs
//! through the adaptive k-way driver ([`intersect_all_into`]) into a
//! per-depth, per-morsel [`IntersectScratch`], participant views are
//! assembled on the stack, and trailing existence checks use the
//! non-materializing [`intersects_all_refs`] kernel.

use std::sync::Arc;
use std::time::Instant;

use eh_par::RuntimeConfig;
use eh_setops::{
    intersect_all_into, intersects_all_refs, overlay_merge_into, IntersectScratch, SetRef,
};
use eh_trie::{DeltaOverlay, FrozenTrie};

use crate::exec::relation::Layered;
use crate::profile::JoinObs;

/// One relation participating in a join: where its tuples live plus the
/// depth at which each of its levels binds. `depths` may cover only a
/// prefix of the trie's levels — the unbound suffix is semantically
/// projected away (valid because trie levels are ordered by the global
/// attribute order).
pub(crate) struct PreparedRel {
    source: Source,
    /// `depths[level]` = join depth at which this trie level binds;
    /// strictly increasing.
    depths: Vec<usize>,
}

/// Where a relation's tuples live (see the module docs).
enum Source {
    /// One frozen arena, shared with the store and across workers.
    Arena(Arc<FrozenTrie>),
    /// An arity-2 store relation's base trie and its staged-delta overlay.
    Layered(Arc<FrozenTrie>, Arc<DeltaOverlay>),
}

impl PreparedRel {
    /// An arena-backed relation: an intermediate built mid-plan.
    pub fn arena(trie: Arc<FrozenTrie>, depths: Vec<usize>) -> PreparedRel {
        PreparedRel { source: Source::Arena(trie), depths }
    }

    /// A store relation. One with nothing staged *is* its base arena and
    /// reads as one.
    pub fn layered(operand: Layered, depths: Vec<usize>) -> PreparedRel {
        let source = match operand.overlay {
            None => Source::Arena(operand.base),
            Some(overlay) => Source::Layered(operand.base, overlay),
        };
        PreparedRel { source, depths }
    }
}

/// A compiled join over one attribute sequence.
pub(crate) struct JoinSpec {
    /// Number of attributes processed.
    pub num_vars: usize,
    /// Equality-selection constant per depth (`None` = iterate).
    pub sel: Vec<Option<u32>>,
    /// First depth at which every remaining attribute is non-output; the
    /// join emits `binding[..emit_depth]` and existence-checks the rest.
    pub emit_depth: usize,
    /// Participating relations.
    pub rels: Vec<PreparedRel>,
    /// Profiling hook: `None` (the normal path) records nothing — not
    /// even a clock read. `Some` makes every depth record its kernel
    /// dispatches, candidate counts, and probe counts; those counts are
    /// schedule-invariant because the parallel split materialises the
    /// split depth exactly the way the sequential step would.
    pub obs: Option<JoinObs>,
}

/// One relation's level cursor (see the module docs). Cloned, buffer
/// contents included, on the per-morsel fork — the selected-prefix probe
/// may have descended it before the split.
#[derive(Clone)]
enum Cursor<'a> {
    /// `blocks[level]` = current block of `trie` at that level.
    Arena {
        trie: &'a FrozenTrie,
        blocks: Vec<usize>,
    },
    Layered(LayeredCursor<'a>),
}

/// The layered source's cursor state. Level 0 is the overlay-merged
/// root; the leaf under the bound root value is either a block served in
/// place or the merge buffer.
#[derive(Clone)]
struct LayeredCursor<'a> {
    base: &'a FrozenTrie,
    overlay: &'a DeltaOverlay,
    root: &'a [u32],
    /// Whether the relation's leaf level binds in this join. A
    /// prefix-only participant never reads a leaf, so its descents skip
    /// the routing (and any merge) entirely.
    reads_leaf: bool,
    /// The current leaf when its block is untouched by the delta (a base
    /// block with no tombstones or inserts under it, or an insert-only
    /// block).
    in_place: Option<SetRef<'a>>,
    /// The current leaf otherwise: `(base − del) ∪ ins`.
    merged: Vec<u32>,
}

/// A level's value set held for iteration while deeper levels move the
/// cursor: a view of `spec`-owned data, or the cursor's merge buffer
/// taken out for the duration (the per-depth scratch discipline).
enum Held<'a> {
    View(SetRef<'a>),
    Buf(Vec<u32>),
}

impl Held<'_> {
    fn set(&self) -> SetRef<'_> {
        match self {
            Held::View(set) => *set,
            Held::Buf(buf) => SetRef::Uint(buf),
        }
    }
}

impl<'a> Cursor<'a> {
    /// A cursor at the root of `rel`.
    fn open(rel: &'a PreparedRel) -> Cursor<'a> {
        match &rel.source {
            Source::Arena(trie) => Cursor::Arena { trie, blocks: vec![0; trie.arity()] },
            Source::Layered(base, overlay) => Cursor::Layered(LayeredCursor {
                base,
                overlay,
                root: overlay.root(base),
                reads_leaf: rel.depths.len() > 1,
                in_place: None,
                merged: Vec::new(),
            }),
        }
    }

    /// The current set view at trie level `lvl` — the single read point
    /// through which every probe, intersection, and candidate
    /// materialisation sees a relation.
    #[inline]
    fn set(&self, lvl: usize) -> SetRef<'_> {
        match self {
            Cursor::Arena { trie, blocks } => trie.set(lvl, blocks[lvl]),
            Cursor::Layered(c) => c.view(lvl).unwrap_or(SetRef::Uint(&c.merged)),
        }
    }

    /// Move to the child of `v`, which is present in the current set at
    /// `lvl`.
    #[inline]
    fn descend(&mut self, lvl: usize, v: u32) {
        match self {
            Cursor::Arena { trie, blocks } => {
                if lvl + 1 < trie.arity() {
                    blocks[lvl + 1] = trie
                        .child(lvl, blocks[lvl], v)
                        .expect("descend value must be present in the set");
                }
            }
            Cursor::Layered(c) => {
                if lvl == 0 && c.reads_leaf {
                    c.route(v);
                }
            }
        }
    }

    /// Take the current level at `lvl` for iteration; the cursor stays
    /// free to descend below it. Pair with [`Cursor::release`].
    #[inline]
    fn hold(&mut self, lvl: usize) -> Held<'a> {
        match self {
            Cursor::Arena { trie, blocks } => Held::View(trie.set(lvl, blocks[lvl])),
            Cursor::Layered(c) => match c.view(lvl) {
                Some(set) => Held::View(set),
                None => Held::Buf(std::mem::take(&mut c.merged)),
            },
        }
    }

    /// Hand a held level back (restores a taken merge buffer).
    #[inline]
    fn release(&mut self, held: Held<'a>) {
        if let (Cursor::Layered(c), Held::Buf(buf)) = (self, held) {
            c.merged = buf;
        }
    }
}

impl<'a> LayeredCursor<'a> {
    /// The set at `lvl` when it lives in `spec`-owned data — the merged
    /// root, or a leaf served in place; `None` means the merge buffer.
    fn view(&self, lvl: usize) -> Option<SetRef<'a>> {
        if lvl == 0 {
            Some(SetRef::Uint(self.root))
        } else {
            self.in_place
        }
    }

    /// Route the leaf under root value `v`, which is present in the merged
    /// root: served in place, or `(base − del) ∪ ins` into the merge
    /// buffer.
    fn route(&mut self, v: u32) {
        self.merged.clear();
        let base = if self.base.num_tuples() == 0 {
            None
        } else {
            self.base.child(0, 0, v).map(|b| self.base.set(1, b))
        };
        let (ins, del) = (self.overlay.ins_child(v), self.overlay.del_child(v));
        self.in_place = match (base, ins, del) {
            (Some(set), None, None) | (None, Some(set), _) => Some(set),
            (base, ins, del) => {
                overlay_merge_into(base, del, ins, &mut self.merged);
                None
            }
        };
        debug_assert!(
            self.in_place.is_some() || !self.merged.is_empty(),
            "descend value must be live in the merged root"
        );
    }
}

struct State<'a> {
    /// One level cursor per relation.
    cursors: Vec<Cursor<'a>>,
    binding: Vec<u32>,
    /// One reusable intersection scratch per join depth, so the adaptive
    /// multiway driver performs zero heap allocation per extension once
    /// the buffers reach workload size. Depths never alias (the depth-`d`
    /// candidate list stays live while the search recurses into `d + 1`,
    /// which uses its own slot).
    scratch: Vec<IntersectScratch>,
}

/// The per-morsel fork in [`run_join_parallel`]: cursors and bindings are
/// copied, scratch buffers start fresh and empty — they are transient
/// kernel state, and each morsel must stay allocation-independent.
impl Clone for State<'_> {
    fn clone(&self) -> Self {
        State {
            cursors: self.cursors.clone(),
            binding: self.binding.clone(),
            scratch: (0..self.scratch.len()).map(|_| IntersectScratch::new()).collect(),
        }
    }
}

impl<'a> State<'a> {
    fn fresh(spec: &'a JoinSpec) -> State<'a> {
        State {
            cursors: spec.rels.iter().map(Cursor::open).collect(),
            binding: vec![0u32; spec.num_vars],
            scratch: (0..spec.num_vars).map(|_| IntersectScratch::new()).collect(),
        }
    }
}

/// Participants per depth: `(relation index, trie level)`.
fn participants(spec: &JoinSpec) -> Vec<Vec<(usize, usize)>> {
    let mut parts = vec![Vec::new(); spec.num_vars];
    for (r, rel) in spec.rels.iter().enumerate() {
        for (lvl, &d) in rel.depths.iter().enumerate() {
            debug_assert!(lvl == 0 || rel.depths[lvl - 1] < d, "depths must increase");
            parts[d].push((r, lvl));
        }
    }
    parts
}

/// Run the join, invoking `emit` with `binding[..emit_depth]` for every
/// output prefix whose extension to all attributes is non-empty.
pub(crate) fn run_join(spec: &JoinSpec, emit: &mut dyn FnMut(&[u32])) {
    debug_assert!(spec.emit_depth <= spec.num_vars);
    debug_assert_eq!(spec.sel.len(), spec.num_vars);
    let parts = participants(spec);
    // Every unselected depth must be covered by at least one relation,
    // else the iteration domain would be unbounded.
    debug_assert!((0..spec.num_vars).all(|d| spec.sel[d].is_some() || !parts[d].is_empty()));
    let mut st = State::fresh(spec);
    search(spec, &parts, &mut st, 0, emit);
}

/// Run the join across `rt.num_threads` workers, collecting emissions
/// into per-morsel sinks created by `init` and returning them **in morsel
/// order**, so concatenating the sinks reproduces [`run_join`]'s emission
/// sequence exactly.
///
/// Parallelism partitions the first unselected attribute (the outermost
/// iterated trie level — where EmptyHeaded parallelizes): the selected
/// prefix is probed once, the candidate set at the split depth is
/// materialised, and each morsel of candidates runs the remaining levels
/// on a cloned cursor state. Falls back to a single inline sink when the
/// configuration is serial or the join has no iterated attribute before
/// its emit depth.
pub(crate) fn run_join_parallel<T, I, E>(
    spec: &JoinSpec,
    rt: RuntimeConfig,
    init: I,
    emit: E,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    E: Fn(&mut T, &[u32]) + Sync,
{
    let split = (0..spec.num_vars).find(|&d| spec.sel[d].is_none());
    let splittable = split.is_some_and(|s| s < spec.emit_depth);
    if !rt.is_parallel() || !splittable {
        let mut sink = init();
        run_join(spec, &mut |binding| emit(&mut sink, binding));
        return vec![sink];
    }
    let split = split.expect("checked by splittable");
    let parts = participants(spec);
    debug_assert!((0..spec.num_vars).all(|d| spec.sel[d].is_some() || !parts[d].is_empty()));

    // Probe the selected prefix once; a failed probe empties the join
    // (zero sinks merge to an empty, unsatisfiable result).
    let mut st = State::fresh(spec);
    for (d, here) in parts.iter().enumerate().take(split) {
        let c = spec.sel[d].expect("depths before the split carry selections");
        if !probe_selected(spec, &mut st, here, d, c) {
            return Vec::new();
        }
    }

    // Candidate values of the split attribute, in iteration order —
    // materialising exactly the domain `step` would iterate lazily (its
    // single-participant path iterates the set directly; per-value
    // descent happens per morsel below). Profile recording here mirrors
    // `step`'s two branches exactly, which is what keeps the profile's
    // counts invariant across thread counts.
    let here = &parts[split];
    let candidates: Vec<u32> = if here.len() == 1 {
        let (r, lvl) = here[0];
        let set = st.cursors[r].set(lvl);
        if let Some(o) = &spec.obs {
            o.stats.note_single(split, set.len() as u64, 0);
        }
        set.to_vec()
    } else {
        let mut scratch = IntersectScratch::new();
        let start = spec.obs.as_ref().map(|_| Instant::now());
        with_participant_sets(&st, here, |sets| intersect_all_into(sets, &mut scratch));
        if let Some(o) = &spec.obs {
            let ns = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
            o.stats.note_multiway(split, scratch.last_kernel(), scratch.values().len() as u64, ns);
        }
        scratch.values().to_vec()
    };
    if candidates.is_empty() {
        return Vec::new();
    }

    if let Some(o) = &spec.obs {
        o.stats.note_morsels(eh_par::num_morsels(candidates.len(), rt.morsel_size) as u64);
    }
    let observer = spec.obs.as_ref().map(|o| &*o.tasks);
    let base = st;
    eh_par::run_morsels(&rt, candidates.len(), observer, |_, range| {
        let mut sink = init();
        let mut st = base.clone();
        {
            let mut f = |binding: &[u32]| emit(&mut sink, binding);
            for &v in &candidates[range] {
                descend(&mut st, here, v);
                st.binding[split] = v;
                search(spec, &parts, &mut st, split + 1, &mut f);
            }
        }
        sink
    })
}

fn search<'a>(
    spec: &'a JoinSpec,
    parts: &[Vec<(usize, usize)>],
    st: &mut State<'a>,
    depth: usize,
    emit: &mut dyn FnMut(&[u32]),
) {
    if depth == spec.emit_depth {
        if exists(spec, parts, st, depth) {
            emit(&st.binding[..depth]);
        }
        return;
    }
    // Last-depth fast path: an unselected final depth with one
    // participant emits straight from that participant's set (with
    // `depth < emit_depth`, nothing is left to check) — no descent, since
    // no deeper level is read. It records exactly what `step`'s
    // single-participant branch would.
    if let [(r, lvl)] = parts[depth][..] {
        if depth + 1 == spec.num_vars && spec.sel[depth].is_none() {
            let set = st.cursors[r].set(lvl);
            if let Some(o) = &spec.obs {
                o.stats.note_single(depth, set.len() as u64, 0);
            }
            for v in set.iter() {
                st.binding[depth] = v;
                emit(&st.binding[..=depth]);
            }
            return;
        }
    }
    step(spec, parts, st, depth, &mut |st| {
        search(spec, parts, st, depth + 1, emit);
        true
    });
}

fn exists<'a>(
    spec: &'a JoinSpec,
    parts: &[Vec<(usize, usize)>],
    st: &mut State<'a>,
    depth: usize,
) -> bool {
    if depth == spec.num_vars {
        return true;
    }
    // Final-depth fast path: with no deeper level to descend into, a
    // witness is just "is the participants' intersection non-empty" —
    // answered by the non-materializing EXISTS kernel instead of
    // iterating a materialised candidate list.
    if depth + 1 == spec.num_vars && spec.sel[depth].is_none() {
        let here = &parts[depth];
        debug_assert!(!here.is_empty(), "unselected attribute with no participants");
        if let Some(o) = &spec.obs {
            o.stats.note_exists(depth);
        }
        if here.len() == 1 {
            let (r, lvl) = here[0];
            return !st.cursors[r].set(lvl).is_empty();
        }
        return with_participant_sets(st, here, intersects_all_refs);
    }
    let mut found = false;
    step(spec, parts, st, depth, &mut |st| {
        found = exists(spec, parts, st, depth + 1);
        !found // stop iterating as soon as a witness exists
    });
    found
}

/// Bind attribute `depth` every admissible way, invoking `then` per value
/// until it returns `false` (early exit for existence probes).
fn step<'a>(
    spec: &'a JoinSpec,
    parts: &[Vec<(usize, usize)>],
    st: &mut State<'a>,
    depth: usize,
    then: &mut dyn FnMut(&mut State<'a>) -> bool,
) {
    let here = &parts[depth];
    if let Some(c) = spec.sel[depth] {
        if probe_selected(spec, st, here, depth, c) {
            then(st);
        }
        return;
    }
    debug_assert!(!here.is_empty(), "unselected attribute with no participants");
    if let [(r, lvl)] = here[..] {
        // Single participant: iterate its current level directly, no
        // kernel dispatch. The level is held out of the state for the
        // iteration, because `then` moves this cursor's deeper levels.
        let held = st.cursors[r].hold(lvl);
        let set = held.set();
        if let Some(o) = &spec.obs {
            o.stats.note_single(depth, set.len() as u64, 0);
        }
        for v in set.iter() {
            st.cursors[r].descend(lvl, v);
            st.binding[depth] = v;
            if !then(st) {
                break;
            }
        }
        st.cursors[r].release(held);
        return;
    }
    // Multiway intersection into this depth's reusable scratch: the
    // buffer is taken out of the state for the duration of the iteration
    // (recursion below uses deeper slots), then restored — zero
    // allocation per extension in the steady state.
    let mut scratch = std::mem::take(&mut st.scratch[depth]);
    let start = spec.obs.as_ref().map(|_| Instant::now());
    with_participant_sets(st, here, |sets| intersect_all_into(sets, &mut scratch));
    if let Some(o) = &spec.obs {
        let ns = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        o.stats.note_multiway(depth, scratch.last_kernel(), scratch.values().len() as u64, ns);
    }
    for idx in 0..scratch.values().len() {
        let v = scratch.values()[idx];
        descend(st, here, v);
        st.binding[depth] = v;
        if !then(st) {
            break;
        }
    }
    st.scratch[depth] = scratch;
}

/// Probe selection value `c` against every participant at `depth`; on
/// success descend all cursors and bind it. Shared by the sequential
/// [`step`] and the parallel prefix probe so the two cannot drift — the
/// bit-identical guarantee of [`run_join_parallel`] depends on both
/// paths applying exactly this rule.
fn probe_selected(
    spec: &JoinSpec,
    st: &mut State<'_>,
    here: &[(usize, usize)],
    depth: usize,
    c: u32,
) -> bool {
    if let Some(o) = &spec.obs {
        o.stats.note_selected(depth);
    }
    if !here.iter().all(|&(r, lvl)| st.cursors[r].set(lvl).contains(c)) {
        return false;
    }
    descend(st, here, c);
    st.binding[depth] = c;
    true
}

/// Run `f` over every participant's current set view, assembled on the
/// stack for typical arities. Shared by [`step`], [`exists`], and the
/// parallel candidate materialisation.
fn with_participant_sets<R>(
    st: &State<'_>,
    here: &[(usize, usize)],
    f: impl FnOnce(&[SetRef<'_>]) -> R,
) -> R {
    // A planner bug that produces an unselected attribute with no
    // participants must fail loudly (as the pre-scratch code's `expect`
    // did), not as a silently empty result in release builds.
    assert!(!here.is_empty(), "unselected attribute with no participants");
    const INLINE: usize = 8;
    if here.len() <= INLINE {
        let mut table: [SetRef<'_>; INLINE] = [SetRef::Uint(&[]); INLINE];
        for (slot, &(r, lvl)) in table.iter_mut().zip(here) {
            *slot = st.cursors[r].set(lvl);
        }
        f(&table[..here.len()])
    } else {
        let sets: Vec<SetRef<'_>> = here.iter().map(|&(r, lvl)| st.cursors[r].set(lvl)).collect();
        f(&sets)
    }
}

/// Move every participant's cursor to the child of `v` (which is known
/// to be present in each participant's current set).
fn descend(st: &mut State<'_>, here: &[(usize, usize)], v: u32) {
    for &(r, lvl) in here {
        st.cursors[r].descend(lvl, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ExecStats, JoinStats};
    use eh_trie::{LayoutPolicy, TupleBuffer};
    use proptest::prelude::*;

    type Pairs<'a> = &'a [(u32, u32)];

    fn trie_of(pairs: Pairs<'_>) -> Arc<FrozenTrie> {
        Arc::new(FrozenTrie::build(TupleBuffer::from_pairs(pairs), LayoutPolicy::Auto))
    }

    /// A store operand: a base trie plus an overlay of `(inserts,
    /// tombstones)` — all sorted unique, as the store hands them over.
    fn staged(base: Pairs<'_>, ins: Pairs<'_>, del: Pairs<'_>, depths: Vec<usize>) -> PreparedRel {
        let overlay = Some(Arc::new(DeltaOverlay::from_pairs(ins, del)));
        PreparedRel::layered(Layered { base: trie_of(base), overlay }, depths)
    }

    /// [`staged`] over an already-built base trie and overlay.
    fn layered(base: Arc<FrozenTrie>, ov: Arc<DeltaOverlay>, depths: Vec<usize>) -> PreparedRel {
        PreparedRel::layered(Layered { base, overlay: Some(ov) }, depths)
    }

    /// `R(x, y)` scanned at both levels.
    fn scan(rel: PreparedRel) -> JoinSpec {
        JoinSpec { num_vars: 2, sel: vec![None, None], emit_depth: 2, obs: None, rels: vec![rel] }
    }

    fn collect(spec: &JoinSpec) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        run_join(spec, &mut |b| out.push(b.to_vec()));
        // Every join in this module must also be parallel-safe: the
        // morsel-merged emission sequence is bit-identical to sequential.
        for threads in [2, 4] {
            let rt = RuntimeConfig::with_threads(threads).with_morsel_size(1);
            let sinks = run_join_parallel(spec, rt, Vec::new, |sink: &mut Vec<Vec<u32>>, b| {
                sink.push(b.to_vec())
            });
            let merged: Vec<Vec<u32>> = sinks.into_iter().flatten().collect();
            assert_eq!(merged, out, "parallel run diverged at {threads} threads");
        }
        out
    }

    #[test]
    fn triangle_join() {
        // R(x,y), S(y,z), T(x,z) with edges forming two triangles.
        let r = trie_of(&[(0, 1), (0, 2), (3, 1)]);
        let s = trie_of(&[(1, 2), (2, 4)]);
        let t = trie_of(&[(0, 2), (0, 4), (3, 9)]);
        // Order [x, y, z]: R binds (0,1), S binds (1,2), T binds (0,2).
        let spec = JoinSpec {
            num_vars: 3,
            sel: vec![None, None, None],
            emit_depth: 3,
            obs: None,
            rels: vec![
                PreparedRel::arena(r, vec![0, 1]),
                PreparedRel::arena(s, vec![1, 2]),
                PreparedRel::arena(t, vec![0, 2]),
            ],
        };
        // Triangles: (x=0,y=1,z=2) and (x=0,y=2,z=4).
        assert_eq!(collect(&spec), vec![vec![0, 1, 2], vec![0, 2, 4]]);
    }

    #[test]
    fn selection_probe() {
        let r = trie_of(&[(1, 10), (1, 11), (2, 12)]);
        // Order [a(sel=1), x]: trie object-major would be needed in real
        // plans; here the trie is already [a, x]-shaped.
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![Some(1), None],
            emit_depth: 2,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1])],
        };
        assert_eq!(collect(&spec), vec![vec![1, 10], vec![1, 11]]);
    }

    #[test]
    fn failed_selection_prunes() {
        let r = trie_of(&[(1, 10)]);
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![Some(9), None],
            emit_depth: 2,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1])],
        };
        assert!(collect(&spec).is_empty());
    }

    #[test]
    fn existence_check_dedups_trailing_nonoutput() {
        // R(x, y) with y non-output: emit each x once despite many y's.
        let r = trie_of(&[(5, 1), (5, 2), (5, 3), (6, 9)]);
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 1,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1])],
        };
        assert_eq!(collect(&spec), vec![vec![5], vec![6]]);
    }

    #[test]
    fn semijoin_via_prefix_participation() {
        // Full relation R(x,y) joined with a unary filter F(x) given as a
        // trie participating only at depth 0.
        let r = trie_of(&[(1, 10), (2, 20), (3, 30)]);
        let mut f = TupleBuffer::new(1);
        f.push(&[2]);
        f.push(&[3]);
        let f = Arc::new(FrozenTrie::build(f, LayoutPolicy::Auto));
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 2,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1]), PreparedRel::arena(f, vec![0])],
        };
        assert_eq!(collect(&spec), vec![vec![2, 20], vec![3, 30]]);
    }

    #[test]
    fn prefix_only_participation_projects_suffix() {
        // A binary trie participating only at depth 0 acts as π_x(R).
        let r = trie_of(&[(1, 10), (1, 11), (4, 12)]);
        let spec = JoinSpec {
            num_vars: 1,
            sel: vec![None],
            emit_depth: 1,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0])],
        };
        assert_eq!(collect(&spec), vec![vec![1], vec![4]]);
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let e = Arc::new(FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto));
        let r = trie_of(&[(1, 2)]);
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 2,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1]), PreparedRel::arena(e, vec![0, 1])],
        };
        assert!(collect(&spec).is_empty());
    }

    #[test]
    fn overlay_operand_serves_merged_view() {
        // Base R = {(1,10),(1,11),(2,20),(3,30)}; delta stages +(1,12),
        // +(4,40) and tombstones (1,10), (2,20). Logical view:
        // {(1,11),(1,12),(3,30),(4,40)} — exercising the Buf (subject 1),
        // Base (subject 3), and Ins (subject 4) leaf routes, plus the
        // fully tombstoned subject 2 vanishing from the root.
        let base = trie_of(&[(1, 10), (1, 11), (2, 20), (3, 30)]);
        let ov = Arc::new(DeltaOverlay::from_pairs(&[(1, 12), (4, 40)], &[(1, 10), (2, 20)]));
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 2,
            obs: None,
            rels: vec![layered(base, ov, vec![0, 1])],
        };
        assert_eq!(collect(&spec), vec![vec![1, 11], vec![1, 12], vec![3, 30], vec![4, 40]]);
    }

    #[test]
    fn overlay_participates_in_multiway_intersection() {
        // Overlaid R joined with a plain S: the merged sets enter the
        // intersection kernels as ordinary operands at both depths.
        let r = trie_of(&[(1, 10), (2, 20)]);
        // Logical R = {(2,20),(2,21),(5,50)}.
        let ov = Arc::new(DeltaOverlay::from_pairs(&[(2, 21), (5, 50)], &[(1, 10)]));
        let s = trie_of(&[(2, 21), (2, 22), (5, 50), (6, 60)]);
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 2,
            obs: None,
            rels: vec![layered(r, ov, vec![0, 1]), PreparedRel::arena(s, vec![0, 1])],
        };
        assert_eq!(collect(&spec), vec![vec![2, 21], vec![5, 50]]);
    }

    #[test]
    fn selection_probes_route_through_the_overlay() {
        let r = trie_of(&[(1, 10), (2, 20)]);
        // Logical R = {(1,12),(2,20)}.
        let ov = Arc::new(DeltaOverlay::from_pairs(&[(1, 12)], &[(1, 10)]));
        let mk = |sel| JoinSpec {
            num_vars: 2,
            sel,
            emit_depth: 2,
            obs: None,
            rels: vec![layered(Arc::clone(&r), Arc::clone(&ov), vec![0, 1])],
        };
        // A tombstoned pair must miss, the staged insert must hit, and a
        // base-resident pair still hits.
        assert!(collect(&mk(vec![Some(1), Some(10)])).is_empty());
        assert_eq!(collect(&mk(vec![Some(1), Some(12)])), vec![vec![1, 12]]);
        assert_eq!(collect(&mk(vec![Some(2), Some(20)])), vec![vec![2, 20]]);
    }

    #[test]
    fn overlay_existence_check_on_trailing_nonoutput() {
        // Emit x once per surviving subject: tombstoning subject 6's only
        // pair removes it, staged subject 7 appears.
        let r = trie_of(&[(5, 1), (5, 2), (6, 3)]);
        let ov = Arc::new(DeltaOverlay::from_pairs(&[(7, 9)], &[(6, 3)]));
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 1,
            obs: None,
            rels: vec![layered(r, ov, vec![0, 1])],
        };
        assert_eq!(collect(&spec), vec![vec![5], vec![7]]);
    }

    #[test]
    fn overlay_over_empty_base_serves_pure_inserts() {
        // A predicate born from staged inserts: empty base trie, all
        // novelty in the overlay.
        let e = Arc::new(FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto));
        let ov = Arc::new(DeltaOverlay::from_pairs(&[(1, 10), (2, 20)], &[]));
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 2,
            obs: None,
            rels: vec![layered(e, ov, vec![0, 1])],
        };
        assert_eq!(collect(&spec), vec![vec![1, 10], vec![2, 20]]);
    }

    #[test]
    fn overlay_prefix_participation_filters_without_leaf_merge() {
        // An overlaid relation participating only at depth 0 (semijoin
        // filter): the merged root applies, and no leaf merge runs.
        let r = trie_of(&[(1, 10), (2, 20), (3, 30)]);
        let f_base = trie_of(&[(2, 1), (9, 1)]);
        // Filter root = ({2, 9} − {9}) ∪ {3} = {2, 3}.
        let f_ov = Arc::new(DeltaOverlay::from_pairs(&[(3, 1)], &[(9, 1)]));
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 2,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1]), layered(f_base, f_ov, vec![0])],
        };
        assert_eq!(collect(&spec), vec![vec![2, 20], vec![3, 30]]);
    }

    /// Run `spec` under a fresh profile, sequentially and at 2 threads
    /// (morsel size 1), returning its rows and each depth's `(candidates,
    /// single_iter)` — asserted identical across the two schedules.
    fn profiled(spec: &mut JoinSpec) -> (Vec<Vec<u32>>, Vec<(u64, u64)>) {
        let runs = [RuntimeConfig::with_threads(1), RuntimeConfig::with_threads(2)].map(|rt| {
            let exec = ExecStats::new(rt.num_threads);
            let names = (0..spec.num_vars).map(|d| format!("v{d}")).collect();
            let sel = spec.sel.iter().map(Option::is_some).collect();
            let stats = Arc::new(JoinStats::new("t".into(), names, sel, spec.emit_depth, 0));
            exec.register(Arc::clone(&stats));
            spec.obs = Some(JoinObs { stats, tasks: Arc::clone(&exec.observer) });
            let sinks = run_join_parallel(spec, rt.with_morsel_size(1), Vec::new, |sink, b| {
                sink.push(b.to_vec())
            });
            let depths = exec.snapshot(rt.num_threads, 0).joins[0]
                .depths
                .iter()
                .map(|d| (d.candidates, d.kernels.single_iter))
                .collect();
            (sinks.concat(), depths)
        });
        let [serial, parallel] = runs;
        assert_eq!(serial, parallel, "the profile must be schedule-invariant");
        serial
    }

    #[test]
    fn last_depth_single_participant_emits_from_its_set() {
        // Arena: depth 0 iterates the three roots through `step`; the leaf
        // depth emits each root's block straight from the set, one
        // single-participant visit per root.
        let r = trie_of(&[(1, 10), (1, 11), (2, 20), (3, 30), (3, 31), (3, 32)]);
        let (rows, depths) = profiled(&mut scan(PreparedRel::arena(r, vec![0, 1])));
        let pairs: Vec<Vec<u32>> = [(1, 10), (1, 11), (2, 20), (3, 30), (3, 31), (3, 32)]
            .map(|(x, y)| vec![x, y])
            .to_vec();
        assert_eq!(rows, pairs);
        assert_eq!(depths, vec![(3, 1), (6, 3)]);

        // Layered, with a tombstone and an insert under root 1: its leaf
        // is the merge ({10, 11} − {10}) ∪ {12}; root 2 is served in
        // place and root 3 is insert-only.
        let rel =
            || staged(&[(1, 10), (1, 11), (2, 20)], &[(1, 12), (3, 30)], &[(1, 10)], vec![0, 1]);
        let (rows, depths) = profiled(&mut scan(rel()));
        assert_eq!(rows, vec![vec![1, 11], vec![1, 12], vec![2, 20], vec![3, 30]]);
        assert_eq!(depths, vec![(3, 1), (4, 3)]);

        // The same leaf under root 1 bound by a selection probe.
        let (rows, depths) = profiled(&mut JoinSpec { sel: vec![Some(1), None], ..scan(rel()) });
        assert_eq!(rows, vec![vec![1, 11], vec![1, 12]]);
        assert_eq!(depths, vec![(0, 0), (2, 1)]);
    }

    #[test]
    fn zero_emit_depth_is_boolean() {
        // All attributes non-output: emits the empty prefix exactly once
        // when the join is non-empty.
        let r = trie_of(&[(1, 2), (3, 4)]);
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 0,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1])],
        };
        let out = collect(&spec);
        assert_eq!(out, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn prefix_only_layered_participant_never_routes_a_leaf() {
        // A staged filter participating only at depth 0: the merged root
        // ({2, 9} − {9}) ∪ {3} applies, and descents leave the cursor's
        // leaf untouched — no block lookup, no merge.
        let f = || staged(&[(2, 1), (9, 1)], &[(3, 1)], &[(9, 1)], vec![0]);
        let r = trie_of(&[(1, 10), (2, 20), (3, 30), (7, 70)]);
        let spec = JoinSpec {
            num_vars: 2,
            sel: vec![None, None],
            emit_depth: 2,
            obs: None,
            rels: vec![PreparedRel::arena(r, vec![0, 1]), f()],
        };
        assert_eq!(collect(&spec), vec![vec![2, 20], vec![3, 30]]);

        let rel = f();
        let mut cursor = Cursor::open(&rel);
        assert_eq!(cursor.set(0).to_vec(), vec![2, 3]);
        cursor.descend(0, 2);
        let Cursor::Layered(c) = &cursor else { panic!("a staged relation reads layered") };
        assert!(c.in_place.is_none() && c.merged.is_empty(), "a prefix-only descent routed");
    }

    #[test]
    fn selected_prefix_probe_into_a_merged_leaf_then_parallel_split() {
        // Selection on the root of a staged relation: the probe descends
        // into a merged leaf *before* the parallel split, so every
        // morsel's forked cursor must carry the buffer's contents.
        let rel = || staged(&[(5, 1), (5, 7), (6, 1)], &[(5, 3)], &[], vec![0, 1]);
        let s = trie_of(&[(1, 100), (3, 300), (3, 301), (7, 700), (8, 800)]);
        let mk = |c| JoinSpec {
            num_vars: 3,
            sel: vec![Some(c), None, None],
            emit_depth: 3,
            obs: None,
            rels: vec![rel(), PreparedRel::arena(Arc::clone(&s), vec![1, 2])],
        };
        assert_eq!(
            collect(&mk(5)),
            vec![vec![5, 1, 100], vec![5, 3, 300], vec![5, 3, 301], vec![5, 7, 700]]
        );
        assert_eq!(collect(&mk(6)), vec![vec![6, 1, 100]]);
        assert!(collect(&mk(4)).is_empty(), "4 is not in the merged root");
    }

    #[test]
    fn buffer_backed_leaf_iterates_while_deeper_levels_run() {
        // T(x,z), R(x,y) in order [x, z, y]: depth 1 iterates T's leaf as
        // the single participant, and beneath it depth 2 iterates R's —
        // once per z, so R's leaf must survive each iteration intact.
        // Under x = 1 both leaves are merge buffers (held out of the
        // state while iterated, restored after); x = 2 then re-routes
        // both cursors to in-place blocks.
        let t = || staged(&[(1, 5), (1, 7), (2, 6)], &[(1, 4)], &[(1, 5)], vec![0, 1]);
        let r = || staged(&[(1, 10), (2, 20)], &[(1, 11)], &[], vec![0, 2]);
        let spec = JoinSpec {
            num_vars: 3,
            sel: vec![None, None, None],
            emit_depth: 3,
            obs: None,
            rels: vec![t(), r()],
        };
        assert_eq!(
            collect(&spec),
            vec![vec![1, 4, 10], vec![1, 4, 11], vec![1, 7, 10], vec![1, 7, 11], vec![2, 6, 20]]
        );
        // The existence form breaks out of the held iteration early; the
        // buffer must still be handed back for the next root value.
        let exists = JoinSpec { emit_depth: 1, rels: vec![t(), r()], ..spec };
        assert_eq!(collect(&exists), vec![vec![1], vec![2]]);
    }

    /// A relation in one trie order: base pairs, staged inserts and
    /// tombstones honouring the staging invariants (`del ⊆ base`,
    /// `ins ∩ base = ∅`).
    #[derive(Debug, Clone)]
    struct Staged {
        base: Vec<(u32, u32)>,
        ins: Vec<(u32, u32)>,
        del: Vec<(u32, u32)>,
    }

    /// Each distinct random pair takes exactly one role: base, base +
    /// tombstone, or insert.
    fn staged_strategy() -> impl Strategy<Value = Staged> {
        proptest::collection::vec((0u32..10, 0u32..10, 0u8..4), 0..48).prop_map(|tagged| {
            let roles: std::collections::BTreeMap<(u32, u32), u8> =
                tagged.into_iter().map(|(a, b, role)| ((a, b), role)).collect();
            let pick = |keep: &dyn Fn(u8) -> bool| -> Vec<(u32, u32)> {
                roles.iter().filter(|(_, &role)| keep(role)).map(|(&pair, _)| pair).collect()
            };
            Staged { base: pick(&|r| r != 2), ins: pick(&|r| r == 2), del: pick(&|r| r == 1) }
        })
    }

    impl Staged {
        /// The arena source over the materialised `(base − del) ∪ ins`.
        fn materialised(&self, depths: Vec<usize>) -> PreparedRel {
            let mut pairs: Vec<(u32, u32)> =
                self.base.iter().filter(|p| !self.del.contains(p)).copied().collect();
            pairs.extend(&self.ins);
            PreparedRel::arena(trie_of(&pairs), depths)
        }

        /// The layered source: the base trie under the delta's overlay.
        fn layered(&self, depths: Vec<usize>) -> PreparedRel {
            staged(&self.base, &self.ins, &self.del, depths)
        }
    }

    /// The three query shapes of the degenerate-instances proptest over
    /// one relation `R`: a two-level scan, the self-join `R(x,y), R(y,z)`,
    /// and the existence query "every `x` with some `y`".
    fn shapes(rel: &dyn Fn(Vec<usize>) -> PreparedRel) -> [(&'static str, JoinSpec); 3] {
        let self_join = JoinSpec {
            num_vars: 3,
            sel: vec![None, None, None],
            emit_depth: 3,
            obs: None,
            rels: vec![rel(vec![0, 1]), rel(vec![1, 2])],
        };
        let exists = JoinSpec { emit_depth: 1, ..scan(rel(vec![0, 1])) };
        [("scan", scan(rel(vec![0, 1]))), ("self-join", self_join), ("exists", exists)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The "degenerate instances" claim: the arena source over the
        /// materialised relation and the layered source over base + delta
        /// emit the same tuples — at 1/2/4 threads each, through
        /// `collect` — for a two-level scan, the self-join
        /// `R(x,y), R(y,z)` and an existence query.
        #[test]
        fn arena_and_base_delta_are_one_relation(staged in staged_strategy()) {
            let run = |rel: &dyn Fn(Vec<usize>) -> PreparedRel| {
                shapes(rel).map(|(shape, spec)| (shape, collect(&spec)))
            };
            let expect = run(&|depths| staged.materialised(depths));
            let delta = run(&|depths| staged.layered(depths));
            prop_assert_eq!(&delta, &expect, "layered vs arena");
        }
    }
}
