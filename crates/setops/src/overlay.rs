//! The one merge the system performs on sets: a base level patched by
//! its staged delta. (The join core otherwise only needs intersections.)

use crate::view::{SetRef, SetRefIter};

/// Merge an LSM-style delta over a base view: `(base − del) ∪ ins`,
/// appended to `out` in sorted order. Any operand may be absent (treated
/// as empty) and each may be either layout. The pass is one linear
/// three-way merge over the borrowed views, which is what lets the join
/// executor assemble a delta-patched trie level straight into a reusable
/// buffer.
///
/// Tombstones (`del`) are expected to be a subset of `base`; a tombstone
/// for an absent value simply matches nothing.
pub fn overlay_merge_into(
    base: Option<SetRef<'_>>,
    del: Option<SetRef<'_>>,
    ins: Option<SetRef<'_>>,
    out: &mut Vec<u32>,
) {
    fn next(it: &mut Option<SetRefIter<'_>>) -> Option<u32> {
        it.as_mut().and_then(|i| i.next())
    }
    let mut bi = base.map(|s| s.iter());
    let mut di = del.map(|s| s.iter());
    let mut ii = ins.map(|s| s.iter());
    let mut bv = next(&mut bi);
    let mut dv = next(&mut di);
    let mut iv = next(&mut ii);
    loop {
        // Advance the base cursor past tombstoned values.
        while let (Some(b), Some(d)) = (bv, dv) {
            match d.cmp(&b) {
                std::cmp::Ordering::Less => dv = next(&mut di),
                std::cmp::Ordering::Equal => {
                    dv = next(&mut di);
                    bv = next(&mut bi);
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        match (bv, iv) {
            (None, None) => break,
            (Some(b), None) => {
                out.push(b);
                bv = next(&mut bi);
            }
            (None, Some(x)) => {
                out.push(x);
                iv = next(&mut ii);
            }
            (Some(b), Some(x)) => match b.cmp(&x) {
                std::cmp::Ordering::Less => {
                    out.push(b);
                    bv = next(&mut bi);
                }
                std::cmp::Ordering::Greater => {
                    out.push(x);
                    iv = next(&mut ii);
                }
                std::cmp::Ordering::Equal => {
                    out.push(b);
                    bv = next(&mut bi);
                    iv = next(&mut ii);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Layout;
    use crate::testing::{block, view};

    fn layouts(vals: &[u32]) -> [Vec<u32>; 2] {
        [block(vals, Layout::UintArray), block(vals, Layout::Bitset)]
    }

    #[test]
    fn overlay_merge_across_layouts() {
        for base in layouts(&[1, 3, 64, 65, 200]) {
            for del in layouts(&[3, 200]) {
                for ins in layouts(&[2, 64, 300]) {
                    let mut out = Vec::new();
                    overlay_merge_into(
                        Some(view(&base)),
                        Some(view(&del)),
                        Some(view(&ins)),
                        &mut out,
                    );
                    // 64 appears in both base and ins: emitted once.
                    assert_eq!(out, vec![1, 2, 64, 65, 300]);
                }
            }
        }
    }

    #[test]
    fn overlay_merge_with_absent_operands() {
        let base = SetRef::Uint(&[5, 9]);
        let ins = SetRef::Uint(&[1, 9, 12]);
        let del = SetRef::Uint(&[9]);
        let mut out = Vec::new();
        overlay_merge_into(Some(base), None, None, &mut out);
        assert_eq!(out, vec![5, 9]);
        out.clear();
        overlay_merge_into(None, None, Some(ins), &mut out);
        assert_eq!(out, vec![1, 9, 12]);
        out.clear();
        overlay_merge_into(Some(base), Some(del), Some(ins), &mut out);
        assert_eq!(out, vec![1, 5, 9, 12]);
        out.clear();
        // A tombstone for an absent value matches nothing.
        overlay_merge_into(Some(base), Some(SetRef::Uint(&[7])), None, &mut out);
        assert_eq!(out, vec![5, 9]);
        out.clear();
        overlay_merge_into(None, Some(del), None, &mut out);
        assert!(out.is_empty());
    }
}
