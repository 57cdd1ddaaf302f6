//! Centralized reference implementation of the digit-elimination ruling set.
//!
//! Runs the exact same sub-phase schedule as the distributed protocol (see
//! [`crate::distributed`]), but executes each kill wave as a plain
//! multi-source BFS. Used as ground truth in tests and by the centralized
//! spanner driver.

use crate::digits::DigitPlan;
use crate::result::{RulingParams, RulingSet};
use nas_graph::{EpochMarks, Graph};

/// Computes a `(q+1, cq)`-ruling set for `w` in `g` (centralized).
///
/// `w` may list vertices in any order; duplicates are ignored.
///
/// # Cost
///
/// `O(c·n)` plus the kill waves' BFS work. Per digit position the active
/// set is counting-sorted by digit value once; the sources of the value-`b`
/// wave are that bucket minus the vertices earlier waves killed. A wave
/// only kills vertices of a *larger* digit value, so a bucket is final by
/// the time its wave runs, and its ascending-id order is the order a full
/// scan of `0..n` would produce.
///
/// # Panics
///
/// Panics if a vertex of `w` is out of range.
pub fn ruling_set_centralized(g: &Graph, w: &[usize], params: RulingParams) -> RulingSet {
    let n = g.num_vertices();
    let mut in_w = vec![false; n];
    for &v in w {
        assert!(v < n, "W vertex {v} out of range");
        in_w[v] = true;
    }
    if n == 0 || w.is_empty() {
        return RulingSet {
            members: Vec::new(),
            ruler: vec![None; n],
        };
    }

    let plan = DigitPlan::new(n, params.c);
    let base = plan.base() as usize;
    let q = params.q;

    // active[v]: v ∈ W and not yet killed.
    let mut active = in_w.clone();
    // killer[v]: the wave origin that deactivated v.
    let mut killer: Vec<Option<u32>> = vec![None; n];
    // Digit `i` of every active vertex (stale entries are never read: the
    // wave tests `active` first).
    let mut digit: Vec<u32> = vec![0; n];
    // The active set counting-sorted by digit value: bucket `b` is
    // `by_digit[bucket_at[b]..bucket_at[b + 1]]`, ascending ids.
    let mut by_digit: Vec<u32> = Vec::new();
    let mut bucket_at: Vec<usize> = vec![0; base + 1];
    let mut fill: Vec<usize> = Vec::with_capacity(base + 1);

    // Scratch for the per-sub-phase kill wave, on the flat distance plane:
    // an epoch-marked visited set (O(1) logical clear between waves — no
    // touched-list rewind) plus swap frontiers carrying `(vertex, origin)`
    // pairs, so no dense distance or origin table is needed at all. Zero
    // allocation at steady state once the buffers hit their high-water
    // mark.
    let mut visited = EpochMarks::new();
    let mut frontier: Vec<(u32, u32)> = Vec::new();
    let mut next: Vec<(u32, u32)> = Vec::new();

    for i in 0..params.c {
        bucket_at.fill(0);
        for v in (0..n).filter(|&v| active[v]) {
            let d = plan.digit(v as u64, i) as u32;
            digit[v] = d;
            bucket_at[d as usize + 1] += 1;
        }
        for b in 0..base {
            bucket_at[b + 1] += bucket_at[b];
        }
        by_digit.resize(bucket_at[base], 0);
        fill.clear();
        fill.extend_from_slice(&bucket_at);
        for v in (0..n).filter(|&v| active[v]) {
            let d = digit[v] as usize;
            by_digit[fill[d]] = v as u32;
            fill[d] += 1;
        }
        for b in 0..base {
            // Sources: active vertices whose i-th digit is b.
            // (Ascending id order ⇒ min-id origin wins ties, deterministic.)
            frontier.clear();
            frontier.extend(
                by_digit[bucket_at[b]..bucket_at[b + 1]]
                    .iter()
                    .filter(|&&v| active[v as usize])
                    .map(|&v| (v, v)),
            );
            if frontier.is_empty() {
                continue; // schedule-equivalent: an empty wave kills nobody
            }
            // Depth-q multi-source wave. Level-by-level expansion visits
            // vertices in the same order as the historical FIFO BFS, so the
            // min-id origin claims each vertex identically; kills are
            // applied at visit time (wave propagation never reads
            // `active`, so inline kills match the old post-wave sweep).
            visited.begin(n);
            for &(s, _) in &frontier {
                visited.mark(s as usize);
            }
            let b = b as u32;
            for _depth in 0..q {
                if frontier.is_empty() {
                    break;
                }
                next.clear();
                for &(v, origin) in &frontier {
                    for &u in g.neighbors(v as usize) {
                        let u = u as usize;
                        if visited.mark(u) {
                            if active[u] && digit[u] > b {
                                active[u] = false;
                                killer[u] = Some(origin);
                            }
                            next.push((u as u32, origin));
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
    }

    assemble(n, &in_w, &active, &killer)
}

/// Resolves killer chains into final rulers and packages the result.
///
/// Shared with the distributed driver so both produce identical structures.
pub(crate) fn assemble(
    n: usize,
    in_w: &[bool],
    active: &[bool],
    killer: &[Option<u32>],
) -> RulingSet {
    let members: Vec<usize> = (0..n).filter(|&v| active[v]).collect();
    let mut ruler: Vec<Option<u32>> = vec![None; n];
    for v in 0..n {
        if !in_w[v] {
            continue;
        }
        // Follow the killer chain; ≤ c hops by construction, but guard with
        // n iterations to make corruption loud rather than infinite.
        let mut cur = v;
        let mut hops = 0usize;
        while !active[cur] {
            cur = killer[cur].expect("killed vertex must record a killer") as usize;
            hops += 1;
            assert!(hops <= n, "killer chain does not terminate");
        }
        ruler[v] = Some(cur as u32);
    }
    RulingSet { members, ruler }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::{generators, DistanceMap};

    fn verify(g: &Graph, w: &[usize], params: RulingParams, rs: &RulingSet) {
        // A ⊆ W.
        for &a in &rs.members {
            assert!(w.contains(&a), "member {a} not in W");
        }
        // Separation ≥ q+1.
        for (idx, &a) in rs.members.iter().enumerate() {
            let d = DistanceMap::from_source(g, a);
            for &b in &rs.members[idx + 1..] {
                let dab = d.get(b).expect("members must be connected in tests");
                assert!(
                    dab >= params.separation(),
                    "members {a},{b} at distance {dab} < {}",
                    params.separation()
                );
            }
        }
        // Domination ≤ cq via the recorded rulers.
        for &v in w {
            let r = rs.ruler[v].expect("W vertex must have a ruler") as usize;
            assert!(rs.is_member(r));
            let d = DistanceMap::from_source(g, v)
                .get(r)
                .expect("ruler reachable");
            assert!(
                d <= params.domination_radius(),
                "vertex {v} ruled by {r} at distance {d} > {}",
                params.domination_radius()
            );
        }
    }

    #[test]
    fn path_full_w() {
        let g = generators::path(30);
        let w: Vec<usize> = (0..30).collect();
        let params = RulingParams::new(2, 2);
        let rs = ruling_set_centralized(&g, &w, params);
        verify(&g, &w, params, &rs);
        assert!(!rs.is_empty());
    }

    #[test]
    fn grid_partial_w() {
        let g = generators::grid2d(8, 8);
        let w: Vec<usize> = (0..64).filter(|v| v % 3 == 0).collect();
        let params = RulingParams::new(3, 3);
        let rs = ruling_set_centralized(&g, &w, params);
        verify(&g, &w, params, &rs);
    }

    #[test]
    fn clique_keeps_exactly_one() {
        let g = generators::complete(12);
        let w: Vec<usize> = (0..12).collect();
        let params = RulingParams::new(1, 2);
        let rs = ruling_set_centralized(&g, &w, params);
        // Everything is at distance 1, so at most one survivor; domination
        // requires at least one.
        assert_eq!(rs.len(), 1);
        verify(&g, &w, params, &rs);
    }

    #[test]
    fn empty_w() {
        let g = generators::path(5);
        let rs = ruling_set_centralized(&g, &[], RulingParams::new(2, 2));
        assert!(rs.is_empty());
        assert!(rs.ruler.iter().all(|r| r.is_none()));
    }

    #[test]
    fn singleton_w_is_kept() {
        let g = generators::cycle(9);
        let rs = ruling_set_centralized(&g, &[4], RulingParams::new(3, 2));
        assert_eq!(rs.members, vec![4]);
        assert_eq!(rs.ruler[4], Some(4));
    }

    #[test]
    fn members_rule_themselves() {
        let g = generators::gnp(60, 0.08, 21);
        let w: Vec<usize> = (0..60).filter(|v| v % 2 == 0).collect();
        let rs = ruling_set_centralized(&g, &w, RulingParams::new(2, 3));
        for &m in &rs.members {
            assert_eq!(rs.ruler[m], Some(m as u32));
        }
    }

    #[test]
    fn random_graphs_hold_guarantees() {
        for seed in 0..5 {
            let g = generators::connected_gnp(80, 0.05, seed);
            let w: Vec<usize> = (0..80)
                .filter(|v| !(v + seed as usize).is_multiple_of(4))
                .collect();
            let params = RulingParams::new(2, 3);
            let rs = ruling_set_centralized(&g, &w, params);
            verify(&g, &w, params, &rs);
        }
    }
}
