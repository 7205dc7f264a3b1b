//! Naive reference implementations of the pipeline's optimized kernels.
//!
//! These are the shapes the workspace shipped *before* the
//! allocation-effect pass made the hot paths allocation-free: a
//! `Box`-per-node radix trie, a recursive per-node subtree-sum densify,
//! and a union-of-intersections stability window. They exist so both
//! `pipeline_speed` (the before/after benchmark) and the
//! pipeline-equivalence test can assert the optimized kernels produce
//! byte-identical outputs — the speedups in `BENCH_pipeline.json` are
//! only claimed against these on equivalent results.
//!
//! None of this is under the lint config's `[hot]` scope: allocating per
//! node and per witness day is the entire point of the reference.

use v6census_addr::{Addr, Prefix, PrefixLen};
use v6census_core::temporal::{DailyObservations, Day, StabilityParams};
use v6census_trie::{AddrSet, DensePrefix};

/// The child slot `a` takes below a `/len` node (0 for a `/128` leaf).
fn side(a: Addr, len: PrefixLen) -> usize {
    len.next_bit().map_or(0, |i| usize::from(a.bit(i)))
}

/// One heap-allocated trie node — the pre-arena layout.
pub struct NaiveNode {
    /// Canonical prefix stored at this node.
    pub prefix: Prefix,
    /// Observation count at exactly this prefix.
    pub count: u64,
    /// Child subtrees by next bit.
    pub children: [Option<Box<NaiveNode>>; 2],
}

impl NaiveNode {
    fn leaf(prefix: Prefix, count: u64) -> NaiveNode {
        NaiveNode {
            prefix,
            count,
            children: [None, None],
        }
    }
}

/// A `Box`-per-node path-compressed radix trie: one allocation per
/// structural node and pointer-chasing descent, mirroring
/// `RadixTree::try_insert`'s four cases exactly.
#[derive(Default)]
pub struct NaiveTrie {
    root: Option<Box<NaiveNode>>,
}

impl NaiveTrie {
    /// Inserts a host (/128) observation, like `RadixTree::insert_addr`.
    pub fn insert_addr(&mut self, a: Addr, count: u64) {
        Self::insert(&mut self.root, Prefix::host(a), count);
    }

    /// The recursive twin of `RadixTree::try_insert` — same four cases,
    /// same branch-bit choices, one `Box::new` per structural node. The
    /// occupant is taken by value up front so every case is total.
    fn insert(slot: &mut Option<Box<NaiveNode>>, p: Prefix, count: u64) {
        let Some(mut node) = slot.take() else {
            *slot = Some(Box::new(NaiveNode::leaf(p, count)));
            return;
        };
        if node.prefix == p {
            node.count = node.count.saturating_add(count);
            *slot = Some(node);
            return;
        }
        if node.prefix.contains(p) {
            let which = side(p.addr(), node.prefix.len());
            Self::insert(&mut node.children[which], p, count);
            *slot = Some(node);
            return;
        }
        if p.contains(node.prefix) {
            let bit = side(node.prefix.addr(), p.len());
            let mut new_node = NaiveNode::leaf(p, count);
            new_node.children[bit] = Some(node);
            *slot = Some(Box::new(new_node));
            return;
        }
        let cpl = p
            .addr()
            .common_prefix_len(node.prefix.addr())
            .min(p.len())
            .min(node.prefix.len());
        let branch_prefix = Prefix::new(p.addr(), cpl);
        let old_bit = side(node.prefix.addr(), cpl);
        let new_bit = side(p.addr(), cpl);
        let mut branch = NaiveNode::leaf(branch_prefix, 0);
        branch.children[old_bit] = Some(node);
        branch.children[new_bit] = Some(Box::new(NaiveNode::leaf(p, count)));
        *slot = Some(Box::new(branch));
    }

    /// Preorder `(prefix, count)` entries, matching `RadixTree::entries`.
    pub fn entries(&self) -> Vec<(Prefix, u64)> {
        let mut out = Vec::new();
        fn walk(node: &Option<Box<NaiveNode>>, out: &mut Vec<(Prefix, u64)>) {
            let Some(n) = node else { return };
            if n.count > 0 {
                out.push((n.prefix, n.count));
            }
            walk(&n.children[0], out);
            walk(&n.children[1], out);
        }
        walk(&self.root, &mut out);
        out
    }

    /// Subtree sum by full recursion — recomputed at every visited node
    /// by [`NaiveTrie::densify`], which is exactly the `O(n·depth)` cost
    /// the memoized BFS pass in `RadixTree::densify` removed.
    fn subtree_sum(node: &NaiveNode) -> u64 {
        let mut s = node.count;
        for c in node.children.iter().flatten() {
            s = s.saturating_add(Self::subtree_sum(c));
        }
        s
    }

    /// The pre-optimization densify: same least-specific-dense-prefix
    /// math and pruning as `RadixTree::densify`, but with per-node
    /// recursive sums.
    pub fn densify(&self, n: u64, p: PrefixLen) -> Vec<DensePrefix> {
        let mut out = Vec::new();
        fn walk(node: &NaiveNode, lo: PrefixLen, n: u64, p: PrefixLen, out: &mut Vec<DensePrefix>) {
            let s = NaiveTrie::subtree_sum(node);
            if s < n {
                return;
            }
            let k_max = 63u32.saturating_sub((s / n).leading_zeros());
            let l_min = p.saturating_sub(k_max as u8);
            let hi = node.prefix.len().min(PrefixLen::lit::<127>());
            if l_min <= hi {
                out.push(DensePrefix {
                    prefix: Prefix::new(node.prefix.addr(), l_min.max(lo)),
                    count: s,
                });
                return;
            }
            for c in node.children.iter().flatten() {
                walk(c, node.prefix.len().saturating_add(1), n, p, out);
            }
        }
        if let Some(root) = &self.root {
            walk(root, PrefixLen::ZERO, n, p, &mut out);
        }
        out.sort();
        out
    }
}

/// The pre-optimization `stable_on`: one `intersection` and one `union`
/// allocation per witness day in the ±window, versus the merged-cursor
/// single-output scan in `DailyObservations::stable_on`.
pub fn naive_stable_on(
    obs: &DailyObservations,
    reference: Day,
    params: &StabilityParams,
) -> AddrSet {
    let active = obs.on(reference);
    if active.is_empty() {
        return AddrSet::new();
    }
    let lo = reference - params.back as i32;
    let hi = reference + params.fwd as i32;
    let min_d = (params.n + params.slew_tolerance) as i32;
    let mut stable = AddrSet::new();
    for d in lo.range_inclusive(hi) {
        if (d - reference).abs() < min_d {
            continue;
        }
        if let Some(s) = obs.get(d) {
            stable = stable.union(&active.intersection(s));
        }
    }
    stable
}
