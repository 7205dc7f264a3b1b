//! [`RadixTree`]: a path-compressed binary (Patricia) trie with per-node
//! counts — the *aguri tree* of Cho et al., extended with the paper's
//! densify operation (§5.2.3) — and [`PrefixMap`], a sorted prefix table
//! for the longest-prefix matches of a BGP routing table.

use v6census_addr::{Addr, Prefix, PrefixLen};

/// A dense prefix reported by [`RadixTree::densify`] or
/// [`crate::dense_prefixes_at`]: the block and the number of observed
/// addresses it contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DensePrefix {
    /// The dense block.
    pub prefix: Prefix,
    /// Observed addresses inside the block.
    pub count: u64,
}

impl DensePrefix {
    /// The number of addresses the block spans (2^(128−len)); `None` for
    /// `::/0`.
    pub fn possible(&self) -> Option<u128> {
        self.prefix.span()
    }

    /// Observed density: `count / span`.
    pub fn density(&self) -> f64 {
        match self.prefix.span() {
            Some(s) => self.count as f64 / s as f64,
            None => 0.0,
        }
    }
}

/// Outcome of [`RadixTree::densify_budgeted`]: the dense prefixes plus an
/// account of whether (and how far) the node budget forced the tree to a
/// coarser aggregation level before densify ran.
#[derive(Clone, Debug)]
pub struct BudgetedDensify {
    /// The dense prefixes found (possibly at coarser levels than an
    /// unbudgeted run would report).
    pub dense: Vec<DensePrefix>,
    /// True when the budget was hit and the tree was aggregated.
    pub degraded: bool,
    /// Node count before any budget action.
    pub nodes_before: usize,
    /// Node count densify actually ran against.
    pub nodes_after: usize,
}

/// Absent-child sentinel for arena handles. A `u32` handle caps the
/// arena at `u32::MAX - 1` slots — hundreds of GiB of nodes, far beyond
/// the node budgets the supervisor enforces.
const NIL: u32 = u32::MAX;

/// The child slot `a` descends into below a `/len` node: the bit of `a`
/// just past the prefix. A `/128` node has no such bit and no children;
/// its slot reads as 0.
#[inline]
fn side(a: Addr, len: PrefixLen) -> usize {
    len.next_bit().map_or(0, |i| usize::from(a.bit(i)))
}

/// Arena-stored trie node: children are `u32` handles into the arena
/// (`NIL` = absent) rather than boxed pointers, shrinking the node and
/// keeping siblings cache-adjacent — the per-address descent touches
/// one flat `Vec` instead of chasing heap pointers.
#[derive(Clone, Copy)]
struct Node {
    prefix: Prefix,
    count: u64,
    children: [u32; 2],
}

/// A path-compressed binary radix (Patricia) trie keyed by IPv6 prefixes,
/// carrying a count on every node.
///
/// Counts land on the exact node for the inserted prefix; branch nodes
/// created by path splitting carry count 0 until something is inserted at
/// their prefix. [`RadixTree::densify`] and
/// [`RadixTree::aguri_aggregate`] reason over *subtree* sums.
///
/// Nodes live in a slab arena (`Vec<Node>` plus a free list of reused
/// slots) addressed by `u32` handles, so insertion is allocation-free
/// per address: inserts reuse freed slots before growing the arena, and
/// densify and aggregation allocate their pass buffers once per call.
/// The root package's `tests/allocs.rs` counts the allocations of
/// insertion, densify and aggregation on a real synth day.
///
/// ```
/// use v6census_addr::PrefixLen;
/// use v6census_trie::RadixTree;
/// let mut t = RadixTree::new();
/// t.insert_addr("2001:db8::1".parse().unwrap(), 1);
/// t.insert_addr("2001:db8::4".parse().unwrap(), 1);
/// // Least-specific 2@/112-dense prefix, per the paper's §5.2.2 example:
/// let dense = t.densify(2, PrefixLen::lit::<112>());
/// assert_eq!(dense.len(), 1);
/// assert_eq!(dense[0].prefix.to_string(), "2001:db8::/112");
/// ```
pub struct RadixTree {
    arena: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    total: u64,
    nodes: usize,
}

impl Default for RadixTree {
    fn default() -> RadixTree {
        RadixTree {
            arena: Vec::new(),
            free: Vec::new(),
            root: NIL,
            total: 0,
            nodes: 0,
        }
    }
}

impl RadixTree {
    /// Creates an empty tree.
    pub fn new() -> RadixTree {
        RadixTree::default()
    }

    /// Sum of all inserted counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of nodes currently in the tree (including zero-count branch
    /// nodes) — a resource-constraint observable, per the aguri design.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Widens an arena handle to a slot offset. Lossless on the 32- and
    /// 64-bit targets the workspace builds for; elsewhere a handle past
    /// `usize` maps to an offset no arena has.
    #[inline]
    fn at(h: u32) -> usize {
        usize::try_from(h).unwrap_or(usize::MAX)
    }

    #[inline]
    fn node(&self, h: u32) -> &Node {
        &self.arena[Self::at(h)]
    }

    #[inline]
    fn node_mut(&mut self, h: u32) -> &mut Node {
        &mut self.arena[Self::at(h)]
    }

    /// Allocates an arena slot — reusing a freed slot when one exists,
    /// growing the arena otherwise — and returns its handle.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the live node count is bounded by the arena length"
    )]
    fn alloc_node(&mut self, prefix: Prefix, count: u64) -> u32 {
        let fresh = Node {
            prefix,
            count,
            children: [NIL, NIL],
        };
        self.nodes += 1;
        if let Some(h) = self.free.pop() {
            self.arena[Self::at(h)] = fresh;
            return h;
        }
        // An arena of u32::MAX slots is unreachable under the node
        // budgets; past it the handle saturates at NIL.
        let h = u32::try_from(self.arena.len()).unwrap_or(NIL);
        self.arena.push(fresh);
        h
    }

    /// Returns a slot to the free list.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "only an allocated node is freed, so the count is positive"
    )]
    fn free_node(&mut self, h: u32) {
        self.free.push(h);
        self.nodes -= 1;
    }

    /// Writes `child` into the slot identified by `(parent, which)`;
    /// a NIL parent addresses the root slot.
    fn set_slot(&mut self, parent: u32, which: usize, child: u32) {
        if parent == NIL {
            self.root = child;
        } else {
            self.node_mut(parent).children[which] = child;
        }
    }

    /// Replaces `child` with `replacement` wherever it appears among
    /// `parent`'s child slots (the root slot when `parent` is NIL).
    fn replace_child(&mut self, parent: u32, child: u32, replacement: u32) {
        if parent == NIL {
            self.root = replacement;
            return;
        }
        for slot in self.node_mut(parent).children.iter_mut() {
            if *slot == child {
                *slot = replacement;
            }
        }
    }

    /// Appends the live nodes in BFS order as `(handle, parent)` pairs
    /// — parents strictly before children, so a reverse scan visits
    /// children first (the bottom-up order every aggregate pass needs).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the cursor stops at the order length"
    )]
    fn bfs_order_into(&self, order: &mut Vec<(u32, u32)>) {
        order.clear();
        if self.root != NIL {
            order.push((self.root, NIL));
        }
        let mut i = 0usize;
        while i < order.len() {
            let (h, _) = order[i];
            for &c in &self.node(h).children {
                if c != NIL {
                    order.push((c, h));
                }
            }
            i += 1;
        }
    }

    /// One bottom-up pass computing every node's subtree sum into
    /// `sums` (indexed by arena slot) — memoizing what the boxed
    /// representation recomputed recursively per visited node.
    fn subtree_sums_from(&self, order: &[(u32, u32)], sums: &mut Vec<u64>) {
        sums.clear();
        sums.resize(self.arena.len(), 0);
        for &(h, _) in order.iter().rev() {
            let node = self.node(h);
            let mut s = node.count;
            for &c in &node.children {
                if c != NIL {
                    s = s.saturating_add(sums[Self::at(c)]);
                }
            }
            sums[Self::at(h)] = s;
        }
    }

    /// Inserts a host address with the given count (step 1 of §5.2.3).
    pub fn insert_addr(&mut self, a: Addr, count: u64) {
        self.insert(Prefix::host(a), count);
    }

    /// Inserts a prefix with the given count, accumulating when the exact
    /// prefix is already present.
    pub fn insert(&mut self, p: Prefix, count: u64) {
        // Iterative descent. The slot being considered is identified by
        // `(parent handle, child index)`, with a NIL parent meaning the
        // root slot.
        let mut parent = NIL;
        let mut which = 0usize;
        loop {
            let cur = if parent == NIL {
                self.root
            } else {
                self.node(parent).children[which]
            };
            if cur == NIL {
                let leaf = self.alloc_node(p, count);
                self.set_slot(parent, which, leaf);
                break;
            }
            let node_prefix = self.node(cur).prefix;
            if node_prefix == p {
                let node = self.node_mut(cur);
                node.count = node.count.saturating_add(count);
                break;
            }
            if node_prefix.contains(p) {
                // Descend: branch on the first bit of p beyond node's
                // prefix.
                parent = cur;
                which = side(p.addr(), node_prefix.len());
                continue;
            }
            if p.contains(node_prefix) {
                // p is an ancestor of the current node: splice a new
                // node in above it.
                let bit = side(node_prefix.addr(), p.len());
                let new_node = self.alloc_node(p, count);
                self.node_mut(new_node).children[bit] = cur;
                self.set_slot(parent, which, new_node);
                break;
            }
            // Divergence: create a branch node at the longest common
            // prefix. Equality and containment in both directions were
            // excluded above, so cpl is strictly shorter than both keys.
            let cpl = p
                .addr()
                .common_prefix_len(node_prefix.addr())
                .min(p.len())
                .min(node_prefix.len());
            let old_bit = side(node_prefix.addr(), cpl);
            let new_bit = side(p.addr(), cpl);
            // `Prefix` keys are canonical (host bits zero), so the bit
            // just past their common prefix differs.
            debug_assert_ne!(old_bit, new_bit, "divergence must separate the keys");
            let branch = self.alloc_node(Prefix::new(p.addr(), cpl), 0);
            let leaf = self.alloc_node(p, count);
            {
                let b = self.node_mut(branch);
                b.children[old_bit] = cur;
                b.children[new_bit] = leaf;
            }
            self.set_slot(parent, which, branch);
            break;
        }
        self.total = self.total.saturating_add(count);
    }

    /// In-order list of `(prefix, count)` for every node with a non-zero
    /// count.
    pub fn entries(&self) -> Vec<(Prefix, u64)> {
        let mut out: Vec<(Prefix, u64)> = Vec::with_capacity(self.nodes);
        let mut stack: Vec<u32> = Vec::with_capacity(self.nodes);
        if self.root != NIL {
            stack.push(self.root);
        }
        while let Some(h) = stack.pop() {
            let node = self.node(h);
            if node.count > 0 {
                out.push((node.prefix, node.count));
            }
            // Child 1 pushed first so child 0 pops first, preserving
            // the recursive representation's address order.
            for &c in node.children.iter().rev() {
                if c != NIL {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// The paper's **densify** operation (§5.2.3), generalized to report
    /// the *least-specific, non-overlapping* prefixes of density at least
    /// `n/2^(128−p)` that contain at least `n` observed addresses
    /// (step 3's count filter), with prefix length at most 127.
    ///
    /// Works on conceptual prefixes along compressed edges, so a dense
    /// /112 is found even when path compression skips from a /48 branch
    /// to a /120 branch. Subtree sums are memoized in one bottom-up pass
    /// so the walk is linear in the node count, and subtrees whose sum
    /// is below the count floor are pruned (nothing below them can
    /// qualify).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "s / n with n >= 1, asserted on entry"
    )]
    pub fn densify(&self, n: u64, p: PrefixLen) -> Vec<DensePrefix> {
        assert!(n >= 1, "density numerator must be at least 1");
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(self.nodes);
        self.bfs_order_into(&mut order);
        let mut sums: Vec<u64> = Vec::with_capacity(self.arena.len());
        self.subtree_sums_from(&order, &mut sums);

        let mut out: Vec<DensePrefix> = Vec::with_capacity(16);
        // DFS over (handle, lo) where lo is the shortest conceptual
        // prefix length available on the edge into the node (parent
        // length + 1; 0 at the root).
        let mut stack: Vec<(u32, PrefixLen)> = Vec::with_capacity(64);
        if self.root != NIL {
            stack.push((self.root, PrefixLen::ZERO));
        }
        while let Some((h, lo)) = stack.pop() {
            let s = sums[Self::at(h)];
            if s < n {
                // Subtree sums only shrink downward: nothing below this
                // node can reach the count floor.
                continue;
            }
            let node = self.node(h);
            // Minimal length at which s addresses meet density n/2^(128-p):
            //   s >= n * 2^(p - L)  <=>  L >= p - floor(log2(s / n))
            let k_max = 63u32.saturating_sub((s / n).leading_zeros()); // floor(log2(s/n)) for s/n >= 1
            let l_min = p.saturating_sub(u8::try_from(k_max).unwrap_or(u8::MAX));
            let hi = node.prefix.len().min(PrefixLen::lit::<127>());
            if l_min <= hi {
                let at = l_min.max(lo);
                out.push(DensePrefix {
                    prefix: Prefix::new(node.prefix.addr(), at),
                    count: s,
                });
                continue; // least-specific: don't report anything deeper
            }
            for &c in &node.children {
                if c != NIL {
                    stack.push((c, node.prefix.len().saturating_add(1)));
                }
            }
        }
        out.sort();
        out
    }

    /// Memory-bounded aggregation — the aguri resource-constraint
    /// mechanism the paper cites in §2 ("we find their Patricia/radix
    /// tree-based aggregation useful in dealing with resource
    /// constraints"). Repeatedly folds the smallest-count leaves into
    /// their parents until at most `max_nodes` nodes remain, preserving
    /// the total count. Returns the number of nodes removed.
    ///
    /// This is the operation a long-running profiler applies
    /// periodically so an adversarial or ephemeral-heavy address stream
    /// (billions of privacy addresses) cannot exhaust memory — the
    /// paper's "informing data retention policy to prevent resource
    /// exhaustion" application (§1). The pass buffers are allocated once
    /// per call and reused by every pass.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "node counters bounded by the arena length; removed <= start"
    )]
    pub fn aggregate_to_size(&mut self, max_nodes: usize) -> usize {
        let start = self.nodes;
        let mut order: Vec<(u32, u32)> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut absorbed: Vec<u64> = Vec::new();
        while self.nodes > max_nodes.max(1) {
            if self.root == NIL {
                break;
            }
            // One bottom-up pass folding the smallest quartile of leaf
            // counts; repeat until within budget.
            self.bfs_order_into(&mut order);
            counts.clear();
            for &(h, _) in &order {
                let node = self.node(h);
                if node.children.iter().all(|&c| c == NIL) {
                    counts.push(node.count);
                }
            }
            counts.sort_unstable();
            let cutoff_idx = (counts.len() / 4).max(1).min(counts.len() - 1);
            let cutoff = counts[cutoff_idx];

            // Fold leaves with count <= cutoff into their parents, then
            // splice out pass-through branch nodes left behind. The
            // reverse scan visits children before parents, so folds
            // cascade upward within a single pass exactly like the
            // recursive post-order this replaces.
            absorbed.clear();
            absorbed.resize(self.arena.len(), 0);
            let mut removed = 0usize;
            let mut folded_to_root = 0u64;
            for &(h, parent) in order.iter().rev() {
                let gained = absorbed[Self::at(h)];
                if gained > 0 {
                    let node = self.node_mut(h);
                    node.count = node.count.saturating_add(gained);
                }
                let node = *self.node(h);
                let is_leaf = node.children.iter().all(|&c| c == NIL);
                if is_leaf && node.count <= cutoff && !node.prefix.is_empty() {
                    if parent == NIL {
                        folded_to_root = node.count;
                        self.root = NIL;
                    } else {
                        absorbed[Self::at(parent)] =
                            absorbed[Self::at(parent)].saturating_add(node.count);
                        self.replace_child(parent, h, NIL);
                    }
                    self.free_node(h);
                    removed += 1;
                    continue;
                }
                if node.count == 0 {
                    // Splice pass-through nodes (count 0, single child).
                    let mut only = NIL;
                    let mut occupied = 0usize;
                    for &c in &node.children {
                        if c != NIL {
                            only = c;
                            occupied += 1;
                        }
                    }
                    if occupied == 1 {
                        self.replace_child(parent, h, only);
                        self.free_node(h);
                        removed += 1;
                    }
                }
            }

            if folded_to_root > 0 {
                // Everything collapsed; reinstate a ::/0 accumulator.
                debug_assert_eq!(self.nodes, 0, "root folded with live nodes");
                let fresh = self.alloc_node(Prefix::ALL, folded_to_root);
                self.root = fresh;
                break;
            }
            if removed == 0 {
                break; // cannot shrink further without losing the total
            }
        }
        start - self.nodes
    }

    /// [`RadixTree::densify`] under an explicit node budget — the
    /// degraded-mode path of the supervised engine. When the tree holds
    /// more than `max_nodes` nodes it is first folded with
    /// [`RadixTree::aggregate_to_size`] (which conserves subtree sums),
    /// then densify runs on the folded tree.
    ///
    /// Degradation is *sound* for the paper's n@/p semantics: folding
    /// moves counts to ancestor prefixes, so every reported block still
    /// contains at least its reported number of truly observed addresses
    /// — results are correct for a coarser question, never wrong.
    /// A `max_nodes` of 0 means "no budget" (identical to `densify`).
    pub fn densify_budgeted(&mut self, n: u64, p: PrefixLen, max_nodes: usize) -> BudgetedDensify {
        let nodes_before = self.nodes;
        let folded = if max_nodes > 0 && self.nodes > max_nodes {
            self.aggregate_to_size(max_nodes)
        } else {
            0
        };
        BudgetedDensify {
            dense: self.densify(n, p),
            degraded: folded > 0,
            nodes_before,
            nodes_after: self.nodes,
        }
    }

    /// Classic aguri aggregation (Cho et al.): counts below
    /// `threshold_fraction × total` are folded into ancestors; returns the
    /// surviving `(prefix, count)` aggregates in address order. The last
    /// resort aggregate is `::/0`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the threshold is a fraction in [0, 1] of the u64 total, asserted on entry"
    )]
    pub fn aguri_aggregate(&self, threshold_fraction: f64) -> Vec<(Prefix, u64)> {
        assert!(
            (0.0..=1.0).contains(&threshold_fraction),
            "threshold must be a fraction"
        );
        let threshold = (threshold_fraction * self.total as f64).ceil() as u64;

        let mut order: Vec<(u32, u32)> = Vec::with_capacity(self.nodes);
        self.bfs_order_into(&mut order);
        // residual[slot]: count in the subtree not yet attributed to a
        // kept aggregate (flows to the parent).
        let mut residual: Vec<u64> = vec![0; self.arena.len()];
        let mut out: Vec<(Prefix, u64)> = Vec::with_capacity(16);
        for &(h, _) in order.iter().rev() {
            let node = self.node(h);
            let mut r = node.count;
            for &c in &node.children {
                if c != NIL {
                    r = r.saturating_add(residual[Self::at(c)]);
                }
            }
            if r >= threshold && threshold > 0 {
                out.push((node.prefix, r));
            } else {
                residual[Self::at(h)] = r;
            }
        }
        let mut leftover = 0u64;
        if self.root != NIL {
            leftover = residual[Self::at(self.root)];
        }
        if leftover > 0 {
            out.push((Prefix::ALL, leftover));
        }
        out.sort_by_key(|&(p, _)| p);
        out
    }
}

// ---------------------------------------------------------------------------
// PrefixMap: sorted longest-prefix-match table (BGP routing table)
// ---------------------------------------------------------------------------

/// A longest-prefix-match table from IPv6 prefixes to values — the shape
/// of a BGP routing table. It is built once by
/// [`PrefixMap::from_entries`] and only read afterwards.
///
/// The entries are sorted by prefix (address, then length), so every
/// entry follows the entries that enclose it, and each entry keeps the
/// index of its nearest enclosing entry. Every entry that contains an
/// address `a` encloses the last entry whose address is ≤ `a` (or is
/// that entry), so a lookup is one binary search and a walk up those
/// links.
///
/// ```
/// use v6census_trie::PrefixMap;
/// let rt = PrefixMap::from_entries([
///     ("2001:db8::/32".parse().unwrap(), 64496u32),
///     ("2001:db8:ff::/48".parse().unwrap(), 64497),
/// ]);
/// let asn = rt.longest_match("2001:db8:ff::1".parse().unwrap());
/// assert_eq!(asn.map(|(p, v)| (p.len().get(), *v)), Some((48, 64497)));
/// ```
pub struct PrefixMap<T> {
    /// One entry per prefix, sorted by prefix.
    entries: Vec<(Prefix, T)>,
    /// `up[i]`: the index of the nearest entry strictly enclosing
    /// `entries[i]`.
    up: Vec<Option<usize>>,
}

impl<T> PrefixMap<T> {
    /// Builds the table. Of entries repeating a prefix, the last wins.
    pub fn from_entries(entries: impl IntoIterator<Item = (Prefix, T)>) -> PrefixMap<T> {
        let mut entries: Vec<(Prefix, T)> = entries.into_iter().collect();
        // Reversed, the stable sort puts the last entry given for a
        // prefix first among its repeats, and the dedup keeps it.
        entries.reverse();
        entries.sort_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        let mut up = Vec::with_capacity(entries.len());
        // The chain of entries enclosing the current one, outermost
        // first.
        let mut open: Vec<usize> = Vec::new();
        for (i, (p, _)) in entries.iter().enumerate() {
            while open.last().is_some_and(|&j| !entries[j].0.contains(*p)) {
                open.pop();
            }
            up.push(open.last().copied());
            open.push(i);
        }
        PrefixMap { entries, up }
    }

    /// The `(prefix, value)` entries, sorted by prefix, one per prefix.
    pub fn entries(&self) -> &[(Prefix, T)] {
        &self.entries
    }

    /// Longest-prefix match: the most specific `(prefix, value)` whose
    /// block contains `a`.
    pub fn longest_match(&self, a: Addr) -> Option<(Prefix, &T)> {
        let mut at = self
            .entries
            .partition_point(|(p, _)| p.addr() <= a)
            .checked_sub(1);
        while let Some(i) = at {
            let (p, v) = &self.entries[i];
            if p.contains_addr(a) {
                return Some((*p, v));
            }
            at = self.up[i];
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }
    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The count stored at exactly `q` (0 when absent).
    fn get(t: &RadixTree, q: Prefix) -> u64 {
        t.entries()
            .iter()
            .find(|&&(e, _)| e == q)
            .map_or(0, |&(_, c)| c)
    }

    /// The observed addresses inside block `q`: the counts of every entry
    /// at or below it.
    fn sum_within(t: &RadixTree, q: Prefix) -> u64 {
        t.entries()
            .iter()
            .filter(|&&(e, _)| q.contains(e))
            .map(|&(_, c)| c)
            .sum()
    }

    #[test]
    fn insert_and_get() {
        let mut t = RadixTree::new();
        t.insert(p("2001:db8::/32"), 5);
        t.insert(p("2001:db8::/32"), 2);
        t.insert_addr(a("2001:db8::1"), 1);
        assert_eq!(get(&t, p("2001:db8::/32")), 7);
        assert_eq!(get(&t, p("2001:db8::1/128")), 1);
        assert_eq!(get(&t, p("2001:db9::/32")), 0);
        assert_eq!(t.total(), 8);
    }

    #[test]
    fn sums_within_subtrees() {
        let mut t = RadixTree::new();
        for s in ["2001:db8::1", "2001:db8::2", "2001:db8:1::1", "2400::1"] {
            t.insert_addr(a(s), 1);
        }
        assert_eq!(sum_within(&t, p("2001:db8::/32")), 3);
        assert_eq!(sum_within(&t, p("2001:db8::/64")), 2);
        assert_eq!(sum_within(&t, p("::/0")), 4);
        assert_eq!(sum_within(&t, p("2001:db9::/32")), 0);
        assert_eq!(sum_within(&t, p("2001:db8::1/128")), 1);
    }

    #[test]
    fn paper_example_densify() {
        // §5.2.2: addresses ::1 and ::4 in 2001:db8:: — the sole
        // 2@/112-dense prefix is 2001:db8::/112; there is one
        // 2@/125-dense prefix but no 2@/126-dense prefix.
        let mut t = RadixTree::new();
        t.insert_addr(a("2001:db8::1"), 1);
        t.insert_addr(a("2001:db8::4"), 1);

        let d112 = t.densify(2, PrefixLen::lit::<112>());
        assert_eq!(d112.len(), 1);
        assert_eq!(d112[0].prefix, p("2001:db8::/112"));
        assert_eq!(d112[0].count, 2);

        let d125 = t.densify(2, PrefixLen::lit::<125>());
        assert_eq!(d125.len(), 1);
        assert_eq!(d125[0].prefix, p("2001:db8::/125"));

        let d126 = t.densify(2, PrefixLen::lit::<126>());
        assert!(d126.is_empty(), "got {d126:?}");
    }

    #[test]
    fn densify_finds_least_specific() {
        // 512 addresses packed in one /119 meet 2@/112 density at /104:
        // 512 = 2 * 2^8 -> L_min = 112 - 8 = 104.
        let mut t = RadixTree::new();
        let base: Addr = a("2001:db8::");
        for i in 0..512u128 {
            t.insert_addr(Addr(base.0 | i), 1);
        }
        let d = t.densify(2, PrefixLen::lit::<112>());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].prefix.len().get(), 104);
        assert_eq!(d[0].count, 512);
    }

    #[test]
    fn densify_respects_count_floor() {
        // A single address is maximally dense but fails the n=2 count
        // filter (paper step 3).
        let mut t = RadixTree::new();
        t.insert_addr(a("2001:db8::1"), 1);
        assert!(t.densify(2, PrefixLen::lit::<112>()).is_empty());
        assert_eq!(t.densify(1, PrefixLen::lit::<112>()).len(), 1);
    }

    #[test]
    fn densify_nonoverlapping() {
        let mut t = RadixTree::new();
        // Two separate dense /112s plus one sparse address.
        for i in 0..4u128 {
            t.insert_addr(Addr(a("2001:db8:a::").0 | i), 1);
            t.insert_addr(Addr(a("2001:db8:b::").0 | i), 1);
        }
        t.insert_addr(a("2400::1"), 1);
        let d = t.densify(2, PrefixLen::lit::<112>());
        // Each /112 with 4 addrs is dense at /111 (4 = 2*2^1).
        assert_eq!(d.len(), 2);
        for x in &d {
            assert_eq!(x.prefix.len().get(), 111);
            assert_eq!(x.count, 4);
        }
        for i in 0..d.len() {
            for j in 0..d.len() {
                if i != j {
                    assert!(!d[i].prefix.overlaps(d[j].prefix));
                }
            }
        }
    }

    #[test]
    fn dense_prefix_possible_and_density() {
        let d = DensePrefix {
            prefix: p("2001:db8::/112"),
            count: 2,
        };
        assert_eq!(d.possible(), Some(65536));
        assert!((d.density() - 2.0 / 65536.0).abs() < 1e-12);
    }

    #[test]
    fn aguri_aggregation_profiles_heavy_hitters() {
        let mut t = RadixTree::new();
        // 90 hits in one /64, 10 scattered.
        for i in 0..90u128 {
            t.insert_addr(Addr(a("2001:db8::").0 | i), 1);
        }
        for i in 0..10u128 {
            t.insert_addr(Addr(a("2400::").0 | (i << 64)), 1);
        }
        let agg = t.aguri_aggregate(0.10);
        let total: u64 = agg.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 100, "aggregation must conserve counts");
        // Every aggregate except the ::/0 catch-all meets the threshold.
        for &(pre, c) in &agg {
            if pre != Prefix::ALL {
                assert!(c >= 10, "{pre} kept with count {c} below threshold");
            }
        }
        // Nearly all heavy-side hits are attributed inside the heavy /64
        // (at most one sub-threshold residue escapes to the root).
        let heavy: u64 = agg
            .iter()
            .filter(|&&(pre, _)| p("2001:db8::/64").contains(pre))
            .map(|&(_, c)| c)
            .sum();
        assert!(heavy > 80, "heavy side kept only {heavy} of 90: {agg:?}");
        // The 10 scattered singletons reach the threshold together at
        // their common ancestor inside 2400::/32.
        assert!(
            agg.iter()
                .any(|&(pre, c)| c == 10 && p("2400::/32").contains(pre)),
            "got {agg:?}"
        );
    }

    #[test]
    fn aggregate_to_size_bounds_memory_and_conserves_counts() {
        let mut t = RadixTree::new();
        for i in 0..2_000u128 {
            // Scattered ephemeral addresses plus one heavy block.
            t.insert_addr(Addr((0x2a00u128 << 112) | (i * 0x1_0000_0001)), 1);
        }
        for i in 0..50u128 {
            t.insert_addr(Addr((0x2001_0db8u128 << 96) | i), 10);
        }
        let total_before = t.total();
        let nodes_before = t.node_count();
        assert!(nodes_before > 2_000);
        let removed = t.aggregate_to_size(200);
        assert!(removed > 0);
        assert!(
            t.node_count() <= 200 || t.node_count() < nodes_before / 4,
            "still {} nodes",
            t.node_count()
        );
        assert_eq!(t.total(), total_before, "counts must be conserved");
        let entries_total: u64 = t.entries().iter().map(|&(_, c)| c).sum();
        assert_eq!(entries_total, total_before);
        // The tree still works after aggregation.
        t.insert_addr(a("2400::1"), 3);
        assert_eq!(t.total(), total_before + 3);
        assert_eq!(sum_within(&t, p("::/0")), total_before + 3);
    }

    #[test]
    fn aggregate_to_size_degenerate_cases() {
        let mut t = RadixTree::new();
        assert_eq!(t.aggregate_to_size(10), 0, "empty tree");
        t.insert_addr(a("2001:db8::1"), 5);
        assert_eq!(t.aggregate_to_size(10), 0, "already within budget");
        // Collapsing below one node leaves a ::/0 accumulator.
        t.insert_addr(a("2400::1"), 5);
        t.insert_addr(a("2600::1"), 5);
        t.aggregate_to_size(1);
        assert_eq!(t.total(), 15);
        assert_eq!(sum_within(&t, p("::/0")), 15);
        assert!(t.node_count() >= 1);
    }

    #[test]
    fn aguri_zero_threshold_keeps_everything() {
        let mut t = RadixTree::new();
        t.insert_addr(a("2001:db8::1"), 3);
        let agg = t.aguri_aggregate(0.0);
        assert_eq!(agg.iter().map(|&(_, c)| c).sum::<u64>(), 3);
    }

    #[test]
    fn prefix_map_longest_match() {
        let rt = PrefixMap::from_entries([
            (p("2001:db8::/32"), 1u32),
            (p("2001:db8:ff::/48"), 2),
            (p("2400::/12"), 3),
        ]);
        assert_eq!(rt.entries().len(), 3);
        assert_eq!(rt.longest_match(a("2001:db8::1")).map(|(_, v)| *v), Some(1));
        assert_eq!(
            rt.longest_match(a("2001:db8:ff::1")).map(|(_, v)| *v),
            Some(2)
        );
        // Past the /48 in address order, but only inside the /32.
        assert_eq!(
            rt.longest_match(a("2001:db8:100::1")).map(|(_, v)| *v),
            Some(1)
        );
        assert_eq!(rt.longest_match(a("2400:1::1")).map(|(_, v)| *v), Some(3));
        assert_eq!(rt.longest_match(a("3000::1")), None);
        assert_eq!(rt.longest_match(a("::1")), None);
    }

    #[test]
    fn prefix_map_replace_and_entries() {
        let rt = PrefixMap::from_entries([
            (p("2001:db8::/48"), "inner"),
            (p("2001:db8::/32"), "old"),
            (p("2001:db8::/32"), "new"),
        ]);
        let e = rt.entries();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0], (p("2001:db8::/32"), "new"));
        assert_eq!(e[1], (p("2001:db8::/48"), "inner"));
        assert_eq!(
            rt.longest_match(a("2001:db8:1::1")).map(|(_, v)| *v),
            Some("new")
        );
        assert!(PrefixMap::<u32>::from_entries([]).entries().is_empty());
    }

    #[test]
    fn densify_budgeted_degrades_but_stays_sound() {
        let mut t = RadixTree::new();
        for i in 0..1024u128 {
            t.insert_addr(Addr(a("2001:db8::").0 | (i * 7)), 1);
        }
        let nodes = t.node_count();
        assert!(nodes > 100);

        // No budget: identical to plain densify.
        let mut clone = RadixTree::new();
        for i in 0..1024u128 {
            clone.insert_addr(Addr(a("2001:db8::").0 | (i * 7)), 1);
        }
        let unbudgeted = clone.densify(16, PrefixLen::lit::<112>());
        let free = t.densify_budgeted(16, PrefixLen::lit::<112>(), 0);
        assert!(!free.degraded);
        assert_eq!(free.nodes_after, free.nodes_before);
        assert_eq!(free.dense, unbudgeted);

        // Tight budget: tree folds, results degrade to coarser blocks
        // but every reported block still holds >= its reported count of
        // real observations, and counts stay conserved.
        let mut capped = RadixTree::new();
        for i in 0..1024u128 {
            capped.insert_addr(Addr(a("2001:db8::").0 | (i * 7)), 1);
        }
        let total = capped.total();
        let b = capped.densify_budgeted(16, PrefixLen::lit::<112>(), 64);
        assert!(b.degraded);
        assert!(b.nodes_after < b.nodes_before);
        assert_eq!(capped.total(), total, "budget must conserve counts");
        for d in &b.dense {
            assert!(d.count >= 16, "n floor must hold under degradation");
            assert!(
                sum_within(&capped, d.prefix) >= d.count,
                "reported count must be a real observed count"
            );
        }
    }

    #[test]
    fn prefix_map_default_route() {
        let rt = PrefixMap::from_entries([(p("::/0"), 0u32), (p("2001:db8::/32"), 1)]);
        assert_eq!(rt.longest_match(a("9999::1")).map(|(_, v)| *v), Some(0));
        assert_eq!(rt.longest_match(a("2001:db8::1")).map(|(_, v)| *v), Some(1));
    }
}
