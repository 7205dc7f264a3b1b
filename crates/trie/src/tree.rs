//! [`RadixTree`]: a path-compressed binary (Patricia) trie with per-node
//! counts — the *aguri tree* of Cho et al., extended with the paper's
//! densify operation (§5.2.3) — and [`PrefixMap`], a generic
//! longest-prefix-match map used for BGP routing tables.

use std::fmt;
use v6census_addr::{Addr, Prefix, PrefixLen};

/// Structured failure of a trie structural operation.
///
/// The trie's internal invariants (an occupied slot stays occupied
/// across a restructure; canonical [`Prefix`] keys always diverge below
/// their common prefix) are *true* for every key the canonicalizing
/// `Prefix` type can represent, and are asserted with `debug_assert!` at
/// their sites. The fallible entry points ([`RadixTree::try_insert`],
/// [`PrefixMap::try_insert`]) exist so callers feeding the trie from
/// *untrusted* serialized data — a BGP routing snapshot attributing
/// ASNs, a persisted tree — get a structured error instead of a panic if
/// an invariant is ever observed broken (memory corruption, a future
/// non-canonical key type): the ASN-attribution path must never abort
/// the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrieError {
    /// An occupied slot was observed empty (or vice versa) during a
    /// restructure — the tree no longer matches its own bookkeeping.
    StructureCorrupt {
        /// The key being inserted when the corruption was observed.
        prefix: Prefix,
        /// The operation that observed it.
        site: &'static str,
    },
    /// Insertion descended more levels than a 128-bit key space permits
    /// — only possible if node prefixes stopped strictly lengthening.
    DepthExceeded {
        /// The key being inserted.
        prefix: Prefix,
    },
}

impl TrieError {
    /// A stable short label per variant, for reports and tests.
    pub const fn label(&self) -> &'static str {
        match self {
            TrieError::StructureCorrupt { .. } => "structure-corrupt",
            TrieError::DepthExceeded { .. } => "depth-exceeded",
        }
    }
}

impl fmt::Display for TrieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrieError::StructureCorrupt { prefix, site } => {
                write!(f, "trie structure corrupt inserting {prefix} ({site})")
            }
            TrieError::DepthExceeded { prefix } => {
                write!(f, "trie depth exceeded 128 bits inserting {prefix}")
            }
        }
    }
}

impl std::error::Error for TrieError {}

/// Descent depth at which [`TrieError::DepthExceeded`] fires: one level
/// per key bit, plus the root and one restructure re-entry.
const MAX_DEPTH: u16 = 130;

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
    /// Nodes folded away to satisfy the budget.
    pub folded: usize,
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
/// slots) addressed by `u32` handles, so steady-state insertion and
/// aggregation are allocation-free per address: inserts reuse freed
/// slots before growing the arena, and every aggregation pass runs in
/// scratch buffers retained across calls. The root package's
/// `tests/allocs.rs` counts the allocations of insertion, densify and
/// aggregation on a real synth day.
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
    // Scratch buffers reused across aggregation passes so the hot
    // capped-insert path never allocates per call once warm.
    scratch_order: Vec<(u32, u32)>,
    scratch_counts: Vec<u64>,
    scratch_sums: Vec<u64>,
}

impl Default for RadixTree {
    fn default() -> RadixTree {
        RadixTree {
            arena: Vec::new(),
            free: Vec::new(),
            root: NIL,
            total: 0,
            nodes: 0,
            scratch_order: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_sums: Vec::new(),
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

    /// Estimated heap footprint: node count × per-node arena slot size.
    /// Ignores allocator slack and vacant free-list slots, so treat it
    /// as a lower bound; the supervisor's budgets are expressed in nodes
    /// and use this only for reporting.
    pub fn approx_bytes(&self) -> usize {
        self.nodes * std::mem::size_of::<Node>()
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

    /// Inserts a host address and, when the tree has grown past
    /// `max_nodes`, immediately aggregates back down to half the cap —
    /// the aguri steady-state pattern for unbounded streams. Returns the
    /// number of nodes folded (0 when the budget was not hit).
    ///
    /// A `max_nodes` of 0 means "no budget".
    pub fn insert_addr_capped(&mut self, a: Addr, count: u64, max_nodes: usize) -> usize {
        self.insert_addr(a, count);
        if max_nodes > 0 && self.nodes > max_nodes {
            self.aggregate_to_size((max_nodes / 2).max(1))
        } else {
            0
        }
    }

    /// Inserts a host address with the given count (step 1 of §5.2.3).
    pub fn insert_addr(&mut self, a: Addr, count: u64) {
        self.insert(Prefix::host(a), count);
    }

    /// Inserts a prefix with the given count, accumulating when the exact
    /// prefix is already present.
    ///
    /// The fallible twin is [`RadixTree::try_insert`]; the error paths
    /// are unreachable for keys of the canonicalizing [`Prefix`] type,
    /// so this infallible form asserts them away in debug builds and, in
    /// release builds, preserves the inserted count by planting the key
    /// at the root rather than panicking.
    pub fn insert(&mut self, p: Prefix, count: u64) {
        if let Err(e) = self.try_insert(p, count) {
            // INVARIANT: `Prefix` is always canonical, which makes every
            // `TrieError` path unreachable (see `TrieError` docs).
            debug_assert!(false, "insert({p}, {count}): {e}");
            // Recovery without data loss: account the count at ::/0.
            self.total = self.total.saturating_add(count);
            if self.root != NIL && self.node(self.root).prefix == Prefix::ALL {
                let root = self.root;
                let node = self.node_mut(root);
                node.count = node.count.saturating_add(count);
                return;
            }
            let old_root = self.root;
            let fresh = self.alloc_node(Prefix::ALL, count);
            self.node_mut(fresh).children = [old_root, NIL];
            self.root = fresh;
        }
    }

    /// Inserts a prefix with the given count, reporting (instead of
    /// panicking on) a broken structural invariant — the entry point for
    /// trees built from untrusted serialized data.
    pub fn try_insert(&mut self, p: Prefix, count: u64) -> Result<(), TrieError> {
        // Iterative descent. The slot being considered is identified by
        // `(parent handle, child index)`, with a NIL parent meaning the
        // root slot. Every error check runs before any slot is written,
        // so a failed insert leaves the tree untouched.
        let mut parent = NIL;
        let mut which = 0usize;
        let mut depth: u16 = 0;
        loop {
            if depth > MAX_DEPTH {
                return Err(TrieError::DepthExceeded { prefix: p });
            }
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
                depth = depth.saturating_add(1);
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
            // excluded above, so cpl is strictly shorter than both keys
            // and — keys being canonical — the next bit of each differs.
            let cpl = p
                .addr()
                .common_prefix_len(node_prefix.addr())
                .min(p.len())
                .min(node_prefix.len());
            let branch_prefix = Prefix::new(p.addr(), cpl);
            let old_bit = side(node_prefix.addr(), cpl);
            let new_bit = side(p.addr(), cpl);
            debug_assert_ne!(old_bit, new_bit, "divergence must separate the keys");
            if old_bit == new_bit {
                // Release-build recovery: installing both subtrees on
                // one side would drop the old one silently. Nothing has
                // been written yet, so reporting is side-effect free.
                return Err(TrieError::StructureCorrupt {
                    prefix: node_prefix,
                    site: "insert/divergence",
                });
            }
            let branch = self.alloc_node(branch_prefix, 0);
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
        Ok(())
    }

    /// The count stored at exactly this prefix (0 when absent).
    pub fn get(&self, p: Prefix) -> u64 {
        let mut cur = self.root;
        while cur != NIL {
            let node = self.node(cur);
            if node.prefix == p {
                return node.count;
            }
            if !node.prefix.contains(p) {
                return 0;
            }
            cur = node.children[side(p.addr(), node.prefix.len())];
        }
        0
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

    /// Sum of counts in the subtree rooted at `p` — the number of observed
    /// addresses inside block `p` when the tree was built with
    /// [`RadixTree::insert_addr`].
    pub fn count_within(&self, p: Prefix) -> u64 {
        let mut cur = self.root;
        while cur != NIL {
            let node = self.node(cur);
            if p.contains(node.prefix) {
                return self.sum_below(cur);
            }
            if !node.prefix.contains(p) {
                return 0;
            }
            // p is strictly inside node's block; node.count belongs to
            // the shorter node.prefix, so only the matching child
            // subtree can intersect.
            cur = node.children[side(p.addr(), node.prefix.len())];
        }
        0
    }

    /// Sum of counts in the subtree rooted at `from` (iterative).
    fn sum_below(&self, from: u32) -> u64 {
        let mut work: Vec<u32> = Vec::with_capacity(32);
        work.push(from);
        let mut s = 0u64;
        let mut i = 0usize;
        while i < work.len() {
            let node = self.node(work[i]);
            s = s.saturating_add(node.count);
            for &c in &node.children {
                if c != NIL {
                    work.push(c);
                }
            }
            i += 1;
        }
        s
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
    /// exhaustion" application (§1). Each pass runs entirely in scratch
    /// buffers retained across calls, so the steady-state capped-insert
    /// path allocates nothing once warm.
    pub fn aggregate_to_size(&mut self, max_nodes: usize) -> usize {
        let start = self.nodes;
        while self.nodes > max_nodes.max(1) {
            if self.root == NIL {
                break;
            }
            // One bottom-up pass folding the smallest quartile of leaf
            // counts; repeat until within budget.
            let mut order = std::mem::take(&mut self.scratch_order);
            let mut counts = std::mem::take(&mut self.scratch_counts);
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
            let mut absorbed = std::mem::take(&mut self.scratch_sums);
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
            self.scratch_order = order;
            self.scratch_counts = counts;
            self.scratch_sums = absorbed;

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
            folded,
        }
    }

    /// Classic aguri aggregation (Cho et al.): counts below
    /// `threshold_fraction × total` are folded into ancestors; returns the
    /// surviving `(prefix, count)` aggregates in address order. The last
    /// resort aggregate is `::/0`.
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
// PrefixMap: generic longest-prefix-match map (BGP routing table)
// ---------------------------------------------------------------------------

struct MapNode<T> {
    prefix: Prefix,
    value: Option<T>,
    children: [Option<Box<MapNode<T>>>; 2],
}

/// A longest-prefix-match map from IPv6 prefixes to values — the shape of
/// a BGP routing table. Same Patricia structure as [`RadixTree`], carrying
/// an optional value instead of a count.
///
/// ```
/// use v6census_trie::PrefixMap;
/// let mut rt: PrefixMap<u32> = PrefixMap::new();
/// rt.insert("2001:db8::/32".parse().unwrap(), 64496);
/// rt.insert("2001:db8:ff::/48".parse().unwrap(), 64497);
/// let asn = rt.longest_match("2001:db8:ff::1".parse().unwrap());
/// assert_eq!(asn.map(|(p, v)| (p.len().get(), *v)), Some((48, 64497)));
/// ```
#[derive(Default)]
pub struct PrefixMap<T> {
    root: Option<Box<MapNode<T>>>,
    len: usize,
}

impl<T> PrefixMap<T> {
    /// Creates an empty map.
    pub fn new() -> PrefixMap<T> {
        PrefixMap { root: None, len: 0 }
    }

    /// Number of prefixes with values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefixes have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or replaces the value at `p`; returns the previous value.
    ///
    /// The fallible twin is [`PrefixMap::try_insert`]; with canonical
    /// [`Prefix`] keys the error paths are unreachable, so this form
    /// asserts them away in debug builds and drops the value (returning
    /// `None`) rather than panicking in release builds.
    pub fn insert(&mut self, p: Prefix, value: T) -> Option<T> {
        match self.try_insert(p, value) {
            Ok(old) => old,
            Err(e) => {
                // INVARIANT: unreachable for canonical keys, see TrieError.
                debug_assert!(false, "insert({p}): {e}");
                None
            }
        }
    }

    /// Inserts or replaces the value at `p`, reporting (instead of
    /// panicking on) a broken structural invariant. This is the entry
    /// point for maps built from untrusted serialized data — a BGP
    /// routing snapshot must not be able to abort ASN attribution.
    pub fn try_insert(&mut self, p: Prefix, value: T) -> Result<Option<T>, TrieError> {
        let node = Self::slot_for(&mut self.root, p, 0)?;
        let old = node.value.replace(value);
        if old.is_none() {
            self.len = self.len.saturating_add(1);
        }
        Ok(old)
    }

    /// Materializes a node for `p` using the same split logic as the
    /// counting tree, then returns it.
    fn slot_for(
        slot: &mut Option<Box<MapNode<T>>>,
        p: Prefix,
        depth: u16,
    ) -> Result<&mut MapNode<T>, TrieError> {
        if depth > MAX_DEPTH {
            return Err(TrieError::DepthExceeded { prefix: p });
        }
        // Decide on the structural action with a shared borrow, then act.
        enum Action {
            Create,
            Found,
            Descend(usize),
            SpliceAbove,
            Branch(Prefix),
        }
        let action = match slot.as_deref() {
            None => Action::Create,
            Some(node) if node.prefix == p => Action::Found,
            Some(node) if node.prefix.contains(p) => {
                Action::Descend(side(p.addr(), node.prefix.len()))
            }
            Some(node) if p.contains(node.prefix) => Action::SpliceAbove,
            Some(node) => {
                let cpl = p
                    .addr()
                    .common_prefix_len(node.prefix.addr())
                    .min(p.len())
                    .min(node.prefix.len());
                Action::Branch(Prefix::new(p.addr(), cpl))
            }
        };
        // Each occupied-slot arm re-observes the slot; the action match
        // above proved occupancy and nothing has touched the slot since,
        // so a miss means the structure changed under us.
        let corrupt = |site: &'static str| TrieError::StructureCorrupt { prefix: p, site };
        match action {
            Action::Create => Ok(slot.get_or_insert_with(|| {
                Box::new(MapNode {
                    prefix: p,
                    value: None,
                    children: [None, None],
                })
            })),
            Action::Found => {
                debug_assert!(slot.is_some(), "found node vanished");
                slot.as_deref_mut().ok_or_else(|| corrupt("map/found"))
            }
            Action::Descend(bit) => {
                let Some(node) = slot.as_deref_mut() else {
                    debug_assert!(false, "descend node vanished");
                    return Err(corrupt("map/descend"));
                };
                Self::slot_for(&mut node.children[bit], p, depth.saturating_add(1))
            }
            Action::SpliceAbove => {
                let Some(old) = slot.take() else {
                    debug_assert!(false, "splice node vanished");
                    return Err(corrupt("map/splice"));
                };
                let bit = side(old.prefix.addr(), p.len());
                let mut new_node = Box::new(MapNode {
                    prefix: p,
                    value: None,
                    children: [None, None],
                });
                new_node.children[bit] = Some(old);
                *slot = Some(new_node);
                slot.as_deref_mut().ok_or_else(|| corrupt("map/splice"))
            }
            Action::Branch(branch_prefix) => {
                let Some(old) = slot.take() else {
                    debug_assert!(false, "branch node vanished");
                    return Err(corrupt("map/branch"));
                };
                let old_bit = side(old.prefix.addr(), branch_prefix.len());
                let mut branch = Box::new(MapNode {
                    prefix: branch_prefix,
                    value: None,
                    children: [None, None],
                });
                branch.children[old_bit] = Some(old);
                *slot = Some(branch);
                // The branch now strictly contains p: recurse to create
                // it. A non-canonical key that kept colliding with the
                // restored subtree is caught by the depth guard.
                Self::slot_for(slot, p, depth.saturating_add(1))
            }
        }
    }

    /// The value stored at exactly `p`.
    pub fn get(&self, p: Prefix) -> Option<&T> {
        let mut cur = &self.root;
        while let Some(node) = cur {
            if node.prefix == p {
                return node.value.as_ref();
            }
            if !node.prefix.contains(p) {
                return None;
            }
            cur = &node.children[side(p.addr(), node.prefix.len())];
        }
        None
    }

    /// Longest-prefix match: the most specific `(prefix, value)` whose
    /// block contains `a`.
    pub fn longest_match(&self, a: Addr) -> Option<(Prefix, &T)> {
        let mut best: Option<(Prefix, &T)> = None;
        let mut cur = &self.root;
        while let Some(node) = cur {
            if !node.prefix.contains_addr(a) {
                break;
            }
            if let Some(v) = &node.value {
                best = Some((node.prefix, v));
            }
            let Some(i) = node.prefix.len().next_bit() else {
                break;
            };
            cur = &node.children[usize::from(a.bit(i))];
        }
        best
    }

    /// Iterates all `(prefix, value)` pairs in address order.
    pub fn entries(&self) -> Vec<(Prefix, &T)> {
        let mut out = Vec::new();
        fn walk<'a, T>(n: &'a Option<Box<MapNode<T>>>, out: &mut Vec<(Prefix, &'a T)>) {
            if let Some(node) = n {
                if let Some(v) = &node.value {
                    out.push((node.prefix, v));
                }
                let [c0, c1] = &node.children;
                walk(c0, out);
                walk(c1, out);
            }
        }
        walk(&self.root, &mut out);
        out.sort_by_key(|&(p, _)| p);
        out
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

    #[test]
    fn insert_and_get() {
        let mut t = RadixTree::new();
        t.insert(p("2001:db8::/32"), 5);
        t.insert(p("2001:db8::/32"), 2);
        t.insert_addr(a("2001:db8::1"), 1);
        assert_eq!(t.get(p("2001:db8::/32")), 7);
        assert_eq!(t.get(p("2001:db8::1/128")), 1);
        assert_eq!(t.get(p("2001:db9::/32")), 0);
        assert_eq!(t.total(), 8);
    }

    #[test]
    fn count_within_subtree() {
        let mut t = RadixTree::new();
        for s in ["2001:db8::1", "2001:db8::2", "2001:db8:1::1", "2400::1"] {
            t.insert_addr(a(s), 1);
        }
        assert_eq!(t.count_within(p("2001:db8::/32")), 3);
        assert_eq!(t.count_within(p("2001:db8::/64")), 2);
        assert_eq!(t.count_within(p("::/0")), 4);
        assert_eq!(t.count_within(p("2001:db9::/32")), 0);
        assert_eq!(t.count_within(p("2001:db8::1/128")), 1);
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
        assert!(t.count_within(p("::/0")) == total_before + 3);
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
        assert_eq!(t.count_within(p("::/0")), 15);
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
        let mut rt: PrefixMap<u32> = PrefixMap::new();
        rt.insert(p("2001:db8::/32"), 1);
        rt.insert(p("2001:db8:ff::/48"), 2);
        rt.insert(p("2400::/12"), 3);
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.longest_match(a("2001:db8::1")).map(|(_, v)| *v), Some(1));
        assert_eq!(
            rt.longest_match(a("2001:db8:ff::1")).map(|(_, v)| *v),
            Some(2)
        );
        assert_eq!(rt.longest_match(a("2400:1::1")).map(|(_, v)| *v), Some(3));
        assert_eq!(rt.longest_match(a("3000::1")), None);
    }

    #[test]
    fn prefix_map_replace_and_entries() {
        let mut rt: PrefixMap<&str> = PrefixMap::new();
        assert!(rt.is_empty());
        assert_eq!(rt.insert(p("2001:db8::/32"), "old"), None);
        assert_eq!(rt.insert(p("2001:db8::/32"), "new"), Some("old"));
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.get(p("2001:db8::/32")), Some(&"new"));
        assert_eq!(rt.get(p("2001:db8::/48")), None);
        let e = rt.entries();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].0, p("2001:db8::/32"));
    }

    #[test]
    fn try_insert_is_infallible_for_canonical_prefixes() {
        let mut t = RadixTree::new();
        for s in ["2001:db8::1", "2001:db8::4", "2400::1", "::"] {
            t.try_insert(Prefix::host(a(s)), 1).unwrap();
        }
        t.try_insert(p("::/0"), 2).unwrap();
        t.try_insert(p("2001:db8::/32"), 3).unwrap();
        assert_eq!(t.total(), 9);

        let mut rt: PrefixMap<u32> = PrefixMap::new();
        assert_eq!(rt.try_insert(p("2001:db8::/32"), 1).unwrap(), None);
        assert_eq!(rt.try_insert(p("2001:db8::/32"), 2).unwrap(), Some(1));
        rt.try_insert(p("::/0"), 0).unwrap();
        rt.try_insert(p("2001:db8:ff::/48"), 3).unwrap();
        assert_eq!(rt.len(), 3);
        assert_eq!(
            rt.longest_match(a("2001:db8:ff::9")).map(|(_, v)| *v),
            Some(3)
        );
    }

    #[test]
    fn trie_error_labels_and_display() {
        let e = TrieError::StructureCorrupt {
            prefix: p("2001:db8::/32"),
            site: "test",
        };
        assert_eq!(e.label(), "structure-corrupt");
        assert!(e.to_string().contains("2001:db8::/32"));
        let d = TrieError::DepthExceeded {
            prefix: p("::/128"),
        };
        assert_eq!(d.label(), "depth-exceeded");
        assert!(d.to_string().contains("depth"));
    }

    #[test]
    fn approx_bytes_tracks_node_count() {
        let mut t = RadixTree::new();
        assert_eq!(t.approx_bytes(), 0);
        t.insert_addr(a("2001:db8::1"), 1);
        let one = t.approx_bytes();
        assert!(one > 0);
        t.insert_addr(a("2400::1"), 1);
        assert!(t.approx_bytes() > one);
        assert_eq!(t.approx_bytes() % t.node_count(), 0);
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
        assert_eq!(free.folded, 0);
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
        assert!(b.folded > 0);
        assert!(b.nodes_after < b.nodes_before);
        assert_eq!(capped.total(), total, "budget must conserve counts");
        for d in &b.dense {
            assert!(d.count >= 16, "n floor must hold under degradation");
            assert!(
                capped.count_within(d.prefix) >= d.count,
                "reported count must be a real observed count"
            );
        }
    }

    #[test]
    fn insert_addr_capped_bounds_growth() {
        let mut t = RadixTree::new();
        let mut folded_total = 0usize;
        for i in 0..5_000u128 {
            folded_total += t.insert_addr_capped(Addr(a("2a00::").0 | (i * 0x1_0001)), 1, 256);
        }
        assert!(folded_total > 0, "cap must have fired");
        assert!(
            t.node_count() <= 256 + 2,
            "steady state must respect the cap, got {}",
            t.node_count()
        );
        assert_eq!(t.total(), 5_000, "capped ingestion conserves counts");
        // Unbudgeted path never folds.
        let mut free = RadixTree::new();
        for i in 0..500u128 {
            assert_eq!(free.insert_addr_capped(Addr(i << 80), 1, 0), 0);
        }
    }

    #[test]
    fn prefix_map_default_route() {
        let mut rt: PrefixMap<u32> = PrefixMap::new();
        rt.insert(p("::/0"), 0);
        rt.insert(p("2001:db8::/32"), 1);
        assert_eq!(rt.longest_match(a("9999::1")).map(|(_, v)| *v), Some(0));
        assert_eq!(rt.longest_match(a("2001:db8::1")).map(|(_, v)| *v), Some(1));
    }
}
