//! Symmetric orderings for sparse LDLᵀ factorization.
//!
//! Two orderings, for two different jobs:
//!
//! * [`Ordering::amd`] — approximate minimum degree followed by an
//!   elimination-tree postorder. This is the *fill-reducing* ordering: it
//!   minimises (greedily) the number of nonzeros of `L` and yields a bushy
//!   elimination tree, which is what a factorization that is analysed once
//!   and numerically replayed many times wants. The condensed-KKT cache of
//!   `gridsim-ipm` (`KktCache`) is its production caller, through
//!   [`Ordering::amd_symmetric`], which reads a pattern that is already
//!   symmetric as the graph itself. On the 877-dimensional condensed system
//!   of the `Pegase1354` stand-in it produces 2.5× fewer nonzeros in `L`
//!   than RCM and an elimination tree a third as deep; the elimination keeps
//!   every list in one flat workspace and the degrees in bitsets, and takes
//!   ≈ 0.5 ms there on a 2-core Xeon host.
//! * [`Ordering::rcm`] — reverse Cuthill–McKee. A *bandwidth* reducer: very
//!   cheap and good at clustering entries near the diagonal, but the
//!   envelope it produces fills in completely and its elimination tree is
//!   close to a chain. No solver path uses it. It stays as the ordering of
//!   [`crate::LdlFactor::factorize_rcm`], which factorizes the full
//!   augmented KKT system that the condensed Newton step of `gridsim-ipm`
//!   is tested against, of the tests' ordering oracle, and of the `perf`
//!   probes that describe the augmented KKT matrix.
//!
//! Both are deterministic functions of the pattern of `A + Aᵀ` without its
//! diagonal: either triangle, the full matrix, or any triplet order yields
//! the same permutation, and ties are broken by lowest original index. An
//! identity ordering exists for tests and already well-ordered matrices.

use crate::csc::{Csc, CscPattern};
use std::collections::VecDeque;

/// A symmetric permutation: `perm[k]` is the original index placed at
/// position `k`, `inv[old]` is the new position of original index `old`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ordering {
    /// New-to-old mapping.
    pub perm: Vec<usize>,
    /// Old-to-new mapping.
    pub inv: Vec<usize>,
}

impl Ordering {
    /// The identity ordering of size `n`.
    pub fn identity(n: usize) -> Self {
        Ordering {
            perm: (0..n).collect(),
            inv: (0..n).collect(),
        }
    }

    /// Build from a new-to-old permutation vector.
    pub fn from_perm(perm: Vec<usize>) -> Self {
        let mut inv = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        Ordering { perm, inv }
    }

    /// Reverse Cuthill–McKee ordering of the adjacency structure of a square
    /// symmetric matrix (the pattern of `A + A^T` is used, so either triangle
    /// may be supplied).
    pub fn rcm(a: &Csc) -> Self {
        assert_eq!(a.nrows, a.ncols, "RCM requires a square matrix");
        let n = a.ncols;
        let adj = symmetric_adjacency(a);
        let degree = |v: usize| adj.colptr[v + 1] - adj.colptr[v];

        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Process every connected component, starting each BFS from a
        // minimum-degree vertex (a cheap pseudo-peripheral heuristic).
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.sort_unstable_by_key(|&v| degree(v));
        for &start in &nodes {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            let mut queue = VecDeque::new();
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                let mut neighbors: Vec<usize> = adj
                    .column(v)
                    .iter()
                    .copied()
                    .filter(|&u| !visited[u])
                    .collect();
                neighbors.sort_unstable_by_key(|&u| degree(u));
                for u in neighbors {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
        order.reverse();
        Ordering::from_perm(order)
    }

    /// Approximate-minimum-degree ordering of a square symmetric matrix
    /// (the pattern of `A + A^T` without the diagonal, like [`Self::rcm`]),
    /// followed by a postorder of the elimination tree.
    ///
    /// The elimination runs on a quotient graph (Amestoy, Davis & Duff):
    /// eliminated pivots become *elements* holding their fill clique
    /// implicitly, elements met by a later pivot are absorbed into it, and
    /// each variable's degree is the ADD approximate external degree. The
    /// pivot is the variable of least approximate degree, lowest original
    /// index among equals. The postorder (children before their parent,
    /// children in ascending index) changes no fill; it makes the columns of
    /// every elimination-tree chain consecutive, which the supernode
    /// detection of [`crate::LdlSymbolic::analyze`] relies on.
    pub fn amd(a: &Csc) -> Self {
        assert_eq!(a.nrows, a.ncols, "AMD requires a square matrix");
        Self::amd_symmetric(&symmetric_adjacency(a))
    }

    /// [`Self::amd`] of a pattern that is already structurally symmetric
    /// (every `(i, j)` stored with its `(j, i)`), read as the adjacency
    /// itself: its diagonal is skipped and nothing is symmetrized or sorted
    /// first. On such a pattern it equals [`Self::amd`]; on any other it
    /// orders a graph that is not the matrix's.
    pub fn amd_symmetric(pattern: &CscPattern) -> Self {
        assert_eq!(pattern.nrows, pattern.ncols, "AMD requires a square matrix");
        let order = minimum_degree_order(pattern);
        Ordering::from_perm(etree_postorder(|v| pattern.column(v), &order))
    }

    /// Permute a vector into the new ordering: `out[new] = x[perm[new]]`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.perm.len());
        self.perm.iter().map(|&old| x[old]).collect()
    }

    /// Undo the permutation: `out[old] = x[inv[old]]`.
    pub fn apply_inverse(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.inv.len());
        self.inv.iter().map(|&new| x[new]).collect()
    }

    /// Size of the ordering.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the empty ordering.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }
}

/// The graph of `A + A^T` without self-loops as a symmetric pattern, every
/// column ascending and duplicate-free: the one normal form both orderings
/// start from, so neither depends on which triangle or entry order was
/// supplied. Both ends of every off-diagonal entry go through one
/// counting-sort compression.
fn symmetric_adjacency(a: &Csc) -> CscPattern {
    let n = a.ncols;
    let edges = |f: &mut dyn FnMut(usize, usize)| {
        for j in 0..n {
            for &i in &a.rowind[a.colptr[j]..a.colptr[j + 1]] {
                if i != j {
                    f(i, j);
                    f(j, i);
                }
            }
        }
    };
    CscPattern::from_coordinates(n, n, edges).0
}

/// Greedy approximate-minimum-degree elimination order (new-to-old) of the
/// graph of a symmetric pattern (its diagonal skipped), on a quotient graph.
///
/// Every index is a variable until it is eliminated and an element
/// afterwards. All lists live in one flat workspace `iw`, laid out as in
/// Amestoy, Davis & Duff's AMD: variable `i`'s list `iw[pe[i]..pe[i] +
/// len[i]]` holds first the `elen[i]` elements it belongs to, then its
/// neighbours through original edges no element covers yet; element `e`'s
/// list holds the variables of its clique. Lists of live nodes name only
/// live variables: eliminating a variable absorbs every element that names
/// it, its clique is appended to `iw` as the new element's list, and each
/// clique member's list is compacted in place — dead elements and fellow
/// members dropped, the new element added. That never lengthens it: a
/// member loses at least the pivot or an element the pivot absorbed.
fn minimum_degree_order(pattern: &CscPattern) -> Vec<usize> {
    let n = pattern.ncols;
    let mut iw: Vec<usize> = Vec::with_capacity(2 * pattern.nnz() + n);
    let mut pe = vec![0usize; n];
    let mut len = vec![0usize; n];
    let mut elen = vec![0usize; n];
    for i in 0..n {
        pe[i] = iw.len();
        iw.extend(pattern.column(i).iter().filter(|&&j| j != i));
        len[i] = iw.len() - pe[i];
    }
    let mut degree = len.clone();
    let mut is_element = vec![false; n];
    // `in_pivot[i] == p` marks `i` as a member of pivot `p`'s clique (or `p`
    // itself); pivots are distinct, so the marks never need clearing.
    let mut in_pivot = vec![usize::MAX; n];
    // `outside[e] - base` is |L_e \ L_p| for the elements touched by the
    // current pivot; `base` grows past every stored value between pivots.
    let mut outside = vec![0usize; n];
    let mut base = 1usize;
    let mut buckets = DegreeBuckets::new(n);
    for (i, &d) in degree.iter().enumerate() {
        buckets.insert(d, i);
    }
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let p = buckets.pop_least();
        order.push(p);

        // L_p, appended to `iw`: p's uncovered neighbours plus the cliques
        // of its elements, which p's new element absorbs.
        let clique_start = iw.len();
        let p_elements = pe[p]..pe[p] + elen[p];
        in_pivot[p] = p;
        for k in p_elements.end..pe[p] + len[p] {
            let i = iw[k];
            in_pivot[i] = p;
            iw.push(i);
        }
        for k in p_elements {
            let e = iw[k];
            if !is_element[e] {
                continue;
            }
            is_element[e] = false;
            for m in pe[e]..pe[e] + len[e] {
                let i = iw[m];
                if in_pivot[i] != p {
                    in_pivot[i] = p;
                    iw.push(i);
                }
            }
        }
        let clique = clique_start..iw.len();
        if clique.len() == n - order.len() {
            // Every uneliminated variable is in p's clique. Then every
            // element and edge of each is covered by p, so all take the same
            // degree, and so on at every pivot after: the rest go in
            // ascending index order.
            order.extend((0..n).filter(|&i| in_pivot[i] == p && i != p));
            break;
        }

        // |L_e \ L_p| for every element adjacent to the clique: start from
        // |L_e| on first sight and take one off per shared member. Absorbed
        // elements still named in a list are counted too, harmlessly:
        // nothing reads their count, and skipping them would be a branch as
        // good as random (this loop and the next avoid those).
        for &i in &iw[clique.clone()] {
            for &e in &iw[pe[i]..pe[i] + elen[i]] {
                let seen = outside[e];
                outside[e] = if seen < base { base + len[e] } else { seen } - 1;
            }
        }

        let remaining = n - order.len();
        let others = clique.len().saturating_sub(1);
        for c in clique.clone() {
            let i = iw[c];
            let start = pe[i];
            // Compact i's list in place: the elements still adding something
            // p does not, then the variables outside the clique (edges into
            // the clique, and to p, are now covered by element p).
            let mut w = start;
            let mut external = 0;
            for k in start..start + elen[i] {
                let e = iw[k];
                // An element with L_e ⊆ L_p adds nothing p does not: p
                // absorbs it (aggressive absorption).
                let out = outside[e].wrapping_sub(base);
                let kept = is_element[e] && out != 0;
                is_element[e] = kept;
                external += if kept { out } else { 0 };
                iw[w] = e;
                w += usize::from(kept);
            }
            let first_variable = w;
            for k in start + elen[i]..start + len[i] {
                let j = iw[k];
                iw[w] = j;
                w += usize::from(in_pivot[j] != p);
            }
            external += w - first_variable;
            // Element p joins the element part: the first variable moves to
            // the slot past the last, which a dropped entry freed.
            iw[w] = iw[first_variable];
            iw[first_variable] = p;
            elen[i] = first_variable - start + 1;
            len[i] = w - start + 1;
            let d = (degree[i].min(external) + others).min(remaining - 1);
            if d != degree[i] {
                buckets.remove(degree[i], i);
                buckets.insert(d, i);
                degree[i] = d;
            }
        }
        base += n + 1;
        if !clique.is_empty() {
            is_element[p] = true;
            pe[p] = clique.start;
            len[p] = clique.len();
            elen[p] = 0;
        }
    }
    order
}

/// The uneliminated variables of every approximate degree, one bitset over
/// the indices per degree: the pivot is the lowest index of the least degree
/// held, and a degree change moves one bit. The bitsets share one array; a
/// degree's is added the first time a variable takes that degree, so there
/// are as many as distinct degrees reached (122 of 14 words on the
/// 877-dimensional condensed ACOPF system).
struct DegreeBuckets {
    /// Words per bitset.
    words: usize,
    bits: Vec<u64>,
    /// Where degree `d`'s bitset starts in `bits` (`usize::MAX` before
    /// its first variable).
    at: Vec<usize>,
    count: Vec<usize>,
    /// No degree below this holds a variable.
    least: usize,
}

impl DegreeBuckets {
    fn new(n: usize) -> Self {
        DegreeBuckets {
            words: n.div_ceil(64),
            bits: Vec::new(),
            at: vec![usize::MAX; n],
            count: vec![0; n],
            least: 0,
        }
    }

    fn insert(&mut self, d: usize, i: usize) {
        if self.at[d] == usize::MAX {
            self.at[d] = self.bits.len();
            self.bits.resize(self.bits.len() + self.words, 0);
        }
        self.bits[self.at[d] + i / 64] |= 1 << (i % 64);
        self.count[d] += 1;
        self.least = self.least.min(d);
    }

    fn remove(&mut self, d: usize, i: usize) {
        self.bits[self.at[d] + i / 64] &= !(1 << (i % 64));
        self.count[d] -= 1;
    }

    /// Remove and return the lowest index of the least degree held.
    fn pop_least(&mut self) -> usize {
        while self.count[self.least] == 0 {
            self.least += 1;
        }
        let d = self.least;
        let set = &self.bits[self.at[d]..self.at[d] + self.words];
        let w = set
            .iter()
            .position(|&bits| bits != 0)
            .expect("a held degree has a variable");
        let i = 64 * w + set[w].trailing_zeros() as usize;
        self.remove(d, i);
        i
    }
}

/// Postorder of the elimination tree of the graph `neighbours` under the
/// elimination order `order` (new-to-old), returned as the reordered
/// new-to-old permutation: children precede their parent, siblings and roots
/// ascend by their position in `order`. A node listed among its own
/// neighbours is ignored.
fn etree_postorder<'a>(neighbours: impl Fn(usize) -> &'a [usize], order: &[usize]) -> Vec<usize> {
    let n = order.len();
    let none = usize::MAX;
    let mut position = vec![0usize; n];
    for (k, &v) in order.iter().enumerate() {
        position[v] = k;
    }
    // Liu's elimination-tree algorithm with path compression, in positions.
    let mut parent = vec![none; n];
    let mut ancestor = vec![none; n];
    for (k, &v) in order.iter().enumerate() {
        for &u in neighbours(v) {
            let mut r = position[u];
            if r >= k {
                continue;
            }
            while ancestor[r] != none && ancestor[r] != k {
                let next = ancestor[r];
                ancestor[r] = k;
                r = next;
            }
            if ancestor[r] == none {
                ancestor[r] = k;
                parent[r] = k;
            }
        }
    }
    // Child lists, ascending: push in descending order onto each head.
    let mut first_child = vec![none; n];
    let mut next_sibling = vec![none; n];
    for k in (0..n).rev() {
        if parent[k] != none {
            next_sibling[k] = first_child[parent[k]];
            first_child[parent[k]] = k;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in (0..n).filter(|&k| parent[k] == none) {
        stack.push(root);
        while let Some(&top) = stack.last() {
            let child = first_child[top];
            if child == none {
                stack.pop();
                post.push(order[top]);
            } else {
                first_child[top] = next_sibling[child];
                stack.push(child);
            }
        }
    }
    post
}

/// Half-bandwidth of a square matrix (testing helper for ordering quality).
pub fn bandwidth(a: &Csc) -> usize {
    let mut bw = 0usize;
    for j in 0..a.ncols {
        for p in a.colptr[j]..a.colptr[j + 1] {
            let i = a.rowind[p];
            bw = bw.max(i.abs_diff(j));
        }
    }
    bw
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coo::Coo;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The parent's ordering, kept as the oracle [`Ordering::amd`] is
    /// pinned to: adjacency as one sorted `Vec` per node, and the quotient
    /// graph's lists as `Vec<Vec<usize>>` pruned with `retain`.
    fn parent_amd(a: &Csc) -> Ordering {
        let adj = parent_symmetric_adjacency(a);
        let order = parent_minimum_degree_order(&adj);
        Ordering::from_perm(etree_postorder(|v| &adj[v], &order))
    }

    fn parent_symmetric_adjacency(a: &Csc) -> Vec<Vec<usize>> {
        let n = a.ncols;
        // A symmetric input lists every edge from both ends, and each end pushes
        // to both lists: twice the column count holds that without regrowth.
        let mut adj: Vec<Vec<usize>> = (0..n)
            .map(|j| Vec::with_capacity(2 * (a.colptr[j + 1] - a.colptr[j])))
            .collect();
        for j in 0..n {
            for p in a.colptr[j]..a.colptr[j + 1] {
                let i = a.rowind[p];
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    fn parent_minimum_degree_order(adj: &[Vec<usize>]) -> Vec<usize> {
        let n = adj.len();
        let mut vars: Vec<Vec<usize>> = adj.to_vec();
        let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut degree: Vec<usize> = vars.iter().map(Vec::len).collect();
        let mut is_variable = vec![true; n];
        let mut is_element = vec![false; n];
        // `in_pivot[i] == p` marks `i` as a member of pivot `p`'s clique (or `p`
        // itself); pivots are distinct, so the marks never need clearing.
        let mut in_pivot = vec![usize::MAX; n];
        // `outside[e] - base` is |L_e \ L_p| for the elements touched by the
        // current pivot; `base` grows past every stored value between pivots.
        let mut outside = vec![0usize; n];
        let mut base = 1usize;
        // One lazy-deletion heap per degree: an entry of `buckets[d]` is current
        // while its variable is uneliminated and carries degree `d`; stale ones
        // are skipped when popped, and those of buckets the pivot search never
        // returns to are never touched again. Each bucket pops its lowest index.
        let mut buckets: Vec<BinaryHeap<Reverse<usize>>> = vec![BinaryHeap::new(); n];
        for (i, &d) in degree.iter().enumerate() {
            buckets[d].push(Reverse(i));
        }
        let mut least = 0usize;
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let p = loop {
                match buckets[least].pop() {
                    Some(Reverse(i)) if is_variable[i] && degree[i] == least => break i,
                    Some(_) => {}
                    None => least += 1,
                }
            };
            is_variable[p] = false;
            order.push(p);

            // L_p: p's uncovered neighbours plus the cliques of its elements,
            // which p's new element absorbs.
            let mut clique = std::mem::take(&mut vars[p]);
            in_pivot[p] = p;
            for &i in &clique {
                in_pivot[i] = p;
            }
            for e in std::mem::take(&mut elems[p]) {
                if !is_element[e] {
                    continue;
                }
                is_element[e] = false;
                for i in std::mem::take(&mut vars[e]) {
                    if in_pivot[i] != p {
                        in_pivot[i] = p;
                        clique.push(i);
                    }
                }
            }

            // |L_e \ L_p| for every element adjacent to the clique: start from
            // |L_e| on first sight and take one off per shared member.
            for &i in &clique {
                for &e in &elems[i] {
                    if !is_element[e] {
                        continue;
                    }
                    if outside[e] < base {
                        outside[e] = base + vars[e].len();
                    }
                    outside[e] -= 1;
                }
            }

            let remaining = n - order.len();
            let others = clique.len().saturating_sub(1);
            for &i in &clique {
                // Edges into the clique (and to p) are now covered by element p.
                vars[i].retain(|&j| in_pivot[j] != p);
                let mut external = vars[i].len();
                elems[i].retain(|&e| {
                    if !is_element[e] {
                        return false;
                    }
                    let out = outside[e] - base;
                    if out == 0 {
                        // L_e ⊆ L_p: e adds nothing p does not (aggressive
                        // absorption).
                        is_element[e] = false;
                        vars[e] = Vec::new();
                        return false;
                    }
                    external += out;
                    true
                });
                elems[i].push(p);
                let d = (degree[i].min(external) + others).min(remaining - 1);
                if d != degree[i] {
                    degree[i] = d;
                    buckets[d].push(Reverse(i));
                    least = least.min(d);
                }
            }
            base += n + 1;
            if !clique.is_empty() {
                is_element[p] = true;
                vars[p] = clique;
            }
        }
        order
    }

    /// A path graph's Laplacian-like matrix but with the nodes scrambled,
    /// which has large bandwidth until reordered.
    fn scrambled_path(n: usize) -> Csc {
        let map: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(map[i], map[i], 2.0);
            if i + 1 < n {
                coo.push(map[i], map[i + 1], -1.0);
                coo.push(map[i + 1], map[i], -1.0);
            }
        }
        coo.to_csc()
    }

    /// A random `n × n` pattern of one of five shapes — a sparse random
    /// graph (often disconnected), a block diagonal of dense-ish blocks,
    /// arrows (hubs coupled to every node), dense rows over a sparse rest, a
    /// band — given as both triangles, one triangle or a random mix of the
    /// two, with duplicated entries and with or without its diagonal.
    pub(crate) fn random_pattern(seed: u64, n: usize) -> Csc {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        let sparse = |rng: &mut SmallRng, edges: &mut Vec<(usize, usize)>, p: f64| {
            for i in 0..n {
                for j in i + 1..n {
                    if rng.gen_bool(p) {
                        edges.push((i, j));
                    }
                }
            }
        };
        match rng.gen_range(0..5) {
            0 => {
                let p = rng.gen_range(0.0..0.3);
                sparse(&mut rng, &mut edges, p);
            }
            1 => {
                let mut start = 0;
                while start < n {
                    let end = (start + rng.gen_range(1..=8usize)).min(n);
                    for i in start..end {
                        for j in i + 1..end {
                            if rng.gen_bool(0.6) {
                                edges.push((i, j));
                            }
                        }
                    }
                    start = end;
                }
            }
            2 if n > 0 => {
                for _ in 0..rng.gen_range(1..=3) {
                    let hub = rng.gen_range(0..n);
                    edges.extend(
                        (0..n)
                            .filter(|&j| j != hub)
                            .map(|j| (hub.min(j), hub.max(j))),
                    );
                }
                sparse(&mut rng, &mut edges, 0.05);
            }
            3 if n > 0 => {
                for _ in 0..rng.gen_range(1..=4) {
                    let row = rng.gen_range(0..n);
                    for j in (0..n).filter(|&j| j != row) {
                        if rng.gen_bool(0.8) {
                            edges.push((row.min(j), row.max(j)));
                        }
                    }
                }
                sparse(&mut rng, &mut edges, 0.05);
            }
            _ => {
                let width = rng.gen_range(1..=4usize);
                for i in 0..n {
                    edges.extend((i + 1..(i + width + 1).min(n)).map(|j| (i, j)));
                }
            }
        }
        let presentation = rng.gen_range(0..3);
        let mut coo = Coo::new(n, n);
        for &(i, j) in &edges {
            for _ in 0..1 + usize::from(rng.gen_bool(0.2)) {
                match presentation {
                    0 => {
                        coo.push(i, j, 1.0);
                        coo.push(j, i, 1.0);
                    }
                    1 => coo.push(i, j, 1.0),
                    _ if rng.gen_bool(0.5) => coo.push(i, j, 1.0),
                    _ => coo.push(j, i, 1.0),
                }
            }
        }
        if rng.gen_bool(0.7) {
            for i in 0..n {
                coo.push(i, i, 1.0);
            }
        }
        coo.to_csc()
    }

    /// The pattern of `A + Aᵀ`, diagonal included.
    pub(crate) fn symmetrized(a: &Csc) -> Csc {
        let mut coo = Coo::new(a.nrows, a.ncols);
        for j in 0..a.ncols {
            for &i in &a.rowind[a.colptr[j]..a.colptr[j + 1]] {
                coo.push(i, j, 1.0);
                coo.push(j, i, 1.0);
            }
        }
        coo.to_csc()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The flat-workspace AMD orders every pattern exactly as the
        /// parent's `Vec<Vec<usize>>` one did, from any triangle, with
        /// duplicates; and reading an already symmetric pattern as the
        /// adjacency gives the same permutation.
        #[test]
        fn amd_matches_the_parent_ordering_on_random_patterns(
            seed in 0u64..u64::MAX,
            n in 0usize..70,
        ) {
            let a = random_pattern(seed, n);
            let amd = Ordering::amd(&a);
            prop_assert_eq!(&amd, &parent_amd(&a));
            prop_assert_eq!(&Ordering::amd_symmetric(&symmetrized(&a).pattern()), &amd);
        }
    }

    #[test]
    fn amd_matches_the_parent_ordering_on_empty_and_one_by_one_matrices() {
        for a in [Csc::zeros(0, 0), Csc::zeros(1, 1), Csc::identity(1)] {
            let amd = Ordering::amd(&a);
            assert_eq!(amd, parent_amd(&a));
            assert_eq!(Ordering::amd_symmetric(&a.pattern()), amd);
            assert!(is_permutation(&amd, a.ncols));
        }
    }

    #[test]
    fn identity_roundtrip() {
        let o = Ordering::identity(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(o.apply(&x), x);
        assert_eq!(o.apply_inverse(&x), x);
    }

    #[test]
    fn perm_and_inverse_are_inverses() {
        let o = Ordering::from_perm(vec![2, 0, 3, 1]);
        let x = vec![10.0, 20.0, 30.0, 40.0];
        let y = o.apply(&x);
        let back = o.apply_inverse(&y);
        assert_eq!(back, x);
    }

    #[test]
    fn rcm_is_a_permutation() {
        let a = scrambled_path(50);
        let o = Ordering::rcm(&a);
        let mut seen = [false; 50];
        for &p in &o.perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_path() {
        let a = scrambled_path(97);
        let before = bandwidth(&a);
        let o = Ordering::rcm(&a);
        let after = bandwidth(&a.symmetric_permute(&o.perm));
        assert!(
            after < before / 4,
            "bandwidth should drop substantially: before {before}, after {after}"
        );
        // A path graph ordered well has bandwidth 1.
        assert!(after <= 3, "path bandwidth after RCM is {after}");
    }

    fn is_permutation(o: &Ordering, n: usize) -> bool {
        let mut sorted = o.perm.clone();
        sorted.sort_unstable();
        o.len() == n && sorted == (0..n).collect::<Vec<_>>()
    }

    /// Symmetric matrix with unit diagonal and the given off-diagonal pairs.
    fn from_edges(n: usize, edges: &[(usize, usize)]) -> Csc {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for &(i, j) in edges {
            coo.push(i, j, 1.0);
            coo.push(j, i, 1.0);
        }
        coo.to_csc()
    }

    /// Strictly-lower nonzeros of `L` when `a` is eliminated in `o`'s order.
    fn fill(a: &Csc, o: &Ordering) -> usize {
        let permuted = a.symmetric_permute(&o.perm).upper_triangle();
        crate::symbolic::Symbolic::analyze(&permuted).total_lnz()
    }

    #[test]
    fn amd_is_a_permutation_on_degenerate_patterns() {
        let dense: Vec<(usize, usize)> = (0..6)
            .flat_map(|i| (i + 1..6).map(move |j| (i, j)))
            .collect();
        let star: Vec<(usize, usize)> = (1..9).map(|i| (0, i)).collect();
        for (n, edges) in [
            (0, vec![]),
            (1, vec![]),
            (5, vec![]),                       // diagonal only
            (7, vec![(0, 1), (2, 3), (3, 4)]), // disconnected, isolated 5 and 6
            (6, dense),
            (9, star),
        ] {
            let o = Ordering::amd(&from_edges(n, &edges));
            assert!(is_permutation(&o, n), "n = {n}: {:?}", o.perm);
        }
    }

    #[test]
    fn amd_ignores_triangle_and_entry_order() {
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| [(i, (i * 7 + 3) % n), (i, (i * 11 + 5) % n)])
            .filter(|(i, j)| i != j)
            .collect();
        let full = from_edges(n, &edges);
        let reference = Ordering::amd(&full);
        assert!(is_permutation(&reference, n));
        let lower = {
            let mut coo = Coo::new(n, n);
            for &(i, j) in &edges {
                coo.push(i.max(j), i.min(j), 1.0);
            }
            coo.to_csc()
        };
        let shuffled = {
            // Same entries as `full`, pushed back to front, no diagonal.
            let mut coo = Coo::new(n, n);
            for &(i, j) in edges.iter().rev() {
                coo.push(j, i, 2.0);
                coo.push(i, j, 2.0);
            }
            coo.to_csc()
        };
        for (name, variant) in [
            ("upper", full.upper_triangle()),
            ("lower", lower),
            ("shuffled", shuffled),
        ] {
            assert_eq!(Ordering::amd(&variant), reference, "{name} triangle");
        }
    }

    #[test]
    fn amd_orders_the_hub_of_an_arrow_last() {
        // Eliminating the hub first fills the whole matrix; minimum degree
        // keeps it for last and fills nothing. (The hub carries the highest
        // index so the final degree-1 tie with the last spoke goes to the
        // spoke.)
        let n = 12;
        let hub = n - 1;
        let spokes: Vec<(usize, usize)> = (0..hub).map(|i| (hub, i)).collect();
        let a = from_edges(n, &spokes);
        let o = Ordering::amd(&a);
        assert_eq!(o.perm[n - 1], hub, "hub position in {:?}", o.perm);
        assert_eq!(fill(&a, &o), n - 1);
        let hub_first = Ordering::from_perm((0..n).rev().collect());
        assert_eq!(fill(&a, &hub_first), n * (n - 1) / 2);
    }

    #[test]
    fn amd_fills_less_than_rcm_on_a_grid_and_postorders_its_tree() {
        // 5-point stencil on a 9×9 grid: the textbook case where bandwidth
        // reduction fills the envelope and minimum degree does not.
        let side = 9;
        let n = side * side;
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    edges.push((r * side + c, r * side + c + 1));
                }
                if r + 1 < side {
                    edges.push((r * side + c, (r + 1) * side + c));
                }
            }
        }
        let a = from_edges(n, &edges);
        let amd = Ordering::amd(&a);
        let (fill_amd, fill_rcm) = (fill(&a, &amd), fill(&a, &Ordering::rcm(&a)));
        assert!(fill_amd < fill_rcm, "amd {fill_amd} vs rcm {fill_rcm}");

        // A postordered elimination tree: parents follow their children and
        // every subtree is one contiguous index range ending at its root.
        let permuted = a.symmetric_permute(&amd.perm).upper_triangle();
        let parent = crate::symbolic::Symbolic::analyze(&permuted).parent;
        let mut first: Vec<usize> = (0..n).collect();
        let mut size = vec![1usize; n];
        for i in 0..n {
            // Children precede i, so its subtree is complete here.
            assert_eq!(i - first[i] + 1, size[i], "subtree of {i} has gaps");
            let p = parent[i];
            if p != usize::MAX {
                assert!(p > i, "parent {p} of {i} precedes it");
                first[p] = first[p].min(first[i]);
                size[p] += size[i];
            }
        }
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // Two disjoint 2-cycles.
        let mut coo = Coo::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        let o = Ordering::rcm(&coo.to_csc());
        assert_eq!(o.len(), 4);
        let mut sorted = o.perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
