//! Symmetric orderings for sparse LDLᵀ factorization.
//!
//! Two orderings, for two different jobs:
//!
//! * [`Ordering::amd`] — approximate minimum degree followed by an
//!   elimination-tree postorder. This is the *fill-reducing* ordering: it
//!   minimises (greedily) the number of nonzeros of `L` and yields a bushy
//!   elimination tree, which is what a factorization that is analysed once
//!   and numerically replayed many times wants. The condensed-KKT cache of
//!   `gridsim-ipm` (`KktCache`, through [`crate::LdlSymbolic::analyze_amd`])
//!   is its production caller. On the 877-dimensional condensed system of
//!   the `Pegase1354` stand-in it produces 2.5× fewer nonzeros in `L` than
//!   RCM and an elimination tree a third as deep.
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

use crate::csc::Csc;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
        let degree: Vec<usize> = adj.iter().map(|l| l.len()).collect();

        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Process every connected component, starting each BFS from a
        // minimum-degree vertex (a cheap pseudo-peripheral heuristic).
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.sort_unstable_by_key(|&v| degree[v]);
        for &start in &nodes {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            let mut queue = VecDeque::new();
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                let mut neighbors: Vec<usize> =
                    adj[v].iter().copied().filter(|&u| !visited[u]).collect();
                neighbors.sort_unstable_by_key(|&u| degree[u]);
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
        let adj = symmetric_adjacency(a);
        let order = minimum_degree_order(&adj);
        Ordering::from_perm(etree_postorder(&adj, &order))
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

/// Adjacency lists of the graph of `A + A^T` without self-loops, each list
/// ascending and duplicate-free — the one normal form both orderings start
/// from, so neither depends on which triangle or entry order was supplied.
fn symmetric_adjacency(a: &Csc) -> Vec<Vec<usize>> {
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

/// Greedy approximate-minimum-degree elimination order (new-to-old) of the
/// graph `adj` on a quotient graph.
///
/// Every index is a variable until it is eliminated and an element
/// afterwards. A variable `i` keeps `vars[i]`, its neighbours through
/// original edges no element covers yet, and `elems[i]`, the elements it
/// belongs to; an element `e` keeps `vars[e]`, the variables of its clique.
/// Lists of live nodes name only live variables: eliminating a variable
/// absorbs every element that names it, and prunes it from the variable
/// lists of the new element's members.
fn minimum_degree_order(adj: &[Vec<usize>]) -> Vec<usize> {
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

/// Postorder of the elimination tree of `adj` under the elimination order
/// `order` (new-to-old), returned as the reordered new-to-old permutation:
/// children precede their parent, siblings and roots ascend by their
/// position in `order`.
fn etree_postorder(adj: &[Vec<usize>], order: &[usize]) -> Vec<usize> {
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
        for &u in &adj[v] {
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
mod tests {
    use super::*;
    use crate::coo::Coo;

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
