//! Independent computations the benchmark checks the program's answers
//! against. None of them calls into the repository's crates: each is a
//! direct computation over the generator's own data (BFS, `BTreeSet`
//! algebra, plain sums), so a wrong answer from the engine cannot be
//! mirrored by a wrong answer here.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A digraph over node ids `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
}

impl Graph {
    pub fn new(edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::default();
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    pub fn add_edge(&mut self, a: usize, b: usize) {
        let n = a.max(b) + 1;
        if self.succ.len() < n {
            self.succ.resize(n, Vec::new());
            self.pred.resize(n, Vec::new());
        }
        if !self.succ[a].contains(&b) {
            self.succ[a].push(b);
            self.pred[b].push(a);
        }
    }

    pub fn nodes(&self) -> usize {
        self.succ.len()
    }

    pub fn succ(&self, a: usize) -> &[usize] {
        self.succ.get(a).map_or(&[], Vec::as_slice)
    }

    /// Nodes reachable from `s` by one or more edges (`t(s, Y)`).
    pub fn reach(&self, s: usize) -> BTreeSet<usize> {
        bfs(&self.succ, s)
    }

    /// Nodes that reach `d` by one or more edges (`t(X, d)`).
    pub fn reached_by(&self, d: usize) -> BTreeSet<usize> {
        bfs(&self.pred, d)
    }

    /// The whole transitive closure as `(from, to)` pairs.
    pub fn closure(&self) -> BTreeSet<(usize, usize)> {
        (0..self.nodes())
            .flat_map(|s| self.reach(s).into_iter().map(move |y| (s, y)))
            .collect()
    }
}

fn bfs(adj: &[Vec<usize>], s: usize) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<usize> = adj.get(s).into_iter().flatten().copied().collect();
    while let Some(x) = queue.pop_front() {
        if seen.insert(x) {
            queue.extend(adj.get(x).into_iter().flatten().copied());
        }
    }
    seen
}

/// One literal of a path-shaped conjunctive goal over `e` and `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `e(A, B)`: one edge.
    Edge,
    /// `t(A, B)`: one or more edges.
    Reach,
}

/// Answers of the goal `p1(s, X1), p2(X1, X2), …, pL(X(L-1), end)`:
/// with `end = Some(d)` the last argument is the constant `d` and the
/// rows bind `X1..X(L-1)`; with `end = None` it is a free `XL` and the
/// rows bind `X1..XL`.
pub fn path_goal(g: &Graph, s: usize, steps: &[Step], end: Option<usize>) -> BTreeSet<Vec<usize>> {
    let next = |x: usize, step: Step| -> Vec<usize> {
        match step {
            Step::Edge => g.succ(x).to_vec(),
            Step::Reach => g.reach(x).into_iter().collect(),
        }
    };
    let mut partial: Vec<(usize, Vec<usize>)> = vec![(s, Vec::new())];
    for (i, &step) in steps.iter().enumerate() {
        let last = i + 1 == steps.len();
        let mut grown = Vec::new();
        for (x, row) in &partial {
            for y in next(*x, step) {
                match (last, end) {
                    (true, Some(d)) => {
                        if y == d {
                            grown.push((y, row.clone()));
                        }
                    }
                    _ => {
                        let mut r = row.clone();
                        r.push(y);
                        grown.push((y, r));
                    }
                }
            }
        }
        partial = grown;
    }
    partial.into_iter().map(|(_, row)| row).collect()
}

/// Example 1: `disj(X, Y)` holds iff the two sets share no element.
pub fn disjoint(x: &BTreeSet<usize>, y: &BTreeSet<usize>) -> bool {
    x.intersection(y).next().is_none()
}

/// The `∀`-trigger program: `all_grown(S)` holds iff every element of
/// `S` is reachable from the seedling by zero or more `next` edges.
pub fn grown(next: &Graph, seedling: usize) -> BTreeSet<usize> {
    let mut out = next.reach(seedling);
    out.insert(seedling);
    out
}

/// LDL grouping `grp(K, <V>) :- item(K, V)`: one set per key.
pub fn group(items: &[(usize, usize)]) -> BTreeMap<usize, BTreeSet<usize>> {
    let mut out: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for &(k, v) in items {
        out.entry(k).or_default().insert(v);
    }
    out
}

/// Example 4's unnest `s(X, Y) :- r(X, Ys), Y in Ys`: one row per
/// (row, element) pair.
pub fn unnest(rows: &[BTreeSet<usize>]) -> BTreeSet<(usize, usize)> {
    rows.iter()
        .enumerate()
        .flat_map(|(r, set)| set.iter().map(move |&e| (r, e)))
        .collect()
}

/// The bill of materials rolled up directly: the sum of the part costs.
pub fn bom_cost(costs: &[i64]) -> i64 {
    costs.iter().sum()
}

/// The chain of stratified negation: `p(s)` keeps the values of
/// `p(s-1)` that stratum `s` did not mark.
pub fn strata_survivors(facts: usize, marked: &[usize]) -> BTreeSet<usize> {
    let mut alive: BTreeSet<usize> = (0..facts).collect();
    for m in marked {
        alive.remove(m);
    }
    alive
}

/// Example 3's union body: `u(X, Y, Z)` holds iff `Z = X ∪ Y`.
pub fn is_union(x: &BTreeSet<usize>, y: &BTreeSet<usize>, z: &BTreeSet<usize>) -> bool {
    x.union(y).copied().collect::<BTreeSet<usize>>() == *z
}

/// The three-way join `out(X, Z) :- a(X, Y), b(Y, Z), c(Z, X)`.
pub fn triangle(
    a: &[(usize, usize)],
    b: &[(usize, usize)],
    c: &[(usize, usize)],
) -> BTreeSet<(usize, usize)> {
    let c: BTreeSet<(usize, usize)> = c.iter().copied().collect();
    let mut b_from: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(y, z) in b {
        b_from.entry(y).or_default().push(z);
    }
    let mut out = BTreeSet::new();
    for &(x, y) in a {
        for &z in b_from.get(&y).into_iter().flatten() {
            if c.contains(&(z, x)) {
                out.insert((x, z));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(xs: &[usize]) -> BTreeSet<usize> {
        xs.iter().copied().collect()
    }

    #[test]
    fn reach_on_a_chain_and_a_cycle() {
        // 0 → 1 → 2, and 3 → 4 → 3.
        let g = Graph::new(&[(0, 1), (1, 2), (3, 4), (4, 3)]);
        assert_eq!(g.reach(0), set(&[1, 2]));
        assert_eq!(g.reach(2), set(&[]));
        assert_eq!(g.reach(3), set(&[3, 4]), "a cycle reaches itself");
        assert_eq!(g.reached_by(2), set(&[0, 1]));
        let tc = g.closure();
        assert_eq!(tc.len(), 3 + 4);
        assert!(tc.contains(&(0, 2)) && !tc.contains(&(2, 0)));
    }

    #[test]
    fn added_edges_extend_reach() {
        let mut g = Graph::new(&[(0, 1)]);
        g.add_edge(1, 5);
        assert_eq!(g.reach(0), set(&[1, 5]));
        assert_eq!(g.nodes(), 6);
        assert_eq!(g.reach(3), set(&[]));
    }

    #[test]
    fn path_goals_bind_their_variables() {
        // 0 → 1 → 2 → 3 and a chord 0 → 2.
        let g = Graph::new(&[(0, 1), (1, 2), (2, 3), (0, 2)]);
        // e(0, X1), e(X1, X2): 0→1→2 and 0→2→3.
        let rows = path_goal(&g, 0, &[Step::Edge, Step::Edge], None);
        assert_eq!(rows, [vec![1, 2], vec![2, 3]].into_iter().collect());
        // e(0, X1), t(X1, 3): X1 ∈ {1, 2}.
        let rows = path_goal(&g, 0, &[Step::Edge, Step::Reach], Some(3));
        assert_eq!(rows, [vec![1], vec![2]].into_iter().collect());
        // t(0, X1), e(X1, 2): X1 ∈ {1}; 0 is not reached from 0.
        let rows = path_goal(&g, 0, &[Step::Reach, Step::Edge], Some(2));
        assert_eq!(rows, [vec![1]].into_iter().collect());
    }

    #[test]
    fn disjointness() {
        assert!(disjoint(&set(&[1, 2]), &set(&[3])));
        assert!(!disjoint(&set(&[1, 2]), &set(&[2, 3])));
        assert!(disjoint(&set(&[]), &set(&[1])));
    }

    #[test]
    fn grown_includes_the_seedling() {
        let next = Graph::new(&[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(grown(&next, 0), set(&[0, 1, 2]));
        assert!(set(&[0, 2]).is_subset(&grown(&next, 0)));
        assert!(!set(&[2, 4]).is_subset(&grown(&next, 0)));
    }

    #[test]
    fn grouping_and_unnest() {
        let g = group(&[(1, 10), (1, 11), (2, 10), (1, 10)]);
        assert_eq!(g.len(), 2);
        assert_eq!(g[&1], set(&[10, 11]));
        assert_eq!(g[&2], set(&[10]));
        let u = unnest(&[set(&[3, 4]), set(&[]), set(&[4])]);
        assert_eq!(u, [(0, 3), (0, 4), (2, 4)].into_iter().collect());
    }

    #[test]
    fn bom_strata_union_triangle() {
        assert_eq!(bom_cost(&[1, 2, 3, 4]), 10);
        assert_eq!(strata_survivors(5, &[1, 3, 1]), set(&[0, 2, 4]));
        assert!(is_union(&set(&[1]), &set(&[2]), &set(&[1, 2])));
        assert!(!is_union(&set(&[1]), &set(&[2]), &set(&[1, 2, 3])));
        assert!(is_union(&set(&[]), &set(&[]), &set(&[])));
        // a: 0→10, 1→10; b: 10→20, 10→21; c closes (20, 0) and (21, 5).
        let out = triangle(
            &[(0, 10), (1, 10)],
            &[(10, 20), (10, 21)],
            &[(20, 0), (21, 5)],
        );
        assert_eq!(out, [(0, 20)].into_iter().collect());
    }
}
