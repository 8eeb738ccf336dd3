//! Dependency analysis and stratification of rule sets with negation.
//!
//! One pass over the predicate dependency graph — one edge per body
//! literal, `head -> body predicate`, labelled with its polarity and rule.
//! Its strongly connected components (iterative Kosaraju) come out in
//! topological order. A component with a negative edge inside it makes
//! the program unstratifiable, and gets the shortest cycle through such an
//! edge (BFS) as its witness. Otherwise a predicate's stratum is the
//! largest number of negative edges on any path from it through the
//! condensation, so positive dependencies stay within or below a stratum
//! and negative ones come strictly from below.

use std::collections::VecDeque;
use std::fmt::Display;

use crate::ast::{Literal, Rule};

/// Result of stratification.
#[derive(Debug, PartialEq, Eq)]
pub struct Stratification {
    /// Stratum per predicate (indexed by `PredId`); base predicates are
    /// stratum 0.
    pub pred_stratum: Vec<usize>,
    /// Rule indices grouped by stratum, ascending.
    pub rule_strata: Vec<Vec<usize>>,
}

/// One dependency edge, listed under the node it leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// The node the edge enters (for rules: the body predicate).
    pub to: usize,
    /// The edge is negative (for rules: a negated body literal).
    pub neg: bool,
    /// Where the edge came from (for rules: the rule index).
    pub rule: usize,
}

/// The shortest cycle through a negative edge inside one component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The rule of the negative edge that closes the cycle.
    pub rule: usize,
    /// The nodes `[u, v, …, u]`; the first edge, `u -> v`, is that
    /// negative edge.
    pub cycle: Vec<usize>,
}

impl Witness {
    /// Render as `P -> not Q -> … -> P`.
    pub fn render<D: Display>(&self, name: impl Fn(usize) -> D) -> String {
        let mut text = String::new();
        for (i, &p) in self.cycle.iter().enumerate() {
            let sep = match i {
                0 => "",
                1 => " -> not ",
                _ => " -> ",
            };
            text.push_str(&format!("{sep}{}", name(p)));
        }
        text
    }
}

/// A dependency graph with its components and witnesses.
#[derive(Debug)]
pub struct DepGraph {
    edges: Vec<Vec<DepEdge>>,
    /// Component of every node. Components are numbered in topological
    /// order: every edge stays in its component or enters a higher one.
    pub comp: Vec<usize>,
    /// One witness per component with a negative edge inside it, in
    /// component order.
    pub witnesses: Vec<Witness>,
}

impl DepGraph {
    /// Analyse the graph with adjacency `edges` (indexed by node).
    pub fn new(edges: Vec<Vec<DepEdge>>) -> DepGraph {
        let comp = components(&edges);
        let mut best: Vec<Option<Witness>> = vec![None; edges.len()];
        for (u, outs) in edges.iter().enumerate() {
            for e in outs.iter().filter(|e| e.neg && comp[e.to] == comp[u]) {
                // The shortest path v ->* u inside the component closes
                // the cycle u -not-> v -> … -> u.
                let Some(path) = shortest_path(&edges, &comp, e.to, u) else {
                    continue;
                };
                let slot = &mut best[comp[u]];
                if slot.as_ref().is_none_or(|w| path.len() + 1 < w.cycle.len()) {
                    let mut cycle = vec![u];
                    cycle.extend(path);
                    *slot = Some(Witness {
                        rule: e.rule,
                        cycle,
                    });
                }
            }
        }
        DepGraph {
            edges,
            comp,
            witnesses: best.into_iter().flatten().collect(),
        }
    }

    /// The dependency graph of `rules` over `pred_count` predicates.
    pub fn of_rules(pred_count: usize, rules: &[Rule]) -> DepGraph {
        let mut edges = vec![Vec::new(); pred_count];
        for (rule, r) in rules.iter().enumerate() {
            for lit in &r.body {
                let (a, neg) = match lit {
                    Literal::Pos(a) => (a, false),
                    Literal::Neg(a) => (a, true),
                    Literal::Cmp(..) => continue,
                };
                edges[r.head.pred.index()].push(DepEdge {
                    to: a.pred.index(),
                    neg,
                    rule,
                });
            }
        }
        DepGraph::new(edges)
    }

    /// Each node's stratum: the most negative edges on any path from it.
    /// Meaningful only when there are no witnesses.
    fn strata(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.comp.len()).collect();
        order.sort_by_key(|&u| std::cmp::Reverse(self.comp[u]));
        let mut comp_stratum = vec![0usize; self.comp.len()];
        for u in order {
            let c = self.comp[u];
            for e in &self.edges[u] {
                if self.comp[e.to] != c {
                    let need = comp_stratum[self.comp[e.to]] + usize::from(e.neg);
                    comp_stratum[c] = comp_stratum[c].max(need);
                }
            }
        }
        self.comp.iter().map(|&c| comp_stratum[c]).collect()
    }
}

/// Stratify `rules` over `pred_count` predicates, or return the first
/// negation cycle's witness.
pub fn stratify(pred_count: usize, rules: &[Rule]) -> Result<Stratification, Witness> {
    let mut graph = DepGraph::of_rules(pred_count, rules);
    if !graph.witnesses.is_empty() {
        return Err(graph.witnesses.swap_remove(0));
    }
    let stratum = graph.strata();
    let max_stratum = stratum.iter().copied().max().unwrap_or(0);
    let mut rule_strata: Vec<Vec<usize>> = vec![Vec::new(); max_stratum + 1];
    for (i, rule) in rules.iter().enumerate() {
        rule_strata[stratum[rule.head.pred.index()]].push(i);
    }
    Ok(Stratification {
        pred_stratum: stratum,
        rule_strata,
    })
}

/// Strongly connected components (iterative Kosaraju), numbered in
/// topological order; returns the component of every node.
fn components(edges: &[Vec<DepEdge>]) -> Vec<usize> {
    let n = edges.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for s in 0..n {
        if visited[s] {
            continue;
        }
        visited[s] = true;
        let mut stack = vec![(s, 0usize)];
        while let Some(frame) = stack.last_mut() {
            let (u, i) = *frame;
            if let Some(e) = edges[u].get(i) {
                frame.1 += 1;
                if !visited[e.to] {
                    visited[e.to] = true;
                    stack.push((e.to, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    let mut radj = vec![Vec::new(); n];
    for (u, outs) in edges.iter().enumerate() {
        for e in outs {
            radj[e.to].push(u);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut c = 0;
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = c;
        let mut st = vec![s];
        while let Some(u) = st.pop() {
            for &v in &radj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = c;
                    st.push(v);
                }
            }
        }
        c += 1;
    }
    comp
}

/// BFS shortest path from `from` to `to` inside `from`'s component.
/// Returns the node sequence `[from, …, to]`.
fn shortest_path(
    edges: &[Vec<DepEdge>],
    comp: &[usize],
    from: usize,
    to: usize,
) -> Option<Vec<usize>> {
    let mut prev = vec![usize::MAX; edges.len()];
    let mut queue = VecDeque::new();
    prev[from] = from;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        if u == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for e in &edges[u] {
            if comp[e.to] == comp[from] && prev[e.to] == usize::MAX {
                prev[e.to] = u;
                queue.push_back(e.to);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term, Var};
    use crate::pred::PredId;

    fn atom(p: u32, vars: &[u32]) -> Atom {
        Atom::new(PredId(p), vars.iter().map(|&v| Term::Var(Var(v))).collect())
    }

    #[test]
    fn positive_recursion_stays_in_one_stratum() {
        // 1 = edge (base), 2 = path: path :- edge; path :- edge, path.
        let rules = vec![
            Rule::new(atom(2, &[0, 1]), vec![Literal::Pos(atom(1, &[0, 1]))]),
            Rule::new(
                atom(2, &[0, 2]),
                vec![
                    Literal::Pos(atom(1, &[0, 1])),
                    Literal::Pos(atom(2, &[1, 2])),
                ],
            ),
        ];
        let s = stratify(3, &rules).unwrap();
        assert_eq!(s.pred_stratum[2], 0);
        assert_eq!(s.rule_strata.len(), 1);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        // 2 = unreachable(X) :- node(X), not path(X).
        let rules = vec![
            Rule::new(atom(1, &[0]), vec![Literal::Pos(atom(0, &[0]))]),
            Rule::new(
                atom(2, &[0]),
                vec![Literal::Pos(atom(0, &[0])), Literal::Neg(atom(1, &[0]))],
            ),
        ];
        let s = stratify(3, &rules).unwrap();
        assert!(s.pred_stratum[2] > s.pred_stratum[1]);
        assert_eq!(s.rule_strata.len(), 2);
    }

    #[test]
    fn negative_cycle_is_rejected_with_its_witness() {
        // 1 :- 0, not 2.  2 :- 0, not 1.  3 :- 0, not 1, not 2.
        let rules = vec![
            Rule::new(
                atom(1, &[0]),
                vec![Literal::Pos(atom(0, &[0])), Literal::Neg(atom(2, &[0]))],
            ),
            Rule::new(
                atom(2, &[0]),
                vec![Literal::Pos(atom(0, &[0])), Literal::Neg(atom(1, &[0]))],
            ),
            Rule::new(
                atom(3, &[0]),
                vec![
                    Literal::Pos(atom(0, &[0])),
                    Literal::Neg(atom(1, &[0])),
                    Literal::Neg(atom(2, &[0])),
                ],
            ),
        ];
        let w = stratify(4, &rules).unwrap_err();
        assert_eq!(w.rule, 0);
        assert_eq!(w.cycle, vec![1, 2, 1]);
        assert_eq!(w.render(|p| format!("p{p}")), "p1 -> not p2 -> p1");
    }

    #[test]
    fn empty_program_is_fine() {
        let s = stratify(0, &[]).unwrap();
        assert!(s.rule_strata.len() <= 1);
    }
}
