//! The one-pass SCC stratifier agrees with the classic relaxation loop.
//!
//! Seeded random rule sets over a handful of predicates, with positive
//! and negative body literals; some seeds only negate strictly lower
//! predicates (always stratifiable, with deep strata), the rest negate
//! anything (often not). On a stratifiable set, `stratify` must return
//! exactly the least fixpoint of `s(h) ≥ s(b)` / `s(h) ≥ s(b) + 1` that
//! the relaxation loop below computes. On every set, the components must
//! be the mutual-reachability classes numbered in topological order, and
//! exactly the components with a negative edge inside get a witness: a
//! closed path of real edges that starts with its rule's negative edge,
//! stays inside one component, and is as short as any such cycle.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gom_deductive::ast::{Atom, Literal, Rule, Term, Var};
use gom_deductive::{stratify, Database, DepGraph, PredId, Stratification};
use gom_obs::SplitMix64;

const SEEDS: u64 = 400;

/// The stratifier this crate used before the SCC pass: round-robin
/// relaxation of `s(h) ≥ s(b)` (positive) and `s(h) ≥ s(b) + 1`
/// (negative) until nothing changes; no convergence within
/// `pred_count + 1` rounds means negation in a cycle.
fn relaxation(pred_count: usize, rules: &[Rule]) -> Option<Stratification> {
    let mut stratum = vec![0usize; pred_count];
    let max_rounds = pred_count + 1;
    for round in 0..=max_rounds {
        let mut changed = false;
        for rule in rules {
            let h = rule.head.pred.index();
            for lit in &rule.body {
                let need = match lit {
                    Literal::Pos(a) => stratum[a.pred.index()],
                    Literal::Neg(a) => stratum[a.pred.index()] + 1,
                    Literal::Cmp(..) => continue,
                };
                if stratum[h] < need {
                    stratum[h] = need;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if round == max_rounds {
            return None;
        }
    }
    let max_stratum = stratum.iter().copied().max().unwrap_or(0);
    let mut rule_strata: Vec<Vec<usize>> = vec![Vec::new(); max_stratum + 1];
    for (i, rule) in rules.iter().enumerate() {
        rule_strata[stratum[rule.head.pred.index()]].push(i);
    }
    Some(Stratification {
        pred_stratum: stratum,
        rule_strata,
    })
}

/// A random rule set over `preds`. With `layered`, a rule for predicate
/// `i` negates only predicates below `i`.
fn random_rules(rng: &mut SplitMix64, preds: &[PredId], layered: bool) -> Vec<Rule> {
    let atom = |p: PredId| Atom::new(p, vec![Term::Var(Var(0))]);
    let neg_pct = [10, 25, 40][rng.below(3)];
    (0..1 + rng.below(14))
        .map(|_| {
            let h = 1 + rng.below(preds.len() - 1);
            let body = (0..1 + rng.below(3))
                .map(|_| {
                    let b = rng.below(preds.len());
                    if rng.below(100) >= neg_pct || (layered && b >= h) {
                        Literal::Pos(atom(preds[b]))
                    } else {
                        Literal::Neg(atom(preds[b]))
                    }
                })
                .collect();
            Rule::new(atom(preds[h]), body)
        })
        .collect()
}

/// `edge[u][v]`: some rule for `u` reads `v`; `neg[u][v]`: under negation.
fn edge_sets(n: usize, rules: &[Rule]) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let (mut edge, mut neg) = (vec![vec![false; n]; n], vec![vec![false; n]; n]);
    for r in rules {
        let h = r.head.pred.index();
        for lit in &r.body {
            match lit {
                Literal::Pos(a) => edge[h][a.pred.index()] = true,
                Literal::Neg(a) => {
                    edge[h][a.pred.index()] = true;
                    neg[h][a.pred.index()] = true;
                }
                Literal::Cmp(..) => {}
            }
        }
    }
    (edge, neg)
}

/// All-pairs path lengths in edges (Floyd–Warshall); `None` = unreachable.
fn distances(edge: &[Vec<bool>]) -> Vec<Vec<Option<usize>>> {
    let n = edge.len();
    let mut d: Vec<Vec<Option<usize>>> = (0..n)
        .map(|u| (0..n).map(|v| edge[u][v].then_some(1)).collect())
        .collect();
    for k in 0..n {
        for u in 0..n {
            for v in 0..n {
                if let (Some(a), Some(b)) = (d[u][k], d[k][v]) {
                    if d[u][v].is_none_or(|c| a + b < c) {
                        d[u][v] = Some(a + b);
                    }
                }
            }
        }
    }
    d
}

#[test]
fn scc_stratifier_agrees_with_relaxation_and_witnesses_are_real_cycles() {
    let (mut stratifiable, mut cyclic) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let n = 2 + rng.below(9);
        let mut db = Database::new();
        let decls: Vec<String> = (0..n).map(|i| format!("derived P{i}(x).")).collect();
        db.load(&decls.join(" ")).unwrap();
        let preds: Vec<PredId> = db.pred_ids().collect();
        let rules = random_rules(&mut rng, &preds, seed % 3 == 0);

        let graph = DepGraph::of_rules(n, &rules);
        let oracle = relaxation(n, &rules);
        match (&oracle, stratify(n, &rules)) {
            (Some(want), Ok(got)) => {
                assert_eq!(&got, want, "seed {seed}: strata differ");
                stratifiable += 1;
            }
            (None, Err(w)) => {
                assert_eq!(Some(&w), graph.witnesses.first(), "seed {seed}");
                cyclic += 1;
            }
            (want, got) => panic!("seed {seed}: relaxation {want:?}, SCC pass {got:?}"),
        }

        let (edge, neg) = edge_sets(n, &rules);
        let dist = distances(&edge);
        let comp = &graph.comp;
        for u in 0..n {
            for v in 0..n {
                let mutual = u == v || (dist[u][v].is_some() && dist[v][u].is_some());
                assert_eq!(comp[u] == comp[v], mutual, "seed {seed}: components");
                if edge[u][v] {
                    assert!(comp[u] <= comp[v], "seed {seed}: numbering not topological");
                }
            }
        }

        // Per component, the shortest cycle through an internal negative
        // edge; exactly these components get a witness.
        let mut shortest: Vec<Option<usize>> = vec![None; n];
        for u in 0..n {
            for v in (0..n).filter(|&v| neg[u][v] && comp[u] == comp[v]) {
                let len = if u == v { 1 } else { 1 + dist[v][u].unwrap() };
                if shortest[comp[u]].is_none_or(|l| len < l) {
                    shortest[comp[u]] = Some(len);
                }
            }
        }
        let witnessed: Vec<usize> = graph.witnesses.iter().map(|w| comp[w.cycle[0]]).collect();
        let expected: Vec<usize> = (0..n).filter(|&c| shortest[c].is_some()).collect();
        assert_eq!(witnessed, expected, "seed {seed}: witnessed components");
        assert_eq!(oracle.is_none(), !expected.is_empty(), "seed {seed}");
        for w in &graph.witnesses {
            let c = &w.cycle;
            assert_eq!(c.first(), c.last(), "seed {seed}: witness not closed");
            assert_eq!(c.len() - 1, shortest[comp[c[0]]].unwrap(), "seed {seed}");
            let r = &rules[w.rule];
            assert_eq!(r.head.pred.index(), c[0], "seed {seed}: witness rule");
            assert!(
                r.body
                    .iter()
                    .any(|l| matches!(l, Literal::Neg(a) if a.pred.index() == c[1])),
                "seed {seed}: the witness does not start with its rule's negation"
            );
            for pair in c.windows(2) {
                assert!(
                    edge[pair[0]][pair[1]],
                    "seed {seed}: witness edge is not real"
                );
                assert_eq!(comp[pair[0]], comp[c[0]], "seed {seed}: witness leaves");
            }
        }
    }
    assert!(
        stratifiable >= 100 && cyclic >= 100,
        "{stratifiable} / {cyclic}"
    );
}
