//! `query`: a live demand session over transitive closure of a chain
//! with chords, never materialized, receiving a closed-loop stream of
//! point goals from overlapping sources in both orientations,
//! conjunctive goals of 56 distinct shapes (each pass asks most of
//! them twice, once cold and once from the cached plan), and a
//! single-edge fact every few goals. Then a second session is asked
//! more distinct conjunctive shapes than the default 64-plan cache
//! holds, so that plans are evicted and shapes compiled past the cache.
//! Each pass opens fresh sessions, so every pass starts from the same
//! state whatever the run's length.

use std::collections::BTreeSet;

use lps_core::Dialect;
use lps_term::Value;

use crate::closure::chain_edges;
use crate::harness::{atom, expect_rows, idx, Ctx};
use crate::oracle::{self, Graph, Step};
use crate::rng::Rng;

/// Chain length, plus `CHORDS` random forward chords.
pub const NODES: usize = 200;
pub const CHORDS: usize = 25;
/// Point-goal sources (low quarter) and sinks (high quarter) drawn per
/// pass; goals cycle over them, so most repeat a demanded constant.
pub const POOL: usize = 6;
/// Stream blocks per pass: `POINT_PER_BLOCK` point goals, then
/// `CONJ_PER_BLOCK` conjunctive goals, then one fact.
pub const BLOCKS: usize = 16;
pub const POINT_PER_BLOCK: usize = 8;
pub const CONJ_PER_BLOCK: usize = 6;
/// The stream cycles over the first `STREAM_SHAPES` shapes (the paths
/// of 2–5 literals): with the two point adornments they fit the
/// default 64-plan cache.
pub const STREAM_SHAPES: usize = 56;
/// The overflow session asks the first `OVERFLOW_SHAPES` shapes once
/// each, in order: 8 more than the default cache holds.
pub const OVERFLOW_SHAPES: usize = 72;
/// The overflow session's inputs do not depend on `--seed`: past the
/// cache, a new shape can take a live shape's head predicate and answer
/// with its rows (see README.md), and fixed inputs make that fault fail
/// the same goals in every pass of every run.
const OVERFLOW_SEED: u64 = 0x0f10_0d5e;

/// The conjunctive goal shapes: paths of 2–6 `e`/`t` literals from a
/// constant source, ending in a constant (at most two `t`) or a free
/// variable (at most one `t`, which keeps answer sets small), shortest
/// first: 56 shapes of 2–5 literals, then 29 of 6.
pub fn shapes() -> Vec<(Vec<Step>, bool)> {
    let mut out = Vec::new();
    for len in 2..=6usize {
        for mask in 0u32..(1 << len) {
            let steps: Vec<Step> = (0..len)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        Step::Reach
                    } else {
                        Step::Edge
                    }
                })
                .collect();
            let reaches = mask.count_ones();
            if reaches <= 2 {
                out.push((steps.clone(), true));
            }
            if reaches <= 1 {
                out.push((steps, false));
            }
        }
    }
    out
}

/// The goal text of a path shape, e.g. `e(n3, X1), t(X1, n9).`
pub fn goal_text(s: usize, steps: &[Step], end: Option<usize>) -> String {
    let lits: Vec<String> = steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let p = match step {
                Step::Edge => "e",
                Step::Reach => "t",
            };
            let from = if i == 0 {
                format!("n{s}")
            } else {
                format!("X{i}")
            };
            let to = match end {
                Some(d) if i + 1 == steps.len() => format!("n{d}"),
                _ => format!("X{}", i + 1),
            };
            format!("{p}({from}, {to})")
        })
        .collect();
    format!("{}.", lits.join(", "))
}

pub fn chain_with_chords(rng: &mut Rng, nodes: usize, chords: usize) -> Vec<(usize, usize)> {
    let mut edges = chain_edges(nodes);
    while edges.len() < nodes - 1 + chords {
        let a = rng.below(nodes - 2);
        let b = a + 2 + rng.below((nodes - a - 2).min(16));
        if !edges.contains(&(a, b)) {
            edges.push((a, b));
        }
    }
    edges
}

pub const RULES: &str = "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n";

pub fn program_text(edges: &[(usize, usize)]) -> String {
    let mut text: String = edges
        .iter()
        .map(|(a, b)| format!("e(n{a}, n{b}).\n"))
        .collect();
    text.push_str(RULES);
    text
}

/// A node cell, e.g. `n12` → 12.
pub fn node_of(cell: &str) -> Result<usize, String> {
    cell.strip_prefix('n')
        .and_then(|d| d.parse().ok())
        .ok_or(format!("bad cell `{cell}`"))
}

/// Binding rows as node ids.
pub fn node_rows<R, C>(rows: R) -> Result<BTreeSet<Vec<usize>>, String>
where
    R: IntoIterator,
    R::Item: IntoIterator<Item = C>,
    C: ToString,
{
    rows.into_iter()
        .map(|r| r.into_iter().map(|c| node_of(&c.to_string())).collect())
        .collect()
}

/// The point goal `t(n_node, X)` (`forward`) or `t(X, n_node)`.
pub fn point_op(forward: bool, node: usize) -> String {
    if forward {
        format!("goal t(n{node}, X)")
    } else {
        format!("goal t(X, n{node})")
    }
}

/// One answered operation of a goal/fact stream, kept as node ids so
/// the checks run after the timed loop instead of between its calls.
pub enum Done {
    /// `t(n_node, X)` (`forward`) or `t(X, n_node)`: the other column.
    Point {
        forward: bool,
        node: usize,
        got: BTreeSet<usize>,
    },
    /// A path-shaped conjunctive goal: its binding rows.
    Path {
        body: String,
        s: usize,
        steps: Vec<Step>,
        end: Option<usize>,
        got: BTreeSet<Vec<usize>>,
    },
    /// The edge `e(n_from, n_to)` was added.
    Fact(usize, usize),
}

impl Done {
    /// Keep a point goal's answer: full `t` rows.
    pub fn point(forward: bool, node: usize, rows: &[Vec<Value>]) -> Result<Done, String> {
        let got = rows
            .iter()
            .map(|r| idx(&r[usize::from(forward)], "n"))
            .collect::<Result<_, String>>()?;
        Ok(Done::Point { forward, node, got })
    }
}

/// Check a stream's answers in order against BFS over the edges added
/// so far.
pub fn check_stream(graph: &mut Graph, done: &[Done]) -> Result<(), String> {
    for d in done {
        match d {
            Done::Fact(a, b) => graph.add_edge(*a, *b),
            Done::Point { forward, node, got } => {
                let want = if *forward {
                    graph.reach(*node)
                } else {
                    graph.reached_by(*node)
                };
                expect_rows(&point_op(*forward, *node), got, &want)?;
            }
            Done::Path {
                body,
                s,
                steps,
                end,
                got,
            } => {
                let want = oracle::path_goal(graph, *s, steps, *end);
                expect_rows(&format!("goal {body}"), got, &want)?;
            }
        }
    }
    Ok(())
}

/// A random conjunctive goal of a path shape from a source in the
/// lower half of the chain.
fn random_path_goal(
    rng: &mut Rng,
    steps: &[Step],
    bound_end: bool,
) -> (usize, Option<usize>, String) {
    let s = rng.below(NODES / 2);
    let end = bound_end.then(|| (s + steps.len() + rng.below(12)).min(NODES - 1));
    (s, end, goal_text(s, steps, end))
}

pub fn pass(ctx: &mut Ctx, rng: &mut Rng) -> Result<(), String> {
    stream(ctx, rng)?;
    overflow(ctx)
}

/// The point, conjunctive and fact stream on one session.
fn stream(ctx: &mut Ctx, rng: &mut Rng) -> Result<(), String> {
    let edges = chain_with_chords(rng, NODES, CHORDS);
    let mut graph = Graph::new(&edges);
    let sources: Vec<usize> = (0..POOL).map(|_| rng.below(NODES / 4)).collect();
    let sinks: Vec<usize> = (0..POOL)
        .map(|_| NODES - 1 - rng.below(NODES / 4))
        .collect();
    let shapes = shapes();
    let mut engine = ctx.open(&program_text(&edges), Dialect::Elps)?;
    let mut shape_no = 0;
    let mut done = Vec::new();
    for block in 0..BLOCKS {
        for g in 0..POINT_PER_BLOCK {
            let i = block * POINT_PER_BLOCK + g;
            let forward = i.is_multiple_of(2);
            let (args, node) = if forward {
                let s = sources[(i / 2) % POOL];
                ([Some(atom("n", s)), None], s)
            } else {
                let d = sinks[(i / 2) % POOL];
                ([None, Some(atom("n", d))], d)
            };
            let (ans, secs) = ctx.point(&mut engine, "t", &args);
            ctx.goal(secs);
            let rows = ans
                .map_err(|e| format!("{}: {e}", point_op(forward, node)))?
                .rows;
            done.push(Done::point(forward, node, &rows)?);
        }
        for _ in 0..CONJ_PER_BLOCK {
            let (steps, bound_end) = &shapes[shape_no % STREAM_SHAPES];
            shape_no += 1;
            let (s, end, body) = random_path_goal(rng, steps, *bound_end);
            let (ans, secs) = ctx.conj(&mut engine, &body);
            ctx.goal(secs);
            let rows = ans.map_err(|e| format!("goal {body}: {e}"))?.rows;
            done.push(Done::Path {
                got: node_rows(rows)?,
                body,
                s,
                steps: steps.clone(),
                end,
            });
        }
        // A fact is visible once a goal has read it: time the
        // `add_fact` together with the goal `t(n_from, X)`, which folds
        // the queued fact in.
        let (from, fresh) = (rng.below(NODES), NODES + block);
        let add = ctx.add_fact(&mut engine, "e", &[atom("n", from), atom("n", fresh)])?;
        let (ans, secs) = ctx.point(&mut engine, "t", &[Some(atom("n", from)), None]);
        ctx.fact(add + secs);
        let rows = ans
            .map_err(|e| format!("{}: {e}", point_op(true, from)))?
            .rows;
        done.push(Done::Fact(from, fresh));
        done.push(Done::point(true, from, &rows)?);
    }
    ctx.layers.absorb_session(&engine);
    check_stream(&mut graph, &done)
}

/// More distinct conjunctive shapes than the plan cache holds, on a
/// fresh session with seed-independent inputs. A goal answered wrongly
/// after the session has evicted a plan is the shape-naming fault and
/// counts as failed; a wrong answer before any eviction is an error.
fn overflow(ctx: &mut Ctx) -> Result<(), String> {
    let mut rng = Rng::new(OVERFLOW_SEED);
    let edges = chain_with_chords(&mut rng, NODES, CHORDS);
    let graph = Graph::new(&edges);
    let mut engine = ctx.open(&program_text(&edges), Dialect::Elps)?;
    let mut asked = Vec::new();
    for (steps, bound_end) in shapes().into_iter().take(OVERFLOW_SHAPES) {
        let (s, end, body) = random_path_goal(&mut rng, &steps, bound_end);
        let evicted_before = engine.cumulative_stats().plans_evicted > 0;
        let (ans, secs) = ctx.conj(&mut engine, &body);
        let rows = ans.map_err(|e| format!("goal {body}: {e}"))?.rows;
        asked.push((secs, evicted_before, body, s, steps, end, node_rows(rows)?));
    }
    ctx.layers.absorb_session(&engine);
    for (secs, evicted_before, body, s, steps, end, got) in asked {
        let want = oracle::path_goal(&graph, s, &steps, end);
        let check = expect_rows(&format!("goal {body}"), &got, &want);
        if overflow_verdict(check, evicted_before)? {
            ctx.goal(secs);
        } else {
            ctx.failed_goal(secs);
        }
    }
    Ok(())
}

/// Whether an overflow goal passed (`Ok(true)`) or met the
/// shape-naming fault (`Ok(false)`): a wrong answer counts as that
/// fault only once the session has evicted a plan.
fn overflow_verdict(check: Result<(), String>, evicted_before: bool) -> Result<bool, String> {
    match check {
        Ok(()) => Ok(true),
        Err(_) if evicted_before => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_checks_follow_the_facts_in_order() {
        let set = |xs: &[usize]| xs.iter().copied().collect::<BTreeSet<usize>>();
        let point = |got: &[usize]| Done::Point {
            forward: true,
            node: 0,
            got: set(got),
        };
        let mut g = Graph::new(&[(0, 1), (1, 2)]);
        let stream = [point(&[1, 2]), Done::Fact(2, 3), point(&[1, 2, 3])];
        assert!(check_stream(&mut g, &stream).is_ok());
        // The same answer after the fact misses node 3.
        let mut g = Graph::new(&[(0, 1), (1, 2)]);
        let stale = [Done::Fact(2, 3), point(&[1, 2])];
        let err = check_stream(&mut g, &stale).unwrap_err();
        assert!(
            err.contains("goal t(n0, X)") && err.contains("[3]"),
            "{err}"
        );
    }

    #[test]
    fn overflow_goals_fail_only_after_an_eviction() {
        let wrong = || Err("goal e(n0, X1), e(X1, X2).: 1 rows, expected 2".to_owned());
        assert_eq!(overflow_verdict(Ok(()), false), Ok(true));
        assert_eq!(overflow_verdict(Ok(()), true), Ok(true));
        assert_eq!(overflow_verdict(wrong(), true), Ok(false));
        assert!(overflow_verdict(wrong(), false).is_err());
        // The stream fits the default cache; the overflow session
        // passes it.
        let cache = lps_engine::EvalConfig::default().demand_plan_cache;
        assert_eq!(shapes().len(), 85);
        assert!((STREAM_SHAPES + 2..OVERFLOW_SHAPES).contains(&cache));
        assert!(shapes()[..STREAM_SHAPES].iter().all(|(s, _)| s.len() <= 5));
    }

    #[test]
    fn path_goals_check_binding_rows() {
        let mut g = Graph::new(&[(0, 1), (1, 2), (0, 2)]);
        let path = |got: &[&[usize]]| Done::Path {
            body: goal_text(0, &[Step::Edge, Step::Reach], Some(2)),
            s: 0,
            steps: vec![Step::Edge, Step::Reach],
            end: Some(2),
            got: got.iter().map(|r| r.to_vec()).collect(),
        };
        // e(n0, X1), t(X1, n2): only X1 = 1 (2 does not reach itself).
        assert!(check_stream(&mut g, &[path(&[&[1]])]).is_ok());
        assert!(check_stream(&mut g, &[path(&[&[1], &[2]])]).is_err());
        assert_eq!(
            node_rows([vec!["n1", "n7"], vec!["n2", "n3"]]).unwrap(),
            [vec![1, 7], vec![2, 3]].into_iter().collect()
        );
        assert!(node_of("x1").is_err());
    }
}
