//! `closure`: each pass materializes transitive closure over four
//! programs — a random strongly connected digraph, an acyclic chain in
//! both rule orientations, and the adversarial three-way join — reads
//! every answer out, then asks point goals of the materialized chain
//! and applies single-edge facts through `add_fact` + `update`.

use std::collections::BTreeSet;

use lps_core::Dialect;
use lps_engine::Engine;

use crate::harness::{atom, expect_rows, idx, Ctx};
use crate::oracle::{self, Graph};
use crate::query::{check_stream, point_op, Done};
use crate::rng::Rng;

/// Ring size of the strongly connected digraph (plus `SCC_NODES / 2`
/// random chords): `SCC_NODES²` closure tuples.
pub const SCC_NODES: usize = 200;
/// Length of the acyclic chain: `CHAIN_NODES · (CHAIN_NODES − 1) / 2`
/// closure tuples over `CHAIN_NODES − 1` rounds.
pub const CHAIN_NODES: usize = 256;
/// The three-way join: `srcs × fanout` and `fanout × srcs` complete
/// layers, closed by `keep` random corners.
pub const TRI_SRCS: usize = 32;
pub const TRI_FANOUT: usize = 32;
pub const TRI_KEEP: usize = 64;
/// Goal/fact blocks after materialization: each is three point goals
/// on the materialized chain, then one single-edge fact. The pass's
/// first `t(X, n_d)` goal builds an index (about twenty times a warm
/// goal): at 24 blocks it is 1 goal in 72, so the p99 falls inside that
/// class, not on its edge, where a run's few slowest warm goals set it.
pub const OP_BLOCKS: usize = 24;

const RIGHT: &str = "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n";
const LEFT: &str = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n";

fn edges_text(edges: &[(usize, usize)]) -> String {
    edges
        .iter()
        .map(|(a, b)| format!("e(n{a}, n{b}).\n"))
        .collect()
}

/// A ring `0 → 1 → … → n−1 → 0` plus `n / 2` random chords.
pub fn scc_edges(n: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n / 2 {
        edges.push((rng.below(n), rng.below(n)));
    }
    edges
}

pub fn chain_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n - 1).map(|i| (i, i + 1)).collect()
}

/// The cyclic three-way join with its adversarial textual body order
/// (the two big layers first, the corner-closing relation last).
fn triangle(rng: &mut Rng) -> (String, BTreeSet<(usize, usize)>) {
    let a: Vec<(usize, usize)> = (0..TRI_SRCS)
        .flat_map(|i| (0..TRI_FANOUT).map(move |j| (i, j)))
        .collect();
    let b: Vec<(usize, usize)> = (0..TRI_FANOUT)
        .flat_map(|j| (0..TRI_SRCS).map(move |k| (j, k)))
        .collect();
    let mut c: BTreeSet<(usize, usize)> = BTreeSet::new();
    while c.len() < TRI_KEEP {
        c.insert((rng.below(TRI_SRCS), rng.below(TRI_SRCS)));
    }
    let c: Vec<(usize, usize)> = c.into_iter().collect();
    let mut text = String::new();
    for (i, j) in &a {
        text.push_str(&format!("big_a(s{i}, m{j}).\n"));
    }
    for (j, k) in &b {
        text.push_str(&format!("big_b(m{j}, t{k}).\n"));
    }
    for (k, i) in &c {
        text.push_str(&format!("small_c(t{k}, s{i}).\n"));
    }
    text.push_str("out(X, Z) :- big_a(X, Y), big_b(Y, Z), small_c(Z, X).\n");
    (text, oracle::triangle(&a, &b, &c))
}

/// Materialize one program and read `pred/2` out; returns the rows as
/// index pairs.
fn materialize(
    ctx: &mut Ctx,
    engine: &mut Engine,
    pred: &str,
    prefixes: (&str, &str),
) -> Result<BTreeSet<(usize, usize)>, String> {
    let run = ctx.run(engine)?;
    let (rows, read) = ctx.extension(engine, pred, 2);
    ctx.eval_step(run + read);
    rows.iter()
        .map(|r| Ok((idx(&r[0], prefixes.0)?, idx(&r[1], prefixes.1)?)))
        .collect()
}

pub fn pass(ctx: &mut Ctx, rng: &mut Rng) -> Result<(), String> {
    let scc = scc_edges(SCC_NODES, rng);
    let chain = chain_edges(CHAIN_NODES);
    let (tri_text, tri_want) = triangle(rng);
    let mut sessions = Vec::new();

    let scc_graph = Graph::new(&scc);
    let mut engine = ctx.open(&(edges_text(&scc) + RIGHT), Dialect::Elps)?;
    let got = materialize(ctx, &mut engine, "t", ("n", "n"))?;
    expect_rows("scc closure t(X, Y)", &got, &scc_graph.closure())?;
    sessions.push(engine);

    let mut graph = Graph::new(&chain);
    let want = graph.closure();
    let mut engine = ctx.open(&(edges_text(&chain) + LEFT), Dialect::Elps)?;
    let got = materialize(ctx, &mut engine, "t", ("n", "n"))?;
    expect_rows("left-linear chain closure t(X, Y)", &got, &want)?;
    sessions.push(engine);

    let mut engine = ctx.open(&tri_text, Dialect::Elps)?;
    let got = materialize(ctx, &mut engine, "out", ("s", "t"))?;
    expect_rows("three-way join out(X, Z)", &got, &tri_want)?;
    sessions.push(engine);

    let mut chain_engine = ctx.open(&(edges_text(&chain) + RIGHT), Dialect::Elps)?;
    let got = materialize(ctx, &mut chain_engine, "t", ("n", "n"))?;
    expect_rows("right-linear chain closure t(X, Y)", &got, &want)?;

    // Point goals on the materialized chain, with single-edge facts to
    // fresh nodes between them: each fact makes `a + 1` new tuples.
    let mut done = Vec::new();
    for block in 0..OP_BLOCKS {
        for g in 0..3 {
            let node = rng.below(CHAIN_NODES);
            let forward = (block + g) % 2 == 0;
            let args = if forward {
                [Some(atom("n", node)), None]
            } else {
                [None, Some(atom("n", node))]
            };
            let (ans, secs) = ctx.point(&mut chain_engine, "t", &args);
            ctx.goal(secs);
            let rows = ans
                .map_err(|e| format!("{}: {e}", point_op(forward, node)))?
                .rows;
            done.push(Done::point(forward, node, &rows)?);
        }
        let (from, fresh) = (rng.below(CHAIN_NODES), CHAIN_NODES + block);
        let secs =
            ctx.add_fact_update(&mut chain_engine, "e", &[atom("n", from), atom("n", fresh)])?;
        ctx.fact(secs);
        done.push(Done::Fact(from, fresh));
    }
    check_stream(&mut graph, &done)?;
    // The check reads the model outside the timed calls.
    let t = chain_engine.lookup_pred("t", 2).ok_or("no t/2")?;
    let got = chain_engine
        .extension(t)
        .iter()
        .map(|r| Ok((idx(&r[0], "n")?, idx(&r[1], "n")?)))
        .collect::<Result<BTreeSet<_>, String>>()?;
    expect_rows(
        "chain closure t(X, Y) after the facts",
        &got,
        &graph.closure(),
    )?;
    sessions.push(chain_engine);

    for engine in &sessions {
        ctx.layers.absorb_session(engine);
    }
    Ok(())
}
