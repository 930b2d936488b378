//! `sets`: each pass runs the paper's set constructs — the
//! `∀`-quantified `disj` (Example 1), the `∀`-trigger program, LDL
//! grouping, the `scons` and `scons_min` bills of materials (Examples
//! 5–6), Example 4's unnest, a chain of stratified negation, and a
//! Theorem-6 positive-formula body (Example 3's union). Each program is
//! materialized and read out, then asked goals in a fresh demand
//! session, the way `lpsi` answers by default; `disj` and unnest also
//! take single facts through `add_fact` + `update`.

use std::collections::BTreeSet;

use lps_core::{Dialect, QueryAnswers};
use lps_engine::Engine;
use lps_term::Value;

use crate::harness::{atom, atom_set, expect_rows, idx, idx_set, set_text, Ctx};
use crate::oracle::{self, Graph};
use crate::rng::Rng;

/// `disj`: random subsets of an `DISJ_ATOMS`-atom universe.
pub const DISJ_ATOMS: usize = 10;
pub const DISJ_PAIRS: usize = 240;
/// `∀`-trigger: sets of `TRIG_SET_SIZE` elements over a universe whose
/// `next` graph reaches most, not all, elements from the seedling.
pub const TRIG_SETS: usize = 160;
pub const TRIG_UNIVERSE: usize = 80;
pub const TRIG_SET_SIZE: usize = 3;
/// Grouping: `GROUP_ITEMS` random (key, value) items.
pub const GROUP_KEYS: usize = 30;
pub const GROUP_VALUES: usize = 40;
pub const GROUP_ITEMS: usize = 300;
/// Bills of materials: the `scons` form enumerates subsets (2^k), the
/// `scons_min` form peels a chain. Neither depends on the seed.
pub const BOM_SCONS_PARTS: usize = 6;
pub const BOM_SCONS_MIN_PARTS: usize = 10;
/// Unnest: rows of `UNNEST_SET_SIZE` draws from `UNNEST_ELEMS` elements.
pub const UNNEST_ROWS: usize = 120;
pub const UNNEST_SET_SIZE: usize = 6;
pub const UNNEST_ELEMS: usize = 30;
/// Stratified negation: `STRATA` strata over `STRATA_FACTS` values.
pub const STRATA: usize = 8;
pub const STRATA_FACTS: usize = 120;
/// Example 3's union body over candidate triples.
pub const UNION_ATOMS: usize = 8;
pub const UNION_TRIPLES: usize = 160;

fn random_set(universe: usize, rng: &mut Rng) -> BTreeSet<usize> {
    (0..universe).filter(|_| rng.chance(1, 2)).collect()
}

/// The single-column index rows of an answer, e.g. `p8(v3)` → 3.
fn col(ans: &QueryAnswers, c: usize, prefix: &str) -> Result<BTreeSet<usize>, String> {
    ans.rows.iter().map(|r| idx(&r[c], prefix)).collect()
}

/// Materialize and read `pred/arity` out as one batch step.
fn materialize(
    ctx: &mut Ctx,
    engine: &mut Engine,
    pred: &str,
    arity: usize,
) -> Result<Vec<Vec<Value>>, String> {
    let run = ctx.run(engine)?;
    let (rows, read) = ctx.extension(engine, pred, arity);
    ctx.eval_step(run + read);
    Ok(rows)
}

/// Ask a point goal and hand back its answers, naming it on failure.
fn goal(
    ctx: &mut Ctx,
    engine: &mut Engine,
    op: &str,
    pred: &str,
    args: &[Option<Value>],
) -> Result<QueryAnswers, String> {
    let (ans, secs) = ctx.point(engine, pred, args);
    ctx.goal(secs);
    ans.map_err(|e| format!("{op}: {e}"))
}

fn rows_of(engine: &Engine, pred: &str, arity: usize) -> Vec<Vec<Value>> {
    engine
        .lookup_pred(pred, arity)
        .map(|id| engine.extension(id))
        .unwrap_or_default()
}

fn disj(ctx: &mut Ctx, rng: &mut Rng) -> Result<Vec<Engine>, String> {
    let mut pairs: Vec<(BTreeSet<usize>, BTreeSet<usize>)> = (0..DISJ_PAIRS)
        .map(|_| (random_set(DISJ_ATOMS, rng), random_set(DISJ_ATOMS, rng)))
        .collect();
    let mut text: String = pairs
        .iter()
        .map(|(l, r)| format!("pair({}, {}).\n", set_text("a", l), set_text("a", r)))
        .collect();
    text.push_str("disj(X, Y) :- pair(X, Y), forall U in X: forall V in Y: U != V.\n");
    let want = |pairs: &[(BTreeSet<usize>, BTreeSet<usize>)]| -> BTreeSet<_> {
        pairs
            .iter()
            .filter(|(l, r)| oracle::disjoint(l, r))
            .cloned()
            .collect()
    };
    let read = |rows: Vec<Vec<Value>>| -> Result<BTreeSet<_>, String> {
        rows.iter()
            .map(|r| Ok((idx_set(&r[0], "a")?, idx_set(&r[1], "a")?)))
            .collect()
    };

    let mut model = ctx.open(&text, Dialect::Elps)?;
    let got = read(materialize(ctx, &mut model, "disj", 2)?)?;
    expect_rows("disj(X, Y)", &got, &want(&pairs))?;
    for _ in 0..9 {
        let pair = (random_set(DISJ_ATOMS, rng), random_set(DISJ_ATOMS, rng));
        let args = [atom_set("a", &pair.0), atom_set("a", &pair.1)];
        let secs = ctx.add_fact_update(&mut model, "pair", &args)?;
        ctx.fact(secs);
        pairs.push(pair);
    }
    let got = read(rows_of(&model, "disj", 2))?;
    expect_rows("disj(X, Y) after the facts", &got, &want(&pairs))?;

    let mut demand = ctx.open(&text, Dialect::Elps)?;
    for _ in 0..12 {
        let left = pairs[rng.below(DISJ_PAIRS)].0.clone();
        let op = format!("goal disj({}, Y)", set_text("a", &left));
        let ans = goal(
            ctx,
            &mut demand,
            &op,
            "disj",
            &[Some(atom_set("a", &left)), None],
        )?;
        let got: BTreeSet<BTreeSet<usize>> = ans
            .rows
            .iter()
            .map(|r| idx_set(&r[1], "a"))
            .collect::<Result<_, _>>()?;
        let want: BTreeSet<BTreeSet<usize>> = pairs[..DISJ_PAIRS]
            .iter()
            .filter(|(l, r)| *l == left && oracle::disjoint(l, r))
            .map(|(_, r)| r.clone())
            .collect();
        expect_rows(&op, &got, &want)?;
    }
    Ok(vec![model, demand])
}

fn forall_trigger(ctx: &mut Ctx, rng: &mut Rng) -> Result<Vec<Engine>, String> {
    let sets: Vec<BTreeSet<usize>> = (0..TRIG_SETS)
        .map(|_| {
            (0..TRIG_SET_SIZE)
                .map(|_| rng.below(TRIG_UNIVERSE))
                .collect()
        })
        .collect();
    let mut next = Vec::new();
    for i in 0..TRIG_UNIVERSE - 1 {
        if rng.chance(19, 20) {
            next.push((i, i + 1));
        }
    }
    for _ in 0..TRIG_UNIVERSE / 8 {
        next.push((rng.below(TRIG_UNIVERSE), rng.below(TRIG_UNIVERSE)));
    }
    let mut text = String::new();
    for (i, s) in sets.iter().enumerate() {
        text.push_str(&format!("g{}({}).\n", i % 2, set_text("a", s)));
    }
    for (a, b) in &next {
        text.push_str(&format!("next(a{a}, a{b}).\n"));
    }
    text.push_str(
        "seedling(a0).
         grow(X) :- seedling(X).
         grow(X) :- next(Y, X), grow(Y).
         all_grown(S) :- g0(S), forall U in S: grow(U).
         all_grown(S) :- g1(S), forall U in S: grow(U).\n",
    );
    let grown = oracle::grown(&Graph::new(&next), 0);
    let want: BTreeSet<BTreeSet<usize>> = sets
        .iter()
        .filter(|s| s.is_subset(&grown))
        .cloned()
        .collect();

    let mut model = ctx.open(&text, Dialect::Elps)?;
    let got: BTreeSet<BTreeSet<usize>> = materialize(ctx, &mut model, "all_grown", 1)?
        .iter()
        .map(|r| idx_set(&r[0], "a"))
        .collect::<Result<_, _>>()?;
    expect_rows("all_grown(S)", &got, &want)?;

    let mut demand = ctx.open(&text, Dialect::Elps)?;
    for _ in 0..12 {
        let s = &sets[rng.below(TRIG_SETS)];
        let op = format!("goal all_grown({})", set_text("a", s));
        let ans = goal(
            ctx,
            &mut demand,
            &op,
            "all_grown",
            &[Some(atom_set("a", s))],
        )?;
        let got: BTreeSet<BTreeSet<usize>> = ans
            .rows
            .iter()
            .map(|r| idx_set(&r[0], "a"))
            .collect::<Result<_, _>>()?;
        let want: BTreeSet<BTreeSet<usize>> = Some(s.clone())
            .filter(|s| s.is_subset(&grown))
            .into_iter()
            .collect();
        expect_rows(&op, &got, &want)?;
    }
    Ok(vec![model, demand])
}

fn grouping(ctx: &mut Ctx, rng: &mut Rng) -> Result<Vec<Engine>, String> {
    let items: Vec<(usize, usize)> = (0..GROUP_ITEMS)
        .map(|_| (rng.below(GROUP_KEYS), rng.below(GROUP_VALUES)))
        .collect();
    let mut text: String = items
        .iter()
        .map(|(k, v)| format!("item(k{k}, v{v}).\n"))
        .collect();
    text.push_str("grp(K, <V>) :- item(K, V).\n");
    let want = oracle::group(&items);

    let mut model = ctx.open(&text, Dialect::StratifiedElps)?;
    let got: BTreeSet<(usize, BTreeSet<usize>)> = materialize(ctx, &mut model, "grp", 2)?
        .iter()
        .map(|r| Ok((idx(&r[0], "k")?, idx_set(&r[1], "v")?)))
        .collect::<Result<_, String>>()?;
    expect_rows("grp(K, S)", &got, &want.clone().into_iter().collect())?;

    let mut demand = ctx.open(&text, Dialect::StratifiedElps)?;
    for _ in 0..9 {
        let k = rng.below(GROUP_KEYS);
        let op = format!("goal grp(k{k}, S)");
        let ans = goal(ctx, &mut demand, &op, "grp", &[Some(atom("k", k)), None])?;
        let got: BTreeSet<BTreeSet<usize>> = ans
            .rows
            .iter()
            .map(|r| idx_set(&r[1], "v"))
            .collect::<Result<_, _>>()?;
        let want: BTreeSet<BTreeSet<usize>> = want.get(&k).cloned().into_iter().collect();
        expect_rows(&op, &got, &want)?;
    }
    Ok(vec![model, demand])
}

/// E6's formulations of Examples 5–6: the widget's cost is the sum of
/// its parts' costs, rolled up over `visit`ed subsets.
fn bom_text(k: usize, min: bool) -> (String, i64) {
    let costs: Vec<i64> = (0..k).map(|i| (i % 7) as i64 + 1).collect();
    let parts: Vec<String> = (0..k).map(|i| format!("p{i}")).collect();
    let mut text = format!("parts(widget, {{{}}}).\n", parts.join(", "));
    for (p, c) in parts.iter().zip(&costs) {
        text.push_str(&format!("cost({p}, {c}).\n"));
    }
    text.push_str(if min {
        "visit(Y) :- parts(_X, Y).
         visit(Rest) :- visit(S), scons_min(_P, Rest, S).
         sum(S, 0) :- visit(S), S = {}.
         sum(S, K) :- visit(S), scons_min(P, Rest, S),
                      cost(P, N), sum(Rest, M), N + M = K.
         obj_cost(O, N) :- parts(O, Y), sum(Y, N).\n"
    } else {
        "visit(Y) :- parts(_X, Y).
         visit(Rest) :- visit(S), scons(_P, Rest, S), card(S, N1), card(Rest, N2), N2 < N1.
         sum(S, 0) :- visit(S), S = {}.
         sum(S, K) :- visit(S), scons(P, Rest, S), P notin Rest,
                      cost(P, N), sum(Rest, M), N + M = K.
         obj_cost(O, N) :- parts(O, Y), sum(Y, N).\n"
    });
    (text, oracle::bom_cost(&costs))
}

/// How the `scons_min` bill of materials' demand goal fails: the magic
/// rewrite's `visit` rule binds `Rest`, which asks `scons_min` for the
/// mode (free, bound, bound) that `mode_ok` admits but the builtin does
/// not evaluate. Such goals count as failed operations; any other error
/// is a wrong answer.
const SCONS_MIN_FAULT: &str = "does not support mode";

fn bom(ctx: &mut Ctx, min: bool) -> Result<Vec<Engine>, String> {
    let k = if min {
        BOM_SCONS_MIN_PARTS
    } else {
        BOM_SCONS_PARTS
    };
    let (text, total) = bom_text(k, min);
    let name = if min { "scons_min" } else { "scons" };
    let want: BTreeSet<i64> = [total].into_iter().collect();
    let cost = |rows: &[Vec<Value>]| -> Result<BTreeSet<i64>, String> {
        rows.iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Atom(w), Value::Int(n)) if w == "widget" => Ok(*n),
                _ => Err(format!("unexpected obj_cost row {r:?}")),
            })
            .collect()
    };

    let mut model = ctx.open(&text, Dialect::Elps)?;
    let got = cost(&materialize(ctx, &mut model, "obj_cost", 2)?)?;
    expect_rows(
        &format!("{name} bill of materials obj_cost(O, N)"),
        &got,
        &want,
    )?;

    let mut demand = ctx.open(&text, Dialect::Elps)?;
    let op = format!("{name} bill of materials goal obj_cost(widget, N)");
    let (ans, secs) = ctx.point(
        &mut demand,
        "obj_cost",
        &[Some(Value::atom("widget")), None],
    );
    match ans {
        Err(e) if min && e.contains(SCONS_MIN_FAULT) => ctx.failed_goal(secs),
        Err(e) => return Err(format!("{op}: {e}")),
        Ok(ans) => {
            ctx.goal(secs);
            expect_rows(&op, &cost(&ans.rows)?, &want)?;
        }
    }
    Ok(vec![model, demand])
}

fn unnest(ctx: &mut Ctx, rng: &mut Rng) -> Result<Vec<Engine>, String> {
    let draw = |rng: &mut Rng| -> BTreeSet<usize> {
        (0..UNNEST_SET_SIZE)
            .map(|_| rng.below(UNNEST_ELEMS))
            .collect()
    };
    let mut rows: Vec<BTreeSet<usize>> = (0..UNNEST_ROWS).map(|_| draw(rng)).collect();
    let mut text: String = rows
        .iter()
        .enumerate()
        .map(|(r, s)| format!("r(x{r}, {}).\n", set_text("e", s)))
        .collect();
    text.push_str("s(X, Y) :- r(X, Ys), Y in Ys.\n");
    let read = |rows: Vec<Vec<Value>>| -> Result<BTreeSet<(usize, usize)>, String> {
        rows.iter()
            .map(|r| Ok((idx(&r[0], "x")?, idx(&r[1], "e")?)))
            .collect()
    };

    let mut model = ctx.open(&text, Dialect::Elps)?;
    let got = read(materialize(ctx, &mut model, "s", 2)?)?;
    let want = oracle::unnest(&rows);
    expect_rows("s(X, Y)", &got, &want)?;
    let counted: usize = rows.iter().map(BTreeSet::len).sum();
    if got.len() != counted {
        return Err(format!("s(X, Y): {} rows, expected {counted}", got.len()));
    }
    for _ in 0..9 {
        let set = draw(rng);
        let args = [atom("x", rows.len()), atom_set("e", &set)];
        let secs = ctx.add_fact_update(&mut model, "r", &args)?;
        ctx.fact(secs);
        rows.push(set);
    }
    let got = read(rows_of(&model, "s", 2))?;
    expect_rows("s(X, Y) after the facts", &got, &oracle::unnest(&rows))?;

    let mut demand = ctx.open(&text, Dialect::Elps)?;
    for _ in 0..12 {
        let r = rng.below(UNNEST_ROWS);
        let op = format!("goal s(x{r}, Y)");
        let ans = goal(ctx, &mut demand, &op, "s", &[Some(atom("x", r)), None])?;
        expect_rows(&op, &col(&ans, 1, "e")?, &rows[r])?;
    }
    Ok(vec![model, demand])
}

fn strata(ctx: &mut Ctx, rng: &mut Rng) -> Result<Vec<Engine>, String> {
    let marked: Vec<usize> = (0..STRATA).map(|_| rng.below(STRATA_FACTS)).collect();
    let mut text: String = (0..STRATA_FACTS).map(|i| format!("p0(v{i}).\n")).collect();
    for (s, m) in (1..=STRATA).zip(&marked) {
        let prev = s - 1;
        text.push_str(&format!(
            "drop{s}(X) :- p{prev}(X), marked{s}(X).\nmarked{s}(v{m}).\n\
             p{s}(X) :- p{prev}(X), not drop{s}(X).\n"
        ));
    }
    let want = oracle::strata_survivors(STRATA_FACTS, &marked);
    let top = format!("p{STRATA}");

    let mut model = ctx.open(&text, Dialect::StratifiedElps)?;
    let got: BTreeSet<usize> = materialize(ctx, &mut model, &top, 1)?
        .iter()
        .map(|r| idx(&r[0], "v"))
        .collect::<Result<_, _>>()?;
    expect_rows(&format!("{top}(X)"), &got, &want)?;

    let mut demand = ctx.open(&text, Dialect::StratifiedElps)?;
    for _ in 0..6 {
        let v = rng.below(STRATA_FACTS);
        let op = format!("goal {top}(v{v})");
        let ans = goal(ctx, &mut demand, &op, &top, &[Some(atom("v", v))])?;
        let want: BTreeSet<usize> = Some(v).filter(|v| want.contains(v)).into_iter().collect();
        expect_rows(&op, &col(&ans, 0, "v")?, &want)?;
    }
    Ok(vec![model, demand])
}

fn union(ctx: &mut Ctx, rng: &mut Rng) -> Result<Vec<Engine>, String> {
    type Triple = (BTreeSet<usize>, BTreeSet<usize>, BTreeSet<usize>);
    let triples: Vec<Triple> = (0..UNION_TRIPLES)
        .map(|_| {
            let x = random_set(UNION_ATOMS, rng);
            let y = random_set(UNION_ATOMS, rng);
            let mut z: BTreeSet<usize> = x.union(&y).copied().collect();
            // Half the candidates are off by one element.
            if rng.chance(1, 2) {
                let e = rng.below(UNION_ATOMS);
                if !z.remove(&e) {
                    z.insert(e);
                }
            }
            (x, y, z)
        })
        .collect();
    let mut text: String = triples
        .iter()
        .map(|(x, y, z)| {
            format!(
                "cand({}, {}, {}).\n",
                set_text("b", x),
                set_text("b", y),
                set_text("b", z)
            )
        })
        .collect();
    text.push_str(
        "u(X, Y, Z) :- cand(X, Y, Z),
             (forall U in X: U in Z),
             (forall V in Y: V in Z),
             (forall W in Z: (W in X ; W in Y)).\n",
    );
    let want: BTreeSet<Triple> = triples
        .iter()
        .filter(|(x, y, z)| oracle::is_union(x, y, z))
        .cloned()
        .collect();
    let read = |rows: &[Vec<Value>]| -> Result<BTreeSet<Triple>, String> {
        rows.iter()
            .map(|r| {
                Ok((
                    idx_set(&r[0], "b")?,
                    idx_set(&r[1], "b")?,
                    idx_set(&r[2], "b")?,
                ))
            })
            .collect()
    };

    let mut model = ctx.open(&text, Dialect::Lps)?;
    let got = read(&materialize(ctx, &mut model, "u", 3)?)?;
    expect_rows("u(X, Y, Z)", &got, &want)?;

    let mut demand = ctx.open(&text, Dialect::Lps)?;
    for _ in 0..9 {
        let (x, y, _) = &triples[rng.below(UNION_TRIPLES)];
        let op = format!("goal u({}, {}, Z)", set_text("b", x), set_text("b", y));
        let args = [Some(atom_set("b", x)), Some(atom_set("b", y)), None];
        let ans = goal(ctx, &mut demand, &op, "u", &args)?;
        let want: BTreeSet<Triple> = want
            .iter()
            .filter(|(wx, wy, _)| wx == x && wy == y)
            .cloned()
            .collect();
        expect_rows(&op, &read(&ans.rows)?, &want)?;
    }
    Ok(vec![model, demand])
}

pub fn pass(ctx: &mut Ctx, rng: &mut Rng) -> Result<(), String> {
    let mut sessions = Vec::new();
    sessions.extend(disj(ctx, rng)?);
    sessions.extend(forall_trigger(ctx, rng)?);
    sessions.extend(grouping(ctx, rng)?);
    sessions.extend(bom(ctx, false)?);
    sessions.extend(bom(ctx, true)?);
    sessions.extend(unnest(ctx, rng)?);
    sessions.extend(strata(ctx, rng)?);
    sessions.extend(union(ctx, rng)?);
    for engine in &sessions {
        ctx.layers.absorb_session(engine);
    }
    Ok(())
}
