//! The measuring harness: opening sessions through each layer's public
//! functions, timing every layer call from outside, and collecting the
//! per-pass samples the end-to-end metrics are medians of.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use lps_core::lower::load_program_sorted;
use lps_core::sorts::infer_sorts;
use lps_core::transform::magic::compile_query;
use lps_core::transform::positive::normalize_program;
use lps_core::validate::validate_program;
use lps_core::{Dialect, QueryAnswers, QueryAnswersRef};
use lps_engine::{Engine, EvalConfig, EvalStats};
use lps_syntax::{parse_program, Program};
use lps_term::Value;

/// Per-layer accounting for the traced run. Every layer call is timed
/// either way (the end-to-end samples need the times); only a traced
/// run accumulates them, drains the program's own `lps_trace` spans,
/// and reads the engine counters.
#[derive(Default)]
pub struct Layers {
    pub on: bool,
    /// Seconds spent in each layer's calls.
    pub time: BTreeMap<&'static str, f64>,
    /// Additive counts.
    pub count: BTreeMap<&'static str, f64>,
    /// Peak values.
    pub peak: BTreeMap<&'static str, f64>,
    /// Trace events the program's collector dropped (must stay 0).
    pub dropped: u64,
}

impl Layers {
    /// Run `f` as one call into `layer`; returns its result and seconds.
    pub fn timed<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if self.on {
            *self.time.entry(layer).or_default() += secs;
        }
        (out, secs)
    }

    /// Time spent in a layer outside [`Layers::timed`] (client threads).
    pub fn add_time(&mut self, layer: &'static str, secs: f64) {
        if self.on {
            *self.time.entry(layer).or_default() += secs;
        }
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.count.entry(name).or_default() += v;
        }
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let e = self.peak.entry(name).or_default();
            *e = e.max(v);
        }
    }

    /// Fold the program's own spans recorded since the last drain into
    /// the per-layer sums. `stratum` spans count as `engine.fixpoint`
    /// only when they ran inside [`Engine::run`] (`in_run`), so that
    /// `engine.prepare_s = engine.run_s − engine.fixpoint_s` stays the
    /// run's own set-up share.
    pub fn drain_program_spans(&mut self, in_run: bool) {
        if !self.on {
            return;
        }
        let col = lps_trace::global();
        self.dropped += col.dropped();
        for ev in col.drain() {
            if ev.kind != lps_trace::EventKind::Span {
                continue;
            }
            let name = match ev.name.as_str() {
                "stratum" if in_run => "engine.fixpoint",
                "demand_compile" => "engine.demand_compile",
                "demand_continue" => "engine.demand_continue",
                _ => continue,
            };
            *self.time.entry(name).or_default() += ev.dur_us as f64 / 1e6;
        }
    }

    /// The engine counters and term-store size of a finished session.
    pub fn absorb_session(&mut self, engine: &Engine) {
        if !self.on {
            return;
        }
        let s: EvalStats = engine.cumulative_stats();
        for (name, v) in [
            ("engine.rounds", s.iterations),
            ("engine.rule_evaluations", s.rule_evaluations),
            ("engine.tuples_considered", s.tuples_considered),
            ("engine.facts_derived", s.facts_derived),
            ("engine.index_probes", s.index_probes),
            ("engine.probe_rows", s.probe_rows),
            ("engine.parallel_rounds", s.parallel_rounds),
            ("engine.merge_rows", s.merge_rows),
            ("engine.incremental_runs", s.incremental_runs),
            ("engine.delta_seed_facts", s.delta_seed_facts),
            ("engine.stats_refreshes", s.stats_refreshes),
            ("engine.reorders_applied", s.reorders_applied),
            ("engine.demand_continuations", s.demand_continuations),
            ("engine.magic_facts_seeded", s.magic_facts_seeded),
            ("engine.adornments_compiled", s.adornments_compiled),
            ("engine.plans_evicted", s.plans_evicted),
            ("engine.demand_fallbacks", s.demand_fallbacks),
        ] {
            self.add(name, v as f64);
        }
        self.max("engine.misestimate_ratio", s.misestimate_ratio as f64);
        let store = engine.store().stats();
        self.add("term.terms", store.terms as f64);
        self.add("term.sets", store.sets as f64);
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct PassAcc {
    /// Program text to ready session, summed over the pass's sessions.
    pub setup: f64,
    /// Loaded sessions to every answer read out.
    pub eval: f64,
    /// Time inside timed goals and facts (the closed-loop phase).
    pub op_time: f64,
    /// Goals plus facts completed.
    pub ops: u64,
    pub goal_us: Vec<f64>,
    pub fact_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a workload pass needs: the evaluation settings, the
/// layer accounting, and the pass's accumulators.
pub struct Ctx {
    pub cfg: EvalConfig,
    pub layers: Layers,
    pub pass: PassAcc,
}

impl Ctx {
    pub fn new(traced: bool) -> Self {
        Ctx {
            cfg: EvalConfig {
                trace: traced,
                ..EvalConfig::default()
            },
            layers: Layers {
                on: traced,
                ..Layers::default()
            },
            pass: PassAcc::default(),
        }
    }

    /// A batch step (materialization plus read-out) of `secs`.
    pub fn eval_step(&mut self, secs: f64) {
        self.pass.eval += secs;
        self.pass.attempted += 1;
    }

    /// A goal answered in `secs`.
    pub fn goal(&mut self, secs: f64) {
        self.pass.eval += secs;
        self.pass.op_time += secs;
        self.pass.ops += 1;
        self.pass.attempted += 1;
        self.pass.goal_us.push(secs * 1e6);
    }

    /// A goal the program failed to answer: attempted, not completed,
    /// and kept out of the latency samples.
    pub fn failed_goal(&mut self, secs: f64) {
        self.pass.eval += secs;
        self.pass.op_time += secs;
        self.pass.attempted += 1;
        self.pass.failed += 1;
    }

    /// A fact made visible in `secs`.
    pub fn fact(&mut self, secs: f64) {
        self.pass.eval += secs;
        self.pass.op_time += secs;
        self.pass.ops += 1;
        self.pass.attempted += 1;
        self.pass.fact_us.push(secs * 1e6);
    }

    /// Open a live session from program text the way
    /// `Database::session` does — parse, check (validate and sorts),
    /// Theorem-6 normalize, lower — timing each layer. The session's
    /// set-up time is added to the pass.
    pub fn open(&mut self, text: &str, dialect: Dialect) -> Result<Engine, String> {
        let l = &mut self.layers;
        let (program, t_parse) = l.timed("syntax.parse", || parse_program(text));
        let program = program.map_err(|e| e.render(text))?;
        let (checked, t_check) = l.timed("core.check", || {
            validate_program(&program, dialect)?;
            infer_sorts(&program, dialect)
        });
        checked.map_err(|e| e.to_string())?;
        let (normalized, t_norm) = l.timed("core.normalize", || normalize_program(&program));
        let normalized = normalized.map_err(|e| e.to_string())?;
        let cfg = self.cfg;
        let (engine, t_lower) = l.timed("core.lower", || {
            let sorts = infer_sorts(&normalized, Dialect::StratifiedElps).ok();
            let mut engine = Engine::new(cfg);
            load_program_sorted(&mut engine, &normalized, sorts.as_ref()).map(|()| engine)
        });
        let engine = engine.map_err(|e| e.to_string())?;
        if l.on {
            l.add("syntax.clauses", program.clauses().count() as f64);
            l.add(
                "core.aux_preds",
                heads(&normalized).difference(&heads(&program)).count() as f64,
            );
        }
        self.pass.setup += t_parse + t_check + t_norm + t_lower;
        Ok(engine)
    }

    /// `Engine::run`: materialize the least model.
    pub fn run(&mut self, engine: &mut Engine) -> Result<f64, String> {
        let (res, secs) = self.layers.timed("engine.run", || engine.run());
        self.layers.drain_program_spans(true);
        res.map_err(|e| e.to_string())?;
        Ok(secs)
    }

    /// `Model::add_fact` then `Model::update`: make one fact visible.
    pub fn add_fact_update(
        &mut self,
        engine: &mut Engine,
        pred: &str,
        args: &[Value],
    ) -> Result<f64, String> {
        let start = Instant::now();
        let id = engine.pred(pred, args.len());
        engine.fact_values(id, args).map_err(|e| e.to_string())?;
        let add = start.elapsed().as_secs_f64();
        let (res, upd) = self.layers.timed("engine.update", || engine.update());
        self.layers.drain_program_spans(false);
        res.map_err(|e| e.to_string())?;
        Ok(add + upd)
    }

    /// `Model::add_fact` alone: queue a fact into a demand session,
    /// where the next goal folds it in.
    pub fn add_fact(
        &mut self,
        engine: &mut Engine,
        pred: &str,
        args: &[Value],
    ) -> Result<f64, String> {
        let start = Instant::now();
        let id = engine.pred(pred, args.len());
        engine.fact_values(id, args).map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// `Model::extension`: every row of `pred/arity`, owned and sorted.
    pub fn extension(
        &mut self,
        engine: &Engine,
        pred: &str,
        arity: usize,
    ) -> (Vec<Vec<Value>>, f64) {
        let (rows, secs) = self.layers.timed("core.answers", || {
            engine
                .lookup_pred(pred, arity)
                .map(|id| engine.extension(id))
                .unwrap_or_default()
        });
        self.layers.add("core.answer_rows", rows.len() as f64);
        (rows, secs)
    }

    /// `Model::query`: a point goal, `Some` for bound arguments.
    pub fn point(
        &mut self,
        engine: &mut Engine,
        pred: &str,
        args: &[Option<Value>],
    ) -> (Result<QueryAnswers, String>, f64) {
        let start = Instant::now();
        let id = engine.pred(pred, args.len());
        let interned: Vec<_> = args
            .iter()
            .map(|a| a.as_ref().map(|v| v.intern(engine.store_mut())))
            .collect();
        let (res, _) = self
            .layers
            .timed("engine.query", || engine.query(id, &interned));
        self.layers.drain_program_spans(false);
        let out = res.map_err(|e| e.to_string()).map(|res| {
            let (ans, _) = self.layers.timed("core.answers", || {
                QueryAnswersRef::from_result(engine.store(), Vec::new(), res).to_owned()
            });
            self.layers.add("core.answer_rows", ans.rows.len() as f64);
            ans
        });
        (out, start.elapsed().as_secs_f64())
    }

    /// `Model::query_str`: a conjunctive goal in surface syntax.
    pub fn conj(&mut self, engine: &mut Engine, body: &str) -> (Result<QueryAnswers, String>, f64) {
        let start = Instant::now();
        let (goal, _) = self
            .layers
            .timed("core.compile_query", || compile_query(engine, body));
        let out = match goal {
            Err(e) => Err(e.to_string()),
            Ok(goal) => {
                let (res, _) = self
                    .layers
                    .timed("engine.query", || engine.query_rule(goal.rule));
                self.layers.drain_program_spans(false);
                res.map_err(|e| e.to_string()).map(|res| {
                    let (ans, _) = self.layers.timed("core.answers", || {
                        QueryAnswersRef::from_result(engine.store(), goal.columns, res).to_owned()
                    });
                    self.layers.add("core.answer_rows", ans.rows.len() as f64);
                    ans
                })
            }
        };
        (out, start.elapsed().as_secs_f64())
    }
}

fn heads(p: &Program) -> BTreeSet<&str> {
    p.clauses().map(|c| c.head.pred.as_str()).collect()
}

/// The index of an atom `<prefix><i>`, e.g. `n12` → 12.
pub fn idx(v: &Value, prefix: &str) -> Result<usize, String> {
    match v {
        Value::Atom(a) => a
            .strip_prefix(prefix)
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("unexpected atom {a}")),
        other => Err(format!("expected an atom {prefix}…, got {other}")),
    }
}

/// The indices of a set of atoms `<prefix><i>`.
pub fn idx_set(v: &Value, prefix: &str) -> Result<BTreeSet<usize>, String> {
    match v {
        Value::Set(elems) => elems.iter().map(|e| idx(e, prefix)).collect(),
        other => Err(format!("expected a set, got {other}")),
    }
}

pub fn atom(prefix: &str, i: usize) -> Value {
    Value::atom(format!("{prefix}{i}"))
}

pub fn atom_set(prefix: &str, xs: &BTreeSet<usize>) -> Value {
    Value::set(xs.iter().map(|&i| atom(prefix, i)))
}

/// Set literal text, e.g. `{a1, a4}`.
pub fn set_text(prefix: &str, xs: &BTreeSet<usize>) -> String {
    let elems: Vec<String> = xs.iter().map(|i| format!("{prefix}{i}")).collect();
    format!("{{{}}}", elems.join(", "))
}

/// Compare an answer set against the independent one; on a mismatch,
/// name the operation and show a few differing rows.
pub fn expect_rows<T: Ord + std::fmt::Debug>(
    op: &str,
    got: &BTreeSet<T>,
    want: &BTreeSet<T>,
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing: Vec<&T> = want.difference(got).take(3).collect();
    let extra: Vec<&T> = got.difference(want).take(3).collect();
    Err(format!(
        "{op}: {} rows, expected {}; missing {missing:?}, unexpected {extra:?}",
        got.len(),
        want.len()
    ))
}
