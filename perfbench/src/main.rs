//! The lps benchmark: one command that runs one workload for a fixed
//! time, checks every answer against an independent computation, and
//! prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload closure --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones (see README.md). The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod closure;
mod harness;
mod oracle;
mod query;
mod report;
mod rng;
mod serve;
mod sets;

use std::process::ExitCode;
use std::time::Instant;

use harness::Ctx;
use rng::Rng;

/// Variables that change `EvalConfig::default()` behind the
/// benchmark's back; a measured run refuses to start under any of them.
const CONFIG_ENV: [&str; 3] = ["LPS_THREADS", "LPS_PLANNER", "LPS_TRACE"];

/// Goals a run holds at least, so that its p99 has ten samples beyond it.
pub const MIN_GOALS: usize = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Closure,
    Sets,
    Query,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Closure,
        Workload::Sets,
        Workload::Query,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Closure => "closure",
            Workload::Sets => "sets",
            Workload::Query => "query",
            Workload::Serve => "serve",
        }
    }

    fn pass(self, ctx: &mut Ctx, rng: &mut Rng) -> Result<(), String> {
        match self {
            Workload::Closure => closure::pass(ctx, rng),
            Workload::Sets => sets::pass(ctx, rng),
            Workload::Query => query::pass(ctx, rng),
            Workload::Serve => serve::pass(ctx, rng),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!(
                            "unknown workload {value} (closure|sets|query|serve)"
                        ))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0|1)")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Per-pass and per-operation samples of one phase of a run.
#[derive(Default)]
pub struct Samples {
    pub setup: Vec<f64>,
    pub eval: Vec<f64>,
    pub ops_rate: Vec<f64>,
    pub goal_us: Vec<f64>,
    pub fact_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run whole passes until `seconds` have gone by (and, when asked, the
/// run holds `min_goals` goals). Inputs come from `seed` and the pass
/// number only, so the same seed replays the same inputs.
fn run_passes(
    w: Workload,
    ctx: &mut Ctx,
    seed: u64,
    first_pass: u64,
    seconds: f64,
    min_goals: usize,
) -> Result<Samples, String> {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut pass_no = first_pass;
    while s.eval.is_empty()
        || start.elapsed().as_secs_f64() < seconds
        || s.goal_us.len() < min_goals
    {
        let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(pass_no));
        ctx.pass = Default::default();
        w.pass(ctx, &mut rng)
            .map_err(|e| format!("workload {}: pass {pass_no}: {e}", w.name()))?;
        let p = std::mem::take(&mut ctx.pass);
        s.setup.push(p.setup);
        s.eval.push(p.eval);
        s.ops_rate.push(p.ops as f64 / p.op_time);
        s.goal_us.extend(p.goal_us);
        s.fact_us.extend(p.fact_us);
        s.attempted += p.attempted;
        s.failed += p.failed;
        pass_no += 1;
    }
    Ok(s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload closure|sets|query|serve --seed N \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = CONFIG_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "error: {} set; each changes EvalConfig::default(), so the run would not \
             measure the default configuration. Unset and retry.",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = match args.workload {
        Workload::Serve => serve::pin_to_one_cpu().map_or("none".into(), |c| format!("cpu{c}")),
        _ => "no".to_owned(),
    };
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} pinned={pinned} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::commit(),
    );
    let result = if args.trace {
        report::traced(args.workload, args.seed, args.seconds)
    } else {
        report::untraced(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
