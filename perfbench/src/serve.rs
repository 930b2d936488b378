//! `serve`: `Server::spawn` on loopback with two client connections in
//! a closed loop. The clients work in barrier-separated waves: one `F`
//! fact each; then `Q` point goals (snapshot hits once demanded); then
//! conjunctive goals (funneled to the writer) and one `S`. Each pass
//! spawns a fresh server, so every pass starts from the same state.
//!
//! The run is pinned to one CPU (see [`pin_to_one_cpu`]).
//!
//! Point goals use one orientation, `t(n_s, X)`, and a barrier keeps
//! them apart from the conjunctive goals: a snapshot published after a
//! funneled goal of another plan serves this plan's retained answers
//! without the wave's facts (see CHANGES.md).

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::Barrier;
use std::time::Instant;

use lps_core::{Client, Database, Dialect, Server};

use crate::harness::{expect_rows, Ctx};
use crate::oracle::path_goal;
use crate::oracle::Graph;
use crate::query::{chain_with_chords, goal_text, node_of, node_rows, program_text, shapes};
use crate::rng::Rng;

/// Chain length, plus `CHORDS` random forward chords.
pub const NODES: usize = 256;
pub const CHORDS: usize = 32;
pub const CLIENTS: usize = 2;
pub const WAVES: usize = 12;
/// Per client and wave: point goals, then conjunctive goals.
pub const POINT_PER_WAVE: usize = 6;
pub const CONJ_PER_WAVE: usize = 2;
/// Point-goal sources shared by both clients.
pub const POOL: usize = 4;
/// Conjunctive goals use the first few path shapes.
pub const CONJ_SHAPES: usize = 6;

enum Op {
    Fact(usize, usize),
    Point(usize),
    Conj {
        shape: usize,
        s: usize,
        end: Option<usize>,
    },
    Stats,
}

struct Done {
    wave: usize,
    op: Op,
    text: String,
    secs: f64,
    reply: Result<Vec<String>, String>,
}

/// A wave's requests, as frames and their meaning.
type Phase = Vec<(Op, String)>;

/// One client's waves, each three barrier-separated phases: the fact,
/// the point goals, then the conjunctive goals and the `S`.
fn plan(rng: &mut Rng, c: usize, sources: &[usize]) -> Vec<[Phase; 3]> {
    let shapes = shapes();
    (0..WAVES)
        .map(|w| {
            let (from, fresh) = (rng.below(NODES), NODES + w * CLIENTS + c);
            let fact = vec![(Op::Fact(from, fresh), format!("e(n{from}, n{fresh})."))];
            let points = (0..POINT_PER_WAVE)
                .map(|g| {
                    let s = sources[(w * POINT_PER_WAVE + g + c) % POOL];
                    (Op::Point(s), format!("t(n{s}, X)."))
                })
                .collect();
            let mut ops = Vec::new();
            for g in 0..CONJ_PER_WAVE {
                let shape = (w * CONJ_PER_WAVE + g + c) % CONJ_SHAPES;
                let (steps, bound_end) = &shapes[shape];
                let s = rng.below(NODES / 2);
                let end = bound_end.then(|| s + steps.len() + rng.below(8));
                ops.push((Op::Conj { shape, s, end }, goal_text(s, steps, end)));
            }
            ops.push((Op::Stats, String::new()));
            [fact, points, ops]
        })
        .collect()
}

/// One client's closed loop. A client whose connection fails keeps
/// meeting the barriers, so the other client is never left waiting.
fn client(
    addr: std::net::SocketAddr,
    waves: Vec<[Phase; 3]>,
    barrier: &Barrier,
) -> Result<Vec<Done>, String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut done = Vec::new();
    for (wave, phases) in waves.into_iter().enumerate() {
        for phase in phases {
            // Both clients finish a phase before either starts the next:
            // every fact of the wave lands before any goal reads.
            barrier.wait();
            let Ok(c) = conn.as_mut() else { continue };
            for (op, text) in phase {
                let start = Instant::now();
                let reply = match &op {
                    Op::Fact(..) => c.add_fact(&text).map(|r| r.map(|()| Vec::new())),
                    Op::Point(_) | Op::Conj { .. } => c.query(&text),
                    Op::Stats => c.server_stats().map(|r| r.map(|s| vec![s])),
                };
                let secs = start.elapsed().as_secs_f64();
                match reply {
                    Ok(reply) => done.push(Done {
                        wave,
                        op,
                        text,
                        secs,
                        reply,
                    }),
                    Err(e) => {
                        conn = Err(format!("wave {wave}: {text}: {e}"));
                        break;
                    }
                }
            }
        }
    }
    conn.map(|_| done)
}

/// Pin the process's current thread, and so every thread it starts
/// later (the server's and the clients'), to the CPU it runs on; returns
/// that CPU. On a 2-vCPU virtual machine the closed loop's wall time
/// otherwise depends on whether the hypervisor runs both vCPUs at once,
/// which moved the pass time of whole runs by a quarter; on one CPU it
/// depends on one CPU's speed, as the single-threaded workloads do.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are plain glibc calls; the mask outlives the call and
    // its size is passed with it.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    ok.then_some(cpu)
}

/// One sample of the server's `S` exposition.
fn exposition(text: &str, key: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0.0)
}

pub fn pass(ctx: &mut Ctx, rng: &mut Rng) -> Result<(), String> {
    let edges = chain_with_chords(rng, NODES, CHORDS);
    let sources: Vec<usize> = (0..POOL).map(|_| rng.below(NODES / 4)).collect();
    let plans: Vec<_> = (0..CLIENTS).map(|c| plan(rng, c, &sources)).collect();

    let text = program_text(&edges);
    let mut db = Database::with_config(Dialect::Elps, ctx.cfg);
    let (loaded, t_parse) = ctx
        .layers
        .timed("syntax.parse", || db.load_str(&text).map(|_| ()));
    loaded.map_err(|e| e.to_string())?;
    let (server, t_spawn) = ctx.layers.timed("serve.spawn", || {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        Server::spawn(listener, &db).map_err(|e| e.to_string())
    });
    let mut server = server?;
    ctx.pass.setup += t_parse + t_spawn;

    let addr = server.local_addr();
    let barrier = Barrier::new(CLIENTS);
    let start = Instant::now();
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|p| {
                let barrier = &barrier;
                s.spawn(move || client(addr, p, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let metrics = server.metrics_text();
    server.shutdown();
    // The server's threads record spans too; fold them in each pass so
    // the bounded collector never fills.
    ctx.layers.drain_program_spans(false);

    let mut done: Vec<Done> = Vec::new();
    for r in results {
        done.extend(r?);
    }
    let (mut wire, mut q_sum, mut q_count) = (0.0, 0.0, 0.0);
    for d in &done {
        wire += d.secs;
        match d.op {
            Op::Fact(..) => ctx.fact(d.secs),
            Op::Point(_) | Op::Conj { .. } => {
                ctx.goal(d.secs);
                q_sum += d.secs * 1e6;
                q_count += 1.0;
            }
            Op::Stats => ctx.pass.attempted += 1,
        }
    }
    if q_count > 0.0 {
        ctx.layers.add("serve.client_q_mean_us", q_sum / q_count);
    }
    // The closed loop is the waves' wall time, not the sum over clients.
    ctx.pass.eval = wall;
    ctx.pass.op_time = wall;
    ctx.layers.add_time("serve.wire", wire / CLIENTS as f64);
    for (name, key) in [
        ("serve.snapshot_hits", "lps_snapshot_hits_total "),
        ("serve.snapshot_misses", "lps_snapshot_misses_total "),
        ("serve.republishes", "lps_republish_total "),
    ] {
        ctx.layers.add(name, exposition(&metrics, key));
    }
    // Server-side means from the histograms' exact `_sum`/`_count`: the
    // exposition's quantiles are power-of-two bucket bounds, too coarse
    // to subtract from a client-side latency.
    for (name, op) in [
        ("serve.server_q_mean_us", "lps_op_q_us"),
        ("serve.server_f_mean_us", "lps_op_f_us"),
    ] {
        let sum = exposition(&metrics, &format!("{op}_sum "));
        let count = exposition(&metrics, &format!("{op}_count "));
        ctx.layers
            .add(name, if count > 0.0 { sum / count } else { 0.0 });
    }

    // Check every answer against BFS over the facts of waves ≤ its own.
    let shapes = shapes();
    let mut graph = Graph::new(&edges);
    for wave in 0..WAVES {
        for d in done.iter().filter(|d| d.wave == wave) {
            if let Op::Fact(a, b) = d.op {
                graph.add_edge(a, b);
            }
        }
        for d in done.iter().filter(|d| d.wave == wave) {
            let op = format!(
                "wave {wave}: {}",
                if d.text.is_empty() { "S" } else { &d.text }
            );
            let rows = d.reply.as_ref().map_err(|e| format!("{op}: err {e}"))?;
            match &d.op {
                Op::Fact(..) => {}
                Op::Stats => {
                    if !rows
                        .first()
                        .is_some_and(|s| s.contains("lps_snapshot_hits_total"))
                    {
                        return Err(format!("{op}: no metrics exposition"));
                    }
                }
                Op::Point(node) => {
                    let got = rows
                        .iter()
                        .map(|r| node_of(r.split(", ").nth(1).unwrap_or("")))
                        .collect::<Result<BTreeSet<usize>, String>>()
                        .map_err(|e| format!("{op}: {e}"))?;
                    expect_rows(&op, &got, &graph.reach(*node))?;
                }
                Op::Conj { shape, s, end } => {
                    let got = node_rows(rows.iter().map(|r| r.split(", ")))
                        .map_err(|e| format!("{op}: {e}"))?;
                    let want = path_goal(&graph, *s, &shapes[*shape].0, *end);
                    expect_rows(&op, &got, &want)?;
                }
            }
        }
    }
    Ok(())
}
