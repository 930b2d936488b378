//! Turning samples into the printed metrics: the untraced run's
//! end-to-end figures, the traced run's per-layer table, and the final
//! JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::harness::Ctx;
use crate::{run_passes, Samples, Workload, MIN_GOALS};

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("eval_s", "s"),
    ("fact_p50_us", "us"),
    ("ops_per_s", "op/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run (0 where the
/// workload leaves the layer idle). Times and counts are per pass.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("syntax.parse_s", "s"),
    ("syntax.clauses", "count"),
    ("core.check_s", "s"),
    ("core.normalize_s", "s"),
    ("core.aux_preds", "count"),
    ("core.lower_s", "s"),
    ("engine.run_s", "s"),
    ("engine.fixpoint_s", "s"),
    ("engine.prepare_s", "s"),
    ("engine.rounds", "count"),
    ("engine.rule_evaluations", "count"),
    ("engine.tuples_considered", "count"),
    ("engine.facts_derived", "count"),
    ("engine.dedup_yield", "ratio"),
    ("engine.index_probes", "count"),
    ("engine.probe_rows", "count"),
    ("engine.parallel_rounds", "count"),
    ("engine.merge_rows", "count"),
    ("engine.update_s", "s"),
    ("engine.incremental_runs", "count"),
    ("engine.delta_seed_facts", "count"),
    ("engine.stats_refreshes", "count"),
    ("engine.reorders_applied", "count"),
    ("engine.misestimate_ratio", "ratio"),
    ("engine.query_s", "s"),
    ("engine.demand_compile_s", "s"),
    ("engine.demand_continue_s", "s"),
    ("engine.demand_continuations", "count"),
    ("engine.magic_facts_seeded", "count"),
    ("engine.adornments_compiled", "count"),
    ("engine.plans_evicted", "count"),
    ("engine.demand_fallbacks", "count"),
    ("core.compile_query_s", "s"),
    ("core.answers_s", "s"),
    ("core.answer_rows", "count"),
    ("term.terms", "count"),
    ("term.sets", "count"),
    ("serve.snapshot_hits", "count"),
    ("serve.snapshot_misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.client_q_mean_us", "us"),
    ("serve.server_q_mean_us", "us"),
    ("serve.republishes", "count"),
    ("serve.server_f_mean_us", "us"),
    ("trace.layer_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_events", "count"),
];

/// Layer calls whose times add up to the attributed share of a pass.
const TIMED_LAYERS: [&str; 11] = [
    "syntax.parse",
    "core.check",
    "core.normalize",
    "core.lower",
    "engine.run",
    "engine.update",
    "engine.query",
    "core.compile_query",
    "core.answers",
    "serve.spawn",
    "serve.wire",
];

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0 < q < 1).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        assert!(v.is_finite(), "metric {name} is not finite");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// One warm-up pass (so lazy set-up and allocator growth are not
/// timed), then the measured passes.
fn measure(
    w: Workload,
    ctx: &mut Ctx,
    seed: u64,
    seconds: f64,
    min_goals: usize,
) -> Result<Samples, String> {
    let warm = run_passes(w, ctx, seed, 0, 0.0, 0)?;
    let mut s = run_passes(w, ctx, seed, 1, seconds, min_goals)?;
    s.attempted += warm.attempted;
    s.failed += warm.failed;
    Ok(s)
}

pub fn untraced(w: Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let mut ctx = Ctx::new(false);
    let s = measure(w, &mut ctx, seed, seconds, MIN_GOALS)?;
    println!(
        "# passes={} goals={} facts={} attempted={} failed={}",
        s.eval.len(),
        s.goal_us.len(),
        s.fact_us.len(),
        s.attempted,
        s.failed
    );
    let values = [
        median(&s.setup),
        median(&s.eval),
        median(&s.fact_us),
        median(&s.ops_rate),
        median(&s.goal_us),
        percentile(&s.goal_us, 0.99),
        peak_rss_mb(),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    for (n, u, v) in &metrics {
        println!("# {n:<14} {v:>14.6} {u}");
    }
    Ok(json_line(s.attempted, s.failed, &metrics))
}

pub fn traced(w: Workload, seed: u64, seconds: f64) -> Result<String, String> {
    // First half untraced: the baseline the overhead is measured from.
    let mut base_ctx = Ctx::new(false);
    let base = measure(w, &mut base_ctx, seed, seconds / 2.0, 0)?;
    lps_trace::global().drain();
    lps_trace::set_enabled(true);
    let mut ctx = Ctx::new(true);
    let traced = run_passes(w, &mut ctx, seed, 1, seconds / 2.0, 0);
    lps_trace::set_enabled(false);
    let traced = traced?;
    ctx.layers.drain_program_spans(false);

    let passes = traced.eval.len() as f64;
    let l = &ctx.layers;
    let time = |k: &str| l.time.get(k).copied().unwrap_or(0.0) / passes;
    let count = |k: &str| l.count.get(k).copied().unwrap_or(0.0) / passes;
    let peak = |k: &str| l.peak.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let wall =
        |s: &Samples| -> Vec<f64> { s.setup.iter().zip(&s.eval).map(|(a, b)| a + b).collect() };
    let traced_wall = wall(&traced);
    let pass_s = traced_wall.iter().sum::<f64>() / passes;
    let attributed: f64 = TIMED_LAYERS.iter().map(|k| time(k)).sum();
    let overhead = 100.0 * (median(&traced_wall) / median(&wall(&base)) - 1.0);

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let key = name.trim_end_matches("_s");
        let value = match name {
            "engine.prepare_s" => time("engine.run") - time("engine.fixpoint"),
            "engine.dedup_yield" => ratio(
                count("engine.facts_derived"),
                count("engine.tuples_considered"),
            ),
            "engine.misestimate_ratio" => peak(name),
            "serve.hit_ratio" => {
                let hits = count("serve.snapshot_hits");
                ratio(hits, hits + count("serve.snapshot_misses"))
            }
            "trace.layer_share" => ratio(attributed, pass_s),
            "trace.overhead_pct" => overhead,
            "trace.dropped_events" => l.dropped as f64,
            _ if name.ends_with("_s") => time(key),
            _ => count(name),
        };
        v.insert(name, value);
    }

    println!(
        "# traced passes={} untraced passes={} pass wall={:.6}s",
        traced.eval.len(),
        base.eval.len(),
        pass_s
    );
    println!("# {:<22} {:>12} {:>8}", "layer", "s/pass", "share");
    for k in TIMED_LAYERS {
        println!(
            "# {k:<22} {:>12.6} {:>7.1}%",
            time(k),
            100.0 * ratio(time(k), pass_s)
        );
    }
    println!(
        "# attributed to layers: {:.1}% of pass wall time; tracing overhead {overhead:+.1}% \
         (traced vs untraced pass median); dropped trace events {}",
        100.0 * ratio(attributed, pass_s),
        l.dropped
    );
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER.iter().map(|&(n, u)| (n, u, v[n])).collect();
    for (n, u, val) in &metrics {
        println!("# {n:<28} {val:>16.6} {u}");
    }
    Ok(json_line(
        base.attempted + traced.attempted,
        base.failed + traced.failed,
        &metrics,
    ))
}

/// The commit under test: `git rev-parse HEAD` where the tree is a git
/// checkout, else a digest of the sources the benchmark builds from.
pub fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_owned();
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over every path and its contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = f.to_string_lossy().into_owned().into_bytes();
        for b in bytes.iter().chain(&std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-{h:016x}")
}

fn collect_files(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n != "target") {
                collect_files(&path, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 0.5), 500.0);
    }

    /// BENCHMARK.json names exactly the metrics the binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section");
            let body = &json[start..];
            let end = body.find(']').expect("section end");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap().to_owned())
                .collect()
        };
        let names =
            |t: &[(&str, &str)]| -> Vec<String> { t.iter().map(|(n, _)| n.to_string()).collect() };
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
        let workloads = section("workloads");
        let all: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, all);
    }
}
