//! Per-layer metrics of a traced run: self times from the benchmark's
//! spans, work counts from the program's own counters.

use std::collections::BTreeMap;

use rtlcheck_obs::json::Json;
use rtlcheck_verif::{EngineKind, VerifyConfig};

use crate::common::{Args, Outcome};
use crate::flow::{CORE_SPANS, COVER_SPAN, GRAPH_SPANS, RTL_SPANS, UNIT_SPAN, WALK_SPAN};
use crate::spans::{self, Span};
use crate::stats;

fn count(counts: &BTreeMap<String, (u64, u64)>, name: &str) -> f64 {
    counts.get(name).map_or(0.0, |c| c.1 as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The rtl, core, verif, sva and pool metrics of a replay.
///
/// `nodes_built` sums each unit's graph size right after construction;
/// `pool_wall_s` is the wall time of the replay's worker pools, which run
/// `workers` threads.
fn verif(
    out: &mut Outcome,
    spans: &[Span],
    counts: &BTreeMap<String, (u64, u64)>,
    config: &VerifyConfig,
    nodes_built: u64,
    pool_wall_s: f64,
    workers: usize,
) {
    let totals = spans::totals(spans);
    let walk_ms = spans::self_ms(&totals, &[WALK_SPAN]);
    let bounded = count(counts, "engine.bounded.transitions");
    let full = count(counts, "engine.full.transitions");
    // A property's later engines start their walk from scratch; their
    // transitions re-walk what the first engine already covered.
    let first = match config.engines.first().map(|e| e.kind) {
        Some(EngineKind::Bounded) => bounded,
        _ => full,
    };
    out.metric("verif.walk.ms", walk_ms);
    out.metric("verif.walk.transitions.bounded", bounded);
    out.metric("verif.walk.transitions.full", full);
    out.metric(
        "verif.walk.ns_per_transition",
        ratio(walk_ms * 1e6, bounded + full),
    );
    out.metric(
        "verif.walk.rewalk_ratio",
        ratio(bounded + full - first, bounded + full),
    );
    let attempts = count(counts, "monitor.attempts");
    out.metric("sva.monitor.attempts", attempts);
    out.metric(
        "sva.monitor.vacuous_ratio",
        ratio(count(counts, "monitor.first_filter_hits"), attempts),
    );
    out.metric("verif.cover.ms", spans::self_ms(&totals, &[COVER_SPAN]));
    out.metric("verif.graph.build_ms", spans::self_ms(&totals, GRAPH_SPANS));
    out.metric("verif.graph.nodes_built", nodes_built as f64);
    out.metric("verif.graph.nodes_final", count(counts, "graph.nodes"));
    out.metric("verif.graph.lookups", count(counts, "graph.lookups"));
    let copied = count(counts, "cone.rows_copied");
    let recomputed = count(counts, "cone.rows_recomputed");
    out.metric(
        "verif.cache.splice_reuse",
        ratio(copied, copied + recomputed),
    );
    out.metric("verif.cache.rows_recomputed", recomputed);
    out.metric("rtl.build_ms", spans::self_ms(&totals, RTL_SPANS));
    out.metric("core.gen_ms", spans::self_ms(&totals, CORE_SPANS));

    let units: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == UNIT_SPAN)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let max = units.iter().copied().fold(0.0, f64::max);
    let sum: f64 = units.iter().sum();
    out.metric("pool.unit_ms.max", max);
    out.metric("pool.unit_ms.sum", sum);
    out.metric("pool.critical_path_frac", ratio(max, sum));
    out.metric(
        "pool.efficiency",
        ratio(sum, workers as f64 * pool_wall_s * 1e3),
    );
}

/// One traced pair: the program's own untraced pass over a workload's
/// units, then the same units replayed call by call.
#[derive(Debug, Default)]
pub struct Pair {
    pub untraced_s: f64,
    pub traced_s: f64,
    /// The replay's spans; only the first pair of a run keeps them.
    pub spans: Vec<Span>,
    /// The replay's work counts (equal to the program's, or an error was
    /// recorded).
    pub counts: BTreeMap<String, (u64, u64)>,
    pub nodes_built: u64,
    /// Wall time of the replay's worker pools.
    pub pool_wall_s: f64,
}

/// Reports a traced run: the per-layer metrics of its first pair, the
/// span table and file, and `obs.trace_overhead_frac` — the median traced
/// wall over the median untraced wall, minus one. Every pair did the same
/// work, so their work counts must be equal.
pub fn finish(
    out: &mut Outcome,
    args: &Args,
    pairs: &[Pair],
    config: &VerifyConfig,
    workers: usize,
) {
    let Some(first) = pairs.first() else {
        out.error("no traced pair ran");
        return;
    };
    if pairs.iter().any(|p| p.counts != first.counts) {
        out.error("work counts drifted between traced pairs");
    }
    out.info.push((
        "work".to_string(),
        Json::Obj(
            first
                .counts
                .iter()
                .map(|(n, (_, total))| (n.clone(), Json::Uint(*total)))
                .collect(),
        ),
    ));
    verif(
        out,
        &first.spans,
        &first.counts,
        config,
        first.nodes_built,
        first.pool_wall_s,
        workers,
    );
    let traced: Vec<f64> = pairs.iter().map(|p| p.traced_s).collect();
    let untraced: Vec<f64> = pairs.iter().map(|p| p.untraced_s).collect();
    out.metric(
        "obs.trace_overhead_frac",
        ratio(stats::median(&traced), stats::median(&untraced)) - 1.0,
    );
    out.summary("traced_wall_s", &traced);
    out.summary("untraced_wall_s", &untraced);
    span_table(out, &first.spans);
    crate::write_spans(out, args, &first.spans);
}

/// Adds the per-span-name table (count, total and self milliseconds) as
/// an info block.
fn span_table(out: &mut Outcome, spans: &[Span]) {
    let rows = spans::totals(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("count", Json::Uint(t.count)),
                    ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    out.info.push(("spans".to_string(), Json::Obj(rows)));
}
