//! One unit of verification work — a litmus test on a design — replayed
//! call by call through each layer's public functions, with a span around
//! every call, plus the verdict digests both the replay and the
//! program's own reports reduce to.

use rtlcheck_core::{assert_gen, assume, CoverOutcome, Rtlcheck, TestReport};
use rtlcheck_litmus::LitmusTest;
use rtlcheck_obs::Collector;
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_rtl::mutate::Mutation;
use rtlcheck_sva::Prop;
use rtlcheck_uspec::Spec;
use rtlcheck_verif::{
    build_graph, check_cover_on_graph_observed, verify_property_on_graph_observed, Backend,
    CoverVerdict, GraphCache, Problem, PropertyVerdict, RtlAtom, VerifyConfig,
};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::spans::{Span, Track};

/// Span names, by layer. `verif.*` build spans cover only the eager part of
/// graph construction: rows a walk forces lazily count in the walk.
pub const RTL_SPANS: &[&str] = &["rtl.build_design", "rtl.mutation_apply"];
pub const CORE_SPANS: &[&str] = &[
    "core.assume_generate",
    "core.assert_generate",
    "core.problem_fingerprint",
];
pub const GRAPH_SPANS: &[&str] = &[
    "verif.build_graph",
    "verif.cache.build_graph",
    "verif.cache.build_graph_incremental",
];
pub const COVER_SPAN: &str = "verif.check_cover";
pub const WALK_SPAN: &str = "verif.verify_property";
pub const UNIT_SPAN: &str = "unit";

/// The µspec model and RTL variant a unit runs against.
#[derive(Debug, Clone)]
pub struct Tool {
    pub rtl: Rtlcheck,
    spec: Spec,
}

impl Tool {
    /// The Multi-V-scale SC flow (the fixed or the buggy memory).
    pub fn new(memory: MemoryImpl) -> Tool {
        assert!(
            memory != MemoryImpl::Tso,
            "the benchmark's workloads run the SC model only"
        );
        Tool {
            rtl: Rtlcheck::new(memory),
            spec: rtlcheck_uspec::multi_vscale::spec(),
        }
    }
}

/// Where a unit's state graph comes from.
#[derive(Debug, Clone, Copy)]
pub enum GraphSource<'c> {
    /// Built cold, no cache.
    Cold,
    /// Requested from a cache; a mutant splices from its baseline design's
    /// published core.
    Incremental(&'c GraphCache),
}

/// A unit's verdicts, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdicts {
    /// Cover outcome and every property verdict, in property order:
    /// `U` unreachable, `C<n>` covered by an n-cycle trace, `?` unknown;
    /// `P` proven, `B<d>` bounded to depth d, `F<n>` falsified by an
    /// n-cycle counterexample.
    pub digest: String,
    pub cover_witness: bool,
    pub cover_inconclusive: bool,
    pub bug_found: bool,
    pub vacuous: bool,
    /// Axioms of the falsified properties, in property order.
    pub falsified_axioms: Vec<String>,
    /// The `serve` protocol's report row fields.
    pub by_assumptions: bool,
    pub proven: usize,
    pub properties: usize,
    pub bounded: Vec<u32>,
}

fn prop_code(v: &PropertyVerdict) -> String {
    match v {
        PropertyVerdict::Proven { .. } => "P".to_string(),
        PropertyVerdict::Bounded { depth, .. } => format!("B{depth}"),
        PropertyVerdict::Falsified { trace, .. } => format!("F{}", trace.len()),
    }
}

impl Verdicts {
    fn build<'a>(
        cover: String,
        cover_witness: bool,
        cover_inconclusive: bool,
        vacuous: bool,
        props: impl Iterator<Item = (&'a PropertyVerdict, &'a str)>,
    ) -> Verdicts {
        let mut codes = Vec::new();
        let mut falsified_axioms = Vec::new();
        let mut proven = 0;
        let mut bounded = Vec::new();
        for (v, axiom) in props {
            codes.push(prop_code(v));
            match v {
                PropertyVerdict::Proven { .. } => proven += 1,
                PropertyVerdict::Bounded { depth, .. } => bounded.push(*depth),
                PropertyVerdict::Falsified { .. } => falsified_axioms.push(axiom.to_string()),
            }
        }
        Verdicts {
            digest: format!("{cover} {}", codes.join(",")),
            cover_witness,
            cover_inconclusive,
            bug_found: cover_witness || !falsified_axioms.is_empty(),
            vacuous,
            falsified_axioms,
            by_assumptions: cover == "U",
            proven,
            properties: codes.len(),
            bounded,
        }
    }

    /// The verdicts of a report the program produced.
    pub fn of_report(r: &TestReport) -> Verdicts {
        let (cover, witness, unknown) = match &r.cover {
            CoverOutcome::VerifiedUnreachable => ("U".to_string(), false, false),
            CoverOutcome::BugWitness(t) => (format!("C{}", t.len()), true, false),
            CoverOutcome::Inconclusive => ("?".to_string(), false, true),
        };
        Verdicts::build(
            cover,
            witness,
            unknown,
            r.vacuous,
            r.properties.iter().map(|p| (&p.verdict, p.axiom.as_str())),
        )
    }

    /// The status word of the `serve` protocol's report row.
    pub fn status(&self) -> &'static str {
        if self.bug_found {
            "violation"
        } else if self.cover_inconclusive {
            "budget_limited"
        } else if !self.vacuous {
            "verified"
        } else {
            "vacuous"
        }
    }

    /// The engine label the fuzzing campaign gives a bucket.
    pub fn engine_label(&self) -> &'static str {
        if self.bug_found {
            "bug"
        } else if !self.vacuous {
            "clean"
        } else {
            "inconclusive"
        }
    }
}

/// Replays one unit: design build (and mutation), assumption and
/// assertion generation, graph build, cover search and every property
/// walk, each inside its own span under a `unit` span. Work counters go
/// to `metrics` exactly as the program's own flow emits them from these
/// functions.
#[allow(clippy::too_many_arguments)]
pub fn run_unit(
    tr: &mut Track,
    parent: u64,
    unit: u64,
    tool: &Tool,
    test: &LitmusTest,
    mutation: Option<&Mutation>,
    config: &VerifyConfig,
    source: GraphSource<'_>,
    metrics: &dyn Collector,
) -> (Verdicts, usize) {
    tr.span(UNIT_SPAN, parent, unit, |tr, id| {
        let mut mv = tr.span("rtl.build_design", id, unit, |_, _| {
            tool.rtl.build_design(test)
        });
        let baseline = match (mutation, source) {
            (Some(_), GraphSource::Incremental(_)) => Some(mv.design.clone()),
            _ => None,
        };
        if let Some(m) = mutation {
            mv.design = tr
                .span("rtl.mutation_apply", id, unit, |_, _| m.apply(&mv.design))
                .expect("catalog mutations apply to every Multi-V-scale build");
        }
        let mv = mv;
        let assumptions = tr.span("core.assume_generate", id, unit, |_, _| {
            assume::generate(&mv, test)
        });
        let assertions = tr
            .span("core.assert_generate", id, unit, |_, _| {
                assert_gen::generate(&tool.spec, &mv, test, tool.rtl.options())
            })
            .expect("the Multi-V-scale µspec is synthesizable");

        let mut problem = Problem::new(&mv.design);
        problem.init_pins = assumptions.init_pins;
        problem.assumptions = assumptions.directives;
        problem.cover = Some(assumptions.cover);
        let props: Vec<&Prop<RtlAtom>> = assertions.iter().map(|a| &a.directive.prop).collect();
        let engine = config.cover_engine();

        let (graph, ticket) = match (source, &baseline) {
            (GraphSource::Cold, _) => tr.span("verif.build_graph", id, unit, |_, _| {
                (build_graph(&problem, props.iter().copied(), engine), None)
            }),
            (GraphSource::Incremental(cache), Some(base)) => {
                tr.span("verif.cache.build_graph_incremental", id, unit, |_, _| {
                    let (g, t) =
                        cache.build_graph_incremental(&problem, &props, engine, base, false);
                    (g, Some((cache, t)))
                })
            }
            (GraphSource::Incremental(cache), None) => {
                tr.span("verif.cache.build_graph", id, unit, |_, _| {
                    let (g, t) = cache.build_graph(&problem, &props, engine);
                    (g, Some((cache, t)))
                })
            }
        };
        let nodes_built = graph.stats().nodes;

        let cover = tr.span(COVER_SPAN, id, unit, |_, _| {
            check_cover_on_graph_observed(&graph, engine, metrics)
        });
        let verdicts: Vec<PropertyVerdict> = assertions
            .iter()
            .map(|a| {
                tr.span(WALK_SPAN, id, unit, |_, _| {
                    verify_property_on_graph_observed(
                        &graph,
                        &a.directive.prop,
                        config,
                        &a.directive.name,
                        metrics,
                    )
                })
            })
            .collect();
        Backend::report_to(&graph, metrics);
        if let Some((cache, ticket)) = ticket {
            cache.store_final(&ticket, &graph);
        }

        let (code, witness, unknown, stats) = match &cover {
            CoverVerdict::Unreachable(s) => ("U".to_string(), false, false, *s),
            CoverVerdict::Covered(t, s) => (format!("C{}", t.len()), true, false, *s),
            CoverVerdict::Unknown(s) => ("?".to_string(), false, true, *s),
        };
        let v = Verdicts::build(
            code,
            witness,
            unknown,
            stats.vacuous(),
            verdicts
                .iter()
                .zip(&assertions)
                .map(|(v, a)| (v, a.axiom.as_str())),
        );
        (v, nodes_built)
    })
}

/// Runs `f` over `items` on `workers` self-scheduling threads, each with
/// its own span track, like the program's deterministic pool: results come
/// back in input order. Returns the results, every span, and the wall time
/// in seconds.
pub fn pool<I: Sync, R: Send>(
    t0: Instant,
    items: &[I],
    workers: usize,
    f: impl Fn(&mut Track, u64, &I) -> R + Sync,
) -> (Vec<R>, Vec<Span>, f64) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let tracks: Vec<Track> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                let (next, slots, f) = (&next, &slots, &f);
                scope.spawn(move || {
                    let mut tr = Track::new(t0, fresh_tid());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let r = f(&mut tr, i as u64, item);
                        *slots[i]
                            .lock()
                            .expect("no replay worker panics holding a slot") = Some(r);
                    }
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay workers do not panic"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no replay worker panics holding a slot")
                .expect("every item is replayed")
        })
        .collect();
    let spans = tracks.into_iter().flat_map(Track::into_spans).collect();
    (results, spans, wall)
}

/// The next unused track id; span ids are unique within a run because
/// every track gets its own.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// A track id no other track of this run has.
pub fn fresh_tid() -> u64 {
    NEXT_TID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique_across_pools() {
        let t0 = Instant::now();
        let items = [0u8; 8];
        let mut ids = Vec::new();
        for _ in 0..3 {
            let (_, spans, _) = pool(t0, &items, 2, |tr, i, _| tr.span("x", 0, i, |_, _| ()));
            ids.extend(spans.iter().map(|s| s.id));
        }
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
