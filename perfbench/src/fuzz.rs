//! `fuzz-sc`: diy fuzzing campaigns on the fixed (SC) memory — random
//! critical cycles of length 3..=6, deduplicated by shape, triaged by the
//! polynomial oracle, with the default escalation to the engine.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtlcheck_bench::fuzz::{run_fuzz_live, Escalation, FuzzOptions, FuzzReport, MAX_DESIGN_CORES};
use rtlcheck_core::Rtlcheck;
use rtlcheck_litmus::diy::{self, CycleSignature, Edge};
use rtlcheck_litmus::oracle::{self, Model, Verdict};
use rtlcheck_litmus::LitmusTest;
use rtlcheck_obs::json::Json;
use rtlcheck_obs::{MetricsCollector, NullCollector};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

use crate::common::{self, Args, BatchPass, Outcome, JOBS};
use crate::flow::{self, GraphSource, Tool};
use crate::layers::{self, Pair};
use crate::spans::Track;

/// Cycles sampled per campaign.
pub const CYCLES: usize = 100_000;

const SEED_STREAM: u64 = 3;

fn options(cycle_seed: u64) -> FuzzOptions {
    let mut o = FuzzOptions::new(MemoryImpl::Fixed);
    o.count = CYCLES;
    o.seed = cycle_seed;
    o.jobs = JOBS;
    o.min_len = 3;
    o.max_len = 6;
    o
}

/// Cycles whose verdict the campaign got wrong: every escalated shape
/// must agree with the oracle (or resolve an oracle `unknown`), and no
/// generated shape may be SC-observable.
fn wrong_cycles(out: &mut Outcome, report: &FuzzReport) -> u64 {
    let mut bad = 0;
    for s in &report.shapes {
        let ok = s.sc_verdict != Verdict::Observable
            && matches!(s.agreement, None | Some("agree") | Some("resolved"));
        if !ok {
            bad += s.count as u64;
            out.error(format!(
                "fuzz-sc shape `{}` (seed {}): oracle {:?}, engine {:?}, agreement {:?}",
                s.signature, report.seed, s.design_verdict, s.engine, s.agreement
            ));
        }
    }
    bad
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let config = VerifyConfig::quick();

    // Set-up: ground the µspec model the escalations run against.
    let setup = || Rtlcheck::new(MemoryImpl::Fixed);
    let (_, mut setup_s) = common::timed_setup(common::SETUP_REPEATS, setup);
    let mut seeds = args.rng(SEED_STREAM);

    if !args.trace {
        // Each campaign draws its cycles from its own seed.
        let mut work = Vec::new();
        let passes = common::passes(args.seconds, 1, |_| {
            setup_s.extend(common::timed_setup(common::SETUP_REPEATS, setup).1);
            let start = Instant::now();
            let report = run_fuzz_live(
                &options(seeds.next_u64()),
                &config,
                &NullCollector,
                None,
                &[],
            );
            let wall_s = start.elapsed().as_secs_f64();
            let wrong = match report {
                Ok(r) => {
                    work.push(format!(
                        "{}/{}/{}",
                        r.shapes.len(),
                        r.escalated(),
                        r.bucket_sizes.len()
                    ));
                    wrong_cycles(&mut out, &r)
                }
                Err(e) => {
                    out.error(format!("fuzz-sc: campaign failed: {e}"));
                    CYCLES as u64
                }
            };
            BatchPass {
                wall_s,
                inputs: CYCLES as u64,
                wrong,
            }
        });
        out.info.push((
            "work shapes/escalated/buckets".to_string(),
            Json::Str(work.join(" ")),
        ));
        common::report_batch(&mut out, &passes, &setup_s);
        return out;
    }

    // Traced run: pairs of the program's campaign, its counters read
    // through a metrics collector, and the same campaign replayed call by
    // call. Every pair samples the same cycles.
    let cycle_seed = seeds.next_u64();
    let mut first: Option<FuzzReport> = None;
    let pairs = common::passes(args.seconds, 1, |k| {
        let program = MetricsCollector::new();
        let t = Instant::now();
        let report = run_fuzz_live(&options(cycle_seed), &config, &program, None, &[]);
        let untraced_s = t.elapsed().as_secs_f64();
        out.attempted += CYCLES as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.failed += CYCLES as u64;
                out.error(format!("fuzz-sc: campaign failed: {e}"));
                return Pair::default();
            }
        };
        out.failed += wrong_cycles(&mut out, &report);

        let replay = MetricsCollector::new();
        let t0 = Instant::now();
        let r = replay_campaign(t0, cycle_seed, &config, &replay);
        let traced_s = t0.elapsed().as_secs_f64();
        out.attempted += CYCLES as u64;
        if let Err(e) = compare(&report, &r) {
            out.failed += CYCLES as u64;
            out.error(format!(
                "fuzz-sc: traced replay differs from the campaign: {e}"
            ));
        }
        let counts = common::work_counts(&replay);
        common::check_counts(&mut out, &common::work_counts(&program), &counts);
        first.get_or_insert(report);
        Pair {
            untraced_s,
            traced_s,
            spans: if k == 0 { r.spans } else { Vec::new() },
            counts,
            nodes_built: r.nodes_built,
            pool_wall_s: r.pool_wall_s,
        }
    });
    layers::finish(&mut out, args, &pairs, &config, JOBS);
    let Some(report) = first else { return out };
    let totals = crate::spans::totals(&pairs[0].spans);
    out.metric(
        "litmus.gen_ms",
        crate::spans::self_ms(&totals, &["litmus.random_cycle", "litmus.generate"]),
    );
    out.metric(
        "litmus.canon_ms",
        crate::spans::self_ms(&totals, &["litmus.signature"]),
    );
    out.metric(
        "litmus.oracle_ms",
        crate::spans::self_ms(&totals, &["litmus.oracle"]),
    );
    out.metric(
        "litmus.dedup_ratio",
        report.duplicates as f64 / report.generated().max(1) as f64,
    );
    out.metric(
        "litmus.oracle_resolved_ratio",
        report.oracle_resolved() as f64 / report.shapes.len().max(1) as f64,
    );
    out.metric("litmus.escalated", report.escalated() as f64);
    out.info.push((
        "work fuzz".to_string(),
        Json::obj(vec![
            ("shapes", Json::Uint(report.shapes.len() as u64)),
            ("buckets", Json::Uint(report.bucket_sizes.len() as u64)),
            ("duplicates", Json::Uint(report.duplicates as u64)),
        ]),
    ));
    out
}

struct Shape {
    signature: CycleSignature,
    test: LitmusTest,
    count: usize,
    cores: usize,
    sc: Verdict,
    escalation: Escalation,
    bucket: Option<usize>,
    engine: Option<&'static str>,
}

struct Replay {
    shapes: Vec<Shape>,
    duplicates: usize,
    sample_failures: usize,
    buckets: Vec<Vec<usize>>,
    spans: Vec<crate::spans::Span>,
    nodes_built: u64,
    pool_wall_s: f64,
}

/// The campaign's pipeline, stage by stage through the litmus, core and
/// verif layers: sample and canonicalise every cycle, generate a test per
/// new shape, triage shapes with the oracle, pick and bucket the
/// escalations, and run each bucket's flow on the worker pool.
fn replay_campaign(
    t0: Instant,
    cycle_seed: u64,
    config: &VerifyConfig,
    metrics: &MetricsCollector,
) -> Replay {
    let o = options(cycle_seed);
    let mut tr = Track::new(t0, flow::fresh_tid());
    let mut rng = StdRng::seed_from_u64(o.seed);
    let lens = o.max_len - o.min_len + 1;
    let mut shapes: Vec<Shape> = Vec::new();
    let mut index: HashMap<CycleSignature, usize> = HashMap::new();
    let (mut duplicates, mut sample_failures) = (0, 0);
    for i in 0..o.count as u64 {
        let len = o.min_len + rng.gen_index(lens);
        let cycle: Vec<Edge> = match tr.span("litmus.random_cycle", 0, i, |_, _| {
            diy::random_cycle(&mut rng, len)
        }) {
            Ok(c) => c,
            Err(_) => {
                sample_failures += 1;
                continue;
            }
        };
        let signature = tr.span("litmus.signature", 0, i, |_, _| CycleSignature::of(&cycle));
        if let Some(&s) = index.get(&signature) {
            shapes[s].count += 1;
            duplicates += 1;
            continue;
        }
        let name = format!("fz{:04}", shapes.len());
        let test = tr
            .span("litmus.generate", 0, i, |_, _| diy::generate(&name, &cycle))
            .expect("random_cycle only returns generate-accepted cycles");
        index.insert(signature.clone(), shapes.len());
        shapes.push(Shape {
            signature,
            cores: test.num_cores(),
            test,
            count: 1,
            sc: Verdict::Unknown,
            escalation: Escalation::OracleOnly,
            bucket: None,
            engine: None,
        });
    }
    for (i, s) in shapes.iter_mut().enumerate() {
        s.sc = tr.span("litmus.oracle", 0, i as u64, |_, _| {
            let v = oracle::check(&s.test, Model::Sc);
            if v == Verdict::Forbidden {
                std::hint::black_box(oracle::exercised_axioms(&s.test, Model::Sc));
            }
            v
        });
    }

    // Escalation: unknown verdicts and generator violations always, then
    // the most frequent shapes up to a tenth of the unique shapes.
    let mut remaining = (shapes.len() / 10).max(1);
    for s in shapes.iter_mut() {
        s.escalation = if s.cores > MAX_DESIGN_CORES {
            Escalation::BeyondDesign
        } else if s.sc == Verdict::Observable {
            Escalation::Violation
        } else if s.sc == Verdict::Unknown {
            Escalation::Unknown
        } else {
            Escalation::OracleOnly
        };
    }
    let mut ranked: Vec<usize> = (0..shapes.len()).collect();
    ranked.sort_by(|&a, &b| shapes[b].count.cmp(&shapes[a].count).then(a.cmp(&b)));
    for i in ranked {
        if remaining == 0 {
            break;
        }
        if shapes[i].escalation == Escalation::OracleOnly {
            shapes[i].escalation = Escalation::Budget;
            remaining -= 1;
        }
    }

    let tool = Tool::new(MemoryImpl::Fixed);
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut bucket_index: HashMap<(u64, u64), usize> = HashMap::new();
    for (i, s) in shapes.iter_mut().enumerate() {
        if !matches!(
            s.escalation,
            Escalation::Unknown | Escalation::Violation | Escalation::Budget
        ) {
            continue;
        }
        let key = tr.span("core.problem_fingerprint", 0, i as u64, |_, _| {
            tool.rtl.problem_fingerprint(&s.test)
        });
        let b = *bucket_index.entry((key.key, key.check)).or_insert_with(|| {
            buckets.push(Vec::new());
            buckets.len() - 1
        });
        buckets[b].push(i);
        s.bucket = Some(b);
    }

    let reps: Vec<&LitmusTest> = buckets.iter().map(|b| &shapes[b[0]].test).collect();
    let (results, pool_spans, pool_wall_s) = flow::pool(t0, &reps, JOBS, |tr, b, test| {
        flow::run_unit(
            tr,
            0,
            b,
            &tool,
            test,
            None,
            config,
            GraphSource::Cold,
            metrics,
        )
    });
    let mut nodes_built = 0;
    for (b, (v, nodes)) in results.iter().enumerate() {
        nodes_built += *nodes as u64;
        for &i in &buckets[b] {
            shapes[i].engine = Some(v.engine_label());
        }
    }
    let mut spans = tr.into_spans();
    spans.extend(pool_spans);
    Replay {
        shapes,
        duplicates,
        sample_failures,
        buckets,
        spans,
        nodes_built,
        pool_wall_s,
    }
}

/// The replay must reproduce the campaign's shapes, escalations, buckets
/// and engine verdicts exactly.
fn compare(report: &FuzzReport, r: &Replay) -> Result<(), String> {
    if report.duplicates != r.duplicates || report.sample_failures != r.sample_failures {
        return Err(format!(
            "duplicates/sample failures {}/{} vs {}/{}",
            report.duplicates, report.sample_failures, r.duplicates, r.sample_failures
        ));
    }
    let sizes: Vec<usize> = r.buckets.iter().map(Vec::len).collect();
    if report.bucket_sizes != sizes {
        return Err("bucket sizes differ".to_string());
    }
    if report.shapes.len() != r.shapes.len() {
        return Err(format!(
            "{} shapes vs {}",
            report.shapes.len(),
            r.shapes.len()
        ));
    }
    for (a, b) in report.shapes.iter().zip(&r.shapes) {
        let same = a.signature == b.signature.to_string()
            && a.count == b.count
            && a.sc_verdict == b.sc
            && a.escalation == b.escalation
            && a.bucket == b.bucket
            && a.engine == b.engine;
        if !same {
            return Err(format!("shape `{}` differs", a.signature));
        }
    }
    Ok(())
}
