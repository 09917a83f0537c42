//! `mutate-mvs`: the Multi-V-scale mutation campaign — the baseline and
//! every catalogued mutant, each against the 56-test suite — under the
//! quick configuration, splicing mutant graphs from the baseline cores in
//! an in-memory cache, on a one-worker pool.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::seq::SliceRandom;
use rtlcheck_bench::mutation::{run_campaign_live, CampaignOptions, CampaignReport, COVER_AXIOM};
use rtlcheck_core::Rtlcheck;
use rtlcheck_litmus::{suite, LitmusTest};
use rtlcheck_obs::{MetricsCollector, NullCollector};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_rtl::mutate::{catalog, CatalogTarget, Mutation};
use rtlcheck_verif::{GraphCache, Incremental, VerifyConfig};

use crate::common::{self, Args, BatchPass, Outcome};
use crate::flow::{self, GraphSource, Tool, Verdicts};
use crate::layers::{self, Pair};

pub const EXPECTED_FLOWS: &str = include_str!("../expected/mutate-mvs.tsv");
pub const EXPECTED_KILLS: &str = include_str!("../expected/mutate-mvs-kills.tsv");

const ORDER_STREAM: u64 = 2;

/// Worker threads of the campaign and its replay. Two workers splicing
/// 150–230 MB of graphs at once spread 0.22 in throughput (IQR over
/// median) across runs interleaved with one-worker runs that spread 0.09:
/// on the shared host, two memory-bound workers measure the host's memory
/// contention more than the campaign.
pub const WORKERS: usize = 1;

/// The design name of the unmutated baseline in the flow digests.
pub const BASELINE: &str = "baseline";

pub fn options(tests: &[LitmusTest], mutants: &[Mutation]) -> CampaignOptions {
    let mut o = CampaignOptions::new(CatalogTarget::MultiVscale);
    o.jobs = WORKERS;
    o.incremental = Incremental::On;
    o.tests = Some(tests.iter().map(|t| t.name().to_string()).collect());
    o.mutants = Some(mutants.iter().map(|m| m.name.clone()).collect());
    o
}

/// One line per mutant: verdict, then each killing test (sorted) with the
/// axioms that killed it.
pub fn kill_lines(report: &CampaignReport) -> BTreeMap<String, String> {
    report
        .mutants
        .iter()
        .map(|m| {
            let kills: Vec<(&str, String)> = m
                .killed_by
                .iter()
                .map(|k| (k.test.as_str(), k.axioms.join("+")))
                .collect();
            (m.name.clone(), render_kills(m.verdict.label(), kills))
        })
        .collect()
}

fn render_kills(verdict: &str, mut kills: Vec<(&str, String)>) -> String {
    kills.sort();
    let kills: Vec<String> = kills.iter().map(|(t, a)| format!("{t}:{a}")).collect();
    format!("{verdict} {}", kills.join(","))
}

/// The campaign's classification recomputed from per-flow verdicts: a
/// mutant is killed by a test whose bug verdict differs from the
/// baseline's.
pub fn classify(
    tests: &[LitmusTest],
    mutants: &[Mutation],
    flows: &[Verdicts],
) -> BTreeMap<String, String> {
    let n = tests.len();
    let (baseline, mutant_flows) = flows.split_at(n);
    mutants
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let runs = &mutant_flows[mi * n..(mi + 1) * n];
            let mut kills = Vec::new();
            let mut inconclusive = false;
            for (ti, run) in runs.iter().enumerate() {
                let base = &baseline[ti];
                inconclusive |= run.cover_inconclusive;
                if run.bug_found == base.bug_found {
                    continue;
                }
                let mut axioms: Vec<String> = Vec::new();
                if run.cover_witness != base.cover_witness {
                    axioms.push(COVER_AXIOM.to_string());
                }
                for a in &run.falsified_axioms {
                    if !axioms.contains(a) {
                        axioms.push(a.clone());
                    }
                }
                kills.push((tests[ti].name(), axioms.join("+")));
            }
            let verdict = if !kills.is_empty() {
                "killed"
            } else if inconclusive {
                "budget_limited"
            } else {
                "survived"
            };
            (m.name.clone(), render_kills(verdict, kills))
        })
        .collect()
}

/// Compares kill lines with the expected ones; returns the flows of the
/// mutants that differ.
fn check_kills(
    out: &mut Outcome,
    what: &str,
    expected: &BTreeMap<String, String>,
    got: &BTreeMap<String, String>,
    tests: usize,
) -> u64 {
    let mut bad = 0;
    for name in expected
        .keys()
        .chain(got.keys().filter(|k| !expected.contains_key(*k)))
    {
        if expected.get(name) != got.get(name) {
            bad += tests as u64;
            out.error(format!(
                "mutate-mvs {name}: {what} `{}` differs from `{}`",
                got.get(name).map_or("<missing>", String::as_str),
                expected.get(name).map_or("<missing>", String::as_str)
            ));
        }
    }
    bad
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let config = VerifyConfig::quick();
    let expected_kills = common::parse_expected(EXPECTED_KILLS);

    // Set-up: ground the µspec model, load the suite and the catalog.
    let setup = || {
        (
            Rtlcheck::new(MemoryImpl::Fixed),
            suite::all(),
            catalog(CatalogTarget::MultiVscale),
        )
    };
    let ((_, tests, mutants), mut setup_s) = common::timed_setup(common::SETUP_REPEATS, setup);
    let flows_per_pass = (tests.len() * (1 + mutants.len())) as u64;
    let mut order_rng = args.rng(ORDER_STREAM);
    let mut order = move || {
        let (mut t, mut m) = (tests.clone(), mutants.clone());
        t.shuffle(&mut order_rng);
        m.shuffle(&mut order_rng);
        (t, m)
    };

    if !args.trace {
        let passes = common::passes(args.seconds, 1, |_| {
            setup_s.extend(common::timed_setup(common::SETUP_REPEATS, setup).1);
            let (t, m) = order();
            let start = Instant::now();
            let report = run_campaign_live(
                &options(&t, &m),
                &config,
                &NullCollector,
                None,
                &[],
            );
            let wall_s = start.elapsed().as_secs_f64();
            let wrong = match report {
                Ok(r) => check_kills(&mut out, "kills", &expected_kills, &kill_lines(&r), t.len()),
                Err(e) => {
                    out.error(format!("mutate-mvs: campaign failed: {e}"));
                    flows_per_pass
                }
            };
            BatchPass {
                wall_s,
                inputs: flows_per_pass,
                wrong,
            }
        });
        common::report_batch(&mut out, &passes, &setup_s);
        return out;
    }

    // Traced run: pairs of the program's campaign, its counters read
    // through a metrics collector, and every (design, test) flow replayed
    // call by call in the campaign's order and phases.
    let tool = Tool::new(MemoryImpl::Fixed);
    let expected_flows = common::parse_expected(EXPECTED_FLOWS);
    let pairs = common::passes(args.seconds, 1, |k| {
        let (tests, mutants) = order();
        let program = MetricsCollector::new();
        let t = Instant::now();
        let report = run_campaign_live(&options(&tests, &mutants), &config, &program, None, &[]);
        let untraced_s = t.elapsed().as_secs_f64();
        out.attempted += flows_per_pass;
        let program_kills = match report {
            Ok(r) => kill_lines(&r),
            Err(e) => {
                out.error(format!("mutate-mvs: campaign failed: {e}"));
                BTreeMap::new()
            }
        };
        out.failed += check_kills(
            &mut out,
            "kills",
            &expected_kills,
            &program_kills,
            tests.len(),
        );

        let replay = MetricsCollector::new();
        let cache = GraphCache::in_memory();
        let designs: Vec<Option<&Mutation>> = std::iter::once(None)
            .chain(mutants.iter().map(Some))
            .collect();
        let items: Vec<(Option<&Mutation>, &LitmusTest)> = designs
            .iter()
            .flat_map(|d| tests.iter().map(move |t| (*d, t)))
            .collect();
        // Every baseline core is published before any mutant splices from it.
        let (base_items, mutant_items) = items.split_at(tests.len());
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(items.len());
        let mut spans = Vec::new();
        let mut pool_wall_s = 0.0;
        for (phase, offset) in [(base_items, 0), (mutant_items, base_items.len() as u64)] {
            let (r, s, w) = flow::pool(t0, phase, WORKERS, |tr, i, (m, test)| {
                flow::run_unit(
                    tr,
                    0,
                    offset + i,
                    &tool,
                    test,
                    *m,
                    &config,
                    GraphSource::Incremental(&cache),
                    &replay,
                )
            });
            results.extend(r);
            spans.extend(s);
            pool_wall_s += w;
        }
        let traced_s = t0.elapsed().as_secs_f64();
        out.attempted += results.len() as u64;
        for ((m, test), (v, _)) in items.iter().zip(&results) {
            let key = format!(
                "{}/{}",
                m.map_or(BASELINE, |m| m.name.as_str()),
                test.name()
            );
            if expected_flows.get(&key) != Some(&v.digest) {
                out.failed += 1;
                out.error(format!(
                    "mutate-mvs {key}: traced replay verdicts `{}` differ from the digest",
                    v.digest
                ));
            }
        }
        let flows: Vec<Verdicts> = results.iter().map(|r| r.0.clone()).collect();
        let replay_kills = classify(&tests, &mutants, &flows);
        out.failed += check_kills(
            &mut out,
            "traced replay kills",
            &program_kills,
            &replay_kills,
            tests.len(),
        );

        let counts = common::work_counts(&replay);
        common::check_counts(&mut out, &common::work_counts(&program), &counts);
        Pair {
            untraced_s,
            traced_s,
            spans: if k == 0 { spans } else { Vec::new() },
            counts,
            nodes_built: results.iter().map(|r| r.1 as u64).sum(),
            pool_wall_s,
        }
    });
    layers::finish(&mut out, args, &pairs, &config, WORKERS);
    out
}
