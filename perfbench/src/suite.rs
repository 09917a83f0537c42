//! `suite-hybrid`: the paper's 56-test Multi-V-scale suite on the fixed
//! memory under the Hybrid configuration, on a two-worker pool.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::seq::SliceRandom;
use rtlcheck_bench::check_tests_live;
use rtlcheck_core::{Rtlcheck, TestReport};
use rtlcheck_litmus::suite;
use rtlcheck_obs::json::Json;
use rtlcheck_obs::{MetricsCollector, NullCollector};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

use crate::common::{self, Args, BatchPass, Outcome, JOBS};
use crate::flow::{self, GraphSource, Tool, Verdicts};
use crate::layers::{self, Pair};

pub const EXPECTED: &str = include_str!("../expected/suite-hybrid.tsv");

const ORDER_STREAM: u64 = 1;

/// Compares each report's verdicts with the checked-in digest; returns the
/// number of tests that differ.
fn check_reports(
    out: &mut Outcome,
    expected: &BTreeMap<String, String>,
    reports: &[TestReport],
) -> u64 {
    let mut bad = 0;
    for r in reports {
        let got = Verdicts::of_report(r).digest;
        if expected.get(&r.test) != Some(&got) {
            bad += 1;
            out.error(format!(
                "suite-hybrid {}: verdicts `{got}` differ from the digest",
                r.test
            ));
        }
    }
    if reports.len() != expected.len() {
        out.error(format!(
            "suite-hybrid ran {} tests, the digest has {}",
            reports.len(),
            expected.len()
        ));
    }
    bad
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let config = VerifyConfig::hybrid();
    let expected = common::parse_expected(EXPECTED);

    // Set-up: ground the µspec model and load the suite.
    let setup = || (Rtlcheck::new(MemoryImpl::Fixed), suite::all());
    let ((rtl, tests), mut setup_s) = common::timed_setup(common::SETUP_REPEATS, setup);
    let mut order_rng = args.rng(ORDER_STREAM);
    let mut order = move || {
        let mut t = tests.clone();
        t.shuffle(&mut order_rng);
        t
    };

    if !args.trace {
        let mut work = Vec::new();
        let passes = common::passes(args.seconds, 1, |_| {
            setup_s.extend(common::timed_setup(common::SETUP_REPEATS, setup).1);
            let t = Instant::now();
            let reports = check_tests_live(
                &rtl,
                &order(),
                &config,
                JOBS,
                &NullCollector,
                None,
                &[],
            );
            let wall_s = t.elapsed().as_secs_f64();
            work.push(work_digest(&reports));
            BatchPass {
                wall_s,
                inputs: reports.len() as u64,
                wrong: check_reports(&mut out, &expected, &reports),
            }
        });
        if work.windows(2).any(|w| w[0] != w[1]) {
            out.error("suite-hybrid: per-property work counts drifted between passes");
        }
        out.info
            .push(("work".to_string(), Json::Str(format!("{:016x}", work[0]))));
        common::report_batch(&mut out, &passes, &setup_s);
        return out;
    }

    // Traced run: pairs of the program's pass, its counters read through a
    // metrics collector, and the same units replayed call by call.
    let tool = Tool::new(MemoryImpl::Fixed);
    let pairs = common::passes(args.seconds, 1, |k| {
        let tests = order();
        let program = MetricsCollector::new();
        let t = Instant::now();
        let reports = check_tests_live(&rtl, &tests, &config, JOBS, &program, None, &[]);
        let untraced_s = t.elapsed().as_secs_f64();
        out.attempted += reports.len() as u64;
        out.failed += check_reports(&mut out, &expected, &reports);

        let replay = MetricsCollector::new();
        let t0 = Instant::now();
        let (results, spans, pool_wall_s) = flow::pool(t0, &tests, JOBS, |tr, i, test| {
            flow::run_unit(
                tr,
                0,
                i,
                &tool,
                test,
                None,
                &config,
                GraphSource::Cold,
                &replay,
            )
        });
        let traced_s = t0.elapsed().as_secs_f64();
        out.attempted += results.len() as u64;
        for ((v, _), r) in results.iter().zip(&reports) {
            if v.digest != Verdicts::of_report(r).digest {
                out.failed += 1;
                out.error(format!(
                    "suite-hybrid {}: traced replay verdicts `{}` differ from the program's",
                    r.test, v.digest
                ));
            }
        }
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
    layers::finish(&mut out, args, &pairs, &config, JOBS);
    out
}

/// A digest of every test's verdicts and exploration statistics, in suite
/// order: equal across passes unless the work itself drifted.
fn work_digest(reports: &[TestReport]) -> u64 {
    let mut rows: Vec<String> = reports
        .iter()
        .map(|r| {
            let props: Vec<String> = r
                .properties
                .iter()
                .map(|p| format!("{:?}", p.verdict.stats()))
                .collect();
            format!(
                "{} {} {:?} {}",
                r.test,
                Verdicts::of_report(r).digest,
                r.cover_stats,
                props.join(";")
            )
        })
        .collect();
    rows.sort();
    rows.iter()
        .fold(common::FNV_INIT, |h, row| common::fnv(h, row.as_bytes()))
}
