//! Regenerates the checked-in verdict digests from one-shot library runs:
//! every (design, test) flow cold, without the worker pool's scheduling,
//! the graph cache or splicing the workloads exercise.

use std::path::PathBuf;
use std::time::Instant;

use rtlcheck_bench::mutation::run_campaign;
use rtlcheck_core::Rtlcheck;
use rtlcheck_litmus::{suite, LitmusTest};
use rtlcheck_obs::NullCollector;
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_rtl::mutate::{catalog, CatalogTarget, Mutation};
use rtlcheck_verif::{Incremental, VerifyConfig};

use crate::common::JOBS;
use crate::flow::{self, Verdicts};
use crate::{mutate, serve};

const HEADER: &str = "# One-shot library verdicts; regenerate with\n# cargo run --release --manifest-path perfbench/Cargo.toml -- --bless\n";

fn write(name: &str, what: &str, mut lines: Vec<String>) -> Result<(), String> {
    lines.sort();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(name);
    let text = format!("{HEADER}# {what}\n{}\n", lines.join("\n"));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {} ({} lines)", path.display(), lines.len());
    Ok(())
}

/// Maps `f` over `items` on the benchmark's worker count.
fn par_map<I: Sync, R: Send>(items: &[I], f: impl Fn(&I) -> R + Sync) -> Vec<R> {
    flow::pool(Instant::now(), items, JOBS, |_, _, i| f(i)).0
}

pub fn run() -> Result<(), String> {
    let tests = suite::all();

    let hybrid = VerifyConfig::hybrid();
    let fixed = Rtlcheck::new(MemoryImpl::Fixed);
    let lines = par_map(&tests, |t| {
        format!(
            "{}\t{}",
            t.name(),
            Verdicts::of_report(&fixed.check_test(t, &hybrid)).digest
        )
    });
    write(
        "suite-hybrid.tsv",
        "suite-hybrid: test -> cover and property verdicts",
        lines,
    )?;

    let quick = VerifyConfig::quick();
    let mutants = catalog(CatalogTarget::MultiVscale);
    let designs: Vec<Option<&Mutation>> = std::iter::once(None)
        .chain(mutants.iter().map(Some))
        .collect();
    let items: Vec<(Option<&Mutation>, &LitmusTest)> = designs
        .iter()
        .flat_map(|d| tests.iter().map(move |t| (*d, t)))
        .collect();
    let flows = par_map(&items, |(m, t)| {
        let report = match m {
            None => fixed.check_test(t, &quick),
            Some(m) => fixed
                .check_test_mutated(t, m, &quick, None, Incremental::Off, &NullCollector)
                .map_err(|e| format!("{}: {e}", m.name))
                .expect("catalog mutations apply to every Multi-V-scale build"),
        };
        Verdicts::of_report(&report)
    });
    let lines = items
        .iter()
        .zip(&flows)
        .map(|((m, t), v)| {
            let design = m.map_or(mutate::BASELINE, |m| m.name.as_str());
            format!("{design}/{}\t{}", t.name(), v.digest)
        })
        .collect();
    write(
        "mutate-mvs.tsv",
        "mutate-mvs: design/test -> cover and property verdicts",
        lines,
    )?;

    // The kill matrix follows from the cold flows; the campaign itself
    // (pool, cache, splicing) must agree before it is recorded.
    let kills = mutate::classify(&tests, &mutants, &flows);
    let campaign = run_campaign(
        &mutate::options(&tests, &mutants),
        &quick,
        &NullCollector,
        None,
    )?;
    if mutate::kill_lines(&campaign) != kills {
        return Err("the campaign's kill matrix differs from the one-shot flows'".to_string());
    }
    let lines = kills.iter().map(|(m, k)| format!("{m}\t{k}")).collect();
    write(
        "mutate-mvs-kills.tsv",
        "mutate-mvs: mutant -> verdict and killing test:axioms",
        lines,
    )?;

    let full = VerifyConfig::full_proof();
    let problems = serve::problems();
    let lines = par_map(&problems, |p| {
        let memory = if p.memory == "fixed" {
            MemoryImpl::Fixed
        } else {
            MemoryImpl::Buggy
        };
        let r = Rtlcheck::new(memory).check_test(&p.test, &full);
        format!(
            "{}\t{}",
            p.key(),
            serve::row(&r.test, &r.config, &Verdicts::of_report(&r))
        )
    });
    write(
        "serve-mix.tsv",
        "serve-mix: test/memory -> the server's report row",
        lines,
    )?;
    Ok(())
}
