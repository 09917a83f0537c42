//! The rtlcheck benchmark: four workloads driven through the library's
//! public API, each output checked for correctness.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-hybrid|mutate-mvs|fuzz-sc|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it replays the workload call by call through each layer's
//! public functions and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (each metric's value and unit, as `BENCHMARK.json` names
//! them). Any wrong output makes the exit code non-zero.
//! `--bless` regenerates the checked-in verdict digests from one-shot
//! library runs.

mod bless;
mod common;
mod flow;
mod fuzz;
mod host;
mod layers;
mod mutate;
mod serve;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

use rtlcheck_obs::json::Json;

use common::{Args, Outcome};

/// The benchmark's definition: workload names and every metric's unit.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// Correctness errors printed before the result line.
const MAX_ERRORS_SHOWN: usize = 20;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --bless";

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--bless") {
        return Ok(None);
    }
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// `(name, unit)` of every metric in one section of the definition.
fn section(def: &Json, key: &str) -> Vec<(String, String)> {
    def.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Where traced runs write their spans.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans and notes the file in the output.
pub fn write_spans(out: &mut Outcome, args: &Args, spans: &[spans::Span]) {
    let path = out_dir().join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
    let header = format!(
        "perfbench spans workload={} seed={} seconds={}",
        args.workload, args.seed, args.seconds
    );
    match spans::write_tsv(&path, &header, spans) {
        Ok(()) => out.info.push((
            "spans_file".to_string(),
            Json::Str(path.display().to_string()),
        )),
        Err(e) => out.error(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match bless::run() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench --bless: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let def = match Json::parse(DEFINITION) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "suite-hybrid" => suite::run,
        "mutate-mvs" => mutate::run,
        "fuzz-sc" => fuzz::run,
        "serve-mix" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut out = run(&args);
    let wanted = section(
        &def,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    );
    if args.trace {
        // A layer the workload does not exercise did no work.
        for (name, _) in &wanted {
            out.metrics.entry(name.clone()).or_insert(0.0);
        }
    } else {
        match host::peak_rss_mb() {
            Ok(mb) => out.metric("peak_rss_mb", mb),
            Err(e) => out.error(e),
        }
    }

    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => metrics.push((
                name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(*v)),
                    ("unit", Json::Str(unit.clone())),
                ]),
            )),
            Some(v) => out.error(format!("metric {name} is {v}")),
            None => out.error(format!("metric {name} was not measured")),
        }
    }

    println!("host {}", host::block().render());
    if !out.counts.is_empty() {
        let counts = out
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Json::Uint(*v)))
            .collect();
        out.info.push(("counts".to_string(), Json::Obj(counts)));
    }
    for (k, v) in &out.info {
        println!("{k} {}", v.render());
    }
    for e in out.errors.iter().take(MAX_ERRORS_SHOWN) {
        eprintln!("perfbench: {e}");
    }
    if out.errors.len() > MAX_ERRORS_SHOWN {
        eprintln!(
            "perfbench: … and {} more",
            out.errors.len() - MAX_ERRORS_SHOWN
        );
    }
    let correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Uint(out.attempted)),
        ("failed", Json::Uint(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
