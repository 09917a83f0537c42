//! Plumbing shared by the workloads: arguments, the run outcome, timed
//! passes and set-ups, batch reporting and the exact work counts.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtlcheck_obs::json::Json;
use rtlcheck_obs::MetricsCollector;

use crate::stats;

/// Worker threads and connections: the benchmark host's two cores.
pub const JOBS: usize = 2;

/// How many times a batch run repeats its set-up at the start and before
/// each pass, so the samples span the whole run; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 11;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The run's generator for `purpose`: the same seed gives the same
    /// draws, and distinct purposes draw independent streams.
    pub fn rng(&self, purpose: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches, described (capped when printed).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Tallies of notable outcomes that are not failures.
    pub counts: BTreeMap<String, u64>,
    /// Extra blocks printed before the result line (work counts, sample
    /// summaries).
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Records the median and the tail percentile of a latency sample as
    /// the two named metrics, with its summary as an info block.
    pub fn latency(&mut self, p50_name: &str, tail_name: &str, samples_ms: &[f64]) {
        if samples_ms.is_empty() {
            self.error(format!("no samples for {p50_name}"));
            return;
        }
        self.metric(p50_name, stats::median(samples_ms));
        match stats::tail(samples_ms) {
            Ok(v) => self.metric(tail_name, v),
            Err(e) => self.error(format!("{tail_name}: {e}")),
        }
        self.summary(p50_name, samples_ms);
    }

    /// Adds median, quartiles and count of a sample as an info block.
    pub fn summary(&mut self, name: &str, xs: &[f64]) {
        if xs.is_empty() {
            return;
        }
        let s = stats::summarize(xs);
        self.info.push((
            format!("samples {name}"),
            Json::obj(vec![
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Uint(s.n as u64)),
            ]),
        ));
    }
}

/// Runs `pass` at least `min` times, and then while another pass is
/// predicted to end within half a pass of `seconds` (from the mean pass so
/// far), so that a run of long passes lasts about `seconds` too.
pub fn passes<T>(seconds: f64, min: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean_pass = if out.is_empty() {
            0.0
        } else {
            elapsed / out.len() as f64
        };
        if out.len() >= min && elapsed + mean_pass / 2.0 >= seconds {
            return out;
        }
        out.push(pass(out.len()));
    }
}

/// Runs `setup` `repeats` times; returns the last result and every
/// duration in seconds.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set-up runs at least once"), times)
}

/// One timed pass of a batch workload.
#[derive(Debug)]
pub struct BatchPass {
    pub wall_s: f64,
    pub inputs: u64,
    /// Inputs whose output was wrong.
    pub wrong: u64,
}

/// Reports a batch workload's end-to-end metrics: inputs and correct
/// inputs per second over all passes of the run (their total over the
/// passes' summed wall time); as latency, the pass's wall time — a batch
/// reports its verdicts when it ends, so every input of a pass waits for
/// all of it.
pub fn report_batch(out: &mut Outcome, passes: &[BatchPass], setup_s: &[f64]) {
    let rate: Vec<f64> = passes.iter().map(|p| p.inputs as f64 / p.wall_s).collect();
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let inputs: u64 = passes.iter().map(|p| p.inputs).sum();
    let good: u64 = passes
        .iter()
        .map(|p| p.inputs.saturating_sub(p.wrong))
        .sum();
    let walls_ms: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
    for p in passes {
        out.attempted += p.inputs;
        out.failed += p.wrong;
    }
    out.metric("inputs_per_s", inputs as f64 / wall_s);
    out.metric("goodput_rps.high", good as f64 / wall_s);
    out.summary("inputs_per_s", &rate);
    // Every input of a pass shares its wall time, so each pass stands for
    // as many samples as it has inputs: thousands lie beyond the tail.
    out.metric("lat_p50_ms.high", stats::median(&walls_ms));
    out.metric(
        "lat_tail_ms.high",
        stats::quantile(&walls_ms, stats::TAIL_Q),
    );
    out.summary("lat_p50_ms.high", &walls_ms);
    out.metric("setup_s", stats::median(setup_s));
    out.summary("setup_s", setup_s);
}

/// Counter families the layer functions emit and that are pure functions
/// of the work done: the exact work counts compared across runs.
pub const WORK_FAMILIES: &[&str] = &["engine.", "monitor.", "graph.", "cone."];

/// The work counters of a metrics snapshot, `name -> (samples, total)`.
pub fn work_counts(m: &MetricsCollector) -> BTreeMap<String, (u64, u64)> {
    m.summary()
        .counters
        .into_iter()
        .filter(|(n, _)| WORK_FAMILIES.iter().any(|f| n.starts_with(f)))
        .map(|(n, c)| (n, (c.samples, c.total)))
        .collect()
}

/// Compares the program's work counts with the traced replay's; every
/// difference is an error.
pub fn check_counts(
    out: &mut Outcome,
    program: &BTreeMap<String, (u64, u64)>,
    replay: &BTreeMap<String, (u64, u64)>,
) {
    let names: std::collections::BTreeSet<&String> = program.keys().chain(replay.keys()).collect();
    for name in names {
        let (a, b) = (program.get(name), replay.get(name));
        if a != b {
            out.error(format!(
                "work count `{name}` drifted: program {a:?}, traced replay {b:?}"
            ));
        }
    }
}

/// FNV-1a, for digests of verdicts and work counts.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Reads a checked-in `key<TAB>value` file into a map.
pub fn parse_expected(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}
