//! `serve-mix`: the verification server behind `rtlcheck serve --jobs 2`,
//! started in this process with a warm in-memory cache, under seeded
//! `check` requests with the Full_Proof configuration over the 56 suite
//! tests × {fixed, buggy} memories, sent over two TCP connections.
//!
//! The end-to-end run measures a closed loop (a connection sends its next
//! request when the previous answer arrives) on both connections: the
//! `high` load level, whose throughput is the server's capacity. The
//! traced run adds a sequential pass on one connection, for the unloaded
//! service time, and an open loop at a fixed arrival rate, where latency
//! runs from each request's due time, to split loaded latency into
//! service and waiting.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngCore;
use rtlcheck_bench::serve::{ServeOptions, ServeSummary, Server};
use rtlcheck_litmus::{suite, LitmusTest};
use rtlcheck_obs::json::Json;
use rtlcheck_obs::{MetricsCollector, NullCollector};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

use crate::common::{self, Args, Outcome, JOBS};
use crate::flow::{self, GraphSource, Tool, Verdicts};
use crate::layers::{self, Pair};
use crate::spans::Track;
use crate::stats;

pub const EXPECTED: &str = include_str!("../expected/serve-mix.tsv");

/// Arrival rate of the traced run's open loop, in requests per second:
/// under half the closed-loop capacity of a two-core host (about 80
/// req/s).
pub const OPEN_LOOP_RPS: f64 = 35.0;

/// A response slower than this does not count towards goodput.
pub const LIMIT_MS: f64 = 1000.0;

/// Share of `--seconds` given to the closed loop (which then finishes its
/// current permutation of the problems), and to the traced run's open
/// loop.
const CLOSED_LOOP_SHARE: f64 = 0.75;
const OPEN_LOOP_SHARE: f64 = 0.4;

/// Share of `--seconds` the traced run gives its one-shot library pairs.
const ONE_SHOT_SHARE: f64 = 0.3;

/// How many times a run starts a server and warms its cache; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 3;

/// How long a request may stay unanswered before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

const MEMORIES: [(&str, MemoryImpl); 2] =
    [("fixed", MemoryImpl::Fixed), ("buggy", MemoryImpl::Buggy)];

const WARM_STREAM: u64 = 4;
const HIGH_STREAM: u64 = 6;
const OPEN_LOOP_STREAM: u64 = 7;
const SERVICE_STREAM: u64 = 8;

/// One verification problem of the mix.
#[derive(Debug, Clone)]
pub struct Problem {
    pub test: LitmusTest,
    pub memory: &'static str,
}

impl Problem {
    pub fn key(&self) -> String {
        format!("{}/{}", self.test.name(), self.memory)
    }
}

pub fn problems() -> Vec<Problem> {
    MEMORIES
        .iter()
        .flat_map(|&(memory, _)| {
            suite::all()
                .into_iter()
                .map(move |test| Problem { test, memory })
        })
        .collect()
}

/// The report row the server sends for a verified problem, as the
/// protocol renders it.
pub fn row(test: &str, config: &str, v: &Verdicts) -> String {
    Json::obj(vec![
        ("test", Json::Str(test.to_string())),
        ("config", Json::Str(config.to_string())),
        ("status", Json::Str(v.status().to_string())),
        ("by_assumptions", Json::Bool(v.by_assumptions)),
        ("proven", Json::Uint(v.proven as u64)),
        ("properties", Json::Uint(v.properties as u64)),
        (
            "bounded",
            Json::Arr(
                v.bounded
                    .iter()
                    .map(|&d| Json::Uint(u64::from(d)))
                    .collect(),
            ),
        ),
        ("vacuous", Json::Bool(v.vacuous)),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// Client side of the protocol
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Answer {
    at: Instant,
    frame: Json,
}

type Inbox = Arc<(Mutex<HashMap<u64, Answer>>, Condvar)>;

/// One connection: a write half, and a reader thread that files every
/// terminal frame by request id with its arrival time.
struct Client {
    stream: TcpStream,
    inbox: Inbox,
    reader: Option<JoinHandle<()>>,
    sent: AtomicU64,
    answered: Arc<AtomicU64>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?;
        let inbox: Inbox = Arc::new((Mutex::new(HashMap::new()), Condvar::new()));
        let sink = Arc::clone(&inbox);
        let answered = Arc::new(AtomicU64::new(0));
        let tally = Arc::clone(&answered);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read_half).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                let Ok(frame) = Json::parse(&line) else {
                    continue;
                };
                let Some(id) = frame.get("id").and_then(Json::as_u64) else {
                    continue;
                };
                let (lock, cv) = &*sink;
                lock.lock()
                    .expect("inbox lock is never poisoned")
                    .insert(id, Answer { at, frame });
                tally.fetch_add(1, Ordering::Relaxed);
                cv.notify_all();
            }
        });
        Ok(Client {
            stream,
            inbox,
            reader: Some(reader),
            sent: AtomicU64::new(0),
            answered,
        })
    }

    fn send(&self, line: &str) -> Result<(), String> {
        self.sent.fetch_add(1, Ordering::Relaxed);
        (&self.stream)
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending a request: {e}"))
    }

    /// Requests sent and not yet answered.
    fn outstanding(&self) -> u64 {
        self.sent
            .load(Ordering::Relaxed)
            .saturating_sub(self.answered.load(Ordering::Relaxed))
    }

    /// Waits for request `id`'s terminal frame until `deadline`.
    fn wait(&self, id: u64, deadline: Instant) -> Option<Answer> {
        let (lock, cv) = &*self.inbox;
        let mut inbox = lock.lock().expect("inbox lock is never poisoned");
        loop {
            if let Some(a) = inbox.remove(&id) {
                return Some(a);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            inbox = cv
                .wait_timeout(inbox, deadline - now)
                .expect("inbox lock is never poisoned")
                .0;
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn check_request(id: u64, p: &Problem) -> String {
    let mut line = Json::obj(vec![
        ("id", Json::Uint(id)),
        ("kind", Json::Str("check".into())),
        ("test", Json::Str(p.test.name().to_string())),
        ("memory", Json::Str(p.memory.into())),
        ("config", Json::Str("full-proof".into())),
        ("events", Json::Bool(false)),
    ])
    .render();
    line.push('\n');
    line
}

/// A running server with two connected clients.
struct Session {
    clients: Vec<Client>,
    server: JoinHandle<ServeSummary>,
    next_id: AtomicU64,
}

/// What one request saw: its problem, due time, send time and answer.
struct Exchange {
    problem: usize,
    due: Instant,
    sent: Instant,
    answer: Option<Answer>,
}

impl Exchange {
    fn latency_ms(&self) -> Option<f64> {
        self.answer
            .as_ref()
            .map(|a| a.at.duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// A report row without its `test` echo: the verdict fields alone.
fn verdict_fields(row: &Json) -> String {
    match row.as_obj() {
        Some(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "test")
                .cloned()
                .collect(),
        )
        .render(),
        None => row.render(),
    }
}

/// The expected verdict fields per problem key.
fn expected_verdicts() -> BTreeMap<String, String> {
    common::parse_expected(EXPECTED)
        .into_iter()
        .map(|(k, row)| {
            let v = Json::parse(&row).map_or(row, |j| verdict_fields(&j));
            (k, v)
        })
        .collect()
}

/// Checks an answer's verdicts against the one-shot run's; returns whether
/// they match. An answer to a coalesced request can carry the report of
/// another test that grounds to the same problem: the verdicts must still
/// match, and the answer is tallied under `answers_naming_another_test`.
fn correct(
    out: &mut Outcome,
    expected: &BTreeMap<String, String>,
    p: &Problem,
    answer: Option<&Answer>,
) -> bool {
    let key = p.key();
    let Some(a) = answer else {
        out.error(format!("serve-mix {key}: no answer within {TIMEOUT:?}"));
        return false;
    };
    let got = match (
        a.frame.get("type").and_then(Json::as_str),
        a.frame.get("report"),
    ) {
        (Some("result"), Some(report)) => {
            if report.get("test").and_then(Json::as_str) != Some(p.test.name()) {
                *out.counts
                    .entry("answers_naming_another_test".to_string())
                    .or_default() += 1;
            }
            verdict_fields(report)
        }
        _ => a.frame.render(),
    };
    if expected.get(&key) == Some(&got) {
        true
    } else {
        out.error(format!(
            "serve-mix {key}: answer `{got}` differs from the one-shot run"
        ));
        false
    }
}

impl Session {
    /// Binds a server, connects the clients and warms the cache with one
    /// closed-loop pass over every problem.
    fn start(
        problems: &[Problem],
        rng: &mut StdRng,
        out: &mut Outcome,
        expected: &BTreeMap<String, String>,
    ) -> Result<Session, String> {
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            jobs: JOBS,
            ..ServeOptions::default()
        })?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run(&NullCollector, &[]));
        let clients = (0..JOBS)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>();
        let session = Session {
            clients: clients?,
            server: handle,
            next_id: AtomicU64::new(1),
        };
        let mut order: Vec<usize> = (0..problems.len()).collect();
        order.shuffle(rng);
        for x in session.closed_loop(problems, &order, JOBS, None) {
            out.attempted += 1;
            if !correct(out, expected, &problems[x.problem], x.answer.as_ref()) {
                out.failed += 1;
            }
        }
        Ok(session)
    }

    /// Each of the first `clients` connections sends its next request from
    /// `order` when the previous answer arrives, until `order` runs out,
    /// or `until` has passed and at least `min` requests went out. Then
    /// the loop still finishes the whole permutation of the problems it is
    /// in, so every problem is sent equally often whatever the seed.
    fn closed_loop(
        &self,
        problems: &[Problem],
        order: &[usize],
        clients: usize,
        until: Option<(Instant, usize)>,
    ) -> Vec<Exchange> {
        let next = AtomicUsize::new(0);
        let stop_at = AtomicUsize::new(usize::MAX);
        let done = Mutex::new(Vec::with_capacity(order.len()));
        std::thread::scope(|scope| {
            for c in self.clients.iter().take(clients) {
                let (next, stop_at, done) = (&next, &stop_at, &done);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if let Some((t, min)) = until {
                        if i >= min && Instant::now() >= t {
                            let end = (i + 1).next_multiple_of(problems.len());
                            stop_at.fetch_min(end, Ordering::Relaxed);
                        }
                    }
                    if i >= stop_at.load(Ordering::Relaxed) {
                        break;
                    }
                    let Some(&p) = order.get(i) else { break };
                    let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let answer = c
                        .send(&check_request(id, &problems[p]))
                        .ok()
                        .and_then(|()| c.wait(id, sent + TIMEOUT));
                    done.lock()
                        .expect("no client panics holding the list")
                        .push(Exchange {
                            problem: p,
                            due: sent,
                            sent,
                            answer,
                        });
                });
            }
        });
        done.into_inner()
            .expect("no client panics holding the list")
    }

    /// Sends `schedule`'s requests at their due times, each on the
    /// connection with fewer unanswered requests (answers on one
    /// connection arrive in request order, so a slow answer holds back
    /// the ones behind it), then collects every answer.
    fn open_loop(&self, problems: &[Problem], schedule: &[(f64, usize)]) -> Vec<Exchange> {
        let start = Instant::now() + Duration::from_millis(20);
        let mut pending = Vec::with_capacity(schedule.len());
        for (i, &(at_s, p)) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(at_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let n = self.clients.len();
            let c = (0..n)
                .map(|k| (i + k) % n)
                .min_by_key(|&c| self.clients[c].outstanding())
                .expect("a session has clients");
            let sent = Instant::now();
            let ok = self.clients[c]
                .send(&check_request(id, &problems[p]))
                .is_ok();
            pending.push((id, c, p, due, sent, ok));
        }
        pending
            .into_iter()
            .map(|(id, c, problem, due, sent, ok)| Exchange {
                problem,
                due,
                sent,
                answer: if ok {
                    self.clients[c].wait(id, sent + TIMEOUT)
                } else {
                    None
                },
            })
            .collect()
    }

    /// The server's own telemetry, through the protocol's `stats` request.
    fn stats(&self) -> Option<Json> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let c = &self.clients[0];
        c.send(&format!("{{\"id\":{id},\"kind\":\"stats\"}}\n"))
            .ok()?;
        c.wait(id, Instant::now() + TIMEOUT).map(|a| a.frame)
    }

    /// Drains the server and waits for every thread to end.
    fn stop(self) -> Result<ServeSummary, String> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let c = &self.clients[0];
        c.send(&format!("{{\"id\":{id},\"kind\":\"shutdown\"}}\n"))?;
        let drained = c.wait(id, Instant::now() + TIMEOUT).is_some();
        drop(self.clients);
        let summary = self
            .server
            .join()
            .map_err(|_| "the server thread panicked".to_string())?;
        if drained {
            Ok(summary)
        } else {
            Err("the server did not drain".to_string())
        }
    }
}

/// `n` requests over `span_s` seconds: arrival times uniform and sorted
/// (a Poisson process given its count), problems in whole seeded
/// permutations so every problem recurs equally often.
fn schedule(rng: &mut StdRng, problems: usize, n: usize, span_s: f64) -> Vec<(f64, usize)> {
    let mut times: Vec<f64> = (0..n)
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * span_s)
        .collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .zip(permutations(rng, problems, n))
        .collect()
}

/// At least `n` problem indices: whole seeded permutations back to back.
fn permutations(rng: &mut StdRng, problems: usize, n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n + problems);
    while order.len() < n {
        let mut perm: Vec<usize> = (0..problems).collect();
        perm.shuffle(rng);
        order.extend(perm);
    }
    order
}

/// Requests of an open-loop phase: its share of the run at `rps`, and at
/// least enough for the tail percentile.
fn phase_requests(rps: f64, seconds: f64) -> usize {
    ((rps * seconds).round() as usize).max(stats::min_samples_for_tail())
}

/// Scores a phase: latencies of the answered requests, the correct
/// answers within the limit, and the worst lag between a request's due
/// time and its sending.
fn score(
    out: &mut Outcome,
    expected: &BTreeMap<String, String>,
    problems: &[Problem],
    xs: &[Exchange],
) -> (Vec<f64>, u64, f64) {
    let mut lat = Vec::with_capacity(xs.len());
    let mut good = 0;
    let mut lag_ms: f64 = 0.0;
    for x in xs {
        out.attempted += 1;
        lag_ms = lag_ms.max(x.sent.duration_since(x.due).as_secs_f64() * 1e3);
        let ok = correct(out, expected, &problems[x.problem], x.answer.as_ref());
        if !ok {
            out.failed += 1;
        }
        if let Some(l) = x.latency_ms() {
            lat.push(l);
            if ok && l <= LIMIT_MS {
                good += 1;
            }
        }
    }
    (lat, good, lag_ms)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(args, &mut out) {
        Ok(()) => {}
        Err(e) => out.error(format!("serve-mix: {e}")),
    }
    out
}

fn run_inner(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let expected = expected_verdicts();
    let problems = problems();
    let mut warm_rng = args.rng(WARM_STREAM);

    if !args.trace {
        // Set-up, repeated: start a server and warm its cache.
        let mut setups = Vec::new();
        let mut session = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(s) = session.take() {
                Session::stop(s)?;
            }
            let t = Instant::now();
            session = Some(Session::start(&problems, &mut warm_rng, out, &expected)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let session = session.expect("set-up ran at least once");
        out.metric("setup_s", stats::median(&setups));
        out.summary("setup_s", &setups);

        // Closed loop on both connections over seeded whole permutations
        // of the mix, for a fixed window; rates run up to the last answer.
        let window = Duration::from_secs_f64(args.seconds * CLOSED_LOOP_SHARE);
        let order = permutations(&mut args.rng(HIGH_STREAM), problems.len(), 20_000);
        let start = Instant::now();
        let xs = session.closed_loop(
            &problems,
            &order,
            JOBS,
            Some((start + window, stats::min_samples_for_tail())),
        );
        let (lat, good, _) = score(out, &expected, &problems, &xs);
        out.latency("lat_p50_ms.high", "lat_tail_ms.high", &lat);
        let answers: Vec<Instant> = xs
            .iter()
            .filter_map(|x| x.answer.as_ref().map(|a| a.at))
            .collect();
        let span_s = answers
            .iter()
            .max()
            .map_or(0.0, |last| last.duration_since(start).as_secs_f64());
        out.metric("inputs_per_s", answers.len() as f64 / span_s);
        out.metric("goodput_rps.high", good as f64 / span_s);
        let summary = session.stop()?;
        if summary.rejected_overload > 0 {
            out.error(format!(
                "serve-mix: {} requests refused as overloaded",
                summary.rejected_overload
            ));
        }
        return Ok(());
    }

    // Traced run, part one: pairs of the one-shot library runs every
    // answer must match, untraced with the program's counters, and the
    // same runs replayed call by call.
    let t0 = Instant::now();
    let config = VerifyConfig::full_proof();
    let tools: Vec<Tool> = MEMORIES.iter().map(|&(_, m)| Tool::new(m)).collect();
    let tool = |p: &Problem| {
        if p.memory == "fixed" {
            &tools[0]
        } else {
            &tools[1]
        }
    };
    let mut pairs = common::passes(args.seconds * ONE_SHOT_SHARE, 1, |k| {
        let program = MetricsCollector::new();
        let (reports, _, untraced_s) = flow::pool(t0, &problems, JOBS, |_, _, p| {
            tool(p).rtl.check_test_observed(&p.test, &config, &program)
        });
        for (p, r) in problems.iter().zip(&reports) {
            out.attempted += 1;
            let got = row(&r.test, &r.config, &Verdicts::of_report(r));
            let got = Json::parse(&got).map_or(got, |j| verdict_fields(&j));
            if expected.get(&p.key()) != Some(&got) {
                out.failed += 1;
                out.error(format!(
                    "serve-mix {}: one-shot row `{got}` differs from the digest",
                    p.key()
                ));
            }
        }
        let replay = MetricsCollector::new();
        let (results, spans, pool_wall_s) = flow::pool(t0, &problems, JOBS, |tr, i, p| {
            flow::run_unit(
                tr,
                0,
                i,
                tool(p),
                &p.test,
                None,
                &config,
                GraphSource::Cold,
                &replay,
            )
        });
        for ((v, _), r) in results.iter().zip(&reports) {
            out.attempted += 1;
            if v.digest != Verdicts::of_report(r).digest {
                out.failed += 1;
                out.error(format!(
                    "serve-mix {}: traced replay verdicts differ",
                    r.test
                ));
            }
        }
        let counts = common::work_counts(&replay);
        common::check_counts(out, &common::work_counts(&program), &counts);
        Pair {
            untraced_s,
            traced_s: pool_wall_s,
            spans: if k == 0 { spans } else { Vec::new() },
            counts,
            nodes_built: results.iter().map(|r| r.1 as u64).sum(),
            pool_wall_s,
        }
    });

    // Part two: the server. Unloaded service time from one sequential warm
    // pass, then the high-rate open loop; waiting is loaded latency minus
    // the same problem's unloaded service time.
    let session = Session::start(&problems, &mut warm_rng, out, &expected)?;
    let mut order: Vec<usize> = (0..problems.len()).collect();
    order.shuffle(&mut args.rng(SERVICE_STREAM));
    let sequential = session.closed_loop(&problems, &order, 1, None);
    score(out, &expected, &problems, &sequential);
    let mut service = vec![0.0; problems.len()];
    for x in &sequential {
        service[x.problem] = x.latency_ms().unwrap_or(0.0);
    }
    out.metric("serve.service_ms.p50", stats::median(&service));
    out.summary("serve.service_ms", &service);
    let n = phase_requests(OPEN_LOOP_RPS, args.seconds * OPEN_LOOP_SHARE);
    let plan = schedule(
        &mut args.rng(OPEN_LOOP_STREAM),
        problems.len(),
        n,
        n as f64 / OPEN_LOOP_RPS,
    );
    let open = session.open_loop(&problems, &plan);
    let (_, _, lag) = score(out, &expected, &problems, &open);

    // The protocol layer's spans: each request from its sending to its
    // answer, and for the open loop the generator's lateness before it.
    let mut tr = Track::new(t0, flow::fresh_tid());
    for (unit, x) in sequential.iter().chain(&open).enumerate() {
        let end = x.answer.as_ref().map_or(x.sent, |a| a.at);
        tr.record("serve.request", 0, unit as u64, x.sent, end);
        if x.sent > x.due {
            tr.record("serve.generator_lag", 0, unit as u64, x.due, x.sent);
        }
    }
    let waits: Vec<f64> = open
        .iter()
        .filter_map(|x| x.latency_ms().map(|l| l - service[x.problem]))
        .collect();
    if !waits.is_empty() {
        out.metric("serve.wait_ms.p50", stats::median(&waits));
        out.metric("serve.wait_ms.tail", stats::tail(&waits)?);
    }
    out.metric("serve.gen_lag_ms.max", lag);
    let stats_frame = session.stats().ok_or("no answer to the stats request")?;
    let serve = |k: &str| {
        stats_frame
            .get("serve")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let cache = |k: &str| {
        stats_frame
            .get("graph_cache")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    out.metric("serve.queue_depth.max", serve("queue_peak"));
    out.metric("serve.coalesced", serve("coalesced"));
    out.metric("serve.overloaded", serve("rejected_overload"));
    let requests = cache("requests");
    out.metric(
        "verif.cache.hit_ratio",
        if requests > 0.0 {
            cache("hits") / requests
        } else {
            0.0
        },
    );
    session.stop()?;
    if let Some(first) = pairs.first_mut() {
        first.spans.extend(tr.into_spans());
    }
    layers::finish(out, args, &pairs, &config, JOBS);
    Ok(())
}
