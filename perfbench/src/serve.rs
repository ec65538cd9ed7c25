//! The `serve-mixed` workload: an `elsq-lab serve --jobs 1` daemon in its
//! own process, driven by two client connections in a closed loop.
//!
//! A run is a series of rounds. Each round starts a daemon on a fresh copy
//! of the store history and serves the same jobs `0..round_jobs`, so every
//! round does the same work and the store does not grow from one round to
//! the next. Job `j` ([`crate::prep::job_spec`]) reads two points from the
//! history and simulates and inserts two points no other job of the round
//! shares, so every job's hit and miss counts are known in advance. After a
//! round's load stops, its daemon is shut down and every served report is
//! checked against the offline `sweep_report` of the same points, rebuilt
//! from the daemon's store without simulating. Each end-to-end metric is
//! the median of its per-round values.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use elsq_cpu::result::SimResult;
use elsq_isa::SharedStream;
use elsq_serve::client::{self, ClientConfig, SubmitOutcome};
use elsq_serve::protocol::Event;
use elsq_sim::driver::install_result_cache;
use elsq_sim::scenario::{run_plan, sweep_report, PointKey};
use elsq_sim::store::ResultStore;
use elsq_workload::suite::{suite, WorkloadClass};

use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::spans::{maybe_span, totals, write_ndjson, Tracer};
use crate::{fingerprint, layers, prep, Args, Counts, Sizes};

/// Served points per job, and how many of them the history answers.
const JOB_POINTS: u64 = 4;
const JOB_HITS: u64 = 2;

/// A running daemon process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    store: PathBuf,
}

impl Daemon {
    /// Starts `perfbench daemon --store DIR` and reads the bound address
    /// from its first line.
    fn spawn(store: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg(store)
            .env("ELSQ_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("elsq-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                stdout,
                addr,
                store: store.to_path_buf(),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the daemon did not report its address: {line:?}"))
            }
        }
    }

    /// Drain-stops the daemon and waits for its process to exit.
    fn stop(mut self) -> Result<(), String> {
        // On error the daemon is killed by `Drop`.
        client::shutdown(&self.addr).map_err(|e| format!("cannot stop the daemon: {e}"))?;
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// A daemon left running by an error path is killed and reaped, so the
    /// benchmark never leaves a process behind. After [`Daemon::stop`] the
    /// child has already exited and both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The hidden `daemon STORE` role: exactly `elsq-lab serve --jobs 1`.
pub fn daemon_main(store: &str) -> Result<(), String> {
    let args: Vec<String> = [
        "serve",
        "--store",
        store,
        "--addr",
        "127.0.0.1:0",
        "--jobs",
        "1",
        "--resume",
    ]
    .map(str::to_owned)
    .to_vec();
    elsq_bench::cli::run_cli(&args)
        .map(|_| ())
        .map_err(|e| format!("{e:?}"))
}

/// Starts a daemon on a fresh copy of the history and times it to its
/// first answered `Ping`.
fn set_up(args: &Args, name: &str) -> Result<(Daemon, f64), String> {
    let dir = args.work.join(name);
    prep::copy_store(&args.work.join("history"), &dir)?;
    let t = Instant::now();
    let daemon = Daemon::spawn(&dir)?;
    loop {
        match client::ping(&daemon.addr) {
            Ok(_) => break,
            Err(e) if t.elapsed() > Duration::from_secs(30) => {
                let _ = daemon.stop();
                return Err(format!("the daemon never answered a ping: {e}"));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// One served job as the client saw it.
struct Served {
    j: u64,
    submit: Instant,
    accepted: Option<Instant>,
    points: Vec<Instant>,
    done: Instant,
    outcome: Result<SubmitOutcome, String>,
}

/// One round: a daemon started on a fresh copy of the history serves jobs
/// `0..sizes.round_jobs` in a closed loop, then stops, and its reports are
/// checked. Every round does the same work, whatever the host's speed.
struct Round {
    setup_s: f64,
    served: Vec<Served>,
    window_s: f64,
    peak_rss_mb: f64,
    /// Per job (by index): fresh committed instructions, or `None` when
    /// the job failed its check.
    fresh_insts: Vec<Option<u64>>,
    /// Results of the first `sizes.fingerprint_jobs` jobs, in job and
    /// plan order.
    prefix: Vec<SimResult>,
    prefix_hits: u64,
    prefix_misses: u64,
}

impl Round {
    /// Job latencies (submit to `Done`) in ms.
    fn latencies(&self) -> Vec<f64> {
        self.served
            .iter()
            .map(|s| (s.done - s.submit).as_secs_f64() * 1e3)
            .collect()
    }
}

fn closed_loop(args: &Args, sizes: &Sizes, addr: &str) -> Vec<Served> {
    let next = AtomicU64::new(0);
    let served = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::SeqCst);
                if j >= sizes.round_jobs {
                    break;
                }
                let spec = prep::job_spec(args.seed, j, sizes);
                let mut accepted = None;
                let mut points = Vec::new();
                let submit = Instant::now();
                let outcome = client::submit_with(
                    addr,
                    Some(&format!("j{j}")),
                    &spec,
                    &ClientConfig::default(),
                    |event| match event {
                        Event::Accepted { .. } => accepted = Some(Instant::now()),
                        Event::Point { .. } | Event::PointFailed { .. } => {
                            points.push(Instant::now());
                        }
                        _ => {}
                    },
                );
                let done = Instant::now();
                served
                    .lock()
                    .expect("no client thread panics")
                    .push(Served {
                        j,
                        submit,
                        accepted,
                        points,
                        done,
                        outcome,
                    });
            });
        }
    });
    let mut served = served.into_inner().expect("no client thread panics");
    served.sort_by_key(|s| s.j);
    served
}

fn round(
    args: &Args,
    sizes: &Sizes,
    name: &str,
    mut tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let (daemon, setup_s) = set_up(args, name)?;
    if let Some(t) = tracer.as_deref_mut() {
        for _ in 0..sizes.pings {
            let start = Instant::now();
            client::ping(&daemon.addr)?;
            t.record("serve.ping", 0, start, Instant::now());
        }
    }
    let served = closed_loop(args, sizes, &daemon.addr);
    let first = served.iter().map(|s| s.submit).min().expect("jobs ran");
    let last = served.iter().map(|s| s.done).max().expect("jobs ran");
    let window_s = (last - first).as_secs_f64();
    let peak_rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    let store_dir = daemon.store.clone();
    daemon.stop()?;
    let round = verify(
        args,
        sizes,
        &store_dir,
        setup_s,
        served,
        window_s,
        peak_rss_mb,
        tracer,
    );
    let _ = std::fs::remove_dir_all(&store_dir);
    round
}

/// Rounds until `window` seconds of set-up and serving are measured (at
/// least `sizes.min_rounds` rounds).
fn pass(
    args: &Args,
    sizes: &Sizes,
    tag: &str,
    window: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Round>, String> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    while measured < window || rounds.len() < sizes.min_rounds {
        let name = format!("serve-{tag}-{}", rounds.len());
        let r = round(args, sizes, &name, tracer.as_deref_mut())?;
        measured += r.setup_s + r.window_s;
        rounds.push(r);
    }
    Ok(rounds)
}

/// Rebuilds every job's report offline from the daemon's store and checks
/// it, the job's hit and miss counts and its failures.
#[allow(clippy::too_many_arguments)]
fn verify(
    args: &Args,
    sizes: &Sizes,
    store_dir: &Path,
    setup_s: f64,
    served: Vec<Served>,
    window_s: f64,
    peak_rss_mb: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let store = Arc::new(maybe_span(&mut tracer, "sim.store_open", 0, || {
        ResultStore::open(store_dir, true)
    })?);
    let _cache = install_result_cache(Arc::clone(&store));
    let mut fresh_insts = Vec::new();
    let mut prefix = Vec::new();
    let (mut prefix_hits, mut prefix_misses) = (0, 0);
    for s in &served {
        let spec = prep::job_spec(args.seed, s.j, sizes);
        let plan = spec.expand()?;
        let Ok(outcome) = &s.outcome else {
            fresh_insts.push(None);
            continue;
        };
        if let Some(t) = tracer.as_deref_mut() {
            for p in &plan.points {
                let key = PointKey::current(p.config, p.class, &spec.params);
                t.span("stats.key_hash", s.j, |_| std::hint::black_box(key.hash()));
                t.span("sim.store_lookup", s.j, |_| store.lookup(&key))?;
            }
        }
        let results = maybe_span(&mut tracer, "sim.run_plan", s.j, || {
            run_plan(&plan, &spec.params)
        });
        let offline = maybe_span(&mut tracer, "stats.report", s.j, || {
            serde_json::to_string_pretty(&sweep_report(&spec, &plan, &results))
        })
        .map_err(|e| format!("cannot render job {}'s report: {e}", s.j))?;
        let served_report = serde_json::to_string_pretty(&outcome.report)
            .map_err(|e| format!("cannot render job {}'s served report: {e}", s.j))?;
        let ok = offline == served_report
            && !results.is_degraded()
            && outcome.failed == 0
            && outcome.hits == JOB_HITS
            && outcome.misses == JOB_POINTS - JOB_HITS;
        let mut fresh = 0;
        for (point, out) in results.iter_outcomes() {
            let suite = out.results().unwrap_or_default();
            if point.label != "rob=64" {
                fresh += suite.iter().map(|r| r.sim.committed).sum::<u64>();
            }
            if s.j < sizes.fingerprint_jobs {
                prefix.extend_from_slice(suite);
            }
        }
        if s.j < sizes.fingerprint_jobs {
            prefix_hits += outcome.hits;
            prefix_misses += outcome.misses;
        }
        fresh_insts.push(ok.then_some(fresh));
    }
    if store.misses() != 0 {
        // Rebuilding the reports must only read the store: a miss means
        // the daemon lost a point it reported as done.
        fresh_insts.iter_mut().for_each(|f| *f = None);
    }
    Ok(Round {
        setup_s,
        served,
        window_s,
        peak_rss_mb,
        fresh_insts,
        prefix,
        prefix_hits,
        prefix_misses,
    })
}

/// Counts attempts and failures and checks every round's prefix
/// fingerprint against `expected`, or against the first round's when no
/// value is stored. Returns the first round's fingerprint.
fn check(
    args: &Args,
    sizes: &Sizes,
    rounds: &mut [Round],
    expected: Option<u64>,
    out: &mut Outcome,
) -> u64 {
    if args.tamper {
        if let Some(r) = rounds[0].prefix.first_mut() {
            r.sim.cycles += 1;
        }
    }
    let first = fingerprint(&rounds[0].prefix);
    let want = expected.unwrap_or(first);
    for r in rounds.iter() {
        out.attempted += r.served.len() as u64;
        out.failed += r.fresh_insts.iter().filter(|f| f.is_none()).count() as u64;
        if fingerprint(&r.prefix) != want {
            out.failed += sizes.fingerprint_jobs;
        }
    }
    let jobs = rounds.len() as u64 * sizes.round_jobs;
    out.notes.push(match expected {
        Some(e) => format!(
            "fingerprint {first:016x} (expected {e:016x}) over the first {} job(s) of each of {} round(s), {jobs} jobs",
            sizes.fingerprint_jobs,
            rounds.len()
        ),
        None => format!(
            "fingerprint {first:016x} over the first {} job(s) of each of {} round(s), {jobs} jobs (no stored value for this seed)",
            sizes.fingerprint_jobs,
            rounds.len()
        ),
    });
    first
}

/// The median over rounds of a per-round figure.
fn by_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // A traced run splits its time between an untraced and a traced pass.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = pass(args, sizes, "plain", window, None)?;
    let fp = check(
        args,
        sizes,
        &mut plain,
        crate::expected_fingerprint(args),
        &mut out,
    );
    let p90s: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.1}", quantile(&r.latencies(), 0.9)))
        .collect();
    out.notes
        .push(format!("job_p90_ms by round: {}", p90s.join(" ")));
    if !args.trace {
        out.metric(
            "sim_minst_s",
            by_round(&plain, |r| {
                r.fresh_insts.iter().flatten().sum::<u64>() as f64 / r.window_s / 1e6
            }),
            "Minst/s",
        );
        out.metric(
            "jobs_per_s",
            by_round(&plain, |r| r.served.len() as f64 / r.window_s),
            "1/s",
        );
        out.metric(
            "job_p50_ms",
            by_round(&plain, |r| median(&r.latencies())),
            "ms",
        );
        out.metric(
            "job_p90_ms",
            by_round(&plain, |r| quantile(&r.latencies(), 0.9)),
            "ms",
        );
        out.metric("setup_s", by_round(&plain, |r| r.setup_s), "s");
        out.metric("peak_rss_mb", by_round(&plain, |r| r.peak_rss_mb), "MB");
        return Ok(out);
    }
    let mut tr = Tracer::new(Instant::now());
    let mut traced = pass(args, sizes, "traced", window, Some(&mut tr))?;
    // The memory hierarchy on a fixture address stream: the first INT
    // workload at the first job's seed.
    let seed = prep::job_spec(args.seed, 0, sizes).params.seed;
    let mut member = suite(WorkloadClass::Int, seed).swap_remove(0);
    let fixture = Arc::new(SharedStream::capture(member.as_mut(), sizes.fixture_insts));
    crate::offline::replay_memory(&mut tr, &fixture, sizes.fixture_insts);
    check(args, sizes, &mut traced, Some(fp), &mut out);
    for s in traced.iter().flat_map(|r| &r.served) {
        let (Some(accepted), Some(first), Some(last)) =
            (s.accepted, s.points.first(), s.points.last())
        else {
            continue;
        };
        tr.record("serve.admit", s.j, s.submit, accepted);
        tr.record("serve.queue", s.j, accepted, *first);
        for pair in s.points.windows(2) {
            tr.record("serve.point", s.j, pair[0], pair[1]);
        }
        tr.record("serve.tail", s.j, *last, s.done);
    }
    let spans = tr.into_spans();
    write_ndjson(&args.spans_path(), &spans)?;
    let mut counts = Counts::default();
    for r in &plain[0].prefix {
        counts.add(r);
    }
    // The serving path runs in the daemon, which is not traced, so the
    // traced and untraced closed loops run the same code: there is no
    // tracing overhead to report.
    let extra = layers::Extra {
        store_hits: plain[0].prefix_hits,
        store_misses: plain[0].prefix_misses,
        overhead_frac: 0.0,
        ..layers::Extra::default()
    };
    layers::report(&totals(&spans), &counts, &extra, &mut out);
    Ok(out)
}
