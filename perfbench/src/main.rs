//! End-to-end and per-layer benchmark of the ELSQ simulator stack.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--tamper]
//! ```
//!
//! Each run prepares its inputs from `--seed` (untimed), then measures one
//! workload in a fresh child process for about `--seconds` seconds, checks
//! the simulated results and prints one JSON result line last. `--trace 1`
//! adds a traced pass after the untraced one and prints the per-layer
//! metrics instead of the end-to-end ones. `--smoke` shrinks every budget
//! for the benchmark's own tests; `--tamper` corrupts one result before the
//! output check, which must then fail. See `README.md`.

mod layers;
mod offline;
mod prep;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use elsq_cpu::result::SimResult;
use elsq_stats::canon::canonical_hash_of;

use report::Outcome;

/// The seed whose fingerprints the benchmark stores.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DetailFp,
    SampledTrace,
    ServeMixed,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("detail-fp", Workload::DetailFp),
        ("sampled-trace", Workload::SampledTrace),
        ("serve-mixed", Workload::ServeMixed),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

/// Work budgets of one run (see `README.md`, "Workloads").
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Committed instructions per workload of a `detail-*` sweep point.
    pub detail_commits: u64,
    /// Seeds each `detail-*` iteration sweeps.
    pub detail_seeds: u64,
    /// Correct-path instructions per `.etrc` trace (the sampled budget).
    pub trace_insts: u64,
    pub checkpoint_every: u64,
    /// Sampling spec `(period, window, warmup)`.
    pub sample: (u64, u64, u64),
    /// History grids in the store (two points each).
    pub history_grids: u64,
    /// Committed instructions per workload of a history or served point.
    pub serve_commits: u64,
    /// Offline sweeps per run, at least.
    pub min_iterations: u64,
    /// Served jobs per round (enough for a p90 with ten beyond).
    pub round_jobs: u64,
    /// Serve rounds per pass, at least.
    pub min_rounds: usize,
    /// Jobs of each round the serve fingerprint covers.
    pub fingerprint_jobs: u64,
    /// Pings per traced serve round.
    pub pings: usize,
    /// Instructions of the memory-replay fixture.
    pub fixture_insts: u64,
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            return Self {
                detail_commits: 2_000,
                detail_seeds: 2,
                trace_insts: 20_000,
                checkpoint_every: 2_000,
                sample: (4_000, 500, 500),
                history_grids: 8,
                serve_commits: 500,
                min_iterations: 2,
                round_jobs: 100,
                min_rounds: 2,
                fingerprint_jobs: 4,
                pings: 4,
                fixture_insts: 10_000,
            };
        }
        Self {
            detail_commits: 12_500,
            detail_seeds: 8,
            trace_insts: 1_000_000,
            checkpoint_every: 50_000,
            sample: (50_000, 2_000, 2_000),
            history_grids: 150,
            serve_commits: 1_500,
            min_iterations: 3,
            round_jobs: 120,
            min_rounds: 3,
            fingerprint_jobs: 16,
            pings: 20,
            fixture_insts: 400_000,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub tamper: bool,
    /// The run's scratch directory (inputs, store copies).
    pub work: PathBuf,
}

impl Args {
    /// Where a traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}{}.ndjson",
            self.workload.name(),
            self.seed,
            if self.smoke { "-smoke" } else { "" }
        ))
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut smoke = false;
    let mut tamper = false;
    let mut work = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => smoke = true,
            "--tamper" => tamper = true,
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = work.unwrap_or_else(|| {
        PathBuf::from(".bench_work").join(format!(
            "{}-{seed}-{}",
            workload.name(),
            std::process::id()
        ))
    });
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        tamper,
        work,
    })
}

/// Canonical hash of every result, in plan order.
pub fn fingerprint(results: &[SimResult]) -> u64 {
    canonical_hash_of(&results.to_vec())
}

/// The stored fingerprint of this workload at the default seed, if any.
fn expected_fingerprint(args: &Args) -> Option<u64> {
    if args.seed != DEFAULT_SEED {
        return None;
    }
    // (workload, full-size fingerprint, smoke fingerprint) at seed 1.
    const TABLE: [(Workload, u64, u64); 3] = [
        (
            Workload::DetailFp,
            0x973a_d5a7_2717_d4f3,
            0x7ef0_0c33_c93a_337b,
        ),
        (
            Workload::SampledTrace,
            0xf899_5713_04c8_8645,
            0xbd74_0cab_35a2_b54f,
        ),
        (
            Workload::ServeMixed,
            0x7df7_146c_7c15_a93b,
            0xdbf2_e4a5_815f_45a2,
        ),
    ];
    TABLE
        .iter()
        .find(|(w, _, _)| *w == args.workload)
        .map(|&(_, full, smoke)| if args.smoke { smoke } else { full })
}

/// Simulated-work counts summed over a set of results.
#[derive(Debug, Default)]
pub struct Counts {
    pub committed: u64,
    pub cycles: u64,
    pub fetched: u64,
    pub wrong_path: u64,
    pub covered: u64,
    pub detailed: u64,
    pub lsq_searches: u64,
    pub ert_lookups: u64,
    pub sqm_lookups: u64,
    pub roundtrips: u64,
    pub epochs_allocated: u64,
    pub ert_true_positives: u64,
    pub ert_false_positives: u64,
    pub cache_accesses: u64,
}

impl Counts {
    pub fn add(&mut self, r: &SimResult) {
        let (s, l) = (&r.sim, &r.lsq);
        self.committed += s.committed;
        self.cycles += s.cycles;
        self.fetched += s.fetched;
        self.wrong_path += s.wrong_path_fetched;
        self.epochs_allocated += s.epochs_allocated;
        self.lsq_searches +=
            l.hl_lq_searches + l.hl_sq_searches + l.ll_lq_searches + l.ll_sq_searches;
        self.ert_lookups += l.ert_lookups;
        self.sqm_lookups += l.sqm_lookups;
        self.roundtrips += l.roundtrips;
        self.ert_true_positives += l.ert_true_positives;
        self.ert_false_positives += l.ert_false_positives;
        self.cache_accesses += l.cache_accesses;
        match &r.sampling {
            Some(sm) => {
                let detailed: u64 = sm.windows.iter().map(|w| w.committed).sum();
                self.detailed += detailed;
                self.covered += sm.skipped + sm.warmed + detailed;
            }
            None => {
                self.detailed += s.committed;
                self.covered += s.committed;
            }
        }
    }
}

/// The measuring child: runs the workload and prints the result line.
fn measure(args: &Args) -> Result<Outcome, String> {
    let sizes = Sizes::new(args.smoke);
    let probe_ms = report::host_probe_ms();
    let mut out = match args.workload {
        Workload::ServeMixed => serve::run(args, &sizes)?,
        _ => offline::run(args, &sizes)?,
    };
    out.notes.push(format!("host.probe_ms {probe_ms:.3}"));
    if args.trace {
        out.metric("host.probe_ms", probe_ms, "ms");
    }
    Ok(out)
}

/// The parent: prepares inputs, runs the measuring child, cleans up.
fn drive(raw: &[String], args: &Args) -> Result<ExitCode, String> {
    let sizes = Sizes::new(args.smoke);
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let result = (|| {
        prep::build_history(&args.work.join("history"), args.seed, &sizes)?;
        if args.workload == Workload::SampledTrace {
            prep::dump_traces(&args.work.join("traces"), args.seed, &sizes)?;
        }
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let status = Command::new(exe)
            .arg("measure")
            .args(raw)
            .arg("--work")
            .arg(&args.work)
            .env("ELSQ_THREADS", "1")
            .status()
            .map_err(|e| format!("cannot start the measuring process: {e}"))?;
        Ok(match status.code() {
            Some(0) => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        })
    })();
    let _ = std::fs::remove_dir_all(&args.work);
    result
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("daemon") => match raw.get(1) {
            Some(store) => serve::daemon_main(store).map(|()| ExitCode::SUCCESS),
            None => Err("daemon needs a store directory".to_owned()),
        },
        Some("measure") => parse(&raw[1..]).and_then(|args| {
            let out = measure(&args)?;
            for note in &out.notes {
                println!("{}: {note}", args.workload.name());
            }
            println!("{}", out.json_line());
            Ok(if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }),
        _ => parse(&raw).and_then(|args| drive(&raw, &args)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
