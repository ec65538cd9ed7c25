//! The offline sweep workloads: `detail-fp` and `sampled-trace`.
//!
//! Each iteration is one research sweep as `elsq-lab sweep --cache DIR
//! --resume` runs it: open a fresh copy of the history store, expand the
//! plan, open and validate the trace roster (sampled workload only), then
//! `run_plan` with one simulation worker. Every iteration simulates the same
//! points, so every iteration must produce the same fingerprint.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_cpu::result::SimResult;
use elsq_isa::etrc::EtrcReader;
use elsq_isa::{DynInst, SharedStream, TraceSource};
use elsq_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use elsq_sim::driver::{capture_class_suite, install_result_cache, install_trace_override};
use elsq_sim::experiments::fig7;
use elsq_sim::scenario::{
    run_plan, sweep_report, Axis, PlanResults, PointKey, ScenarioSpec, SweepPlan,
};
use elsq_sim::store::ResultStore;
use elsq_stats::report::ExperimentParams;
use elsq_stats::sampling::SamplingSpec;
use elsq_workload::suite::{TraceRoster, WorkloadClass};

use crate::report::{median, quantile, Outcome};
use crate::spans::{maybe_span, totals, write_ndjson, Tracer};
use crate::{fingerprint, layers, prep, Args, Counts, Sizes, Workload};

/// What one offline workload sweeps.
struct Sweep {
    /// Rendering spec for `sweep_report`, and the grid of the sampled
    /// workload.
    spec: ScenarioSpec,
    /// One `run_plan` per entry, in order, per iteration: `detail-fp`
    /// sweeps several seeds so one input's speed does not decide
    /// the run; the sampled workload sweeps the seed its traces hold.
    runs: Vec<ExperimentParams>,
    /// Where the sampled workload's traces live.
    traces: Option<PathBuf>,
}

/// Seed stream of the `detail-fp` sweeps.
const DETAIL_TAG: u64 = 2;

fn sweep_for(args: &Args, sizes: &Sizes) -> Sweep {
    match args.workload {
        Workload::DetailFp => {
            let runs: Vec<ExperimentParams> = (0..sizes.detail_seeds)
                .map(|k| ExperimentParams {
                    commits: sizes.detail_commits,
                    seed: prep::derive_seed(args.seed, DETAIL_TAG, k),
                    sample: None,
                })
                .collect();
            Sweep {
                spec: ScenarioSpec {
                    name: "fig7-fp".to_owned(),
                    base: "ooo64".to_owned(),
                    axes: Vec::new(),
                    classes: vec![WorkloadClass::Fp],
                    params: runs[0],
                },
                runs,
                traces: None,
            }
        }
        Workload::SampledTrace => {
            let params = ExperimentParams {
                commits: sizes.trace_insts,
                seed: args.seed,
                sample: Some(
                    SamplingSpec::new(sizes.sample.0, sizes.sample.1, sizes.sample.2)
                        .expect("the benchmark's sampling spec is valid"),
                ),
            };
            Sweep {
                spec: ScenarioSpec {
                    name: "sampled".to_owned(),
                    base: "ooo64".to_owned(),
                    axes: vec![Axis {
                        name: "l2mb".to_owned(),
                        values: vec!["2".to_owned(), "4".to_owned()],
                    }],
                    classes: vec![WorkloadClass::Int, WorkloadClass::Fp],
                    params,
                },
                runs: vec![params],
                traces: Some(args.work.join("traces")),
            }
        }
        Workload::ServeMixed => unreachable!("serve-mixed is not an offline sweep"),
    }
}

/// Everything set-up produces: the opened store, the expanded plan and the
/// validated roster.
struct Ready {
    store: Arc<ResultStore>,
    plan: SweepPlan,
    roster: Option<Arc<TraceRoster>>,
}

/// The Figure 7 grid restricted to one suite, in the experiment's order.
fn fig7_plan(class: WorkloadClass) -> SweepPlan {
    let mut plan = fig7::plan();
    plan.points.retain(|p| p.class == class);
    plan
}

/// Set-up: open the store copy, expand the plan, open and validate the
/// roster. Spans are recorded only when a tracer is given.
fn set_up(
    sweep: &Sweep,
    store_dir: &Path,
    mut tracer: Option<&mut Tracer>,
    job: u64,
) -> Result<Ready, String> {
    let store = maybe_span(&mut tracer, "sim.store_open", job, || {
        ResultStore::open(store_dir, true)
    })?;
    let plan = maybe_span(&mut tracer, "sim.plan_expand", job, || match sweep.traces {
        Some(_) => sweep.spec.expand(),
        None => Ok(fig7_plan(sweep.spec.classes[0])),
    })?;
    let roster = match &sweep.traces {
        Some(dir) => Some(maybe_span(
            &mut tracer,
            "workload.roster_open",
            job,
            || {
                let r = TraceRoster::from_dir(dir)?;
                for class in &sweep.spec.classes {
                    r.validate(*class, sweep.spec.params.seed, sweep.spec.params.commits)?;
                }
                Ok::<_, String>(Arc::new(r))
            },
        )?),
        None => None,
    };
    Ok(Ready {
        store: Arc::new(store),
        plan,
        roster,
    })
}

/// Instructions a result stands for: committed for a detailed run;
/// skipped, warmed and detailed for a sampled one.
fn covered(r: &SimResult) -> u64 {
    match &r.sampling {
        Some(s) => s.skipped + s.warmed + s.windows.iter().map(|w| w.committed).sum::<u64>(),
        None => r.sim.committed,
    }
}

/// Runs one point's suite on captured streams, exactly as the batched
/// driver does.
fn simulate(config: CpuConfig, stream: &Arc<SharedStream>, params: &ExperimentParams) -> SimResult {
    let mut cursor = stream.cursor();
    match params.sample {
        Some(spec) => Processor::new(config).run_sampled(&mut cursor, params.commits, spec),
        None => Processor::new(config).run(&mut cursor, params.commits),
    }
}

/// Per-iteration record.
struct Iteration {
    setup_s: f64,
    sweep_s: f64,
    insts: u64,
    fingerprint: u64,
    results: Vec<SimResult>,
    failed_points: u64,
    store_hits: u64,
    store_misses: u64,
}

/// The untimed part of an iteration: a fresh copy of the history store.
fn fresh_store(args: &Args, i: u64) -> Result<PathBuf, String> {
    let dir = args.work.join(format!("store-{i}"));
    prep::copy_store(&args.work.join("history"), &dir)?;
    Ok(dir)
}

/// One untraced iteration: set-up, then `run_plan`.
fn plain_iteration(args: &Args, sweep: &Sweep, i: u64) -> Result<Iteration, String> {
    let dir = fresh_store(args, i)?;
    let t = Instant::now();
    let ready = set_up(sweep, &dir, None, i)?;
    let setup_s = t.elapsed().as_secs_f64();
    let _cache = install_result_cache(Arc::clone(&ready.store));
    let _traces = ready.roster.clone().map(install_trace_override);
    let mut flat = Vec::new();
    let mut failed_points = 0;
    let t = Instant::now();
    for params in &sweep.runs {
        failed_points += flatten(&run_plan(&ready.plan, params), &mut flat);
    }
    let sweep_s = t.elapsed().as_secs_f64();
    let iteration = finish(
        args,
        flat,
        setup_s,
        sweep_s,
        failed_points,
        &ready.store,
        i == 0,
    );
    drop((_cache, _traces, ready));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(iteration)
}

/// Appends a plan run's results in plan order; returns its failed points.
fn flatten(results: &PlanResults, flat: &mut Vec<SimResult>) -> u64 {
    let mut failed = 0;
    for (_, outcome) in results.iter_outcomes() {
        match outcome.results() {
            Some(suite) => flat.extend_from_slice(suite),
            None => failed += 1,
        }
    }
    failed
}

/// Records an iteration. Under `--tamper` the first iteration's first
/// result is corrupted before it is fingerprinted, so the check must fail.
fn finish(
    args: &Args,
    mut flat: Vec<SimResult>,
    setup_s: f64,
    sweep_s: f64,
    failed_points: u64,
    store: &ResultStore,
    first: bool,
) -> Iteration {
    if args.tamper && first {
        if let Some(r) = flat.first_mut() {
            r.sim.cycles += 1;
        }
    }
    Iteration {
        setup_s,
        sweep_s,
        insts: flat.iter().map(covered).sum(),
        fingerprint: fingerprint(&flat),
        results: flat,
        failed_points,
        store_hits: store.hits(),
        store_misses: store.misses(),
    }
}

/// Span-recording state a traced pass keeps across iterations.
#[derive(Default)]
struct TraceState {
    stream_bytes: u64,
    fixture: Option<Arc<SharedStream>>,
    /// Per iteration: summed `cpu.run` time of each configuration label.
    run_ns_by_label: Vec<Vec<(String, u64)>>,
}

/// One traced iteration: set-up, then each sweep decomposed into the
/// public calls `run_plan` makes, then `run_plan` itself over the now fully
/// cached plan, and the sweep report.
fn traced_iteration(
    args: &Args,
    sweep: &Sweep,
    i: u64,
    tr: &mut Tracer,
    state: &mut TraceState,
) -> Result<Iteration, String> {
    let dir = fresh_store(args, i)?;
    let t = Instant::now();
    let ready = tr.span("bench.setup", i, |tr| set_up(sweep, &dir, Some(tr), i))?;
    let setup_s = t.elapsed().as_secs_f64();
    let _cache = install_result_cache(Arc::clone(&ready.store));
    let _traces = ready.roster.clone().map(install_trace_override);
    let mut flat = Vec::new();
    let mut run_ns = Vec::new();
    let t = Instant::now();
    tr.span("bench.sweep", i, |tr| {
        sweep
            .runs
            .iter()
            .try_for_each(|params| decomposed(tr, i, &ready, params, state, &mut run_ns, &mut flat))
    })?;
    let sweep_s = t.elapsed().as_secs_f64();
    state.run_ns_by_label.push(run_ns);
    // `run_plan` over the now fully cached plan, for its own cost and the
    // report's. The decomposed results are checked by the caller, against
    // the untraced pass's fingerprint.
    let mut failed_points = 0;
    for params in &sweep.runs {
        let cached = tr.span("sim.run_plan", i, |_| run_plan(&ready.plan, params));
        failed_points += cached.failed().len() as u64;
        let spec = ScenarioSpec {
            params: *params,
            ..sweep.spec.clone()
        };
        tr.span("stats.report", i, |_| {
            let report = sweep_report(&spec, &ready.plan, &cached);
            serde_json::to_string_pretty(&report).map(|s| std::hint::black_box(s.len()))
        })
        .map_err(|e| format!("cannot render the sweep report: {e}"))?;
    }
    let iteration = finish(
        args,
        flat,
        setup_s,
        sweep_s,
        failed_points,
        &ready.store,
        i == 0,
    );
    drop((_cache, _traces, ready));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(iteration)
}

/// Workloads per suite: results per plan point.
const SUITE: u64 = 6;

/// One sweep as the public calls `run_plan` makes on a batched class group:
/// key hash, store lookup, stream capture, one processor run per workload,
/// store insert. Appends the results in plan order.
fn decomposed(
    tr: &mut Tracer,
    i: u64,
    ready: &Ready,
    params: &ExperimentParams,
    state: &mut TraceState,
    run_ns: &mut Vec<(String, u64)>,
    flat: &mut Vec<SimResult>,
) -> Result<(), String> {
    let plan = &ready.plan;
    let store = &ready.store;
    let mut by_point: Vec<Option<Vec<SimResult>>> = vec![None; plan.points.len()];
    let mut classes: Vec<WorkloadClass> = Vec::new();
    for p in &plan.points {
        if !classes.contains(&p.class) {
            classes.push(p.class);
        }
    }
    for class in classes {
        let mut misses = Vec::new();
        for (k, point) in plan.points.iter().enumerate() {
            if point.class != class {
                continue;
            }
            let key = PointKey::current(point.config, class, params);
            tr.span("stats.key_hash", i, |_| std::hint::black_box(key.hash()));
            match tr.span("sim.store_lookup", i, |_| store.lookup(&key))? {
                Some(results) => by_point[k] = Some(results),
                None => misses.push((k, key)),
            }
        }
        if misses.is_empty() {
            continue;
        }
        let streams = tr.span_with("workload.capture", class.key(), i, |_| {
            let streams = capture_class_suite(class, params);
            let insts = streams.iter().map(|s| s.len() as u64).sum();
            (streams, insts)
        });
        let bytes: u64 = streams
            .iter()
            .map(|s| (s.len() * std::mem::size_of::<DynInst>()) as u64)
            .sum();
        state.stream_bytes = state.stream_bytes.max(bytes);
        if state.fixture.is_none() {
            state.fixture = streams.first().cloned();
        }
        let name = if params.sample.is_some() {
            "cpu.sampled_run"
        } else {
            "cpu.run"
        };
        for (k, key) in misses {
            let point = &plan.points[k];
            let start = Instant::now();
            let results: Vec<SimResult> = streams
                .iter()
                .map(|s| {
                    tr.span_with(name, &point.label, i, |_| {
                        let r = simulate(point.config, s, params);
                        let committed = r.sim.committed;
                        (r, committed)
                    })
                })
                .collect();
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            run_ns.push((point.label.clone(), ns));
            tr.span("sim.store_insert", i, |_| {
                store.insert(&key, &point.label, &results)
            })?;
            by_point[k] = Some(results);
        }
    }
    flat.extend(by_point.into_iter().flatten().flatten());
    Ok(())
}

/// Iterates until `seconds` of set-up plus sweep time are measured (at
/// least `sizes.min_iterations` iterations).
fn iterate(
    seconds: f64,
    sizes: &Sizes,
    mut one: impl FnMut(u64) -> Result<Iteration, String>,
) -> Result<Vec<Iteration>, String> {
    let mut out: Vec<Iteration> = Vec::new();
    let mut measured = 0.0;
    while measured < seconds || (out.len() as u64) < sizes.min_iterations {
        let it = one(out.len() as u64)?;
        measured += it.setup_s + it.sweep_s;
        out.push(it);
    }
    Ok(out)
}

/// Counts failed points: failed outcomes, and every point of an iteration
/// whose fingerprint differs from the first iteration's or (at the default
/// seed) from the stored value.
fn check(its: &[Iteration], points: u64, expected: Option<u64>, out: &mut Outcome) {
    let first = its[0].fingerprint;
    for (k, it) in its.iter().enumerate() {
        out.attempted += points;
        let mismatch = it.fingerprint != first || (k == 0 && expected.is_some_and(|e| e != first));
        out.failed += if mismatch { points } else { it.failed_points };
    }
    out.notes.push(match expected {
        Some(e) => format!(
            "fingerprint {first:016x} (expected {e:016x}) over {} iteration(s)",
            its.len()
        ),
        None => format!(
            "fingerprint {first:016x} over {} iteration(s) (no stored value for this seed)",
            its.len()
        ),
    });
}

/// Simulated instructions per host second of each iteration's sweeps.
fn rates(its: &[Iteration]) -> Vec<f64> {
    its.iter()
        .map(|it| it.insts as f64 / it.sweep_s / 1e6)
        .collect()
}

/// End-to-end metrics of a set of untraced iterations, each an order
/// statistic over iterations, so a fast or slow spell of the host during a
/// few of them does not move it. The rates are the ones the run sustains in
/// three iterations out of four (the lower quartile): on a shared host the
/// slower iterations repeat from run to run more closely than the median.
/// A "job" of an offline workload is one whole iteration (set-up plus its
/// sweeps): the job metrics time the same sweep as `sim_minst_s`, and are
/// printed because every workload prints every end-to-end metric.
fn end_to_end(its: &[Iteration], out: &mut Outcome) {
    let jobs: Vec<f64> = its
        .iter()
        .map(|it| (it.setup_s + it.sweep_s) * 1e3)
        .collect();
    let setups: Vec<f64> = its.iter().map(|it| it.setup_s).collect();
    out.metric("sim_minst_s", quantile(&rates(its), 0.25), "Minst/s");
    out.metric("jobs_per_s", 1e3 / quantile(&jobs, 0.75), "1/s");
    out.metric("job_p50_ms", median(&jobs), "ms");
    out.metric("job_p90_ms", quantile(&jobs, 0.9), "ms");
    out.metric("setup_s", median(&setups), "s");
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let sweep = sweep_for(args, sizes);
    let expected = crate::expected_fingerprint(args);
    let mut out = Outcome::default();
    // A traced run splits its time between an untraced and a traced pass.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = iterate(window, sizes, |i| plain_iteration(args, &sweep, i))?;
    let points = plain[0].results.len() as u64 / SUITE;
    check(&plain, points, expected, &mut out);
    let shown: Vec<String> = rates(&plain).iter().map(|r| format!("{r:.3}")).collect();
    out.notes
        .push(format!("Minst/s by iteration: {}", shown.join(" ")));
    if !args.trace {
        end_to_end(&plain, &mut out);
        out.metric("peak_rss_mb", crate::report::peak_rss_mb("self")?, "MB");
        return Ok(out);
    }
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let mut state = TraceState::default();
    let traced = iterate(window, sizes, |i| {
        traced_iteration(args, &sweep, i, &mut tr, &mut state)
    })?;
    let mut traced_out = Outcome::default();
    check(&traced, points, Some(plain[0].fingerprint), &mut traced_out);
    out.attempted += traced_out.attempted;
    out.failed += traced_out.failed;
    // Layer probes outside the sweep: the memory hierarchy on a fixture
    // address stream, and the trace decoder on the roster files.
    if let Some(stream) = &state.fixture {
        replay_memory(&mut tr, stream, sizes.fixture_insts);
    }
    if let Some(dir) = &sweep.traces {
        decode_traces(&mut tr, dir, sizes)?;
    }
    let spans = tr.into_spans();
    write_ndjson(&args.spans_path(), &spans)?;
    let by_name = totals(&spans);
    let mut counts = Counts::default();
    for r in &plain[0].results {
        counts.add(r);
    }
    let extra = layers::Extra {
        stream_mb: state.stream_bytes as f64 / (1024.0 * 1024.0),
        elsq_extra_ms: elsq_extra_ms(&state.run_ns_by_label),
        store_hits: traced[0].store_hits,
        store_misses: traced[0].store_misses,
        overhead_frac: median(&rates(&plain)) / median(&rates(&traced)) - 1.0,
    };
    layers::report(&by_name, &counts, &extra, &mut out);
    Ok(out)
}

/// Mean over the FMC configurations of their summed `Processor::run` time
/// minus OoO-64's on the same cursors, per iteration, averaged over
/// iterations (0 for a grid without OoO-64 or without FMC points).
fn elsq_extra_ms(per_iteration: &[Vec<(String, u64)>]) -> f64 {
    let mut extras = Vec::new();
    for runs in per_iteration {
        let mut by_label: std::collections::BTreeMap<&str, f64> = Default::default();
        for (label, ns) in runs {
            *by_label.entry(label).or_default() += *ns as f64;
        }
        let Some(base) = by_label.remove(fig7::BASELINE) else {
            continue;
        };
        if !by_label.is_empty() {
            let sum: f64 = by_label.values().map(|ns| ns - base).sum();
            extras.push(sum / by_label.len() as f64 / 1e6);
        }
    }
    if extras.is_empty() {
        0.0
    } else {
        extras.iter().sum::<f64>() / extras.len() as f64
    }
}

/// Replays the fixture stream's data addresses through a default
/// `MemoryHierarchy` (32 KB L1, 2 MB L2).
pub fn replay_memory(tr: &mut Tracer, stream: &Arc<SharedStream>, limit: u64) {
    let mut cursor = stream.cursor();
    let mut accesses = Vec::new();
    for _ in 0..limit {
        let Some(inst) = cursor.next_inst() else {
            break;
        };
        if let Some(mem) = inst.mem {
            accesses.push((mem.addr, inst.is_store()));
        }
    }
    tr.span_with("mem.access", "", 0, |_| {
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::default());
        for &(addr, write) in &accesses {
            std::hint::black_box(hierarchy.access(addr, write));
        }
        ((), accesses.len() as u64)
    });
}

/// Decodes every roster file end to end, then seeks each to seven evenly
/// spaced checkpoints.
fn decode_traces(tr: &mut Tracer, dir: &Path, sizes: &Sizes) -> Result<(), String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "etrc"))
        .collect();
    files.sort();
    let open = |path: &Path| -> Result<EtrcReader<std::io::BufReader<std::fs::File>>, String> {
        let file = std::fs::File::open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        EtrcReader::new(std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    for path in &files {
        let mut reader = open(path)?;
        tr.span_with("isa.decode", "", 0, |_| {
            let mut n = 0u64;
            let res = loop {
                match reader.next_inst() {
                    Ok(Some(inst)) => {
                        std::hint::black_box(inst);
                        n += 1;
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(format!("{}: {e}", path.display())),
                }
            };
            (res, n)
        })?;
        let mut reader = open(path)?;
        for k in 1..8 {
            let target = sizes.trace_insts * k / 8;
            tr.span("isa.seek", 0, |_| reader.seek_to_checkpoint(target))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}
