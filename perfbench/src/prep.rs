//! Untimed preparation: the result-store history every run starts from and
//! the `.etrc` traces of the sampled workload, both generated from the
//! benchmark seed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use elsq_isa::etrc;
use elsq_sim::driver::install_result_cache;
use elsq_sim::scenario::{run_plan, Axis, ScenarioSpec};
use elsq_sim::store::{ResultStore, LOCK_NAME};
use elsq_stats::report::ExperimentParams;
use elsq_workload::suite::{suite, WorkloadClass};

use crate::Sizes;

/// Derives the `i`-th seed of stream `tag` from the benchmark seed
/// (splitmix64 finaliser).
pub fn derive_seed(seed: u64, tag: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(i);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// Seed stream of the store history (and of the served jobs that read it).
const HISTORY_TAG: u64 = 1;

fn axis(name: &str, values: &[String]) -> Axis {
    Axis {
        name: name.to_owned(),
        values: values.to_vec(),
    }
}

/// The `i`-th history grid: OoO-64 at ROB 64 on both suites, at the `i`-th
/// history seed. These are the points a served job reads back as hits.
pub fn history_spec(seed: u64, i: u64, sizes: &Sizes) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("history-{i}"),
        base: "ooo64".to_owned(),
        axes: vec![axis("rob", &["64".to_owned()])],
        classes: vec![WorkloadClass::Int, WorkloadClass::Fp],
        params: ExperimentParams {
            commits: sizes.serve_commits,
            seed: derive_seed(seed, HISTORY_TAG, i),
            sample: None,
        },
    }
}

/// Served job `j`: the ROB-64 points of history grid `j mod H` (two store
/// hits) plus the same suites at a ROB size no other job uses (two fresh
/// points, simulated and inserted).
pub fn job_spec(seed: u64, j: u64, sizes: &Sizes) -> ScenarioSpec {
    let i = j % sizes.history_grids;
    let round = j / sizes.history_grids;
    let mut spec = history_spec(seed, i, sizes);
    spec.name = format!("job-{j}");
    spec.axes = vec![axis(
        "rob",
        &["64".to_owned(), (72 + 8 * round).to_string()],
    )];
    spec
}

/// Writes the history store into `dir`: `sizes.history_grids` grids of two
/// points each, simulated with every host core (preparation is untimed).
pub fn build_history(dir: &Path, seed: u64, sizes: &Sizes) -> Result<(), String> {
    let store = Arc::new(ResultStore::open(dir, false)?);
    let _cache = install_result_cache(Arc::clone(&store));
    for i in 0..sizes.history_grids {
        let spec = history_spec(seed, i, sizes);
        let results = run_plan(&spec.expand()?, &spec.params);
        if results.is_degraded() {
            return Err(format!("history grid {i} failed: {:?}", results.failed()));
        }
    }
    Ok(())
}

/// Copies a store directory's files (not its lock) into a fresh `dst`.
pub fn copy_store(src: &Path, dst: &Path) -> Result<(), String> {
    if dst.exists() {
        std::fs::remove_dir_all(dst).map_err(|e| format!("cannot clear {}: {e}", dst.display()))?;
    }
    std::fs::create_dir_all(dst).map_err(|e| format!("cannot create {}: {e}", dst.display()))?;
    let entries =
        std::fs::read_dir(src).map_err(|e| format!("cannot read {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", src.display()))?;
        if entry.file_name() == LOCK_NAME || !entry.path().is_file() {
            continue;
        }
        std::fs::copy(entry.path(), dst.join(entry.file_name()))
            .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Dumps both suites at `seed` as checkpointed `.etrc` traces of
/// `sizes.trace_insts` instructions each, the layout `TraceRoster::from_dir`
/// reads, two files at a time.
pub fn dump_traces(dir: &Path, seed: u64, sizes: &Sizes) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut jobs: Vec<(WorkloadClass, usize, PathBuf)> = Vec::new();
    for class in [WorkloadClass::Int, WorkloadClass::Fp] {
        for slot in 0..suite(class, seed).len() {
            jobs.push((
                class,
                slot,
                dir.join(format!("{}-{slot}.etrc", class.key())),
            ));
        }
    }
    let dump = |(class, slot, path): &(WorkloadClass, usize, PathBuf)| -> Result<(), String> {
        let mut member = suite(*class, seed).swap_remove(*slot);
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        etrc::record_with_checkpoints(
            member.as_mut(),
            sizes.trace_insts,
            seed,
            class.suite_tag(),
            Some(u8::try_from(*slot).expect("suites have six members")),
            Some(sizes.checkpoint_every),
            std::io::BufWriter::new(file),
        )
        .map(|_| ())
        .map_err(|e| format!("cannot record {}: {e}", path.display()))
    };
    std::thread::scope(|scope| {
        let (even, odd): (Vec<_>, Vec<_>) = jobs.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let halves = [even, odd]
            .map(|half| scope.spawn(move || half.into_iter().try_for_each(|(_, job)| dump(job))));
        halves
            .into_iter()
            .try_for_each(|h| h.join().expect("trace dump thread panicked"))
    })
}
