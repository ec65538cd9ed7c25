//! The per-layer metrics of a traced run, one group per crate.
//!
//! Times come from span self times ([`crate::spans`]); counts come from the
//! simulated results the run fingerprinted, so they repeat exactly. A layer
//! the workload never calls reports 0 (see `README.md`, "Per-layer
//! metrics").

use std::collections::BTreeMap;

use crate::report::Outcome;
use crate::spans::Totals;
use crate::Counts;

/// Per-layer values that are not span totals or result counts.
#[derive(Debug, Default)]
pub struct Extra {
    /// Largest set of captured `SharedStream`s held at once, in MB.
    pub stream_mb: f64,
    /// Mean FMC-config `Processor::run` time over OoO-64's, per sweep.
    pub elsq_extra_ms: f64,
    pub store_hits: u64,
    pub store_misses: u64,
    /// Traced end-to-end result against the untraced one, minus 1.
    pub overhead_frac: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Appends every per-layer metric, in `BENCHMARK.json` order.
pub fn report(by_name: &BTreeMap<&'static str, Totals>, c: &Counts, x: &Extra, out: &mut Outcome) {
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    const MS: f64 = 1e6;
    const US: f64 = 1e3;

    let decode = get("isa.decode");
    let decode_rate = if decode.self_ns == 0 {
        0.0
    } else {
        decode.work as f64 / (decode.self_ns as f64 / 1e9) / 1e6
    };
    out.metric("isa.decode_minst_s", decode_rate, "Minst/s");
    out.metric("isa.seek_ms", get("isa.seek").mean(MS), "ms");
    out.metric("isa.stream_mb", x.stream_mb, "MB");
    out.metric(
        "workload.capture_ms",
        get("workload.capture").mean(MS),
        "ms",
    );

    let run = get("cpu.run");
    let sampled = get("cpu.sampled_run");
    // Host time per simulated instruction and cycle over every processor
    // run, detailed or sampled; `work` holds each run's committed count.
    let cpu_ns = (run.self_ns + sampled.self_ns) as f64;
    let cpu_committed = run.work + sampled.work;
    let ns_per_inst = if cpu_committed == 0 {
        0.0
    } else {
        cpu_ns / cpu_committed as f64
    };
    out.metric("cpu.run_ms", run.mean(MS), "ms");
    out.metric("cpu.ns_per_inst", ns_per_inst, "ns");
    out.metric(
        "cpu.ns_per_cycle",
        ns_per_inst * ratio(c.committed, c.cycles),
        "ns",
    );
    out.metric("cpu.sampled_run_ms", sampled.mean(MS), "ms");
    out.metric("cpu.committed", c.committed as f64, "count");
    out.metric("cpu.cycles", c.cycles as f64, "count");
    out.metric("cpu.fetched", c.fetched as f64, "count");
    out.metric(
        "cpu.wrong_path_frac",
        ratio(c.wrong_path, c.fetched),
        "ratio",
    );
    out.metric("cpu.detail_frac", ratio(c.detailed, c.covered), "ratio");

    out.metric("core.elsq_extra_ms", x.elsq_extra_ms, "ms");
    out.metric("core.lsq_searches", c.lsq_searches as f64, "count");
    out.metric("core.ert_lookups", c.ert_lookups as f64, "count");
    out.metric("core.sqm_lookups", c.sqm_lookups as f64, "count");
    out.metric("core.roundtrips", c.roundtrips as f64, "count");
    out.metric("core.epochs_allocated", c.epochs_allocated as f64, "count");
    out.metric(
        "core.ert_hit_frac",
        ratio(
            c.ert_true_positives,
            c.ert_true_positives + c.ert_false_positives,
        ),
        "ratio",
    );

    let access = get("mem.access");
    out.metric("mem.cache_accesses", c.cache_accesses as f64, "count");
    out.metric("mem.access_ns", ratio(access.self_ns, access.work), "ns");

    out.metric("stats.key_hash_us", get("stats.key_hash").mean(US), "us");
    out.metric("stats.report_ms", get("stats.report").mean(MS), "ms");

    out.metric("sim.store_open_ms", get("sim.store_open").mean(MS), "ms");
    out.metric(
        "sim.store_lookup_us",
        get("sim.store_lookup").mean(US),
        "us",
    );
    out.metric(
        "sim.store_insert_ms",
        get("sim.store_insert").mean(MS),
        "ms",
    );
    out.metric("sim.run_plan_ms", get("sim.run_plan").mean(MS), "ms");
    out.metric("sim.store_hits", x.store_hits as f64, "count");
    out.metric("sim.store_misses", x.store_misses as f64, "count");

    out.metric("serve.admit_ms", get("serve.admit").mean(MS), "ms");
    out.metric("serve.queue_ms", get("serve.queue").mean(MS), "ms");
    out.metric("serve.point_ms", get("serve.point").mean(MS), "ms");
    out.metric("serve.tail_ms", get("serve.tail").mean(MS), "ms");
    out.metric("serve.ping_ms", get("serve.ping").mean(MS), "ms");

    out.metric("trace.overhead_frac", x.overhead_frac, "ratio");
}
