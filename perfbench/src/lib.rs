//! End-to-end and per-layer benchmark of the msr workspace.
//!
//! Two workloads drive the public API from one thread: `astro3d` (the
//! paper's application in one session) and `dedup` (content-addressed
//! checkpoints through the scheduler and over the WAN, then a consumer).
//! Each reports on both clocks: virtual
//! seconds from the eq. (1)/(2) model, which are deterministic for a seed,
//! and host CPU time of the timed public calls (see [`trace`] for why CPU
//! and not wall time). Layers are measured only from outside: host time
//! around public calls and the public counters
//! (`ResourceStats`, `SchedReport`, `IoReport`, `RunReport`, `StoreStats`,
//! `MsrSystem::usage`, the obs registry and the catalog).

pub mod astro3d;
pub mod common;
pub mod dedup;
pub mod stats;
pub mod trace;

pub use common::{Env, Outcome, Size};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's application at Table 2 shape, in one session.
    Astro3d,
    /// Content-addressed checkpoints over the WAN, then a consumer.
    Dedup,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Astro3d, Workload::Dedup];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Astro3d => "astro3d",
            Workload::Dedup => "dedup",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Crates that do (almost) no work in this workload.
    pub fn idle_crates(self) -> &'static str {
        match self {
            Workload::Astro3d => "msr-sched, msr-chunk",
            Workload::Dedup => "none: every layer works, msr-chunk and msr-net delta most",
        }
    }

    /// Build the testbed this workload runs on.
    pub fn setup(self, seed: u64, size: Size, tr: &mut Tracer) -> Env {
        common::setup(seed, size, tr)
    }

    /// Run the workload once on `env`.
    pub fn run(self, env: &Env, seed: u64, size: Size, tr: &mut Tracer) -> Outcome {
        match self {
            Workload::Astro3d => astro3d::run(env, seed, size, tr),
            Workload::Dedup => dedup::run(env, size, tr),
        }
    }
}

/// One repetition: one run of the workload on a fresh testbed.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host wall seconds of the whole run, set-up excluded.
    pub run_wall_s: f64,
    /// What the run produced.
    pub outcome: Outcome,
}

/// Set-ups timed back to back at the start of a run; `setup_s` is their
/// median.
pub const SETUP_SAMPLES: usize = 5;

/// Set up `workload` [`SETUP_SAMPLES`] times in a row and return the last
/// testbed with the host CPU seconds of every set-up.
pub fn timed_setups(workload: Workload, seed: u64, size: Size) -> (Env, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_SAMPLES);
    let mut env = None;
    for _ in 0..SETUP_SAMPLES {
        drop(env.take());
        let t = trace::cpu_now();
        env = Some(workload.setup(seed, size, &mut Tracer::new(false)));
        secs.push(trace::cpu_now() - t);
    }
    (env.expect("at least one set-up"), secs)
}

/// Set up and run `workload` once, on `env` when given.
pub fn rep(workload: Workload, seed: u64, size: Size, env: Option<Env>, tr: &mut Tracer) -> Rep {
    let env = env.unwrap_or_else(|| workload.setup(seed, size, tr));
    let t = Instant::now();
    let outcome = workload.run(&env, seed, size, tr);
    let run_wall_s = t.elapsed().as_secs_f64();
    Rep {
        run_wall_s,
        outcome,
    }
}

/// End-to-end metrics gated by `BENCHMARK.json`: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_mb_s", "MB/s"),
    ("requests_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("makespan_s", "s"),
    ("wan_bytes_per_logical", "ratio"),
    ("stored_bytes_per_logical", "ratio"),
];

/// Per-layer metrics of the traced run, grouped by crate: name and unit.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("storage.local.opens", "count"),
    ("storage.local.closes", "count"),
    ("storage.local.writes", "count"),
    ("storage.local.reads", "count"),
    ("storage.local.connects", "count"),
    ("storage.remote_disk.opens", "count"),
    ("storage.remote_disk.closes", "count"),
    ("storage.remote_disk.writes", "count"),
    ("storage.remote_disk.reads", "count"),
    ("storage.remote_disk.connects", "count"),
    ("storage.tape.opens", "count"),
    ("storage.tape.closes", "count"),
    ("storage.tape.writes", "count"),
    ("storage.tape.reads", "count"),
    ("storage.tape.connects", "count"),
    ("storage.virt_conn_s", "s"),
    ("storage.virt_connclose_s", "s"),
    ("storage.virt_open_s", "s"),
    ("storage.virt_seek_s", "s"),
    ("storage.virt_read_s", "s"),
    ("storage.virt_write_s", "s"),
    ("storage.virt_close_s", "s"),
    ("storage.bytes_written", "B"),
    ("storage.bytes_read", "B"),
    ("net.transfers", "count"),
    ("net.bytes", "B"),
    ("net.virt_transfer_s", "s"),
    ("runtime.native_calls_per_request", "count"),
    ("runtime.retries", "count"),
    ("runtime.scratch_reuse_ratio", "ratio"),
    ("runtime.write_ms_per_mb", "ms/MB"),
    ("runtime.read_ms_per_mb", "ms/MB"),
    ("chunk.cdc_mb_s", "MB/s"),
    ("chunk.digest_mb_s", "MB/s"),
    ("chunk.compress_mb_s", "MB/s"),
    ("chunk.decompress_mb_s", "MB/s"),
    ("chunk.dedup_hit_ratio", "ratio"),
    ("chunk.objects_per_dump", "count"),
    ("chunk.stored_bytes", "B"),
    ("predict.ptool_s", "s"),
    ("predict.predict_ms", "ms"),
    ("predict.err_pct.analysis", "%"),
    ("predict.err_pct.viz", "%"),
    ("predict.err_pct.checkpoint", "%"),
    ("predict.learned_ratio", "ratio"),
    ("core.open_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("core.failovers", "count"),
    ("core.read_dataset_ms", "ms"),
    ("sched.run_us_per_request", "us"),
    ("sched.batches", "count"),
    ("sched.mean_batch", "count"),
    ("sched.max_batch", "count"),
    ("sched.wait_p50_s", "s"),
    ("sched.wait_tail_s", "s"),
    ("sched.requeues", "count"),
    ("sched.errors", "count"),
    ("meta.queries", "count"),
    ("meta.datasets", "count"),
    ("meta.dumps", "count"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.partial", "flag"),
    ("trace.overhead_pct", "%"),
];

/// Host-clock end-to-end figures of one repetition (set-up excluded).
pub fn host_metrics(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let o = &rep.outcome;
    let secs = o.timed_s.max(1e-12);
    BTreeMap::from([
        ("host_mb_s", o.bytes as f64 / 1e6 / secs),
        (
            "requests_per_s",
            o.det.get("requests").copied().unwrap_or(0.0) / secs,
        ),
    ])
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Deterministic figures that differ between two outcomes of one seed.
pub fn det_diff(a: &Outcome, b: &Outcome) -> Vec<String> {
    let mut diffs = Vec::new();
    for (k, v) in &a.det {
        match b.det.get(k) {
            Some(w) if w.to_bits() == v.to_bits() => {}
            Some(w) => diffs.push(format!("{k}: {v} vs {w}")),
            None => {}
        }
    }
    diffs
}

/// The result line: `{"correct","attempted","failed","metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}
