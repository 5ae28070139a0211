//! `dedup`: WAN-bound content-addressed checkpoints, then a consumer.
//!
//! Producers in the shape of `msr_apps::multi::dedup_fleet` (CDC with LZ
//! compression, pinned to the remote disk) read their earliest dumps back
//! inside the drain. Then a consumer reads the newest and oldest dump of
//! every producer through `MsrSystem::read_dataset` and compares each with
//! `msr_sched::program::payload`. Newest dumps reference chunks from many
//! earlier dumps, so a layout that helps writes but scatters reads shows.

use crate::common::{native_calls, Baseline, Env, Outcome, Size};
use crate::stats;
use crate::trace::Tracer;
use msr_apps::multi::dedup_fleet;
use msr_chunk::{decompress, split, Compressor, Digest, IngestSpec};
use msr_core::DatasetSpec;
use msr_meta::RunId;
use msr_sched::program::payload;
use msr_sched::{Scheduler, SessionProgram};
use msr_storage::StorageKind;
use std::hint::black_box;

/// Producers, cube edge, iterations and readbacks per producer.
pub fn shape(size: Size) -> (usize, u64, u32, u32) {
    match size {
        Size::Full => (4, 64, 96, 2),
        Size::Small => (2, 48, 24, 2),
    }
}

/// The producer fleet. Payload bytes come from
/// `msr_sched::program::payload`, which takes no seed: the seed reaches
/// this workload through the testbed's noise streams.
pub fn programs(size: Size) -> Vec<SessionProgram> {
    let (n, cube, iterations, readbacks) = shape(size);
    dedup_fleet(n, cube, iterations, true)
        .into_iter()
        .map(|p| p.readbacks(readbacks))
        .collect()
}

/// Run the workload once on `env`.
pub fn run(env: &Env, size: Size, tr: &mut Tracer) -> Outcome {
    let sys = &env.sys;
    let programs = programs(size);
    let (n, cube, _, readbacks) = shape(size);
    let spec = programs[0].datasets[0].clone();
    let (iterations, grid) = (programs[0].iterations, programs[0].grid);
    let dumps: Vec<u32> = (0..=iterations)
        .filter(|i| i % spec.frequency == 0)
        .collect();
    let snapshot = spec.snapshot_bytes() as usize;
    let mut out = Outcome {
        shape: format!(
            "{n} producers x {cube}^3 f32 x {iterations} iterations (dump every {}), \
             {readbacks} readbacks each, consumer reads newest+oldest per producer",
            spec.frequency
        ),
        call_name: "MsrSystem::read_dataset",
        ..Outcome::default()
    };
    let base = Baseline::of(sys);
    let t0 = sys.clock.now();
    let phase = tr.begin("dedup", 0);

    let mut sched = Scheduler::new(sys);
    let mut admit_s = 0.0;
    for (i, p) in programs.into_iter().enumerate() {
        let (r, s) = tr.time("Scheduler::admit", i as u64 + 1, || sched.admit(p));
        admit_s += s;
        if let Err(e) = r {
            out.mismatch(format!("admission failed: {e}"));
        }
    }
    let drain_start = sys.clock.now();
    let (report, run_s) = tr.time("Scheduler::run", 0, || sched.run());
    let report = report.expect("the drain completes on a healthy testbed");
    let drain_requests = report.requests();
    out.attempted = (n * (dumps.len() + readbacks as usize)) as u64;
    if drain_requests != out.attempted {
        out.mismatch(format!(
            "{drain_requests} requests served, {} implied",
            out.attempted
        ));
    }

    // Consumer phase: newest and oldest dump of every producer.
    let (newest, oldest) = (*dumps.last().expect("dumps"), dumps[0]);
    let mut consumer = Vec::new();
    let mut read_bytes = 0u64;
    let mut turnaround = Vec::new();
    for s in &report.sessions {
        out.failed += s.errors.len() as u64;
        if let Some(e) = s.errors.first() {
            out.mismatch(format!("{}: {e}", s.app));
        }
        turnaround.push(s.completed_at.since(drain_start).as_secs());
        for iter in [newest, oldest] {
            let (r, secs) = tr.time("MsrSystem::read_dataset", s.session + 1, || {
                sys.read_dataset(RunId(s.run), &spec.name, iter, grid, spec.strategy)
            });
            out.calls.push(secs);
            out.attempted += 1;
            match r {
                Ok((data, report)) => {
                    if data[..] != payload(s.session, &spec.name, iter, snapshot)[..] {
                        out.mismatch(format!("{} iter {iter}: consumer read differs", s.app));
                    }
                    read_bytes += data.len() as u64;
                    consumer.push(report);
                }
                Err(e) => {
                    out.failed += 1;
                    out.mismatch(format!("{} iter {iter}: {e}", s.app));
                }
            }
        }
    }
    tr.end(phase);

    let written = (n * dumps.len() * snapshot) as u64;
    let consumer_s: f64 = out.calls.iter().sum();
    out.timed_s = admit_s + run_s + consumer_s;
    out.bytes = report.total_bytes + read_bytes;
    out.det("makespan_s", sys.clock.now().since(t0).as_secs());
    out.det("requests", (drain_requests + consumer.len() as u64) as f64);
    out.det("turnaround_p50_s", stats::percentile(&turnaround, 50.0));
    if let Some(t) = stats::tail(&turnaround) {
        out.det("turnaround_tail_s", t.value);
    }
    out.system_ratios(sys, &base, written);
    out.obs_dropped = sys.obs.dropped();

    if tr.enabled() {
        let remote = sys
            .resource(StorageKind::RemoteDisk)
            .expect("testbed has a remote disk")
            .lock()
            .name()
            .to_owned();
        let plane = sys.engine.chunk_plane();
        let st = plane.store_stats(&remote).unwrap_or_default();
        let refs = (st.hits + st.inserts).max(1) as f64;
        out.det("chunk.dedup_hit_ratio", st.hits as f64 / refs);
        let objects = st.inserts + plane.manifest_count(&remote) as u64;
        out.det(
            "chunk.objects_per_dump",
            objects as f64 / (n * dumps.len()) as f64,
        );
        out.det("chunk.stored_bytes", st.stored_bytes as f64);
        out.det("predict.learned_ratio", sys.predicted_ratio(&spec.name));
        let (calls, retries) = native_calls(
            report
                .sessions
                .iter()
                .flat_map(|s| &s.reports)
                .chain(&consumer),
        );
        let requests = drain_requests + consumer.len() as u64;
        out.det(
            "runtime.native_calls_per_request",
            calls as f64 / requests.max(1) as f64,
        );
        out.det("runtime.retries", retries as f64);
        out.det("sched.batches", report.batches as f64);
        out.det(
            "sched.mean_batch",
            drain_requests as f64 / report.batches.max(1) as f64,
        );
        out.det("sched.max_batch", report.max_batch as f64);
        out.det(
            "sched.requeues",
            report
                .sessions
                .iter()
                .map(|s| u64::from(s.requeues))
                .sum::<u64>() as f64,
        );
        out.det("sched.errors", out.failed as f64);
        out.layer_counters(sys, &base);
        let read_ms: Vec<f64> = out.calls.iter().map(|s| s * 1e3).collect();
        out.host("core.read_dataset_ms", stats::median(&read_ms));
        out.host(
            "runtime.read_ms_per_mb",
            consumer_s * 1e3 / (read_bytes.max(1) as f64 / 1e6),
        );
        out.host(
            "sched.run_us_per_request",
            run_s * 1e6 / drain_requests.max(1) as f64,
        );
        out.host("predict.ptool_s", env.ptool_s);
        let ids: Vec<u64> = report.sessions.iter().map(|s| s.session).collect();
        replay_chunk_plane(&mut out, &ids, &spec, &dumps, tr);
    }
    out
}

/// Self time of `msr-chunk`: replay every dump this workload wrote through
/// the splitter, the digest and the codec, with the dataset's own ingest
/// policy.
fn replay_chunk_plane(
    out: &mut Outcome,
    sessions: &[u64],
    spec: &DatasetSpec,
    dumps: &[u32],
    tr: &mut Tracer,
) {
    let IngestSpec { policy, codec, .. } = &spec.ingest;
    let mut compressor = Compressor::new();
    let (mut cdc_s, mut digest_s, mut compress_s, mut decompress_s) = (0.0, 0.0, 0.0, 0.0);
    let mut total = 0u64;
    for &s in sessions {
        for &iter in dumps {
            let data = payload(s, &spec.name, iter, spec.snapshot_bytes() as usize);
            total += data.len() as u64;
            let (cuts, secs) = tr.time("msr_chunk::split", s + 1, || {
                split(black_box(&data), policy)
            });
            cdc_s += secs;
            for r in cuts {
                let chunk = &data[r];
                let (digest, secs) = tr.time("Digest::of", s + 1, || Digest::of(black_box(chunk)));
                black_box(digest);
                digest_s += secs;
                let (frame, secs) = tr.time("Compressor::compress", s + 1, || {
                    compressor.compress(codec, black_box(chunk))
                });
                compress_s += secs;
                let (back, secs) = tr.time("msr_chunk::decompress", s + 1, || {
                    decompress(black_box(&frame))
                });
                decompress_s += secs;
                if back.as_deref().ok() != Some(chunk) {
                    out.mismatch(format!("chunk replay of session {s} iter {iter} differs"));
                }
            }
        }
    }
    let mb = total as f64 / 1e6;
    out.host("chunk.cdc_mb_s", mb / cdc_s.max(1e-12));
    out.host("chunk.digest_mb_s", mb / digest_s.max(1e-12));
    out.host("chunk.compress_mb_s", mb / compress_s.max(1e-12));
    out.host("chunk.decompress_mb_s", mb / decompress_s.max(1e-12));
}
