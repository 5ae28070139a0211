//! `astro3d`: the paper's application at Table 2 shape in one session.
//!
//! 19 datasets, 128³, 120 iterations, a 2×2×2 grid and collective I/O,
//! with analysis variables on remote disk, visualization variables on
//! local disk and checkpoints on tape. Every dump's payload is generated
//! from the seed outside the timed calls. After the write phase come the
//! consumer reads: every `temp` dump (MSE), every `vr_*` dump (Volren)
//! and the `restart_*` checkpoints (restart); each is checked byte for
//! byte.

use crate::common::{fill_payload, native_calls, Baseline, Env, Outcome, Size};
use crate::trace::Tracer;
use msr_apps::astro3d::{ANALYSIS_VARS, RESTART_VARS, VIZ_VARS};
use msr_apps::{Astro3d, Astro3dConfig, PlacementPlan};
use msr_core::{DatasetHandle, DatasetSpec, LocationHint};
use msr_runtime::IoReport;
use std::collections::BTreeMap;

/// The Table 2 configuration (or its small test shape) with this
/// benchmark's placement.
pub fn config(size: Size, seed: u64) -> Astro3dConfig {
    let mut cfg = match size {
        Size::Full => Astro3dConfig::paper_table2(),
        Size::Small => Astro3dConfig::small(32, 12),
    };
    let mut plan = PlacementPlan::uniform(LocationHint::RemoteTape);
    for v in ANALYSIS_VARS {
        plan = plan.with(v, LocationHint::RemoteDisk);
    }
    for v in VIZ_VARS {
        plan = plan.with(v, LocationHint::LocalDisk);
    }
    cfg.plan = plan;
    cfg.seed = seed;
    cfg
}

fn kind_of(name: &str) -> &'static str {
    if ANALYSIS_VARS.contains(&name) {
        "analysis"
    } else if VIZ_VARS.contains(&name) {
        "viz"
    } else {
        "checkpoint"
    }
}

/// Run the workload once on `env`.
pub fn run(env: &Env, seed: u64, size: Size, tr: &mut Tracer) -> Outcome {
    let sys = &env.sys;
    let cfg = config(size, seed);
    let specs: Vec<DatasetSpec> = Astro3d::new(cfg.clone()).dataset_specs();
    let mut out = Outcome {
        shape: format!(
            "{} datasets, {}^3, {} iterations, {}x{}x{} grid, {:?}",
            specs.len(),
            cfg.n,
            cfg.iterations,
            cfg.grid.px,
            cfg.grid.py,
            cfg.grid.pz,
            cfg.strategy
        ),
        call_name: "Session::write_iteration",
        other_call_name: "Session::read_iteration",
        ..Outcome::default()
    };
    let base = Baseline::of(sys);
    let t0 = sys.clock.now();
    let traced = tr.enabled();
    let phase = tr.begin("astro3d", 1);

    let (session, _) = tr.time("SessionBuilder::build", 1, || {
        sys.session()
            .app("astro3d")
            .user("bench")
            .iterations(cfg.iterations)
            .grid(cfg.grid)
            .build()
    });
    let mut session = session.expect("session opens on a healthy testbed");
    let mut handles: Vec<(DatasetHandle, &DatasetSpec)> = Vec::new();
    let mut open_ms = Vec::new();
    for spec in &specs {
        let (h, s) = tr.time("Session::open", 1, || session.open(spec.clone()));
        handles.push((h.expect("dataset opens"), spec));
        open_ms.push(s * 1e3);
    }
    let (predicted, predict_s) = tr.time("Session::predict", 1, || session.predict());
    let predicted = predicted.expect("the PTool sweep populated the performance database");
    let mut predict_ms = vec![predict_s * 1e3];
    if traced {
        // Replay the same inputs into the predictor for its self time.
        for _ in 0..20 {
            let (_, s) = tr.time("Session::predict", 1, || session.predict());
            predict_ms.push(s * 1e3);
        }
    }

    // Write phase: one buffer per dataset, refilled outside the timed call.
    let mut bufs: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| vec![0u8; s.snapshot_bytes() as usize])
        .collect();
    let mut reports: Vec<IoReport> = Vec::new();
    let (mut write_s, mut written) = (0.0, 0u64);
    let mut last_dump: BTreeMap<&str, u32> = BTreeMap::new();
    for iter in 0..=cfg.iterations {
        for ((h, spec), buf) in handles.iter().zip(bufs.iter_mut()) {
            if !session.dumps_at(*h, iter) {
                continue;
            }
            fill_payload(buf, seed, &spec.name, iter);
            let (r, s) = tr.time("Session::write_iteration", 1, || {
                session.write_iteration(*h, iter, buf)
            });
            out.calls.push(s);
            write_s += s;
            out.attempted += 1;
            match r {
                Ok(Some(report)) => {
                    written += buf.len() as u64;
                    last_dump.insert(&spec.name, iter);
                    reports.push(report);
                }
                Ok(None) => out.mismatch(format!("{} iter {iter}: dump skipped", spec.name)),
                Err(e) => {
                    out.failed += 1;
                    out.mismatch(format!("{} iter {iter}: {e}", spec.name));
                }
            }
        }
    }
    drop(bufs);
    let after_writes = session.report();

    // Consumer reads, each compared with the payload that was written.
    let mut expected = Vec::new();
    let (mut read_s, mut read_bytes) = (0.0, 0u64);
    let mut reads: Vec<(DatasetHandle, &DatasetSpec, u32)> = Vec::new();
    for (h, spec) in &handles {
        let name = spec.name.as_str();
        let Some(&last) = last_dump.get(name) else {
            continue;
        };
        if name == "temp" || VIZ_VARS.contains(&name) {
            reads.extend(
                (0..=last)
                    .filter(|&i| session.dumps_at(*h, i))
                    .map(|i| (*h, *spec, i)),
            );
        } else if RESTART_VARS.contains(&name) {
            reads.push((*h, *spec, last));
        }
    }
    for (h, spec, iter) in reads {
        let (r, s) = tr.time("Session::read_iteration", 1, || {
            session.read_iteration(h, iter)
        });
        out.other_calls.push(s);
        read_s += s;
        out.attempted += 1;
        match r {
            Ok((data, report)) => {
                expected.resize(spec.snapshot_bytes() as usize, 0);
                fill_payload(&mut expected, seed, &spec.name, iter);
                if data != expected {
                    out.mismatch(format!(
                        "{} iter {iter}: read differs from write",
                        spec.name
                    ));
                }
                read_bytes += data.len() as u64;
                reports.push(report);
            }
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("{} iter {iter}: {e}", spec.name));
            }
        }
    }
    let (finalized, finalize_s) = tr.time("Session::finalize", 1, || session.finalize());
    finalized.expect("the session finalizes on a healthy testbed");
    tr.end(phase);

    out.timed_s = write_s + read_s;
    out.bytes = written + read_bytes;
    out.det("makespan_s", sys.clock.now().since(t0).as_secs());
    out.det("requests", (out.calls.len() + out.other_calls.len()) as f64);
    out.system_ratios(sys, &base, written);
    out.obs_dropped = sys.obs.dropped();

    // eq. (2) prediction against the write phase it prices.
    let actual = after_writes.total_io.as_secs();
    out.det(
        "predict_err_pct",
        100.0 * (predicted.total.as_secs() - actual).abs() / actual,
    );
    out.det("predict.predicted_s", predicted.total.as_secs());
    out.det("predict.actual_s", actual);
    if traced {
        let mut by_kind: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for (row, d) in predicted.rows.iter().zip(&after_writes.datasets) {
            let e = by_kind.entry(kind_of(&d.name)).or_default();
            e.0 += row.total.as_secs();
            e.1 += d.io_time.as_secs();
        }
        for (kind, (p, a)) in by_kind {
            out.det(
                &format!("predict.err_pct.{kind}"),
                100.0 * (p - a).abs() / a.max(1e-12),
            );
        }
        out.det("predict.learned_ratio", sys.predicted_ratio("temp"));
        let (calls, retries) = native_calls(&reports);
        out.det(
            "runtime.native_calls_per_request",
            calls as f64 / out.attempted.max(1) as f64,
        );
        out.det("runtime.retries", retries as f64);
        out.layer_counters(sys, &base);
        out.host(
            "runtime.write_ms_per_mb",
            write_s * 1e3 / (written as f64 / 1e6),
        );
        out.host(
            "runtime.read_ms_per_mb",
            read_s * 1e3 / (read_bytes.max(1) as f64 / 1e6),
        );
        out.host("predict.ptool_s", env.ptool_s);
        out.host("predict.predict_ms", crate::stats::median(&predict_ms));
        out.host("core.open_ms", crate::stats::median(&open_ms));
        out.host("core.finalize_ms", finalize_s * 1e3);
    }
    out
}
