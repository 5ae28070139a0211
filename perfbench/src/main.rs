//! The benchmark command.
//!
//! ```text
//! perfbench --workload <astro3d|dedup> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it times five set-ups back to back, then runs
//! the workload on a fresh testbed again and again until `--seconds` have
//! passed, and reports the median of each end-to-end metric over every
//! repetition but the first (a warm-up). Host-clock figures are process
//! CPU seconds (see `msr_perfbench::trace`), with one pool worker. Traced
//! (`--trace 1`), it runs the workload untraced, traced and untraced again,
//! reports the per-layer metrics of the traced run and writes its spans to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any incorrect output
//! makes the run fail with exit code 1 and no metrics.

use msr_perfbench::{
    det_diff, host_metrics, peak_rss_mb, rep, result_json, stats, timed_setups, trace::Tracer,
    Outcome, Rep, Size, Workload, END_TO_END, PER_LAYER,
};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <astro3d|dedup> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Astro3d,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One pool worker: the host's few cores are shared with other work,
    // and a second worker would contend with it (and with this thread)
    // for them, which times the host rather than the program.
    rayon::with_threads(1, || run(&args))
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={} pool_workers={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
    );
    println!("idle crates: {}", w.idle_crates());
    println!(
        "unmeasured on purpose: lifecycle, prefetch, keep-alive and fault injection stay at their defaults (off)"
    );
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

/// Print the tail latency of `samples_ms`, or why there is none.
fn print_tail(label: &str, call: &str, samples_ms: &[f64]) {
    match stats::tail(samples_ms) {
        Some(t) => println!(
            "  {label:<26} {:>16.6} ms (p{} of {} {call} calls, {} beyond)",
            t.value,
            t.pct,
            samples_ms.len(),
            t.beyond
        ),
        None => println!(
            "  {label:<26} {:>16} n/a: {} {call} calls leave fewer than {} beyond any tail percentile",
            "",
            samples_ms.len(),
            stats::TAIL_BEYOND
        ),
    }
}

/// Print the mismatches and the failing result line.
fn fail(mismatches: &[String], attempted: u64, failed: u64) -> ExitCode {
    for m in mismatches {
        eprintln!("incorrect output: {m}");
    }
    println!("{}", result_json(false, attempted.max(1), failed, &[]));
    ExitCode::from(1)
}

fn untraced(args: &Args) -> ExitCode {
    let w = args.workload;
    let start = Instant::now();
    let (env, setups) = timed_setups(w, args.seed, Size::Full);
    let mut env = Some(env);
    let mut reps: Vec<Rep> = Vec::new();
    // Peak memory of the set-ups and the first repetition: later
    // repetitions only add allocator fragmentation that depends on how
    // many fit in the run.
    let mut peak_rss = 0.0;
    // The first repetition warms caches and the allocator: it is checked
    // but not timed, so a run always makes at least two.
    while reps.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let r = rep(
            w,
            args.seed,
            Size::Full,
            env.take(),
            &mut Tracer::new(false),
        );
        let mut bad = r.outcome.mismatches.clone();
        if let Some(first) = reps.first() {
            bad.extend(det_diff(&first.outcome, &r.outcome).into_iter().map(|d| {
                format!("virtual-clock figure differs between repetitions of one seed: {d}")
            }));
        }
        if !bad.is_empty() || r.outcome.failed > 0 {
            return fail(&bad, r.outcome.attempted, r.outcome.failed);
        }
        if reps.is_empty() {
            peak_rss = peak_rss_mb();
        }
        reps.push(r);
    }
    let first = &reps[0].outcome;
    let attempted: u64 = reps.iter().map(|r| r.outcome.attempted).sum();
    println!("shape: {}", first.shape);
    println!(
        "logical bytes per repetition: {} written, {} through the timed calls",
        first.det["logical_bytes_written"], first.bytes
    );
    println!(
        "set-ups timed: {}; repetitions: {} timed after 1 warm-up (fresh testbed each), {} timed calls per run ({}), obs.dropped={}",
        setups.len(),
        reps.len() - 1,
        first.calls.len(),
        first.call_name,
        first.obs_dropped
    );

    for (i, r) in reps.iter().enumerate() {
        let line: Vec<String> = host_metrics(r)
            .iter()
            .map(|(k, v)| format!("{k}={v:.6}"))
            .collect();
        let warm = if i == 0 {
            " (warm-up, not counted)"
        } else {
            ""
        };
        println!(
            "repetition {i}: {} run_wall_s={:.6}{warm}",
            line.join(" "),
            r.run_wall_s
        );
    }
    let timed = &reps[1..];
    let host: Vec<_> = timed.iter().map(host_metrics).collect();
    // Call latencies pool every timed repetition's samples.
    let pooled = |f: fn(&Outcome) -> &[f64]| -> Vec<f64> {
        timed
            .iter()
            .flat_map(|r| f(&r.outcome))
            .map(|s| s * 1e3)
            .collect()
    };
    let calls = pooled(|o| &o.calls);
    let mut metrics = Vec::new();
    for (name, unit) in END_TO_END {
        let value = match name {
            "setup_s" => stats::median(&setups),
            "peak_rss_mb" => peak_rss,
            "call_p50_ms" => stats::median(&calls),
            n if host[0].contains_key(n) => {
                stats::median(&host.iter().map(|h| h[n]).collect::<Vec<_>>())
            }
            n => first.det[n],
        };
        metrics.push((name, value, unit));
    }

    println!("end-to-end (host-clock figures are CPU-time medians over repetitions):");
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    print_tail("call_tail_ms", first.call_name, &calls);
    if !first.other_calls.is_empty() {
        let other = pooled(|o| &o.other_calls);
        println!(
            "  {:<26} {:>16.6} ms ({} p50, not gated)",
            "other_call_p50_ms",
            stats::median(&other),
            first.other_call_name
        );
        print_tail("other_call_tail_ms", first.other_call_name, &other);
    }
    for (name, unit, why) in [
        ("turnaround_p50_s", "s", "one session, no scheduler drain"),
        (
            "turnaround_tail_s",
            "s",
            "no drain, or too few sessions for a tail",
        ),
        (
            "predict_err_pct",
            "%",
            "only the one-session run is priced by eq. (2) up front",
        ),
    ] {
        match first.det.get(name) {
            Some(v) => println!("  {name:<26} {v:>16.6} {unit}"),
            None => println!("  {name:<26} {:>16} n/a on {}: {why}", "", w.name()),
        }
    }
    if let (Some(p), Some(a)) = (
        first.det.get("predict.predicted_s"),
        first.det.get("predict.actual_s"),
    ) {
        println!(
            "  {:<26} eq. (2) predicted {p:.3} s, write phase took {a:.3} s",
            ""
        );
    }
    println!(
        "  {:<26} {:>16.6} (failed {} of {} requests attempted)",
        "failed_frac", 0.0, 0, attempted
    );

    if let Some((name, _, _)) = metrics.iter().find(|m| !m.1.is_finite() || m.1 <= 0.0) {
        return fail(
            &[format!("end-to-end metric {name} is not a positive number")],
            attempted,
            0,
        );
    }
    println!("{}", result_json(true, attempted, 0, &metrics));
    ExitCode::SUCCESS
}

fn traced(args: &Args) -> ExitCode {
    let w = args.workload;
    // Untraced repetitions on both sides of the traced one, so the overhead
    // figure does not depend on which ran first.
    let plain = || rep(w, args.seed, Size::Full, None, &mut Tracer::new(false));
    let before = plain();
    let mut tr = Tracer::new(true);
    let traced = rep(w, args.seed, Size::Full, None, &mut tr);
    let after = plain();
    let o = &traced.outcome;
    let mut bad = o.mismatches.clone();
    for p in [&before, &after] {
        bad.extend(p.outcome.mismatches.iter().cloned());
        bad.extend(
            det_diff(&p.outcome, o)
                .into_iter()
                .map(|d| format!("tracing changed a virtual-clock figure: {d}")),
        );
    }
    let attempted = before.outcome.attempted + o.attempted + after.outcome.attempted;
    let failed = before.outcome.failed + o.failed + after.outcome.failed;
    if !bad.is_empty() || failed > 0 {
        return fail(&bad, attempted, failed);
    }

    let untraced_s = (before.outcome.timed_s + after.outcome.timed_s) / 2.0;
    let untraced_wall_s = (before.run_wall_s + after.run_wall_s) / 2.0;
    let overhead_pct = 100.0 * (o.timed_s - untraced_s) / untraced_s;
    println!("shape: {}", o.shape);
    println!(
        "tracing: timed calls {:.4} s traced vs {:.4} s untraced (mean of one run before and one after, {overhead_pct:+.2}%); \
         whole run {:.4} s traced (with replays and counter reads) vs {:.4} s untraced",
        o.timed_s, untraced_s, traced.run_wall_s, untraced_wall_s
    );
    let dropped = o.det.get("obs.dropped").copied().unwrap_or(0.0);
    if dropped > 0.0 {
        println!(
            "obs.dropped={dropped}: the registry cap dropped events, so obs-derived per-layer \
             counts (storage.virt_*, net.*, sched.wait_*, runtime.scratch_reuse_ratio) are PARTIAL"
        );
    } else {
        println!("obs.dropped=0: obs-derived per-layer counts are complete");
    }

    let mut metrics = Vec::new();
    let mut idle = Vec::new();
    println!("per-layer (traced run):");
    let mut crate_name = "";
    for (name, unit) in PER_LAYER {
        let value = match name {
            "trace.overhead_pct" => Some(overhead_pct),
            n => o.det.get(n).or_else(|| o.host.get(n)).copied(),
        };
        let krate = name.split('.').next().unwrap_or(name);
        if krate != crate_name {
            println!("  [{krate}]");
            crate_name = krate;
        }
        match value {
            Some(v) => println!("    {name:<34} {v:>18.6} {unit}"),
            None => {
                println!(
                    "    {name:<34} {:>18} (n/a on {}: layer idle or too few samples)",
                    "-",
                    w.name()
                );
                idle.push(name);
            }
        }
        metrics.push((name, value.unwrap_or(0.0), unit));
    }
    println!("self time per public call (span minus recorded children):");
    for (name, t) in tr.totals() {
        println!(
            "    {name:<34} {:>8} calls {:>12.3} ms total {:>12.3} ms self",
            t.count,
            t.total_s * 1e3,
            t.self_s * 1e3
        );
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_jsonl())) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
    if let Some((name, _, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return fail(
            &[format!("per-layer metric {name} is not a number")],
            attempted,
            0,
        );
    }
    println!("{}", result_json(true, attempted, 0, &metrics));
    ExitCode::SUCCESS
}
