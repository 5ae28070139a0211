//! The benchmark's own checks, at the small size of each workload:
//! every virtual-clock metric and every count repeats bitwise for one
//! seed, at any pool shape and with tracing on or off, and a second seed
//! changes the virtual clock. `BENCHMARK.json` names exactly the metrics
//! the command prints.

use msr_perfbench::{det_diff, rep, trace::Tracer, Outcome, Size, Workload, END_TO_END, PER_LAYER};

fn run(w: Workload, seed: u64, traced: bool) -> Outcome {
    let o = rep(w, seed, Size::Small, None, &mut Tracer::new(traced)).outcome;
    assert!(o.mismatches.is_empty(), "{}: {:?}", w.name(), o.mismatches);
    assert_eq!(o.failed, 0, "{}", w.name());
    o
}

fn assert_same(w: Workload, what: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(
        a.det.keys().collect::<Vec<_>>(),
        b.det.keys().collect::<Vec<_>>(),
        "{}: {what}",
        w.name()
    );
    let diffs = det_diff(a, b);
    assert!(diffs.is_empty(), "{}: {what}: {diffs:?}", w.name());
}

#[test]
fn virtual_clock_and_counts_repeat_bitwise_across_runs_and_pool_shapes() {
    for w in Workload::ALL {
        let a = run(w, 7, true);
        assert!(
            a.det.len() > 30,
            "{}: traced run reports per-layer counts",
            w.name()
        );
        assert_same(w, "same seed, default pool", &a, &run(w, 7, true));
        let sequential = rayon::with_threads(1, || run(w, 7, true));
        assert_same(w, "same seed, one worker", &a, &sequential);
    }
}

#[test]
fn tracing_changes_no_virtual_clock_figure() {
    for w in Workload::ALL {
        let traced = run(w, 3, true);
        let plain = run(w, 3, false);
        assert!(plain.det.keys().all(|k| traced.det.contains_key(k)));
        assert!(det_diff(&plain, &traced).is_empty(), "{}", w.name());
    }
}

#[test]
fn a_second_seed_reaches_the_inputs() {
    for w in Workload::ALL {
        let a = run(w, 7, false);
        let b = run(w, 8, false);
        assert_ne!(
            a.det["makespan_s"].to_bits(),
            b.det["makespan_s"].to_bits(),
            "{}: seed must change the virtual makespan",
            w.name()
        );
    }
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return; // Not present outside a full checkout.
    };
    let names = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .chain(Workload::ALL.iter().map(|w| w.name()));
    let mut expected = 0;
    for name in names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
        expected += 1;
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        expected,
        "BENCHMARK.json names an unknown metric"
    );
}
