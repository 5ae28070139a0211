//! What every workload shares: the timed set-up, the outcome of one
//! repetition, and the per-layer figures read off public counters.

use crate::stats;
use crate::trace::Tracer;
use msr_core::MsrSystem;
use msr_obs::{EventKind, Layer};
use msr_predict::PTool;
use msr_storage::{ResourceStats, StorageKind};
use std::collections::BTreeMap;

/// Workload scale: `Full` is what the benchmark measures, `Small` is for
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark command runs.
    Full,
    /// A seconds-long shape of the same workload.
    Small,
}

/// The resource kinds in report order, with their metric names.
const KINDS: [(StorageKind, &str); 3] = [
    (StorageKind::LocalDisk, "local"),
    (StorageKind::RemoteDisk, "remote_disk"),
    (StorageKind::RemoteTape, "tape"),
];

/// The eq. (1) components the storage layer records as spans.
const COMPONENTS: [&str; 7] = [
    "conn",
    "connclose",
    "open",
    "seek",
    "read",
    "write",
    "close",
];

/// A testbed ready for a workload.
pub struct Env {
    /// The system under test.
    pub sys: MsrSystem,
    /// Host CPU seconds of the PTool sweep.
    pub ptool_s: f64,
}

/// Build the calibrated testbed, populate its performance database with a
/// PTool sweep.
pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Env {
    let (mut sys, _) = tr.time("MsrSystem::testbed", 0, || MsrSystem::testbed(seed));
    let ptool = match size {
        Size::Full => PTool::default(),
        Size::Small => PTool {
            sizes: vec![1 << 12, 1 << 15, 1 << 18, 1 << 21],
            reps: 2,
            scratch_prefix: "ptool/small".into(),
        },
    };
    let (swept, ptool_s) = tr.time("MsrSystem::run_ptool", 0, || sys.run_ptool(&ptool));
    swept.expect("a PTool sweep over the calibrated testbed cannot fail");
    // Keep the workload's own event stream apart from the sweep's.
    sys.obs.clear();
    Env { sys, ptool_s }
}

/// Public counters sampled before a workload, so its figures are deltas.
pub struct Baseline {
    stats: BTreeMap<StorageKind, ResourceStats>,
    physical: u64,
    queries: u64,
}

impl Baseline {
    /// Sample `sys` now.
    pub fn of(sys: &MsrSystem) -> Baseline {
        Baseline {
            stats: resource_stats(sys),
            physical: sys.usage().values().sum(),
            queries: sys.catalog.lock().query_count(),
        }
    }
}

fn resource_stats(sys: &MsrSystem) -> BTreeMap<StorageKind, ResourceStats> {
    sys.resources()
        .map(|(k, r)| (k, r.lock().stats()))
        .collect()
}

/// The result of one repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Virtual-clock metrics and counts: bitwise identical for one seed.
    pub det: BTreeMap<String, f64>,
    /// Host-clock per-layer metrics (traced runs only).
    pub host: BTreeMap<String, f64>,
    /// The public call whose latency `call_*` reports.
    pub call_name: &'static str,
    /// Host CPU seconds of each such call.
    pub calls: Vec<f64>,
    /// Another timed public call, reported beside it but not gated.
    pub other_call_name: &'static str,
    /// Host CPU seconds of each such call.
    pub other_calls: Vec<f64>,
    /// Events the obs registry dropped at its capacity bound.
    pub obs_dropped: u64,
    /// Host CPU seconds spent inside the timed calls.
    pub timed_s: f64,
    /// Logical payload bytes through the user API.
    pub bytes: u64,
    /// User-level requests attempted.
    pub attempted: u64,
    /// User-level requests failed or abandoned.
    pub failed: u64,
    /// Outputs that did not match what was written.
    pub mismatches: Vec<String>,
    /// One-line description of the workload's size.
    pub shape: String,
}

impl Outcome {
    /// Record a deterministic figure.
    pub fn det(&mut self, name: &str, value: f64) {
        self.det.insert(name.to_owned(), value);
    }

    /// Record a host-clock figure.
    pub fn host(&mut self, name: &str, value: f64) {
        self.host.insert(name.to_owned(), value);
    }

    /// Note an output that differs from what was expected.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 16 {
            self.mismatches.push(what);
        }
    }

    /// Fold the system-wide end-to-end ratios: WAN bytes (received by
    /// remote disk and tape) and resident bytes per logical byte written.
    pub fn system_ratios(&mut self, sys: &MsrSystem, base: &Baseline, logical_written: u64) {
        let now = resource_stats(sys);
        let wan: u64 = [StorageKind::RemoteDisk, StorageKind::RemoteTape]
            .iter()
            .map(|k| now[k].bytes_written - base.stats[k].bytes_written)
            .sum();
        let physical: u64 = sys.usage().values().sum();
        let logical = logical_written.max(1) as f64;
        self.det("wan_bytes_per_logical", wan as f64 / logical);
        self.det(
            "stored_bytes_per_logical",
            physical.saturating_sub(base.physical) as f64 / logical,
        );
        self.det("logical_bytes_written", logical_written as f64);
    }

    /// Fold the per-layer counters every workload reports: storage native
    /// calls and eq. (1) components, network transfers, runtime scratch
    /// reuse, failovers, catalog rows and the obs registry's own counts.
    pub fn layer_counters(&mut self, sys: &MsrSystem, base: &Baseline) {
        let now = resource_stats(sys);
        let (mut written, mut read) = (0, 0);
        for (kind, name) in KINDS {
            let (a, b) = (&now[&kind], &base.stats[&kind]);
            self.det(&format!("storage.{name}.opens"), (a.opens - b.opens) as f64);
            self.det(
                &format!("storage.{name}.closes"),
                (a.closes - b.closes) as f64,
            );
            self.det(
                &format!("storage.{name}.writes"),
                (a.writes - b.writes) as f64,
            );
            self.det(&format!("storage.{name}.reads"), (a.reads - b.reads) as f64);
            self.det(
                &format!("storage.{name}.connects"),
                (a.connects - b.connects) as f64,
            );
            written += a.bytes_written - b.bytes_written;
            read += a.bytes_read - b.bytes_read;
        }
        self.det("storage.bytes_written", written as f64);
        self.det("storage.bytes_read", read as f64);

        let queries = sys.catalog.lock().query_count() - base.queries;
        self.det("meta.queries", queries as f64);
        let (datasets, dumps) = {
            let mut catalog = sys.catalog.lock();
            let all = catalog.all_datasets();
            let dumps: usize = all.iter().map(|d| catalog.dumps_of(d.id).len()).sum();
            (all.len(), dumps)
        };
        self.det("meta.datasets", datasets as f64);
        self.det("meta.dumps", dumps as f64);

        let events = sys.obs.events();
        let dropped = sys.obs.dropped();
        let mut component_s: BTreeMap<&str, f64> = COMPONENTS.iter().map(|c| (*c, 0.0)).collect();
        let (mut transfers, mut net_bytes, mut net_s) = (0u64, 0u64, 0.0);
        let (mut alloc, mut reuse, mut failovers) = (0.0, 0.0, 0u64);
        let mut waits = Vec::new();
        for e in &events {
            match (e.layer, e.kind, e.op.as_str()) {
                (Layer::Storage, EventKind::Span, op) => {
                    if let Some(s) = component_s.get_mut(op) {
                        *s += e.dur.as_secs();
                    }
                }
                (Layer::Network, EventKind::Span, msr_obs::ops::TRANSFER) => {
                    transfers += 1;
                    net_bytes += e.bytes;
                    net_s += e.dur.as_secs();
                }
                (Layer::Runtime, EventKind::Count, msr_obs::ops::SCRATCH_ALLOC) => alloc += e.value,
                (Layer::Runtime, EventKind::Count, msr_obs::ops::SCRATCH_REUSE) => reuse += e.value,
                (Layer::Session, _, msr_obs::ops::FAILOVER) => failovers += 1,
                (Layer::Sched, EventKind::Span, msr_obs::ops::SCHED_WAIT) => {
                    waits.push(e.dur.as_secs())
                }
                _ => {}
            }
        }
        for (c, s) in component_s {
            self.det(&format!("storage.virt_{c}_s"), s);
        }
        self.det("net.transfers", transfers as f64);
        self.det("net.bytes", net_bytes as f64);
        self.det("net.virt_transfer_s", net_s);
        let scratch = alloc + reuse;
        self.det(
            "runtime.scratch_reuse_ratio",
            if scratch > 0.0 { reuse / scratch } else { 0.0 },
        );
        self.det("core.failovers", failovers as f64);
        if !waits.is_empty() {
            self.det("sched.wait_p50_s", stats::percentile(&waits, 50.0));
        }
        if let Some(t) = stats::tail(&waits) {
            self.det("sched.wait_tail_s", t.value);
        }
        self.det("obs.events", events.len() as f64);
        self.det("obs.dropped", dropped as f64);
        self.det("obs.partial", if dropped > 0 { 1.0 } else { 0.0 });
    }
}

/// Native calls (reads, writes and opens) issued by a set of engine reports.
pub fn native_calls<'a>(
    reports: impl IntoIterator<Item = &'a msr_runtime::IoReport>,
) -> (u64, u64) {
    reports.into_iter().fold((0, 0), |(calls, retries), r| {
        (
            calls + (r.native_reads + r.native_writes + r.native_opens) as u64,
            retries + r.retries as u64,
        )
    })
}

/// Fill `buf` with the deterministic payload of `(seed, name, iter)`.
pub fn fill_payload(buf: &mut [u8], seed: u64, name: &str, iter: u32) {
    let mut x = seed ^ u64::from(iter).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in name.bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut next = || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut words = buf.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&next().to_le_bytes());
    }
    let rest = words.into_remainder();
    let last = next().to_le_bytes();
    rest.copy_from_slice(&last[..rest.len()]);
}
