//! The benchmark's workloads, the cells they are made of, and one timed
//! pass over a cell through the simulator's public API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use noclat::{
    canonical_core, CountingProbe, Cycle, IdleStream, KernelKind, PolicyConfig, Probe,
    ProbeCounters, RunLengths, Simulation, SystemConfig, TopologyConfig,
};
use noclat_cpu::InstrStream;
use noclat_noc::{Dir, Hop, Priority, VNet};
use noclat_sim::journal::fnv1a64;
use noclat_sim::rng::SimRng;
use noclat_sim::stats::Histogram;
use noclat_workloads::{workload, SpecApp, SyntheticStream};

use crate::reference::HostClock;

/// The seed `SystemConfig` ships with; the pinned digests below are for it.
pub const DEFAULT_SEED: u64 = 0x0c5e_ed12;

/// Simulated-output digests of every cell on [`DEFAULT_SEED`], taken at the
/// commit that added the benchmark. A simulator change that keeps the
/// paper's answers keeps these; a cell whose digest differs counts as
/// failed.
const PINNED: &[(&str, u64)] = &[
    ("mesh32_w2", 0xf1e8_01f9_bd78_6965),
    ("alone_w2/mcf", 0x39ff_d689_7f6a_d8c2),
    ("alone_w2/lbm", 0x49d3_f2ee_3d63_c0e9),
    ("alone_w2/xalancbmk", 0x5ff8_6ec4_6ccd_1ecf),
    ("alone_w2/milc", 0x4ee1_a266_967a_7514),
    ("alone_w2/libquantum", 0x0d33_19b3_ea24_fd66),
    ("alone_w2/GemsFDTD", 0xb282_b3f8_7bd8_4584),
    ("alone_w2/soplex", 0x5478_8df3_6d46_a52c),
    ("alone_w2/perlbench", 0x0131_0435_9fc3_5e7f),
    ("alone_w2/astar", 0x7a39_705c_ef99_3786),
    ("alone_w2/wrf", 0x75d1_deec_d0d8_e837),
    ("alone_w2/povray", 0xf9f1_0aa8_6528_1b27),
    ("alone_w2/namd", 0x9969_1311_5291_a447),
    ("alone_w2/hmmer", 0x49fa_e737_1e43_9ee0),
    ("alone_w2/h264ref", 0x2d71_5126_ac41_7840),
    ("alone_w2/gcc", 0x753e_4c95_e691_6a2a),
    ("alone_w2/dealII", 0x002b_cdc3_3d8a_a0f5),
    ("fabric256", 0xfb6d_4b38_a4a1_31a4),
];

/// The Table-2 mix every workload runs (Mixed, the golden mix).
pub const MIX: usize = 2;

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: &[&str] = &["mesh32_w2", "alone_w2", "fabric256"];

/// What runs on the cores of a cell.
#[derive(Debug, Clone)]
pub enum Input {
    /// `apps[i]` on core `i`.
    Apps(Vec<SpecApp>),
    /// One application alone on the canonical core, every other core idle,
    /// built exactly as `noclat::alone_ipc` builds it.
    Alone(SpecApp),
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub cfg: SystemConfig,
    pub input: Input,
    pub lengths: RunLengths,
    /// Simulated cycles per timed chunk of the measured window: 25-50 ms of
    /// host time, so that one scheduling hiccup does not make a tail, and
    /// 100-128 chunks per pass, so that each pass's tail is at p90.
    pub chunk: Cycle,
}

/// The cells of a named workload, or `None` for an unknown name.
#[must_use]
pub fn workload_cells(name: &str, seed: u64) -> Option<Vec<Cell>> {
    let quick = RunLengths::quick();
    let cells = match name {
        // The paper's golden cell: 4x8 mesh, both schemes, Table-2 mix 2.
        "mesh32_w2" => vec![Cell {
            label: "mesh32_w2".into(),
            cfg: SystemConfig::baseline_32().with_both_schemes(),
            input: Input::Apps(workload(MIX).apps()),
            lengths: quick,
            chunk: 400,
        }],
        // The weighted-speedup denominators of mix 2: one alone run per
        // distinct application, in the order the mix lists them.
        "alone_w2" => {
            let mut apps: Vec<SpecApp> = Vec::new();
            for app in workload(MIX).apps() {
                if !apps.contains(&app) {
                    apps.push(app);
                }
            }
            apps.into_iter()
                .map(|app| Cell {
                    label: format!("alone_w2/{}", app.name()),
                    cfg: alone_config(&SystemConfig::baseline_32().with_both_schemes()),
                    input: Input::Alone(app),
                    lengths: quick,
                    chunk: 5_000,
                })
                .collect()
        }
        // 256 cores on a 16x16 torus with four corner controllers: deep
        // controller queues, dateline VCs. Shorter windows than the 32-core
        // cells, because it simulates at a tenth of their speed.
        "fabric256" => {
            let mut cfg = SystemConfig::baseline_256().with_both_schemes();
            cfg.topology = TopologyConfig::torus(16, 16);
            vec![Cell {
                label: "fabric256".into(),
                input: Input::Apps(workload(MIX).apps_for(cfg.num_cores())),
                cfg,
                lengths: RunLengths {
                    warmup: 5_000,
                    measure: 10_000,
                },
                chunk: 100,
            }]
        }
        _ => return None,
    };
    Some(
        cells
            .into_iter()
            .map(|mut c| {
                c.cfg.seed = seed;
                c
            })
            .collect(),
    )
}

/// The configuration `noclat::alone_ipc` runs an alone cell on.
fn alone_config(cfg: &SystemConfig) -> SystemConfig {
    let mut base = cfg.clone();
    base.scheme1.enabled = false;
    base.scheme2.enabled = false;
    base.policy = PolicyConfig::default();
    base.kernel = KernelKind::default();
    base
}

impl Cell {
    /// The pinned digest of this cell on `seed`, if one exists.
    #[must_use]
    pub fn pinned(&self) -> Option<u64> {
        if self.cfg.seed != DEFAULT_SEED {
            return None;
        }
        PINNED
            .iter()
            .find(|(label, _)| *label == self.label)
            .map(|&(_, d)| d)
    }

    /// The cores whose IPC the workload reports (every core of a shared
    /// run; the application's core of an alone run).
    #[must_use]
    pub fn reported_cores(&self) -> Vec<usize> {
        match self.input {
            Input::Apps(ref apps) => (0..apps.len()).collect(),
            Input::Alone(_) => vec![canonical_core(&self.cfg)],
        }
    }

    /// The cell's instruction streams, as the simulator would build them.
    #[must_use]
    pub fn streams(&self) -> Vec<Box<dyn InstrStream>> {
        let rng = SimRng::new(self.cfg.seed);
        match self.input {
            Input::Apps(ref apps) => apps
                .iter()
                .enumerate()
                .map(|(slot, &app)| {
                    Box::new(SyntheticStream::new(app, slot, &rng)) as Box<dyn InstrStream>
                })
                .collect(),
            Input::Alone(app) => {
                let core = canonical_core(&self.cfg);
                (0..self.cfg.num_cores())
                    .map(|slot| {
                        if slot == core {
                            Box::new(SyntheticStream::new(app, slot, &rng)) as Box<dyn InstrStream>
                        } else {
                            Box::new(IdleStream) as Box<dyn InstrStream>
                        }
                    })
                    .collect()
            }
        }
    }

    /// Builds the cell under `kernel` with the given probes attached.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not build: every workload is a
    /// fixed, valid configuration.
    #[must_use]
    pub fn build(&self, kernel: KernelKind, probes: Vec<Box<dyn Probe>>) -> Simulation {
        let builder = Simulation::builder(self.cfg.clone()).kernel(kernel);
        let mut builder = match self.input {
            Input::Apps(ref apps) => builder.workload(apps),
            Input::Alone(_) => builder.streams(self.streams()),
        };
        for p in probes {
            builder = builder.probe(p);
        }
        builder.build().expect("benchmark cells are valid")
    }
}

/// Counts ejected request-network flits by priority: the share of requests
/// the request policy (Scheme-2) expedited.
#[derive(Debug, Clone, Default)]
pub struct RequestProbe {
    pub counts: Arc<[AtomicU64; 2]>,
}

impl Probe for RequestProbe {
    fn on_hop(&mut self, hop: &Hop) {
        if hop.out_port == Dir::Local && hop.vnet == VNet::Request {
            let i = usize::from(hop.priority == Priority::High);
            self.counts[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Public statistics of a system at one instant, for window differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub flits_traversed: u64,
    pub flits_bypassed: u64,
    pub high_prio_traversed: u64,
    pub packets_injected: u64,
    pub high_prio_injected: u64,
    /// Count and sum of request / response network latencies.
    pub req_lat: (u64, f64),
    pub resp_lat: (u64, f64),
    /// Controller reads + writes served.
    pub mc_served: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub ctrl_delay: (u64, f64),
    /// Core memory operations and L1 misses since the cores' last reset
    /// (the end of warm-up).
    pub mem_ops: u64,
    pub l1_misses: u64,
    /// Counters of the attached `CountingProbe`.
    pub probe: [u64; 6],
    /// Ejected request flits at normal and high priority.
    pub req_flits: [u64; 2],
}

impl Snapshot {
    fn take(sim: &Simulation, probe: Option<&Tracers>) -> Snapshot {
        let sys = sim.system();
        let rc = sys.router_counters();
        let ns = sys.network_stats();
        let mut s = Snapshot {
            flits_traversed: rc.flits_traversed,
            flits_bypassed: rc.flits_bypassed,
            high_prio_traversed: rc.high_priority_traversed,
            packets_injected: ns.packets_injected.get(),
            high_prio_injected: ns.high_priority_injected.get(),
            req_lat: (ns.request_latency.count(), ns.request_latency.sum()),
            resp_lat: (ns.response_latency.count(), ns.response_latency.sum()),
            ..Snapshot::default()
        };
        for mc in 0..sys.num_controllers() {
            let cs = sys.controller_stats(mc);
            s.mc_served += cs.reads.get() + cs.writes.get();
            s.row_hits += cs.row_hits.get();
            s.row_misses += cs.row_misses.get();
            s.ctrl_delay.0 += cs.controller_delay.count();
            s.ctrl_delay.1 += cs.controller_delay.sum();
        }
        for core in 0..sys.config().num_cores() {
            let cs = sys.core_stats(core);
            s.mem_ops += cs.mem_ops;
            s.l1_misses += cs.offchip_ops;
        }
        if let Some(t) = probe {
            s.probe = t.counters.snapshot();
            s.req_flits = [
                t.requests.counts[0].load(Ordering::Relaxed),
                t.requests.counts[1].load(Ordering::Relaxed),
            ];
        }
        s
    }

    /// Applies `f` field by field (to both halves of the latency pairs).
    fn zip(&self, o: &Snapshot, f: fn(u64, u64) -> u64, g: fn(f64, f64) -> f64) -> Snapshot {
        let pair = |a: (u64, f64), b: (u64, f64)| (f(a.0, b.0), g(a.1, b.1));
        Snapshot {
            flits_traversed: f(self.flits_traversed, o.flits_traversed),
            flits_bypassed: f(self.flits_bypassed, o.flits_bypassed),
            high_prio_traversed: f(self.high_prio_traversed, o.high_prio_traversed),
            packets_injected: f(self.packets_injected, o.packets_injected),
            high_prio_injected: f(self.high_prio_injected, o.high_prio_injected),
            req_lat: pair(self.req_lat, o.req_lat),
            resp_lat: pair(self.resp_lat, o.resp_lat),
            mc_served: f(self.mc_served, o.mc_served),
            row_hits: f(self.row_hits, o.row_hits),
            row_misses: f(self.row_misses, o.row_misses),
            ctrl_delay: pair(self.ctrl_delay, o.ctrl_delay),
            mem_ops: f(self.mem_ops, o.mem_ops),
            l1_misses: f(self.l1_misses, o.l1_misses),
            probe: std::array::from_fn(|i| f(self.probe[i], o.probe[i])),
            req_flits: std::array::from_fn(|i| f(self.req_flits[i], o.req_flits[i])),
        }
    }

    /// `self - earlier`, field by field.
    #[must_use]
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        self.zip(earlier, |a, b| a - b, |a, b| a - b)
    }

    /// `self + other`, field by field.
    #[must_use]
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        self.zip(other, |a, b| a + b, |a, b| a + b)
    }
}

/// The probes a traced pass attaches, with handles to their counters.
pub struct Tracers {
    pub counters: Arc<ProbeCounters>,
    pub requests: RequestProbe,
}

/// What a traced pass records beyond an untraced one.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Statistics at the end of warm-up.
    pub warm: Snapshot,
    /// Statistics at the end of the measured window.
    pub end: Snapshot,
    /// Sum and count of `controller_occupancy` samples, one per controller
    /// at every chunk boundary of the measured window.
    pub occupancy: (u64, u64),
    /// Mean bank idleness over the measured window, averaged over
    /// controllers.
    pub bank_idle: f64,
}

/// The result of one pass over one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Median host seconds of one `build()` over the pass's repetitions.
    pub setup_s: f64,
    /// Host seconds of warm-up plus the measured window.
    pub wall_s: f64,
    /// Host seconds of the measured window alone.
    pub measure_s: f64,
    /// Host microseconds per simulated cycle, one per chunk.
    pub chunk_us: Vec<f64>,
    /// `wall_s` unscaled: equal to it on a raw [`HostClock`].
    pub raw_wall_s: f64,
    pub committed: u64,
    pub ipc: Vec<f64>,
    pub latency: Histogram,
    pub digest: u64,
    /// Kinds of the liveness violations the watchdog recorded.
    pub violations: Vec<&'static str>,
    pub interrupted: bool,
    pub trace: Option<Trace>,
    /// Lines read from memory during warm-up: an upper bound on the L2
    /// lines warm-up added to the prefill.
    pub warm_fills: u64,
}

/// Runs one pass over `cell`: `setup_reps` timed builds (the last one is
/// run), then warm-up and the measured window in timed chunks, each timed
/// on `clock`.
#[must_use]
pub fn run_cell(
    cell: &Cell,
    kernel: KernelKind,
    traced: bool,
    setup_reps: usize,
    clock: &mut HostClock,
) -> CellRun {
    let mut setup = Vec::with_capacity(setup_reps);
    let mut built = None;
    let mut tracers = None;
    for _ in 0..setup_reps.max(1) {
        let mut probes: Vec<Box<dyn Probe>> = Vec::new();
        if traced {
            let (counting, counters) = CountingProbe::new();
            let requests = RequestProbe::default();
            probes.push(Box::new(counting));
            probes.push(Box::new(requests.clone()));
            tracers = Some(Tracers { counters, requests });
        }
        drop(built.take());
        let (sim, _, s) = clock.time(|| cell.build(kernel, probes));
        setup.push(s);
        built = Some(sim);
    }
    let mut sim = built.expect("at least one build");
    let RunLengths { warmup, measure } = cell.lengths;

    let ((), raw_warm_s, warm_s) = clock.time(|| sim.warm_up(warmup));
    let warm_fills = {
        let sys = sim.system();
        (0..sys.num_controllers())
            .map(|mc| sys.controller_stats(mc).reads.get())
            .sum()
    };
    let mut trace = traced.then(|| Trace {
        warm: Snapshot::take(&sim, tracers.as_ref()),
        ..Trace::default()
    });
    let mut chunk_us = Vec::with_capacity((measure / cell.chunk) as usize);
    let (mut raw_measure_s, mut measure_s) = (0.0, 0.0);
    let mut done = 0;
    while done < measure {
        let n = cell.chunk.min(measure - done);
        let ((), raw, scaled) = clock.time(|| sim.run(n));
        raw_measure_s += raw;
        measure_s += scaled;
        chunk_us.push(scaled * 1e6 / n as f64);
        done += n;
        if let Some(tr) = trace.as_mut() {
            let sys = sim.system();
            for mc in 0..sys.num_controllers() {
                tr.occupancy.0 += sys.controller_occupancy(mc) as u64;
                tr.occupancy.1 += 1;
            }
        }
    }

    let sys = sim.system();
    let cores = cell.reported_cores();
    let mut latency: Option<Histogram> = None;
    let mut text = String::new();
    for core in 0..sys.config().num_cores() {
        let stats = sys.core_stats(core);
        let total = &sys.tracker().app(core).total;
        text.push_str(&format!("{core}:{}:{};", stats.committed, total.count()));
        match latency.as_mut() {
            Some(h) => h.merge(total),
            None => latency = Some(total.clone()),
        }
    }
    let latency = latency.expect("every cell has cores");
    let violations: Vec<&'static str> = sys.violations().iter().map(|v| v.kind()).collect();
    text.push_str(&format!(
        "h{}:{}:{}:{}:{:?};v{violations:?}",
        latency.bin_width(),
        latency.count(),
        latency.sum(),
        latency.max(),
        latency.bins()
    ));
    if let Some(tr) = trace.as_mut() {
        tr.end = Snapshot::take(&sim, tracers.as_ref());
        let n = sys.num_controllers();
        tr.bank_idle = (0..n).map(|mc| sys.idleness(mc).overall()).sum::<f64>() / n as f64;
    }
    CellRun {
        setup_s: crate::stats::median(&setup),
        wall_s: warm_s + measure_s,
        measure_s,
        chunk_us,
        raw_wall_s: raw_warm_s + raw_measure_s,
        committed: (0..sys.config().num_cores())
            .map(|c| sys.core_stats(c).committed)
            .sum(),
        ipc: cores.iter().map(|&c| sys.core_stats(c).ipc()).collect(),
        latency,
        digest: fnv1a64(text.as_bytes()),
        violations,

        interrupted: sim.interrupted(),
        trace,
        warm_fills,
    }
}

/// The watchdog's record that the 12-bit so-far-delay header field
/// saturated. It marks a load beyond what the field can express, not a
/// stalled or lossy simulation, so it is reported and pinned in the digest
/// but does not fail a cell.
pub const AGE_OVERFLOW: &str = "age-overflow";

/// Why a cell run counts as failed, or `None` if it passed: a liveness or
/// conservation violation (deadlock, starvation, lost or duplicated
/// traffic), an interrupted run, a digest that differs from the pinned one,
/// or one that differs from an earlier pass of the same cell in this
/// process (the simulator is deterministic).
#[must_use]
pub fn verdict(run: &CellRun, pinned: Option<u64>, earlier: Option<u64>) -> Option<String> {
    let liveness: Vec<&str> = run
        .violations
        .iter()
        .copied()
        .filter(|&k| k != AGE_OVERFLOW)
        .collect();
    if !liveness.is_empty() {
        return Some(format!("liveness violations {liveness:?}"));
    }
    if run.interrupted {
        return Some("interrupted".into());
    }
    if let Some(p) = pinned.filter(|&p| p != run.digest) {
        return Some(format!("digest {:016x} != pinned {p:016x}", run.digest));
    }
    if let Some(e) = earlier.filter(|&e| e != run.digest) {
        return Some(format!(
            "digest {:016x} != earlier pass {e:016x}",
            run.digest
        ));
    }
    None
}
