//! End-to-end and per-layer benchmark of the noclat simulator on the
//! paper's own configurations. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <mesh32_w2|alone_w2|fabric256|all> --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod cells;
mod layers;
mod reference;
mod stats;

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use noclat::{alone_ipc, KernelKind};
use noclat_analytic::AnalyticModel;
use noclat_engine::{job_key, sweep_fingerprint, ResultCache, SweepArgs};
use noclat_noc::Mesh;
use noclat_sim::stats::Histogram;
use noclat_workloads::{workload, SpecApp};

use cells::{
    run_cell, verdict, workload_cells, Cell, CellRun, Input, Snapshot, AGE_OVERFLOW, DEFAULT_SEED,
    MIX, WORKLOADS,
};
use layers::Load;
use reference::HostClock;
use stats::{hist_quantile, median, peak_rss_mib, tail, time_per_op};

/// Builds per cell per pass; the reported set-up time is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <mesh32_w2|alone_w2|fabric256|all> \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --self-test";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        self_test: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The merged off-chip latency histogram of a pass over several cells.
fn merged_latency(runs: &[CellRun]) -> Histogram {
    let mut h = runs[0].latency.clone();
    for r in &runs[1..] {
        h.merge(&r.latency);
    }
    h
}

fn machine() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{cpu}, nproc {nproc}")
}

fn describe(name: &str, cells: &[Cell], runs: &[CellRun]) {
    let c = &cells[0];
    println!(
        "workload {name}: {} cell(s), {} cores, {:?} {}x{}, seed {}, warm-up {} + measure {} cycles, cycle kernel, one thread",
        cells.len(),
        c.cfg.num_cores(),
        c.cfg.topology.kind,
        c.cfg.topology.width,
        c.cfg.topology.height,
        c.cfg.seed,
        c.lengths.warmup,
        c.lengths.measure,
    );
    // Caches start with each stream's resident set (the fast-forward
    // stand-in) and warm for the warm-up window. The L2 lines valid when
    // measurement starts are at most the prefill plus every line read from
    // memory during warm-up.
    let capacity = c.cfg.num_cores() * c.cfg.l2.bank_size_bytes / c.cfg.l2.line_bytes;
    let (mut prefill, mut most) = (0, 0);
    for (cell, run) in cells.iter().zip(runs) {
        let lines: usize = cell
            .streams()
            .iter()
            .map(|s| {
                let r = s.resident_lines();
                r.l1.len() + r.l2.len()
            })
            .sum();
        prefill = prefill.max(lines);
        most = most.max(lines + run.warm_fills as usize);
    }
    println!(
        "caches: prefilled with the streams' resident lines (up to {prefill} of {capacity} L2 lines per cell), then warmed; at most {most} ({:.1}%) valid when measurement starts, so the {} MiB S-NUCA L2 is {}full",
        100.0 * most as f64 / capacity as f64,
        (c.cfg.num_cores() * c.cfg.l2.bank_size_bytes) >> 20,
        if most < capacity { "not " } else { "possibly " },
    );
    println!("host: {}", machine());
}

/// Checks one pass of runs against the pins and the first pass; returns the
/// number of failed cells.
fn judge(cells: &[Cell], runs: &[CellRun], first: &[u64]) -> u64 {
    let mut failed = 0;
    for (i, (cell, run)) in cells.iter().zip(runs).enumerate() {
        if let Some(why) = verdict(run, cell.pinned(), first.get(i).copied()) {
            println!("FAILED {}: {why}", cell.label);
            failed += 1;
        }
    }
    failed
}

fn print_digests(cells: &[Cell], runs: &[CellRun]) {
    for (cell, run) in cells.iter().zip(runs) {
        let pin = match cell.pinned() {
            Some(p) if p == run.digest => "matches pin",
            Some(_) => "DIFFERS from pin",
            None => "no pin for this seed",
        };
        println!(
            "digest {} seed {}: {:016x} ({pin})",
            cell.label, cell.cfg.seed, run.digest
        );
        let overflows = run
            .violations
            .iter()
            .filter(|&&k| k == AGE_OVERFLOW)
            .count();
        if overflows > 0 {
            println!(
                "  {overflows} age-overflow episode(s): the 12-bit so-far-delay field saturated \
                 under this cell's load (pinned in the digest, not a failure)"
            );
        }
    }
}

fn simulated_metrics(m: &mut Metrics, runs: &[CellRun]) {
    let lat = merged_latency(runs);
    m.add("offchip_lat_mean_cyc", lat.mean(), "cycles");
    m.add("offchip_lat_p90_cyc", hist_quantile(&lat, 0.90), "cycles");
    m.add(
        "ipc_sum",
        runs.iter().flat_map(|r| r.ipc.iter()).sum(),
        "instr/cycle",
    );
}

fn end_to_end(name: &str, cells: &[Cell], seconds: f64) -> (Metrics, u64, u64) {
    let start = Instant::now();
    let mut first: Vec<u64> = Vec::new();
    let mut first_runs: Vec<CellRun> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pass_s = Vec::new();
    let (mut setup, mut wall, mut cps, mut kips) = (vec![], vec![], vec![], vec![]);
    let mut raw_wall = Vec::new();
    let (mut chunks, mut p50s, mut tails) = (vec![], vec![], vec![]);
    let mut tail_p: f64;
    let mut clock = HostClock::scaled();
    loop {
        let t = Instant::now();
        let runs: Vec<CellRun> = cells
            .iter()
            .map(|c| run_cell(c, KernelKind::Cycle, false, SETUP_REPS, &mut clock))
            .collect();
        attempted += runs.len() as u64;
        failed += judge(cells, &runs, &first);
        let cycles: u64 = cells
            .iter()
            .map(|c| c.lengths.warmup + c.lengths.measure)
            .sum();
        let w: f64 = runs.iter().map(|r| r.wall_s).sum();
        setup.push(runs.iter().map(|r| r.setup_s).sum());
        wall.push(w);
        raw_wall.push(runs.iter().map(|r| r.raw_wall_s).sum::<f64>());
        cps.push(cycles as f64 / w);
        kips.push(
            runs.iter().map(|r| r.committed).sum::<u64>() as f64
                / 1e3
                / runs.iter().map(|r| r.measure_s).sum::<f64>(),
        );
        // Chunk statistics per pass, then the median over passes, as for
        // the other host figures: one slow pass does not move them.
        let pass_chunks: Vec<f64> = runs.iter().flat_map(|r| r.chunk_us.clone()).collect();
        p50s.push(median(&pass_chunks));
        let (p, us) = tail(&pass_chunks).unwrap_or((100.0, f64::NAN));
        tail_p = p;
        tails.push(us);
        chunks.extend(pass_chunks);
        if first.is_empty() {
            first = runs.iter().map(|r| r.digest).collect();
            first_runs = runs;
        }
        pass_s.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&pass_s) > seconds {
            break;
        }
    }
    describe(name, cells, &first_runs);
    print_digests(cells, &first_runs);
    let walls = |xs: &[f64]| -> String {
        let v: Vec<String> = xs.iter().map(|w| format!("{w:.3}")).collect();
        v.join(" ")
    };
    println!("per-pass wall_s: {}", walls(&wall));
    println!("per-pass wall_s before scaling: {}", walls(&raw_wall));
    let mut sorted = chunks.clone();
    sorted.sort_by(f64::total_cmp);
    let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|p| {
            format!(
                "{:.2}",
                sorted[((p * sorted.len() as f64) as usize).min(sorted.len() - 1)]
            )
        })
        .collect();
    println!("chunk us/cycle p10 p25 p50 p75 p90: {}", q.join(" "));
    let per_pass = chunks.len() / wall.len();
    println!(
        "{} pass(es) of {per_pass} chunks of the measured window; cycle_us_tail is p{tail_p} of each pass ({} chunks beyond it); cells_failed_frac {}",
        wall.len(),
        (per_pass as f64 * (100.0 - tail_p) / 100.0).floor(),
        ratio(failed as f64, attempted as f64),
    );
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup), "s");
    m.add("wall_s", median(&wall), "s");
    m.add("sim_cycles_per_s", median(&cps), "cycles/s");
    m.add("sim_kinstr_per_s", median(&kips), "kinstr/s");
    m.add("cycle_us_p50", median(&p50s), "us/cycle");
    m.add("cycle_us_tail", median(&tails), "us/cycle");
    m.add("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB");
    simulated_metrics(&mut m, &first_runs);
    m.add(
        "cells_ok_frac",
        1.0 - ratio(failed as f64, attempted as f64),
        "frac",
    );
    (m, attempted, failed)
}

/// The traced pass: an untraced pass for the reference wall time, a pass
/// with probes attached and the stats snapshot, the isolated layer drivers
/// fed at the snapshot's load, and the same cells on the event kernel.
fn traced(name: &str, cells: &[Cell]) -> (Metrics, u64, u64) {
    let mut clock = HostClock::raw();
    let mut pass = |kernel, traced| -> Vec<CellRun> {
        cells
            .iter()
            .map(|c| run_cell(c, kernel, traced, 1, &mut clock))
            .collect()
    };
    // Untraced and traced passes in ABBA order, so that a steady drift in
    // host speed cancels out of the tracing overhead.
    let plain = pass(KernelKind::Cycle, false);
    let probed = pass(KernelKind::Cycle, true);
    let probed_again = pass(KernelKind::Cycle, true);
    let plain_again = pass(KernelKind::Cycle, false);
    let event = pass(KernelKind::Event, false);
    let first: Vec<u64> = plain.iter().map(|r| r.digest).collect();
    let mut failed = judge(cells, &plain, &[]);
    for runs in [&probed, &probed_again, &plain_again, &event] {
        failed += judge(cells, runs, &first);
    }
    let mut attempted = 5 * cells.len() as u64;
    for (cell, run) in cells.iter().zip(&plain) {
        if let Input::Alone(app) = cell.input {
            attempted += 1;
            let reference = alone_ipc(&cell.cfg, app, cell.lengths);
            if reference.to_bits() != run.ipc[0].to_bits() {
                println!(
                    "FAILED {}: IPC {} != alone_ipc {reference}",
                    cell.label, run.ipc[0]
                );
                failed += 1;
            }
        }
    }
    describe(name, cells, &plain);
    print_digests(cells, &plain);
    println!("traced and event-kernel digests checked against the untraced pass");

    let wall = |runs: &[CellRun]| runs.iter().map(|r| r.wall_s).sum::<f64>();
    let wall_u = 0.5 * (wall(&plain) + wall(&plain_again));
    let cycles: u64 = cells
        .iter()
        .map(|c| c.lengths.warmup + c.lengths.measure)
        .sum();
    let lat = merged_latency(&plain);

    // The traced run's statistics summed over cells: over the measured
    // window for the operating point, over the whole run (warm-up
    // included, as in wall_s) for operation counts.
    let (mut window, mut whole) = (Snapshot::default(), Snapshot::default());
    let (mut router_cycles, mut node_cycles, mut mc_cycles) = (0.0, 0.0, 0.0);
    let (mut core_ticks, mut mc_ticks, mut idle, mut occ) = (0.0, 0.0, 0.0, (0u64, 0u64));
    let (mut l1_total, mut l2_total) = (0.0, 0.0);
    for (cell, run) in cells.iter().zip(&probed) {
        let tr = run.trace.as_ref().expect("traced pass records a trace");
        let d = tr.end.since(&tr.warm);
        window = window.plus(&d);
        whole = whole.plus(&tr.end);
        let m = cell.lengths.measure as f64;
        let run_cycles = (cell.lengths.warmup + cell.lengths.measure) as f64;
        let mcs = cell.cfg.mem.num_controllers as f64;
        let nodes = cell.cfg.num_cores() as f64;
        router_cycles += Mesh::from_config(&cell.cfg.topology).num_routers() as f64 * m;
        node_cycles += nodes * m;
        mc_cycles += mcs * m;
        core_ticks += nodes * run_cycles;
        mc_ticks += mcs * run_cycles;
        // Core statistics restart after warm-up: scale the window's cache
        // accesses up to the whole run.
        l1_total += d.mem_ops as f64 * run_cycles / m;
        l2_total += d.l1_misses as f64 * run_cycles / m;
        idle += tr.bank_idle / cells.len() as f64;
        occ = (occ.0 + tr.occupancy.0, occ.1 + tr.occupancy.1);
    }
    let f = |x: u64| x as f64;
    // Scheme-1 decides once per controller dequeue, Scheme-2 once per
    // request sent to a controller.
    let cfg = &cells[0].cfg;
    let s1_ops = if cfg.scheme1.enabled {
        f(whole.probe[2])
    } else {
        0.0
    };
    let s2_ops = if cfg.scheme2.enabled {
        f(whole.mc_served)
    } else {
        0.0
    };
    let load = Load {
        flits_per_router_cycle: ratio(f(window.flits_traversed), router_cycles),
        high_prio_hop_frac: ratio(f(window.high_prio_traversed), f(window.flits_traversed)),
        packets_per_node_cycle: ratio(f(window.packets_injected), node_cycles),
        high_prio_inject_frac: ratio(f(window.high_prio_injected), f(window.packets_injected)),
        queue_depth: ratio(f(occ.0), f(occ.1)),
        mc_rate: ratio(f(window.mc_served), mc_cycles),
        row_hit_frac: ratio(f(window.row_hits), f(window.row_hits + window.row_misses)),
        l1_miss_frac: ratio(f(window.l1_misses), f(window.mem_ops)),
        offchip_lat: lat.mean(),
    };
    // Isolated layer drivers at that load.
    let seed = cfg.seed;
    let router_ns = layers::router_tick_ns(cfg, &load, seed);
    let network_us = layers::network_tick_us(cfg, &load, seed);
    let ctrl_ns = layers::ctrl_tick_ns(cfg, &load, seed);
    let core_ns = layers::core_tick_ns(cfg, cells.iter().map(Cell::streams).collect(), &load);
    let apps: Vec<SpecApp> = cells
        .iter()
        .flat_map(|c| match c.input {
            Input::Apps(ref apps) => apps.iter().copied().take(32).collect(),
            Input::Alone(app) => vec![app],
        })
        .collect();
    let gen_ns = layers::gen_ns_per_instr(&apps, seed);
    let (l1_ns, l2_ns) = layers::cache_access_ns(cfg, &apps, seed);
    let (s1_ns, s2_ns) = layers::scheme_ns(cfg);
    let scheme_ns = if s1_ops + s2_ops > 0.0 {
        (s1_ns * s1_ops + s2_ns * s2_ops) / (s1_ops + s2_ops)
    } else {
        0.5 * (s1_ns + s2_ns)
    };
    let (evaluate_ms, rel_err) = analytic(cells, lat.mean());
    let (key_us, roundtrip_us) = engine(cells);

    let noc_share = network_us * 1e-6 * cycles as f64 / wall_u;
    let mem_share = ctrl_ns * 1e-9 * mc_ticks / wall_u;
    let cpu_share = (core_ns * core_ticks + l1_ns * l1_total + l2_ns * l2_total) * 1e-9 / wall_u;
    let core_share = (s1_ns * s1_ops + s2_ns * s2_ops) * 1e-9 / wall_u;

    let mut m = Metrics::default();
    m.add(
        "noc.flit_hops_per_router_cycle",
        load.flits_per_router_cycle,
        "flits/rtr-cyc",
    );
    m.add(
        "noc.bypass_frac",
        ratio(f(window.flits_bypassed), f(window.flits_traversed)),
        "frac",
    );
    m.add("noc.high_prio_hop_frac", load.high_prio_hop_frac, "frac");
    m.add(
        "noc.req_leg_cyc",
        ratio(window.req_lat.1, f(window.req_lat.0)),
        "cycles",
    );
    m.add(
        "noc.resp_leg_cyc",
        ratio(window.resp_lat.1, f(window.resp_lat.0)),
        "cycles",
    );
    m.add("noc.router_tick_ns", router_ns, "ns");
    m.add("noc.network_tick_us", network_us, "us");
    m.add("noc.share", noc_share, "frac");
    m.add("mem.queue_depth_mean", load.queue_depth, "requests");
    m.add(
        "mem.ctrl_delay_cyc",
        ratio(window.ctrl_delay.1, f(window.ctrl_delay.0)),
        "cycles",
    );
    m.add("mem.row_hit_frac", load.row_hit_frac, "frac");
    m.add("mem.bank_idle_frac", idle, "frac");
    m.add("mem.ctrl_tick_ns", ctrl_ns, "ns");
    m.add("mem.share", mem_share, "frac");
    m.add("cpu.core_tick_ns", core_ns, "ns");
    m.add("workloads.gen_ns_per_instr", gen_ns, "ns");
    m.add("cache.l1_access_ns", l1_ns, "ns");
    m.add("cache.l2_access_ns", l2_ns, "ns");
    m.add("cache.l1_miss_frac", load.l1_miss_frac, "frac");
    m.add("cpu.share", cpu_share, "frac");
    m.add(
        "core.expedited_resp_frac",
        ratio(f(window.probe[3]), f(window.probe[2])),
        "frac",
    );
    m.add(
        "core.high_prio_req_frac",
        ratio(
            f(window.req_flits[1]),
            f(window.req_flits[0] + window.req_flits[1]),
        ),
        "frac",
    );
    m.add("core.scheme_ns_per_op", scheme_ns, "ns");
    m.add("core.share", core_share, "frac");
    m.add(
        "core.probe_overhead_frac",
        0.5 * (wall(&probed) + wall(&probed_again)) / wall_u - 1.0,
        "frac",
    );
    m.add("sim.event_speedup", wall_u / wall(&event), "x");
    m.add("analytic.evaluate_ms", evaluate_ms, "ms");
    m.add("analytic.rel_err", rel_err, "frac");
    m.add("engine.cell_key_us", key_us, "us");
    m.add("engine.cache_roundtrip_us", roundtrip_us, "us");
    m.add(
        "unattributed_frac",
        1.0 - noc_share - mem_share - cpu_share - core_share,
        "frac",
    );
    println!(
        "untraced wall_s {wall_u:.4}; shares = isolated ns/op x traced op count / untraced wall_s"
    );
    (m, attempted, failed)
}

/// Host milliseconds of one `AnalyticModel::evaluate` of the workload, and
/// the model's relative error against the simulated mean off-chip latency.
/// An alone cell has no placement the model can express, so it is
/// estimated as the shared mix at one core's share of its demand.
fn analytic(cells: &[Cell], simulated: f64) -> (f64, f64) {
    let c = &cells[0];
    let (apps, scale) = match c.input {
        Input::Apps(ref apps) => (apps.clone(), 1.0),
        Input::Alone(_) => (workload(MIX).apps(), 1.0 / c.cfg.num_cores() as f64),
    };
    let model = AnalyticModel::new(&c.cfg, &apps)
        .expect("benchmark cells are valid")
        .with_rate_scale(scale)
        .with_lengths(c.lengths.warmup, c.lengths.measure);
    let mean = model.evaluate().mean_latency;
    let ms = time_per_op(1, 0.2, || {
        black_box(model.evaluate());
    }) / 1e6;
    (ms, ratio((mean - simulated).abs(), simulated))
}

/// Host microseconds of one sweep cell key (fingerprint + `job_key`) and of
/// one `ResultCache` insert + get in a scratch file of the checkout.
fn engine(cells: &[Cell]) -> (f64, f64) {
    let argv = vec!["--seed".to_string(), cells[0].cfg.seed.to_string()];
    let (args, _) = SweepArgs::parse_argv(&argv).expect("valid sweep arguments");
    let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
    let mut i = 0;
    let key_us = time_per_op(1_000, 0.1, || {
        i += 1;
        black_box(job_key(sweep_fingerprint(&args), labels[i % labels.len()]));
    }) / 1e3;
    let path = std::path::PathBuf::from(format!(".perfbench-cache-{}.nj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let fp = sweep_fingerprint(&args);
    let mut cache = ResultCache::open(&path, fp).expect("scratch cache opens");
    let payload = format!(
        "{{\"cell\":\"{}\",\"ipc\":[{}]}}",
        labels[0],
        "1.2345,".repeat(31) + "1.0"
    );
    let mut key = 0u64;
    let us = time_per_op(1, 0.1, || {
        key += 1;
        cache.insert(key, &payload).expect("scratch cache insert");
        black_box(cache.get(key));
    }) / 1e3;
    drop(cache);
    let _ = std::fs::remove_file(&path);
    (key_us, us)
}

/// Whether the workloads separate the layers as designed, from the traced
/// metrics of all three.
fn separation(results: &[(&str, Metrics, u64, u64)]) {
    let get = |w: &str, name: &str| {
        results
            .iter()
            .find(|r| r.0 == w)
            .and_then(|r| r.1 .0.iter().find(|m| m.0 == name))
            .map_or(f64::NAN, |m| m.1)
    };
    let hops = "noc.flit_hops_per_router_cycle";
    let depth = "mem.queue_depth_mean";
    let cpu = |w| get(w, "cpu.share");
    let checks = [
        (
            format!(
                "{hops} on alone_w2 ({:.4}) is under a tenth of mesh32_w2's ({:.4})",
                get("alone_w2", hops),
                get("mesh32_w2", hops)
            ),
            get("alone_w2", hops) < 0.1 * get("mesh32_w2", hops),
        ),
        (
            format!(
                "{depth} on fabric256 ({:.2}) exceeds mesh32_w2's ({:.2})",
                get("fabric256", depth),
                get("mesh32_w2", depth)
            ),
            get("fabric256", depth) > get("mesh32_w2", depth),
        ),
        (
            format!(
                "cpu.share is highest on alone_w2 ({:.4}; mesh32_w2 {:.4}, fabric256 {:.4})",
                cpu("alone_w2"),
                cpu("mesh32_w2"),
                cpu("fabric256")
            ),
            cpu("alone_w2") > cpu("mesh32_w2") && cpu("alone_w2") > cpu("fabric256"),
        ),
    ];
    println!("layer separation:");
    for (what, holds) in checks {
        println!(
            "  {} {what}",
            if holds { "holds:" } else { "DOES NOT HOLD:" }
        );
    }
}

/// Shows that the gate counts a wrong digest as a failed cell: one pass of
/// the smallest pinned cell is judged as measured, then with its digest
/// corrupted.
fn self_test() -> bool {
    let cells = workload_cells("alone_w2", DEFAULT_SEED).expect("known workload");
    let cells = &cells[..1];
    let run = run_cell(
        &cells[0],
        KernelKind::Cycle,
        false,
        1,
        &mut HostClock::raw(),
    );
    let mut wrong = run.clone();
    wrong.digest ^= 1;
    let as_measured = judge(cells, &[run], &[]);
    let corrupted = judge(cells, &[wrong], &[]);
    println!(
        "self-test {}: failed cells as measured {as_measured}, with a corrupted digest {corrupted}",
        cells[0].label
    );
    cells[0].pinned().is_some() && as_measured == 0 && corrupted == 1
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        let ok = self_test();
        println!("self-test {}", if ok { "passed" } else { "FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for &name in &names {
        let cells = workload_cells(name, args.seed).expect("validated workload");
        // Page in the simulator's code and allocator before anything is timed.
        let mut warm = cells[0].build(KernelKind::Cycle, Vec::new());
        warm.run(2_000);
        drop(warm);
        let (metrics, attempted, failed) = if args.trace {
            traced(name, &cells)
        } else {
            end_to_end(name, &cells, args.seconds)
        };
        metrics.print();
        results.push((name, metrics, attempted, failed));
    }
    if args.trace && results.len() == WORKLOADS.len() {
        separation(&results);
    }
    let attempted: u64 = results.iter().map(|r| r.2).sum();
    let failed: u64 = results.iter().map(|r| r.3).sum();
    let metrics = if let [(_, m, _, _)] = results.as_slice() {
        m.json()
    } else {
        let parts: Vec<String> = results
            .iter()
            .map(|(name, m, _, _)| format!("\"{name}\": {}", m.json()))
            .collect();
        format!("{{{}}}", parts.join(", "))
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
}
