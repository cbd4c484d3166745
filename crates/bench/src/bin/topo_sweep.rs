//! Topology sweep — scheme gains across fabrics at hundreds-cores scale.
//!
//! Grids (topology × MC placement × scheme combo × size) through the
//! journal-backed sweep engine. The paper only evaluates small meshes; this
//! harness re-runs the Scheme-1/Scheme-2 study unchanged on torus,
//! concentrated-mesh and express fabrics at 16×16 (256 cores) and 32×32
//! (1024 cores), with memory-controller placement as a swept sub-axis.
//!
//! Unlike the figure harnesses, `--topology` is rejected here: the fabric
//! *is* the sweep axis. Use `--fabrics`/`--mc`/`--size` to restrict the
//! grid instead (CI smokes a single torus cell that way). Output is
//! byte-identical across `--jobs N` by the sweep engine's construction.

use noclat::{
    run_mix, McPlacement, RunLengths, SchemePreset, SystemConfig, TopologyKind, TopologyOverride,
};
use noclat_bench::{banner, merged_latency_histogram, w};
use noclat_engine::{self as sweep, ExitCode, GridCell, Job, Json, Obj, PruneInfo, SweepArgs};
use noclat_workloads::SpecApp;

/// Workload driving every cell (the paper's milc-bearing mixed workload).
const WORKLOAD: usize = 2;

/// Default fabric axis, as `--topology`-style override specs.
const FABRICS: [&str; 4] = ["mesh", "torus", "cmesh:c=4", "express:skip=2"];

fn usage() -> String {
    format!(
        "topo_sweep [--size 16|32|both] [--fabrics CSV] [--mc CSV] {}",
        sweep::SWEEP_USAGE
    )
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {}", usage());
    ExitCode::Config.exit();
}

struct Grid {
    sizes: Vec<u16>,
    fabrics: Vec<String>,
    mcs: Vec<McPlacement>,
}

fn parse_rest(rest: &[String]) -> Grid {
    let mut grid = Grid {
        sizes: vec![16],
        fabrics: FABRICS.iter().map(ToString::to_string).collect(),
        mcs: vec![McPlacement::Corner, McPlacement::Edge, McPlacement::Center],
    };
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].as_str();
        let value = rest
            .get(i + 1)
            .unwrap_or_else(|| fail_usage(&format!("{key} needs a value")));
        match key {
            "--size" => {
                grid.sizes = match value.as_str() {
                    "16" => vec![16],
                    "32" => vec![32],
                    "both" => vec![16, 32],
                    other => fail_usage(&format!("--size: expected 16|32|both, got {other}")),
                };
            }
            "--fabrics" => {
                grid.fabrics = value.split(',').map(ToString::to_string).collect();
            }
            "--mc" => {
                grid.mcs = value
                    .split(',')
                    .map(|m| McPlacement::parse(m).unwrap_or_else(|e| fail_usage(&e)))
                    .collect();
            }
            other => fail_usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    grid
}

/// One cell's metrics: (offchip, ipc_sum, mean_latency, p95_latency).
type Cell = (u64, f64, f64, u64);

fn run_cell(cfg: &SystemConfig, apps: &[SpecApp], lengths: RunLengths) -> Cell {
    let r = run_mix(cfg, apps, lengths);
    let merged = merged_latency_histogram(&r);
    (
        r.per_app.iter().map(|a| a.offchip).sum(),
        r.per_app.iter().map(|a| a.ipc).sum(),
        merged.mean(),
        merged.percentile(0.95),
    )
}

fn main() {
    let (args, rest) = SweepArgs::parse_with_rest(&usage());
    if !args.topology.is_empty() {
        fail_usage(
            "topo_sweep sweeps the topology axis itself; restrict it with --fabrics/--mc/--size",
        );
    }
    let grid = parse_rest(&rest);
    banner(
        "Topology sweep: scheme gains across fabrics at 16x16 / 32x32",
        "Grid: topology x MC placement x scheme combo x size; workload-2 cycled per core.",
    );
    let lengths = args.lengths;

    // Build the grid (validated up front so a bad --fabrics spec is a usage
    // error, not a quarantined cell). Every cell carries its model inputs
    // so `--prune analytic:top=K` can rank it; the pinned 16×16 torus
    // corner cells (the `tests/golden_results.rs` anchors) are golden and
    // survive any pruning.
    let mut cells: Vec<GridCell<Cell>> = Vec::new();
    let mut labels: Vec<(String, String, String, String)> = Vec::new();
    for &size in &grid.sizes {
        let mut base = sweep::base_config(size).expect("--size parses to 16 or 32");
        base.seed = args.seed;
        for spec in &grid.fabrics {
            let ov = TopologyOverride::parse(spec).unwrap_or_else(|e| fail_usage(&e));
            for &mc in &grid.mcs {
                for &preset in SchemePreset::ALL {
                    let scheme = preset.name();
                    let mut cfg = preset.apply(base.clone());
                    args.apply_overrides(&mut cfg);
                    ov.apply(&mut cfg);
                    cfg.topology.mc_placement = mc;
                    if let Err(e) = cfg.validate() {
                        fail_usage(&format!("{spec} at {size}x{size}: {e}"));
                    }
                    let apps = w(WORKLOAD).apps_for(cfg.num_cores());
                    let label = format!("topo/{size}x{size}/{spec}/mc={}/{scheme}", mc.name());
                    labels.push((
                        format!("{size}x{size}"),
                        cfg.topology.label(),
                        mc.name().to_string(),
                        scheme.to_string(),
                    ));
                    let golden = size == 16
                        && cfg.topology.kind == TopologyKind::Torus
                        && cfg.topology.concentration <= 1
                        && mc == McPlacement::Corner;
                    let prune = Some(PruneInfo {
                        cfg: cfg.clone(),
                        apps: apps.clone(),
                        golden,
                    });
                    cells.push(GridCell {
                        job: Job::new(label, move || run_cell(&cfg, &apps, lengths)),
                        prune,
                    });
                }
            }
        }
    }
    let outcome = sweep::run_pruned_grid(&args, cells);

    println!(
        "{:>7} {:>22} {:>7} {:>9} {:>9} {:>9} {:>10} {:>6}",
        "size", "fabric", "mc", "scheme", "offchip", "ipc_sum", "mean_lat", "p95"
    );
    let mut rows = Vec::new();
    let mut pruned_rows = Vec::new();
    for (i, ((size, fabric, mc, scheme), cell)) in labels.iter().zip(&outcome.results).enumerate() {
        let Some(&(offchip, ipc_sum, mean_lat, p95)) = cell.as_ref() else {
            // Pruned: recorded in the report's prune section, not as a row
            // (surviving rows stay byte-identical to an unpruned run's).
            pruned_rows.push(
                Obj::new()
                    .field("size", size.as_str())
                    .field("fabric", fabric.as_str())
                    .field("mc", mc.as_str())
                    .field("scheme", scheme.as_str())
                    .field(
                        "predicted_latency",
                        outcome.predicted[i].unwrap_or(f64::NAN),
                    )
                    .build(),
            );
            continue;
        };
        println!(
            "{size:>7} {fabric:>22} {mc:>7} {scheme:>9} {offchip:>9} {ipc_sum:>9.3} \
             {mean_lat:>10.1} {p95:>6}"
        );
        rows.push(
            Obj::new()
                .field("size", size.as_str())
                .field("fabric", fabric.as_str())
                .field("mc", mc.as_str())
                .field("scheme", scheme.as_str())
                .field("offchip", offchip)
                .field("ipc_sum", ipc_sum)
                .field("mean_latency", mean_lat)
                .field("p95_latency", p95)
                .build(),
        );
    }

    let mut body = Obj::new()
        .field("workload", format!("workload-{WORKLOAD}"))
        .field("cells", Json::Arr(rows));
    if args.prune.enabled() {
        body = body.field(
            "prune",
            Obj::new()
                .field("spec", args.prune.to_string())
                .field("kept", outcome.kept as u64)
                .field("pruned", Json::Arr(pruned_rows))
                .build(),
        );
    }
    let json = sweep::report("topo_sweep", &args, body.build());
    sweep::finish(&args, &json);
}
