//! Network congestion heat-map (beyond the paper): flits forwarded per
//! router for one workload, under X-Y and Y-X routing.
//!
//! The request traffic of an S-NUCA system converges on the corner memory
//! controllers; the heat-map makes the resulting hot rows/columns visible,
//! and shows how the routing algorithm moves them.
//!
//! Both routing runs execute as one pool grid.

use noclat::MixResult;
use noclat_bench::{banner, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_noc::Topology;
use noclat_sim::config::RoutingAlgorithm;
use noclat_workloads::workload;

/// Flits forwarded per router, with the router grid's width.
fn heat(r: &MixResult) -> (Vec<u64>, u64) {
    let (width, _) = Topology::from_config(&r.system.config().topology).router_dims();
    (r.system.forwarding_heat(), u64::from(width))
}

fn print_heat(label: &str, heat: &[u64], width: usize, height: usize) {
    let max = *heat.iter().max().unwrap_or(&1) as f64;
    println!("\n--- {label} (flits forwarded per router; # = load) ---");
    for y in 0..height {
        let mut row = String::new();
        for x in 0..width {
            let v = heat[y * width + x] as f64 / max.max(1.0);
            let glyph = match (v * 9.0) as u32 {
                0 => " .",
                1..=2 => " -",
                3..=4 => " +",
                5..=6 => " *",
                _ => " #",
            };
            row.push_str(glyph);
        }
        println!("  {row}");
    }
    println!(
        "  max router forwarded {} flits; total {}",
        max as u64,
        heat.iter().sum::<u64>()
    );
}

fn main() {
    let args = SweepArgs::parse(&format!("netmap {}", sweep::SWEEP_USAGE));
    banner(
        "Network heat-map (extension): router forwarding load, X-Y vs Y-X",
        "Workload-8 (memory-intensive); corners host the memory controllers.",
    );
    let algos = [
        ("X-Y routing", RoutingAlgorithm::XY),
        ("Y-X routing", RoutingAlgorithm::YX),
    ];
    let mut grid = MixGrid::new("netmap");
    grid.workload("", workload(8).apps());
    for (label, algo) in algos {
        grid.variant(label, move |mut c| {
            c.noc.routing = algo;
            c
        });
    }
    let cells = grid.run(&args, heat);
    let (heat, width) = cells.get(0, 0, 0);
    let (width, height) = (*width, heat.len() as u64 / width);

    let mut maps_json = Vec::new();
    for (v, (label, _)) in algos.iter().enumerate() {
        let (heat, _) = cells.get(0, 0, v);
        print_heat(label, heat, width as usize, height as usize);
        maps_json.push(
            Obj::new()
                .field("routing", *label)
                .field("heat", heat.clone())
                .build(),
        );
    }

    let json = sweep::report(
        "netmap",
        &args,
        Obj::new()
            .field("workload", 8u64)
            .field("width", width)
            .field("height", height)
            .field("maps", Json::Arr(maps_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
