//! Figure 13 — per-bank idleness of one memory controller with and without
//! Scheme-2.
//!
//! Paper shape to reproduce: Scheme-2 reduces idleness in most banks
//! (requests reach idle banks faster, so they spend less time empty).
//!
//! The paper plots workload-1; in our calibration the mixed workloads leave
//! banks mostly idle, so the memory-intensive workload-8 — where bank
//! pressure actually exists — is reported alongside it.
//!
//! All four (workload × scheme) cells run as one pool grid.

use noclat::SystemConfig;
use noclat_bench::{banner, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_workloads::workload;

const WORKLOADS: [usize; 2] = [1, 8];

fn main() {
    let args = SweepArgs::parse(&format!("fig13 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 13: Bank idleness of controller 0, default vs Scheme-2",
        "A bank is idle when its queue is empty at a sampling instant.",
    );
    let mut grid = MixGrid::new("fig13");
    for widx in WORKLOADS {
        grid.workload(format!("w{widx}"), workload(widx).apps());
    }
    let cells = grid
        .variant("default", |c| c)
        .variant("scheme2", SystemConfig::with_scheme2)
        .run(&args, |r| {
            (
                r.system.idleness(0).per_bank_idleness(),
                r.system.idleness(0).overall(),
            )
        });

    let mut rows_json = Vec::new();
    for (k, &widx) in WORKLOADS.iter().enumerate() {
        let (ib, overall_b) = cells.get(k, 0, 0);
        let (is2, overall_s) = cells.get(k, 0, 1);
        println!("\n--- workload-{widx} ---");
        println!(
            "{:>5} {:>9} {:>9} {:>8}",
            "bank", "default", "scheme2", "delta"
        );
        let mut reduced = 0;
        for b in 0..ib.len() {
            let d = is2[b] - ib[b];
            if d < 0.0 {
                reduced += 1;
            }
            println!("{b:>5} {:>9.3} {:>9.3} {d:>+8.3}", ib[b], is2[b]);
        }
        println!(
            "overall idleness: {overall_b:.4} -> {overall_s:.4}  (reduced in {reduced}/{} banks)",
            ib.len()
        );
        rows_json.push(
            Obj::new()
                .field("workload", widx)
                .field(
                    "default",
                    Json::Arr(ib.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field(
                    "scheme2",
                    Json::Arr(is2.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field("overall_default", *overall_b)
                .field("overall_scheme2", *overall_s)
                .field("banks_reduced", reduced as u64)
                .build(),
        );
    }

    let json = sweep::report(
        "fig13",
        &args,
        Obj::new()
            .field("controller", 0u64)
            .field("workloads", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
