//! Figure 16c — impact of the number of memory controllers (2 vs 4) on the
//! combined schemes, mixed workloads 1-6.
//!
//! Paper shape to reproduce: with fewer controllers, pressure per controller
//! rises, there are more late accesses for Scheme-1 to catch, and combined
//! gains are slightly higher (with exceptions, e.g. the paper's w-2/w-3).
//!
//! One [`MixGrid`]: workloads 1-6 × {4, 2} controllers × {base,
//! Scheme-1+2}; each controller count has its own alone denominators.

use noclat::SystemConfig;
use noclat_bench::{banner, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_sim::stats::geomean;

const MCS: [usize; 2] = [4, 2];

fn main() {
    let args = SweepArgs::parse(&format!("fig16c {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 16c: 2 vs 4 memory controllers (workloads 1-6, Scheme-1+2)",
        "Normalized WS per controller count.",
    );
    let mut grid = MixGrid::new("fig16c");
    for i in 1..=6 {
        grid.workload(w(i).name(), w(i).apps());
    }
    for mcs in MCS {
        let mut hw = SystemConfig::baseline_32();
        hw.mem.num_controllers = mcs;
        grid.hardware(format!("{mcs}mc"), hw);
    }
    grid.variant("base", |c| c)
        .variant("both", SystemConfig::with_both_schemes);
    let ws = grid.run_ws(&args, |_, ws| ws);

    println!("{:>12} {:>8} {:>8}", "workload", "4 MCs", "2 MCs");
    let mut cols: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rows_json = Vec::new();
    for i in 1..=6 {
        let mut row = Vec::new();
        for (k, col) in cols.iter_mut().enumerate() {
            let v = ws.normalized(i - 1, k, 1);
            row.push(v);
            col.push(v);
        }
        println!("{:>12} {:>8.3} {:>8.3}", w(i).name(), row[0], row[1]);
        rows_json.push(
            Obj::new()
                .field("workload", w(i).name())
                .field("mc4", row[0])
                .field("mc2", row[1])
                .build(),
        );
    }
    let g4 = geomean(&cols[0]).unwrap_or(1.0);
    let g2 = geomean(&cols[1]).unwrap_or(1.0);
    println!("{:>12} {:>8.3} {:>8.3}", "geomean", g4, g2);

    let json = sweep::report(
        "fig16c",
        &args,
        Obj::new()
            .field("workloads", Json::Arr(rows_json))
            .field(
                "geomeans",
                Obj::new().field("mc4", g4).field("mc2", g2).build(),
            )
            .build(),
    );
    sweep::finish(&args, &json);
}
