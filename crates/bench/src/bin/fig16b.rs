//! Figure 16b — sensitivity of the combined schemes to Scheme-2's bank
//! history window T: {100, 200, 400} cycles, workloads 1-6.
//!
//! Paper shape to reproduce: T=200 is best on average; T=400 expedites too
//! few requests, T=100 misjudges idle banks.
//!
//! One [`MixGrid`]: workloads 1-6 × {baseline, three window lengths}.

use noclat_bench::{banner, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_sim::stats::geomean;

const WINDOWS: [u64; 3] = [100, 200, 400];

fn main() {
    let args = SweepArgs::parse(&format!("fig16b {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 16b: Bank-history-length sensitivity (workloads 1-6, Scheme-1+2)",
        "Normalized WS for T = 100, 200 and 400 cycles.",
    );
    let mut grid = MixGrid::new("fig16b");
    // window 0 labels the unprioritized baseline cell
    grid.variant("T0", |c| c);
    for t in WINDOWS {
        grid.variant(format!("T{t}"), move |c| {
            let mut c = c.with_both_schemes();
            c.scheme2.history_window = t;
            c
        });
    }
    for i in 1..=6 {
        grid.workload(w(i).name(), w(i).apps());
    }
    let ws = grid.run_ws(&args, |_, ws| ws);

    println!(
        "{:>12} {:>8} {:>8} {:>8}",
        "workload", "T=100", "T=200", "T=400"
    );
    let mut cols: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut rows_json = Vec::new();
    for i in 1..=6 {
        let base = *ws.get(i - 1, 0, 0);
        let row: Vec<f64> = (1..=3).map(|k| ws.normalized(i - 1, 0, k)).collect();
        for (k, v) in row.iter().enumerate() {
            cols[k].push(*v);
        }
        println!(
            "{:>12} {:>8.3} {:>8.3} {:>8.3}",
            w(i).name(),
            row[0],
            row[1],
            row[2]
        );
        rows_json.push(
            Obj::new()
                .field("workload", w(i).name())
                .field("base_ws", base)
                .field("T100", row[0])
                .field("T200", row[1])
                .field("T400", row[2])
                .build(),
        );
    }
    let geo: Vec<f64> = cols.iter().map(|c| geomean(c).unwrap_or(1.0)).collect();
    println!(
        "{:>12} {:>8.3} {:>8.3} {:>8.3}",
        "geomean", geo[0], geo[1], geo[2]
    );

    let json = sweep::report(
        "fig16b",
        &args,
        Obj::new()
            .field(
                "windows",
                Json::Arr(WINDOWS.iter().map(|&t| Json::Uint(t)).collect()),
            )
            .field("workloads", Json::Arr(rows_json))
            .field(
                "geomeans",
                Obj::new()
                    .field("T100", geo[0])
                    .field("T200", geo[1])
                    .field("T400", geo[2])
                    .build(),
            )
            .build(),
    );
    sweep::finish(&args, &json);
}
