//! Figure 16a — sensitivity of the combined schemes to the Scheme-1
//! lateness threshold: {1.0, 1.2, 1.4} x Delay_avg, workloads 1-6.
//!
//! Paper shape to reproduce: 1.2x is the sweet spot; 1.4x marks too few
//! messages, 1.0x marks too many (prioritizing everything hurts the rest).
//!
//! One [`MixGrid`]: workloads 1-6 × {baseline, three thresholds}.

use noclat_bench::{banner, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_sim::stats::geomean;

const FACTORS: [f64; 3] = [1.0, 1.2, 1.4];

fn main() {
    let args = SweepArgs::parse(&format!("fig16a {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 16a: Threshold sensitivity (workloads 1-6, Scheme-1+2)",
        "Normalized WS for thresholds 1.0x, 1.2x and 1.4x Delay_avg.",
    );
    let mut grid = MixGrid::new("fig16a");
    // t0 labels the unprioritized baseline cell
    grid.variant("t0", |c| c);
    for factor in FACTORS {
        grid.variant(format!("t{factor}"), move |c| {
            let mut c = c.with_both_schemes();
            c.scheme1.threshold_factor = factor;
            c
        });
    }
    for i in 1..=6 {
        grid.workload(w(i).name(), w(i).apps());
    }
    let ws = grid.run_ws(&args, |_, ws| ws);

    println!(
        "{:>12} {:>8} {:>8} {:>8}",
        "workload", "1.0x", "1.2x", "1.4x"
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
                .field("t1.0", row[0])
                .field("t1.2", row[1])
                .field("t1.4", row[2])
                .build(),
        );
    }
    let geo: Vec<f64> = cols.iter().map(|c| geomean(c).unwrap_or(1.0)).collect();
    println!(
        "{:>12} {:>8.3} {:>8.3} {:>8.3}",
        "geomean", geo[0], geo[1], geo[2]
    );

    let json = sweep::report(
        "fig16a",
        &args,
        Obj::new()
            .field(
                "factors",
                Json::Arr(FACTORS.iter().map(|&f| Json::Num(f)).collect()),
            )
            .field("workloads", Json::Arr(rows_json))
            .field(
                "geomeans",
                Obj::new()
                    .field("t1.0", geo[0])
                    .field("t1.2", geo[1])
                    .field("t1.4", geo[2])
                    .build(),
            )
            .build(),
    );
    sweep::finish(&args, &json);
}
