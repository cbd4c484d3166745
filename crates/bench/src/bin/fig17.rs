//! Figure 17 — the combined schemes on 2-stage vs 5-stage router pipelines,
//! workloads 1-6.
//!
//! Paper shape to reproduce: gains persist with 2-stage routers but shrink
//! by 25-40% (shallower pipelines leave less network latency to save, and
//! pipeline bypassing has nothing left to skip).
//!
//! One [`MixGrid`]: workloads 1-6 × {5, 2} pipeline stages × {base,
//! Scheme-1+2}; each pipeline depth has its own alone denominators.

use noclat::{RouterPipeline, SystemConfig};
use noclat_bench::{banner, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_sim::stats::geomean;

const PIPES: [RouterPipeline; 2] = [RouterPipeline::FiveStage, RouterPipeline::TwoStage];

fn main() {
    let args = SweepArgs::parse(&format!("fig17 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 17: 5-stage vs 2-stage router pipelines (workloads 1-6, Scheme-1+2)",
        "Normalized WS per pipeline depth.",
    );
    let mut grid = MixGrid::new("fig17");
    for i in 1..=6 {
        grid.workload(w(i).name(), w(i).apps());
    }
    for pipe in PIPES {
        let mut hw = SystemConfig::baseline_32();
        hw.noc.pipeline = pipe;
        grid.hardware(format!("{pipe:?}"), hw);
    }
    grid.variant("base", |c| c)
        .variant("both", SystemConfig::with_both_schemes);
    let ws = grid.run_ws(&args, |_, ws| ws);

    println!("{:>12} {:>9} {:>9}", "workload", "5-stage", "2-stage");
    let mut cols: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rows_json = Vec::new();
    for i in 1..=6 {
        let mut row = Vec::new();
        for (k, col) in cols.iter_mut().enumerate() {
            let v = ws.normalized(i - 1, k, 1);
            row.push(v);
            col.push(v);
        }
        println!("{:>12} {:>9.3} {:>9.3}", w(i).name(), row[0], row[1]);
        rows_json.push(
            Obj::new()
                .field("workload", w(i).name())
                .field("five_stage", row[0])
                .field("two_stage", row[1])
                .build(),
        );
    }
    let g5 = geomean(&cols[0]).unwrap_or(1.0);
    let g2 = geomean(&cols[1]).unwrap_or(1.0);
    println!("{:>12} {:>9.3} {:>9.3}", "geomean", g5, g2);
    if g5 > 1.0 {
        println!(
            "\n2-stage gains are {:.0}% of the 5-stage gains (paper: 60-75%)",
            (g2 - 1.0) / (g5 - 1.0) * 100.0
        );
    }

    let json = sweep::report(
        "fig17",
        &args,
        Obj::new()
            .field("workloads", Json::Arr(rows_json))
            .field(
                "geomeans",
                Obj::new()
                    .field("five_stage", g5)
                    .field("two_stage", g2)
                    .build(),
            )
            .build(),
    );
    sweep::finish(&args, &json);
}
