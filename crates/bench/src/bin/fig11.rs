//! Figure 11 — normalized weighted speedup of Scheme-1 and Scheme-1+2 over
//! the no-prioritization baseline, for all 18 workloads, grouped into the
//! paper's three panels (mixed / memory-intensive / memory-non-intensive).
//!
//! Paper shape to reproduce: Scheme-1+2 ≥ Scheme-1; memory-intensive
//! workloads gain the most, non-intensive the least; one or two workloads
//! may dip slightly below 1.0 under Scheme-1 alone (the paper saw this for
//! workloads 2 and 9).
//!
//! One [`MixGrid`]: 18 workloads × {base, Scheme-1, Scheme-1+2}.

use noclat::SystemConfig;
use noclat_bench::{banner, pct, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_sim::stats::geomean;
use noclat_workloads::{indices_of, WorkloadKind};

fn main() {
    let args = SweepArgs::parse(&format!("fig11 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 11: Normalized weighted speedup, 18 workloads, 32-core system",
        "Bars: Scheme-1 and Scheme-1+Scheme-2, normalized to the baseline.",
    );
    let mut grid = MixGrid::new("fig11");
    grid.variant("base", |c| c)
        .variant("s1", SystemConfig::with_scheme1)
        .variant("both", SystemConfig::with_both_schemes);
    for i in 1..=18 {
        grid.workload(w(i).name(), w(i).apps());
    }
    let ws = grid.run_ws(&args, |_, ws| ws);

    let mut rows_json = Vec::new();
    let mut geo_json = Obj::new();
    for kind in [
        WorkloadKind::Mixed,
        WorkloadKind::MemIntensive,
        WorkloadKind::MemNonIntensive,
    ] {
        println!("\n--- {kind:?} ---");
        println!(
            "{:>12} {:>9} {:>10} {:>12}",
            "workload", "base WS", "Scheme-1", "Scheme-1+2"
        );
        let mut s1s = Vec::new();
        let mut boths = Vec::new();
        for i in indices_of(kind) {
            let base = *ws.get(i - 1, 0, 0);
            let s1 = ws.normalized(i - 1, 0, 1);
            let both = ws.normalized(i - 1, 0, 2);
            println!(
                "{:>12} {:>9.3} {:>10.3} {:>12.3}",
                w(i).name(),
                base,
                s1,
                both
            );
            s1s.push(s1);
            boths.push(both);
            rows_json.push(
                Obj::new()
                    .field("workload", w(i).name())
                    .field("kind", format!("{kind:?}"))
                    .field("base_ws", base)
                    .field("s1", s1)
                    .field("both", both)
                    .build(),
            );
        }
        let g1 = geomean(&s1s).unwrap_or(1.0);
        let g2 = geomean(&boths).unwrap_or(1.0);
        println!(
            "{:>12} {:>9} {:>10} {:>12}   (Scheme-1 {}, Scheme-1+2 {})",
            "geomean",
            "",
            format!("{g1:.3}"),
            format!("{g2:.3}"),
            pct(g1),
            pct(g2)
        );
        geo_json = geo_json.field(
            format!("{kind:?}"),
            Obj::new().field("s1", g1).field("both", g2).build(),
        );
    }
    println!("\nPaper: up to +13% (mixed), +15% (intensive), +1% (non-intensive) for Scheme-1+2.");
    println!("See EXPERIMENTS.md for the magnitude discussion.");

    let json = sweep::report(
        "fig11",
        &args,
        Obj::new()
            .field("workloads", Json::Arr(rows_json))
            .field("geomeans", geo_json.build())
            .build(),
    );
    sweep::finish(&args, &json);
}
