//! Figure 15 — normalized weighted speedups on the 16-core system (4x4
//! mesh, 2 memory controllers), using the first half of each workload.
//!
//! Paper shape to reproduce: gains are positive but smaller than on the
//! 32-core system (the network contributes less to round-trip latency in a
//! smaller mesh). Paper averages: ~8% (mixed), ~11% (intensive), ~1.5%
//! (non-intensive) for Scheme-1+2.
//!
//! One [`MixGrid`]: the 18 half-workloads × {base, Scheme-1, Scheme-1+2}.

use noclat::SystemConfig;
use noclat_bench::{banner, pct, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};
use noclat_sim::stats::geomean;
use noclat_workloads::{indices_of, WorkloadKind};

fn main() {
    let args = SweepArgs::parse(&format!("fig15 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 15: Normalized weighted speedup on the 16-core (4x4) system",
        "First half of each Table-2 workload; 2 memory controllers.",
    );
    let mut grid = MixGrid::new("fig15");
    grid.hardware("", SystemConfig::baseline_16())
        .variant("base", |c| c)
        .variant("s1", SystemConfig::with_scheme1)
        .variant("both", SystemConfig::with_both_schemes);
    for i in 1..=18 {
        grid.workload(w(i).name(), w(i).first_half());
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
            "{:>12} geomean: Scheme-1 {}, Scheme-1+2 {}",
            "",
            pct(g1),
            pct(g2)
        );
        geo_json = geo_json.field(
            format!("{kind:?}"),
            Obj::new().field("s1", g1).field("both", g2).build(),
        );
    }

    let json = sweep::report(
        "fig15",
        &args,
        Obj::new()
            .field("cores", 16u64)
            .field("workloads", Json::Arr(rows_json))
            .field("geomeans", geo_json.build())
            .build(),
    );
    sweep::finish(&args, &json);
}
