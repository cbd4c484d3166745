//! Ablation — FR-FCFS vs FCFS memory scheduling under the combined schemes.
//!
//! FR-FCFS is the paper's (and industry's) baseline; FCFS destroys row
//! locality and shows how much the schemes depend on a competent scheduler
//! downstream.
//!
//! One [`MixGrid`]: {FR-FCFS, FCFS} × {base, Scheme-1+2}. The schedulers
//! differ even alone, so each has its own alone denominators.

use noclat::{MemSchedPolicy, SystemConfig};
use noclat_bench::{banner, pct, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};

const SCHEDS: [MemSchedPolicy; 2] = [MemSchedPolicy::FrFcfs, MemSchedPolicy::Fcfs];

fn main() {
    let args = SweepArgs::parse(&format!("ablation_memsched {}", sweep::SWEEP_USAGE));
    banner(
        "Ablation: FR-FCFS vs FCFS memory scheduling (workload-8)",
        "Baseline WS and Scheme-1+2 gains per scheduler.",
    );
    let mut grid = MixGrid::new("memsched");
    grid.workload("", w(8).apps());
    for sched in SCHEDS {
        let mut hw = SystemConfig::baseline_32();
        hw.mem.scheduler = sched;
        grid.hardware(format!("{sched:?}"), hw);
    }
    grid.variant("base", |c| c)
        .variant("both", SystemConfig::with_both_schemes);
    let results = grid.run_ws(&args, |r, ws| {
        let hit_rate: f64 = (0..r.system.num_controllers())
            .map(|m| r.system.controller_stats(m).row_hit_rate())
            .sum::<f64>()
            / r.system.num_controllers() as f64;
        (ws, hit_rate)
    });

    let mut rows_json = Vec::new();
    for (k, &sched) in SCHEDS.iter().enumerate() {
        let (base, hit_rate) = *results.get(0, k, 0);
        let (both, _) = *results.get(0, k, 1);
        println!(
            "{sched:?}: base WS {base:.3}, row-hit rate {hit_rate:.2}, Scheme-1+2 {}",
            pct(both / base)
        );
        rows_json.push(
            Obj::new()
                .field("scheduler", format!("{sched:?}"))
                .field("base_ws", base)
                .field("row_hit_rate", hit_rate)
                .field("both_over_base", both / base)
                .build(),
        );
    }

    let json = sweep::report(
        "ablation_memsched",
        &args,
        Obj::new()
            .field("workload", 8u64)
            .field("schedulers", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
