//! Ablation — virtual channel count sweep (2/4/8 VCs per port) under the
//! combined schemes. More VCs reduce head-of-line blocking, which shrinks
//! the queueing the schemes can jump.
//!
//! One [`MixGrid`]: {2, 4, 8} VCs × {base, Scheme-1+2}. Alone runs depend
//! on the NoC too, so each VC count has its own alone denominators.

use noclat::SystemConfig;
use noclat_bench::{banner, pct, w, MixGrid};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};

const VCS: [usize; 3] = [2, 4, 8];

fn main() {
    let args = SweepArgs::parse(&format!("ablation_vcs {}", sweep::SWEEP_USAGE));
    banner(
        "Ablation: VCs per port (workload-2)",
        "Baseline WS and Scheme-1+2 gains per VC count.",
    );
    let mut grid = MixGrid::new("vcs");
    grid.workload("", w(2).apps());
    for vcs in VCS {
        let mut hw = SystemConfig::baseline_32();
        hw.noc.vcs_per_port = vcs;
        grid.hardware(vcs.to_string(), hw);
    }
    grid.variant("base", |c| c)
        .variant("both", SystemConfig::with_both_schemes);
    let ws = grid.run_ws(&args, |_, ws| ws);

    let mut rows_json = Vec::new();
    for (k, &vcs) in VCS.iter().enumerate() {
        let base = *ws.get(0, k, 0);
        let both = *ws.get(0, k, 1);
        println!(
            "{vcs} VCs/port: base WS {base:.3}, Scheme-1+2 {}",
            pct(both / base)
        );
        rows_json.push(
            Obj::new()
                .field("vcs_per_port", vcs)
                .field("base_ws", base)
                .field("both_over_base", both / base)
                .build(),
        );
    }

    let json = sweep::report(
        "ablation_vcs",
        &args,
        Obj::new()
            .field("workload", 2u64)
            .field("points", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
