//! Ablation — which parts of the prioritization machinery matter?
//!
//! Compares Scheme-1+2 with: (a) pipeline bypassing disabled (arbitration
//! priority only), (b) the starvation age guard reduced to zero (strict
//! priority), and (c) Scheme-2 alone. Workload-8 (memory-intensive) is the
//! most sensitive to all three.
//!
//! One [`MixGrid`] with six variants.

use noclat::SystemConfig;
use noclat_bench::{banner, pct, w, MixGrid};
use noclat_engine::{self as sweep, Obj, SweepArgs};

fn main() {
    let args = SweepArgs::parse(&format!("ablation_priority {}", sweep::SWEEP_USAGE));
    banner(
        "Ablation: prioritization machinery (workload-8)",
        "Normalized WS of Scheme-1+2 variants against the unprioritized baseline.",
    );
    let mut grid = MixGrid::new("priority");
    grid.workload("", w(8).apps())
        .variant("baseline", |c| c)
        .variant("s1", SystemConfig::with_scheme1)
        .variant("s2", SystemConfig::with_scheme2)
        .variant("full", SystemConfig::with_both_schemes)
        .variant("no_bypass", |c| {
            let mut c = c.with_both_schemes();
            c.noc.bypass_enabled = false;
            c
        })
        .variant("strict", |c| {
            let mut c = c.with_both_schemes();
            c.noc.starvation_age_guard = 0;
            c
        });
    let ws = grid.run_ws(&args, |_, ws| ws);
    let base = *ws.get(0, 0, 0);
    let norm = |v| ws.normalized(0, 0, v);

    println!("baseline WS                    : {base:.3}");
    println!("Scheme-1 only                  : {}", pct(norm(1)));
    println!("Scheme-2 only                  : {}", pct(norm(2)));
    println!("Scheme-1+2 (full)              : {}", pct(norm(3)));
    println!("Scheme-1+2, no bypassing       : {}", pct(norm(4)));
    println!("Scheme-1+2, zero age guard     : {}", pct(norm(5)));

    let json = sweep::report(
        "ablation_priority",
        &args,
        Obj::new()
            .field("workload", 8u64)
            .field("base_ws", base)
            .field("s1", norm(1))
            .field("s2", norm(2))
            .field("full", norm(3))
            .field("no_bypass", norm(4))
            .field("strict", norm(5))
            .build(),
    );
    sweep::finish(&args, &json);
}
