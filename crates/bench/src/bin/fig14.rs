//! Figure 14 — average bank idleness over the course of execution,
//! default vs Scheme-2.
//!
//! Paper shape to reproduce: the Scheme-2 curve sits below the default curve
//! across the run. As with Figure 13, the paper's workload-1 and the
//! higher-pressure workload-8 are both reported.
//!
//! All four (workload × scheme) cells run as one pool grid.

use noclat::{run_mix, SystemConfig};
use noclat_bench::banner;
use noclat_engine::{self as sweep, Job, Json, Obj, SweepArgs};
use noclat_workloads::workload;

const WORKLOADS: [usize; 2] = [1, 8];

fn main() {
    let args = SweepArgs::parse(&format!("fig14 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 14: Average bank idleness over time, default vs Scheme-2",
        "One row per 10k-cycle interval, averaged across controller 0's banks.",
    );
    let lengths = args.lengths;
    let mut jobs = Vec::new();
    for &widx in &WORKLOADS {
        for scheme2 in [false, true] {
            let seed = args.seed;
            let policy = args.policy;
            let kernel = args.kernel;
            let label = if scheme2 { "scheme2" } else { "default" };
            jobs.push(Job::new(format!("fig14/w{widx}/{label}"), move || {
                let mut cfg = SystemConfig::baseline_32();
                if scheme2 {
                    cfg = cfg.with_scheme2();
                }
                cfg.seed = seed;
                policy.apply(&mut cfg);
                cfg.kernel = kernel;
                let r = run_mix(&cfg, &workload(widx).apps(), lengths);
                r.system.idleness(0).idleness_over_time()
            }));
        }
    }
    let results = sweep::run_grid(&args, jobs);

    let mut rows_json = Vec::new();
    for (k, &widx) in WORKLOADS.iter().enumerate() {
        let tb = &results[k * 2];
        let ts = &results[k * 2 + 1];
        println!("\n--- workload-{widx} (10k-cycle intervals, controller 0) ---");
        println!("{:>10} {:>9} {:>9}", "interval", "default", "scheme2");
        for i in 0..tb.len().min(ts.len()) {
            println!("{:>10} {:>9.3} {:>9.3}", i, tb[i], ts[i]);
        }
        let below = tb.iter().zip(ts).filter(|(b, s)| s <= b).count();
        println!(
            "Scheme-2 at or below default in {below}/{} intervals",
            tb.len().min(ts.len())
        );
        rows_json.push(
            Obj::new()
                .field("workload", widx)
                .field(
                    "default",
                    Json::Arr(tb.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field(
                    "scheme2",
                    Json::Arr(ts.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field("intervals_at_or_below", below)
                .build(),
        );
    }

    let json = sweep::report(
        "fig14",
        &args,
        Obj::new()
            .field("controller", 0u64)
            .field("workloads", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
