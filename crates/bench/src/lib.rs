//! Shared harness plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). They all honor a `quick` command-line
//! argument (or `NOCLAT_QUICK=1`) that shrinks the simulation windows for
//! smoke-testing the harness itself.

use noclat::{run_mix, weighted_speedup_of, MixResult, SystemConfig};
use noclat_engine::{run_grid, AloneMap, CellCodec, Job, SweepArgs};
use noclat_sim::stats::Histogram;
use noclat_workloads::{workload, SpecApp, Workload};

/// Prints the standard harness header.
pub fn banner(artifact: &str, what: &str) {
    println!("==============================================================");
    println!("{artifact}");
    println!("{what}");
    println!("==============================================================");
}

/// A configuration transform naming one variant of a [`WsGrid`].
type Variant = Box<dyn Fn(SystemConfig) -> SystemConfig>;

/// A weighted-speedup grid over three axes: workloads × hardware points ×
/// variants. Every figure and ablation that reports weighted speedup
/// declares its axes here and renders the returned [`WsCells`].
///
/// The grid runs two parallel phases: the alone-IPC denominators of every
/// `(hardware point, app)` pair, then one mix run per cell. The sweep's
/// `--seed` and its `--policy`/`--kernel`/`--topology` overrides reach
/// every hardware point *before* its alone runs are requested, so each
/// cell's weighted speedup is normalized against alone runs on the
/// hardware it actually simulated.
///
/// A cell's job label is `name/workload/hardware/variant`, with empty
/// axis labels left out (a single-workload ablation labels its workload
/// `""`).
pub struct WsGrid {
    name: String,
    workloads: Vec<(String, Vec<SpecApp>)>,
    hardware: Vec<(String, SystemConfig)>,
    variants: Vec<(String, Variant)>,
}

impl WsGrid {
    /// An empty grid whose job labels start with `name`.
    #[must_use]
    pub fn new(name: &str) -> WsGrid {
        WsGrid {
            name: name.to_string(),
            workloads: Vec::new(),
            hardware: Vec::new(),
            variants: Vec::new(),
        }
    }

    /// Adds a workload: the apps placed one per core, in core order.
    pub fn workload(&mut self, label: impl Into<String>, apps: Vec<SpecApp>) -> &mut WsGrid {
        self.workloads.push((label.into(), apps));
        self
    }

    /// Adds a hardware point. Its seed is replaced by the sweep's `--seed`.
    pub fn hardware(&mut self, label: impl Into<String>, cfg: SystemConfig) -> &mut WsGrid {
        self.hardware.push((label.into(), cfg));
        self
    }

    /// Adds a variant: a transform from a hardware point to the
    /// configuration the cell simulates. Variant 0 is the baseline that
    /// [`WsCells::normalized`] divides by.
    pub fn variant(
        &mut self,
        label: impl Into<String>,
        apply: impl Fn(SystemConfig) -> SystemConfig + 'static,
    ) -> &mut WsGrid {
        self.variants.push((label.into(), Box::new(apply)));
        self
    }

    /// Runs the grid and returns the weighted speedup of every cell.
    #[must_use]
    pub fn run(&self, args: &SweepArgs) -> WsCells<f64> {
        self.run_with(args, |_, ws| ws)
    }

    /// Runs the grid, turning each cell's mix result and weighted speedup
    /// into a `T` (for figures that report more than the speedup).
    #[must_use]
    pub fn run_with<T: Send + CellCodec + 'static>(
        &self,
        args: &SweepArgs,
        cell: fn(&MixResult, f64) -> T,
    ) -> WsCells<T> {
        let hardware: Vec<SystemConfig> = self
            .hardware
            .iter()
            .map(|(_, cfg)| {
                let mut hw = cfg.clone();
                hw.seed = args.seed;
                hw
            })
            .collect();
        let simulated = |mut cfg: SystemConfig| {
            args.apply_policy(&mut cfg);
            cfg
        };
        // The hardware each cell simulates, which its alone runs share.
        let alone_hw: Vec<SystemConfig> = hardware.iter().cloned().map(simulated).collect();

        let mut requests = Vec::new();
        for hw in &alone_hw {
            for (_, apps) in &self.workloads {
                requests.push((hw.clone(), apps.clone()));
            }
        }
        let alone = AloneMap::compute(args, &requests);

        let lengths = args.lengths;
        let mut jobs = Vec::new();
        for (w_label, apps) in &self.workloads {
            for (h, (hw_label, _)) in self.hardware.iter().enumerate() {
                let table = alone.table(&alone_hw[h], apps);
                for (v_label, apply) in &self.variants {
                    let cfg = simulated(apply(hardware[h].clone()));
                    let apps = apps.clone();
                    let table = table.clone();
                    let label = [&self.name, w_label, hw_label, v_label]
                        .into_iter()
                        .filter(|part| !part.is_empty())
                        .map(String::as_str)
                        .collect::<Vec<_>>()
                        .join("/");
                    jobs.push(Job::new(label, move || {
                        let r = run_mix(&cfg, &apps, lengths);
                        let ws = weighted_speedup_of(&r, &table);
                        cell(&r, ws)
                    }));
                }
            }
        }
        WsCells {
            cells: run_grid(args, jobs),
            hardware: hardware.len(),
            variants: self.variants.len(),
        }
    }
}

/// The cells of a finished [`WsGrid`], indexed by its axes.
#[derive(Debug)]
pub struct WsCells<T> {
    cells: Vec<T>,
    hardware: usize,
    variants: usize,
}

impl<T: Copy> WsCells<T> {
    /// The cell of workload `w` on hardware point `h` under variant `v`
    /// (each index in the order the axis was declared).
    #[must_use]
    pub fn at(&self, w: usize, h: usize, v: usize) -> T {
        self.cells[(w * self.hardware + h) * self.variants + v]
    }
}

impl WsCells<f64> {
    /// The weighted speedup of a cell divided by its baseline (variant 0).
    #[must_use]
    pub fn normalized(&self, w: usize, h: usize, v: usize) -> f64 {
        self.at(w, h, v) / self.at(w, h, 0)
    }
}

/// Merged round-trip latency histogram across all applications of a run.
#[must_use]
pub fn merged_latency_histogram(result: &MixResult) -> Histogram {
    let mut h = Histogram::new(25, 4000);
    for c in 0..result.per_app.len() {
        h.merge(&result.system.tracker().app(c).total);
    }
    h
}

/// Core index of the first instance of `app` in a mix result.
#[must_use]
pub fn core_of(result: &MixResult, app: SpecApp) -> Option<usize> {
    result.per_app.iter().find(|a| a.app == app).map(|a| a.core)
}

/// Convenience: the paper's workload-N.
#[must_use]
pub fn w(n: usize) -> Workload {
    workload(n)
}

/// Formats a fraction as a percent delta ("+3.4%").
#[must_use]
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat::alone_ipc;
    use std::collections::HashMap;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.034), "+3.4%");
        assert_eq!(pct(0.99), "-1.0%");
    }

    /// With `--topology torus`, a cell's weighted speedup divides by alone
    /// runs on the torus it simulated, not on the declared mesh.
    #[test]
    fn alone_denominators_follow_the_topology_override() {
        let argv: Vec<String> = [
            "--topology",
            "torus",
            "--warmup",
            "200",
            "--measure",
            "1000",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let (mut args, _) = SweepArgs::parse_argv(&argv).unwrap();
        args.jobs = 2;
        let apps = [SpecApp::Mcf, SpecApp::Gamess].repeat(16);
        let mut grid = WsGrid::new("torus-test");
        grid.workload("", apps.clone())
            .hardware("", SystemConfig::baseline_32())
            .variant("base", |c| c);
        let ws = grid.run(&args).at(0, 0, 0);

        let mesh = SystemConfig::baseline_32();
        let mut torus = mesh.clone();
        args.apply_policy(&mut torus);
        let shared = run_mix(&torus, &apps, args.lengths);
        let ws_over = |hw: &SystemConfig| {
            let alone: HashMap<SpecApp, f64> = [SpecApp::Mcf, SpecApp::Gamess]
                .into_iter()
                .map(|app| (app, alone_ipc(hw, app, args.lengths)))
                .collect();
            weighted_speedup_of(&shared, &alone)
        };
        assert_eq!(ws, ws_over(&torus));
        assert_ne!(ws, ws_over(&mesh), "the two fabrics' alone IPCs differ");
    }
}
