//! Shared harness plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). They all honor a `quick` command-line
//! argument (or `NOCLAT_QUICK=1`) that shrinks the simulation windows for
//! smoke-testing the harness itself.

use noclat::{run_mix, weighted_speedup_of, MixResult, SystemConfig};
use noclat_engine::{job_seed, run_grid, AloneMap, CellCodec, Job, SweepArgs};
use noclat_sim::stats::Histogram;
use noclat_workloads::{workload, SpecApp, Workload};

/// Prints the standard harness header.
pub fn banner(artifact: &str, what: &str) {
    println!("==============================================================");
    println!("{artifact}");
    println!("{what}");
    println!("==============================================================");
}

/// A configuration transform naming one variant of a [`MixGrid`].
type Variant = Box<dyn Fn(SystemConfig) -> SystemConfig>;

/// A grid of mix runs over four axes: workloads × hardware points ×
/// variants × shards. Every figure and ablation that simulates Table-2
/// mixes declares its axes here and reads one statistic off each run:
/// [`MixGrid::run`] hands each cell's [`MixResult`] to the figure,
/// [`MixGrid::run_ws`] also its weighted speedup.
///
/// This is the one place the sweep's `--seed` and its
/// `--policy`/`--kernel`/`--topology` overrides reach a mix cell: each
/// cell's hardware point takes the sweep seed (or its shard's seed), the
/// variant transforms it, then [`SweepArgs::apply_overrides`] runs last.
///
/// A grid that declares no hardware point runs the paper's 32-core mesh
/// (`SystemConfig::baseline_32()`), and one that declares no variant runs
/// each hardware point unchanged; both with an empty label.
///
/// A cell's job label is `name/workload/hardware/variant[/shard-s]`, with
/// empty axis labels left out (a single-workload figure labels its
/// workload `""`).
pub struct MixGrid {
    name: String,
    workloads: Vec<(String, Vec<SpecApp>)>,
    hardware: Vec<(String, SystemConfig)>,
    variants: Vec<(String, Variant)>,
    shards: u64,
}

/// One cell of a [`MixGrid`], ready to run.
struct Cell {
    label: String,
    /// The cell's hardware point, seeded and overridden: the configuration
    /// its alone runs simulate.
    hardware: SystemConfig,
    /// The configuration the cell simulates.
    cfg: SystemConfig,
    apps: Vec<SpecApp>,
}

impl MixGrid {
    /// An empty grid whose job labels start with `name`.
    #[must_use]
    pub fn new(name: &str) -> MixGrid {
        MixGrid {
            name: name.to_string(),
            workloads: Vec::new(),
            hardware: Vec::new(),
            variants: Vec::new(),
            shards: 0,
        }
    }

    /// Adds a workload: the apps placed one per core, in core order.
    pub fn workload(&mut self, label: impl Into<String>, apps: Vec<SpecApp>) -> &mut MixGrid {
        self.workloads.push((label.into(), apps));
        self
    }

    /// Adds a hardware point. Its seed is replaced by the sweep's `--seed`
    /// (or by its shard's seed).
    pub fn hardware(&mut self, label: impl Into<String>, cfg: SystemConfig) -> &mut MixGrid {
        self.hardware.push((label.into(), cfg));
        self
    }

    /// Adds a variant: a transform from a hardware point to the
    /// configuration the cell simulates. Variant 0 is the baseline that
    /// [`MixCells::normalized`] divides by.
    pub fn variant(
        &mut self,
        label: impl Into<String>,
        apply: impl Fn(SystemConfig) -> SystemConfig + 'static,
    ) -> &mut MixGrid {
        self.variants.push((label.into(), Box::new(apply)));
        self
    }

    /// Splits every cell into `n` independently seeded replicates: shard
    /// `s` runs with seed `job_seed(--seed, s)` under the label suffix
    /// `shard-{s}`, the same seed under every variant, so shards pair up
    /// across variants. Read them back with [`MixCells::shards`].
    pub fn shards(&mut self, n: u64) -> &mut MixGrid {
        self.shards = n;
        self
    }

    /// Runs the grid, turning each cell's mix result into a `T`.
    #[must_use]
    pub fn run<T: Send + CellCodec + 'static>(
        &self,
        args: &SweepArgs,
        cell: fn(&MixResult) -> T,
    ) -> MixCells<T> {
        let lengths = args.lengths;
        let jobs = self
            .cells(args)
            .into_iter()
            .map(|c| Job::new(c.label, move || cell(&run_mix(&c.cfg, &c.apps, lengths))))
            .collect();
        self.collect(run_grid(args, jobs))
    }

    /// Runs the grid, turning each cell's mix result and weighted speedup
    /// into a `T`.
    ///
    /// The alone-IPC denominators of every `(hardware point, app)` pair
    /// run first as their own parallel phase, on the hardware point with
    /// the sweep's overrides applied, so each cell's weighted speedup is
    /// normalized against alone runs on the hardware it actually simulated.
    #[must_use]
    pub fn run_ws<T: Send + CellCodec + 'static>(
        &self,
        args: &SweepArgs,
        cell: fn(&MixResult, f64) -> T,
    ) -> MixCells<T> {
        let cells = self.cells(args);
        let requests: Vec<(SystemConfig, Vec<SpecApp>)> = cells
            .iter()
            .map(|c| (c.hardware.clone(), c.apps.clone()))
            .collect();
        let alone = AloneMap::compute(args, &requests);
        let lengths = args.lengths;
        let jobs = cells
            .into_iter()
            .map(|c| {
                let table = alone.table(&c.hardware, &c.apps);
                Job::new(c.label, move || {
                    let r = run_mix(&c.cfg, &c.apps, lengths);
                    let ws = weighted_speedup_of(&r, &table);
                    cell(&r, ws)
                })
            })
            .collect();
        self.collect(run_grid(args, jobs))
    }

    /// Every cell of the grid in axis order (workload, hardware, variant,
    /// shard), with seeds and overrides applied.
    fn cells(&self, args: &SweepArgs) -> Vec<Cell> {
        let seeds: Vec<(String, u64)> = if self.shards == 0 {
            vec![(String::new(), args.seed)]
        } else {
            (0..self.shards)
                .map(|s| (format!("shard-{s}"), job_seed(args.seed, s)))
                .collect()
        };
        let overridden = |mut cfg: SystemConfig| {
            args.apply_overrides(&mut cfg);
            cfg
        };
        let mesh = [(String::new(), SystemConfig::baseline_32())];
        let hardware = if self.hardware.is_empty() {
            &mesh[..]
        } else {
            &self.hardware
        };
        let unchanged: [(String, Variant); 1] = [(String::new(), Box::new(|c| c))];
        let variants = if self.variants.is_empty() {
            &unchanged[..]
        } else {
            &self.variants
        };
        let mut cells = Vec::new();
        for (w_label, apps) in &self.workloads {
            for (h_label, hw) in hardware {
                for (v_label, apply) in variants {
                    for (s_label, seed) in &seeds {
                        let mut hw = hw.clone();
                        hw.seed = *seed;
                        let label = [&self.name, w_label, h_label, v_label, s_label]
                            .into_iter()
                            .filter(|part| !part.is_empty())
                            .map(String::as_str)
                            .collect::<Vec<_>>()
                            .join("/");
                        cells.push(Cell {
                            label,
                            cfg: overridden(apply(hw.clone())),
                            hardware: overridden(hw),
                            apps: apps.clone(),
                        });
                    }
                }
            }
        }
        cells
    }

    fn collect<T>(&self, cells: Vec<T>) -> MixCells<T> {
        MixCells {
            cells,
            hardware: self.hardware.len().max(1),
            variants: self.variants.len().max(1),
            shards: self.shards.max(1) as usize,
        }
    }
}

/// The cells of a finished [`MixGrid`], indexed by its axes (each index in
/// the order the axis was declared).
#[derive(Debug)]
pub struct MixCells<T> {
    cells: Vec<T>,
    hardware: usize,
    variants: usize,
    shards: usize,
}

impl<T> MixCells<T> {
    /// The cell of workload `w` on hardware point `h` under variant `v`.
    ///
    /// # Panics
    ///
    /// Panics on a sharded grid; read those with [`MixCells::shards`].
    #[must_use]
    pub fn get(&self, w: usize, h: usize, v: usize) -> &T {
        assert_eq!(self.shards, 1, "a sharded cell has no single value");
        &self.shards(w, h, v)[0]
    }

    /// The shards of a cell, in shard order (one entry on a grid without
    /// a shard axis).
    #[must_use]
    pub fn shards(&self, w: usize, h: usize, v: usize) -> &[T] {
        let first = ((w * self.hardware + h) * self.variants + v) * self.shards;
        &self.cells[first..first + self.shards]
    }
}

impl MixCells<f64> {
    /// The weighted speedup of a cell divided by its baseline (variant 0).
    #[must_use]
    pub fn normalized(&self, w: usize, h: usize, v: usize) -> f64 {
        self.get(w, h, v) / self.get(w, h, 0)
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
        let mut grid = MixGrid::new("torus-test");
        grid.workload("", apps.clone());
        let ws = *grid.run_ws(&args, |_, ws| ws).get(0, 0, 0);

        let mesh = SystemConfig::baseline_32();
        let mut torus = mesh.clone();
        args.apply_overrides(&mut torus);
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
