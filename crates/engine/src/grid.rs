//! Grid execution: fan a sweep's jobs out over the supervised pool, with
//! optional journal resume and analytic two-tier pruning.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use noclat::{alone_config, alone_ipc, Journal, SimError, SystemConfig};
use noclat_analytic::AnalyticModel;
use noclat_sim::journal::{self, fnv1a64};
use noclat_sim::pool::{run_jobs_supervised, Job};
use noclat_workloads::SpecApp;

use crate::args::{job_key, sweep_fingerprint, PruneSpec, SweepArgs};
use crate::codec::CellCodec;
use crate::exit::ExitCode;
use crate::json::Json;

/// Runs a job grid under the sweep's worker budget and returns results in
/// job order, aborting the process with a per-job diagnostic if any job
/// failed.
///
/// The abort path reports *every* failing cell as a quarantine list (a
/// panicking cell does not hide its siblings' outcomes) and exits with the
/// most severe applicable [`ExitCode`]: panics beat timeouts beat the
/// generic failure code. A journal problem (`--resume` mismatch, IO
/// failure) is a usage error and exits with [`ExitCode::Config`].
#[must_use]
pub fn run_grid<T: Send + CellCodec>(args: &SweepArgs, jobs: Vec<Job<T>>) -> Vec<T> {
    // A harness that fans out through this entry point has no model inputs
    // per cell; accepting `--prune` here would silently run everything.
    if args.prune.enabled() {
        eprintln!("error: this binary does not support --prune");
        ExitCode::Config.exit();
    }
    let results = match try_run_grid(args, jobs) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::Config.exit();
        }
    };
    let mut quarantined = Vec::new();
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(e) => quarantined.push(e),
        }
    }
    exit_on_quarantine(&quarantined);
    out
}

/// Reports a non-empty quarantine list on stderr and exits with the most
/// severe applicable code; returns silently when nothing was quarantined.
fn exit_on_quarantine(quarantined: &[SimError]) {
    if quarantined.is_empty() {
        return;
    }
    eprintln!("sweep: {} cell(s) quarantined:", quarantined.len());
    for e in quarantined {
        eprintln!("  error: {e}");
    }
    match ExitCode::from_quarantined(quarantined) {
        // from_quarantined maps an empty list to Success, which the guard
        // above already excluded; a non-empty list is at least Generic.
        ExitCode::Success => ExitCode::Generic.exit(),
        code => code.exit(),
    }
}

/// Like [`run_grid`], but surfaces failures as values instead of aborting
/// (the library entry point the tests drive): the outer `Err` is a journal
/// problem that prevented the sweep from running at all, the inner ones are
/// quarantined cells.
///
/// Every job gets a content address (`[config <hash>]` in error reports,
/// the record key in the journal). With `--resume`, cells whose records are
/// already journaled are decoded instead of re-run — the codec roundtrip is
/// exact by construction, so resumed output is byte-identical — and each
/// cell completing in this run is appended (and flushed) the moment it
/// finishes, making progress durable against SIGKILL.
///
/// # Errors
///
/// [`SimError::Journal`] when the `--resume` journal cannot be opened,
/// belongs to a sweep with different arguments, or is not a journal at all.
pub fn try_run_grid<T: Send + CellCodec>(
    args: &SweepArgs,
    jobs: Vec<Job<T>>,
) -> Result<Vec<Result<T, SimError>>, SimError> {
    let fingerprint = sweep_fingerprint(args);
    let keys: Vec<u64> = jobs
        .iter()
        .map(|j| job_key(fingerprint, j.label()))
        .collect();
    let jobs: Vec<Job<T>> = jobs
        .into_iter()
        .zip(&keys)
        .map(|(j, key)| j.config_hash(format!("{key:016x}")))
        .collect();
    let n = jobs.len();
    let policy = args.retry_policy();

    let Some(path) = &args.resume else {
        if n > 1 {
            eprintln!("sweep: {} jobs on {} worker(s)", n, args.jobs.clamp(1, n));
        }
        return Ok(run_jobs_supervised(args.jobs, jobs, &policy, None));
    };

    let (journal, records) = Journal::open(path, fingerprint)?;
    let cache = journal::as_map(records);
    // A record that fails to decode (format drift, hand-edited file) is not
    // an error: the cell is simply recomputed and its record rewritten.
    let mut slots: Vec<Option<Result<T, SimError>>> = keys
        .iter()
        .map(|key| {
            let payload = cache.get(key)?;
            let value = T::decode_cell(&Json::parse(payload).ok()?)?;
            Some(Some(Ok(value)))
        })
        .map(Option::flatten)
        .collect();
    let pending: Vec<(usize, Job<T>)> = jobs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| slots[*i].is_none())
        .collect();
    let resumed = n - pending.len();
    if resumed > 0 {
        eprintln!(
            "sweep: resumed {resumed} of {n} cell(s) from {}",
            path.display()
        );
    }
    if pending.len() > 1 {
        eprintln!(
            "sweep: {} jobs on {} worker(s)",
            pending.len(),
            args.jobs.clamp(1, pending.len())
        );
    }
    let indices: Vec<usize> = pending.iter().map(|(i, _)| *i).collect();
    let pending_jobs: Vec<Job<T>> = pending.into_iter().map(|(_, j)| j).collect();
    let journal = Mutex::new(journal);
    let observer = |pi: usize, r: &Result<T, SimError>| {
        if let Ok(v) = r {
            let payload = v.encode_cell().to_compact_string();
            let mut journal = journal.lock().expect("journal lock");
            if let Err(e) = journal.append(keys[indices[pi]], &payload) {
                // Losing durability degrades resume, not this run's results.
                eprintln!("warning: {e}");
            }
        }
    };
    let results = run_jobs_supervised(args.jobs, pending_jobs, &policy, Some(&observer));
    for (pi, result) in results.into_iter().enumerate() {
        let i = indices[pi];
        slots[i] = Some(result.map_err(|e| at_grid_index(e, i)));
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every cell is cached or computed"))
        .collect())
}

/// Makes a job error report the cell's position `i` in the full grid, not
/// in the subset of cells the pool happened to run.
fn at_grid_index(mut e: SimError, i: usize) -> SimError {
    if let SimError::JobPanicked { index, .. } | SimError::JobTimeout { index, .. } = &mut e {
        *index = i;
    }
    e
}

/// Model inputs the analytic pruning pre-pass needs for one cell: the
/// exact configuration the job will simulate and the per-tile application
/// placement. `golden` pins the cell past any pruning (regression anchors
/// must always run).
#[derive(Debug, Clone)]
pub struct PruneInfo {
    /// The cell's full configuration (after every override is applied —
    /// the same value the job's closure captured).
    pub cfg: SystemConfig,
    /// Per-tile application placement, exactly as `run_mix` assigns it.
    pub apps: Vec<SpecApp>,
    /// Never prune this cell (golden-pinned regression anchor).
    pub golden: bool,
}

/// One cell of a pruned grid: the cycle-accurate job plus (optionally) the
/// model inputs that let the pre-pass rank it. Cells without `prune`
/// metadata are never pruned — the estimator cannot rank what it cannot
/// model.
pub struct GridCell<T> {
    /// The cycle-accurate job.
    pub job: Job<T>,
    /// Model inputs for the pruning pre-pass.
    pub prune: Option<PruneInfo>,
}

/// What a pruned grid produced, aligned with the input cells.
pub struct PruneOutcome<T> {
    /// Per-cell outcome: `None` when the pre-pass pruned the cell,
    /// otherwise the cycle-accurate result (or its quarantined error).
    pub results: Vec<Option<Result<T, SimError>>>,
    /// The estimator's predicted mean latency per cell (`None` for cells
    /// without model inputs, or when pruning is off).
    pub predicted: Vec<Option<f64>>,
    /// How many cells were submitted to the cycle-accurate pool.
    pub kept: usize,
}

/// Two-tier grid execution: with `--prune analytic:top=K`, the closed-form
/// estimator ranks every cell that supplied [`PruneInfo`] and only the K
/// lowest-predicted-latency cells — plus all golden-pinned cells and all
/// cells without model inputs — reach the cycle-accurate pool. Surviving
/// cells run through [`try_run_grid`] with their original jobs untouched,
/// so their results are byte-identical to an unpruned run's; the pruning
/// spec is part of the sweep fingerprint, so `--resume` journals of pruned
/// and unpruned sweeps never mix.
///
/// With `--prune off` every cell runs and no prediction is computed.
///
/// # Errors
///
/// [`SimError::Journal`] exactly as [`try_run_grid`].
pub fn try_run_pruned_grid<T: Send + CellCodec>(
    args: &SweepArgs,
    cells: Vec<GridCell<T>>,
) -> Result<PruneOutcome<T>, SimError> {
    let n = cells.len();
    let PruneSpec::Analytic { top } = args.prune else {
        let jobs: Vec<Job<T>> = cells.into_iter().map(|c| c.job).collect();
        let results = try_run_grid(args, jobs)?;
        return Ok(PruneOutcome {
            results: results.into_iter().map(Some).collect(),
            predicted: vec![None; n],
            kept: n,
        });
    };

    // Tier 1: rank by the analytic estimator. A cell whose configuration
    // the model rejects is kept conservatively (the cycle pool will report
    // the config error properly).
    let mut predicted: Vec<Option<f64>> = Vec::with_capacity(n);
    for cell in &cells {
        let p = cell.prune.as_ref().and_then(|info| {
            let model = AnalyticModel::new(&info.cfg, &info.apps).ok()?;
            let report = model
                .with_lengths(args.lengths.warmup, args.lengths.measure)
                .evaluate();
            Some(report.mean_latency)
        });
        predicted.push(p);
    }
    let mut ranked: Vec<(usize, f64)> = predicted
        .iter()
        .enumerate()
        .filter(|(i, _)| cells[*i].prune.as_ref().is_some_and(|info| !info.golden))
        .filter_map(|(i, p)| p.map(|p| (i, p)))
        .collect();
    // Ascending predicted latency; grid order breaks ties, so the
    // selection is deterministic.
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    let mut keep = vec![false; n];
    for (i, cell) in cells.iter().enumerate() {
        match &cell.prune {
            None => keep[i] = true,
            Some(info) if info.golden => keep[i] = true,
            Some(_) => {}
        }
    }
    for &(i, _) in ranked.iter().take(top) {
        keep[i] = true;
    }
    let kept = keep.iter().filter(|k| **k).count();
    eprintln!("sweep: analytic pre-pass kept {kept} of {n} cell(s) (top={top} plus pinned)");

    // Tier 2: the surviving jobs, bit-identical to an unpruned run.
    let mut survivors: Vec<Job<T>> = Vec::with_capacity(kept);
    let mut indices = Vec::with_capacity(kept);
    for (i, cell) in cells.into_iter().enumerate() {
        if keep[i] {
            indices.push(i);
            survivors.push(cell.job);
        }
    }
    let sub = try_run_grid(args, survivors)?;
    let mut results: Vec<Option<Result<T, SimError>>> = (0..n).map(|_| None).collect();
    for (si, r) in sub.into_iter().enumerate() {
        let i = indices[si];
        results[i] = Some(r.map_err(|e| at_grid_index(e, i)));
    }
    Ok(PruneOutcome {
        results,
        predicted,
        kept,
    })
}

/// A pruned grid after quarantine handling: every surviving cell's value,
/// aligned with the input cells (`None` = pruned away).
pub struct PrunedResults<T> {
    /// Per-cell value; `None` when the pre-pass pruned the cell.
    pub results: Vec<Option<T>>,
    /// The estimator's predicted mean latency per cell.
    pub predicted: Vec<Option<f64>>,
    /// How many cells ran cycle-accurately.
    pub kept: usize,
}

/// Like [`run_grid`] for pruned grids: aborts on journal problems and
/// quarantined cells with the same exit codes, and exits with
/// [`ExitCode::PrunedEmpty`] when the pre-pass eliminated every cell of
/// a non-empty grid (a sweep that simulated nothing must not look like a
/// success).
#[must_use]
pub fn run_pruned_grid<T: Send + CellCodec>(
    args: &SweepArgs,
    cells: Vec<GridCell<T>>,
) -> PrunedResults<T> {
    let n = cells.len();
    let outcome = match try_run_pruned_grid(args, cells) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::Config.exit();
        }
    };
    if outcome.kept == 0 && n > 0 {
        eprintln!(
            "error: --prune {} eliminated all {n} cell(s); nothing was simulated",
            args.prune
        );
        ExitCode::PrunedEmpty.exit();
    }
    let quarantined: Vec<SimError> = outcome
        .results
        .iter()
        .flatten()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    exit_on_quarantine(&quarantined);
    PrunedResults {
        results: outcome
            .results
            .into_iter()
            .map(|r| r.map(|v| v.expect("quarantine exit handled errors")))
            .collect(),
        predicted: outcome.predicted,
        kept: outcome.kept,
    }
}

/// A table of alone-run IPCs (the weighted-speedup denominators), computed
/// as its own parallel phase so the mix-run grid never recomputes them.
///
/// Entries are keyed by the *full* hardware configuration (schemes
/// stripped, since alone runs never contend) plus the application, so
/// distinct hardware points — different meshes, VC counts, schedulers,
/// pipelines — never alias each other's denominators.
#[derive(Debug, Default)]
pub struct AloneMap {
    map: HashMap<(String, SpecApp), f64>,
}

/// Cache key of a hardware configuration for alone-run purposes: the Debug
/// rendering of the [`alone_config`] the alone run simulates.
#[must_use]
pub fn alone_key(cfg: &SystemConfig) -> String {
    format!("{:?}", alone_config(cfg))
}

impl AloneMap {
    /// Computes alone IPCs for every distinct `(hardware, app)` pair in
    /// `requests`, one pool job per pair.
    #[must_use]
    pub fn compute(args: &SweepArgs, requests: &[(SystemConfig, Vec<SpecApp>)]) -> AloneMap {
        let lengths = args.lengths;
        let mut pairs: Vec<(String, SystemConfig, SpecApp)> = Vec::new();
        let mut seen: HashSet<(String, SpecApp)> = HashSet::new();
        for (cfg, apps) in requests {
            let key = alone_key(cfg);
            for &app in apps {
                if seen.insert((key.clone(), app)) {
                    pairs.push((key.clone(), cfg.clone(), app));
                }
            }
        }
        let jobs: Vec<Job<f64>> = pairs
            .iter()
            .map(|(key, cfg, app)| {
                let cfg = cfg.clone();
                let app = *app;
                // The hardware key disambiguates the label: the same app on
                // two hardware points must never share a journal address.
                let hw = fnv1a64(key.as_bytes());
                Job::new(format!("alone/{}/{hw:016x}", app.name()), move || {
                    alone_ipc(&cfg, app, lengths)
                })
            })
            .collect();
        let ipcs = run_grid(args, jobs);
        let map = pairs
            .into_iter()
            .zip(ipcs)
            .map(|((key, _, app), ipc)| ((key, app), ipc))
            .collect();
        AloneMap { map }
    }

    /// Alone IPCs on `cfg`'s hardware for every distinct app of a
    /// workload, in the shape [`noclat::weighted_speedup_of`] consumes.
    ///
    /// # Panics
    ///
    /// Panics if a pair was not part of [`AloneMap::compute`].
    #[must_use]
    pub fn table(&self, cfg: &SystemConfig, apps: &[SpecApp]) -> HashMap<SpecApp, f64> {
        let key = alone_key(cfg);
        apps.iter()
            .map(|&app| {
                let ipc = self.map.get(&(key.clone(), app)).unwrap_or_else(|| {
                    panic!("alone IPC of {} not precomputed", app.name());
                });
                (app, *ipc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::model_fingerprint;
    use noclat::{JournalError, KernelKind, RequestPolicyKind, ResponsePolicyKind, MODEL_VERSION};

    #[test]
    fn alone_key_strips_schemes_but_keeps_hardware() {
        let base = SystemConfig::baseline_32();
        assert_eq!(
            alone_key(&base),
            alone_key(&base.clone().with_both_schemes())
        );
        // Policy selection is also contention-only: alone runs share a key.
        let mut with_policy = base.clone();
        with_policy.policy.request = Some(RequestPolicyKind::OldestFirst);
        with_policy.policy.response = Some(ResponsePolicyKind::Static);
        assert_eq!(alone_key(&base), alone_key(&with_policy));
        let mut more_vcs = base.clone();
        more_vcs.noc.vcs_per_port = 8;
        assert_ne!(alone_key(&base), alone_key(&more_vcs));
        let mut other_seed = base.clone();
        other_seed.seed ^= 1;
        assert_ne!(alone_key(&base), alone_key(&other_seed));
        // Kernel selection never changes results, so it never splits keys.
        let mut event = base.clone();
        event.kernel = KernelKind::Event;
        assert_eq!(alone_key(&base), alone_key(&event));
    }

    #[test]
    fn journal_from_another_model_version_is_refused() {
        let path = std::env::temp_dir().join(format!(
            "noclat-grid-model-version-{}.nj",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (mut args, _) = SweepArgs::parse_argv(&[]).unwrap();
        args.jobs = 1;
        args.resume = Some(path.clone());
        let stale = model_fingerprint(&args, MODEL_VERSION + 1);
        {
            let (mut journal, _) = Journal::open(&path, stale).unwrap();
            let payload = 1.0_f64.encode_cell().to_compact_string();
            journal.append(job_key(stale, "cell"), &payload).unwrap();
        }
        let jobs = vec![Job::new("cell", || 2.0_f64)];
        match try_run_grid(&args, jobs) {
            Err(SimError::Journal(JournalError::FingerprintMismatch { found, .. })) => {
                assert_eq!(found, stale);
            }
            Err(other) => panic!("expected a fingerprint mismatch, got {other}"),
            Ok(cells) => panic!("a stale journal was served: {cells:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
