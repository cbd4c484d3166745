//! End-to-end `--jobs` equivalence of real harness binaries: fig09 (the
//! sharded distribution figure), fig12 (shards paired across two
//! variants), fig13 (a plain grid) and fig16c (a weighted-speedup grid with
//! two hardware points, so two sets of alone denominators) must print and
//! serialize byte-identical reports whether their cells run serially or on
//! four workers. The shared sweep flags must reach every figure's cells.

use std::process::{Command, Output};

/// Runs a figure binary on a short window with extra flags.
fn run_short(bin: &str, extra: &[&str]) -> Output {
    Command::new(bin)
        .args(["--warmup", "200", "--measure", "1000"])
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("{bin} spawns: {e}"))
}

#[test]
fn fig09_reports_are_byte_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("noclat-bin-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bins = [
        ("fig09", env!("CARGO_BIN_EXE_fig09")),
        ("fig12", env!("CARGO_BIN_EXE_fig12")),
        ("fig13", env!("CARGO_BIN_EXE_fig13")),
        ("fig16c", env!("CARGO_BIN_EXE_fig16c")),
    ];
    for (name, bin) in bins {
        let mut outputs = Vec::new();
        for jobs in ["1", "4"] {
            let json = dir.join(format!("{name}-{jobs}.json"));
            let out = run_short(bin, &["--jobs", jobs, "--json", json.to_str().unwrap()]);
            assert!(
                out.status.success(),
                "{name} --jobs {jobs} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let report = std::fs::read(&json).expect("the binary wrote its JSON report");
            assert!(!report.is_empty());
            outputs.push((out.stdout, report));
        }
        assert_eq!(
            outputs[0].0, outputs[1].0,
            "{name}: stdout must not depend on --jobs"
        );
        assert_eq!(
            outputs[0].1, outputs[1].1,
            "{name}: the JSON report must not depend on --jobs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--topology` reaches every cell of a figure's grid: fig06 (a sharded
/// grid) and fig13 (a plain grid) report something else on a torus than
/// on the mesh, and netmap draws the router grid of the fabric it ran (a
/// 2-way concentrated mesh has 16 routers, not the mesh's 32).
#[test]
fn topology_override_reaches_the_figure_grids() {
    for (name, bin) in [
        ("fig06", env!("CARGO_BIN_EXE_fig06")),
        ("fig13", env!("CARGO_BIN_EXE_fig13")),
    ] {
        let mesh = run_short(bin, &["--jobs", "2"]);
        let torus = run_short(bin, &["--jobs", "2", "--topology", "torus"]);
        for out in [&mesh, &torus] {
            assert!(
                out.status.success(),
                "{name} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        assert_ne!(
            mesh.stdout, torus.stdout,
            "{name}: --topology torus must change the report"
        );
    }
    let netmap = env!("CARGO_BIN_EXE_netmap");
    let cmesh = run_short(netmap, &["--jobs", "2", "--topology", "cmesh:c=2"]);
    assert!(
        cmesh.status.success(),
        "netmap --topology cmesh:c=2 failed: {}",
        String::from_utf8_lossy(&cmesh.stderr)
    );
    let stdout = String::from_utf8_lossy(&cmesh.stdout);
    let mut map = stdout.lines().skip_while(|l| !l.starts_with("--- X-Y"));
    let first_row = map.nth(1).expect("netmap prints a heat map");
    assert_eq!(first_row.split_whitespace().count(), 4, "4 router columns");
}

/// The shared flag parser rejects unknown arguments with exit status 2 (so
/// CI scripts fail fast on typos) and honors `--help` with status 0.
#[test]
fn fig09_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig09"))
        .arg("--frobnicate")
        .output()
        .expect("fig09 spawns");
    assert_eq!(out.status.code(), Some(2));
    let help = Command::new(env!("CARGO_BIN_EXE_fig09"))
        .arg("--help")
        .output()
        .expect("fig09 spawns");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).contains("--jobs"));
}

/// `--topology` mistakes are usage errors (exit 2), never cell panics —
/// both the parse-time kind (unknown fabric) and the validate-time kind
/// (a concentration that can't tile the grid, caught only once the
/// override meets a concrete configuration).
#[test]
fn simulate_rejects_invalid_topology_specs_as_usage_errors() {
    let bad_fabric = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--topology", "bogus", "--measure", "100"])
        .output()
        .expect("simulate spawns");
    assert_eq!(bad_fabric.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_fabric.stderr).contains("unknown fabric"));

    let bad_concentration = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--topology", "cmesh:c=3", "--measure", "100"])
        .output()
        .expect("simulate spawns");
    assert_eq!(bad_concentration.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_concentration.stderr).contains("error: --topology:"));
}
