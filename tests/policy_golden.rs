//! The policy registry's behavior-preservation contract.
//!
//! The prioritization-policy layer is a refactor of the paper schemes, not
//! a reinterpretation: resolving `scheme1`/`scheme2` by name through the
//! registry must reproduce the hardwired scheme-flag runs *bit for bit*,
//! and the `baseline` policy must be indistinguishable from running with
//! the schemes disabled, whatever the flags say. These tests pin both
//! directions, run the non-paper policies (`oldest-first`, `static`)
//! end-to-end, and check that attaching probes observes traffic without
//! perturbing it.

use noclat::{
    run_mix, CountingProbe, PolicyOverride, RequestPolicyKind, ResponsePolicyKind, RunLengths,
    Simulation, System, SystemConfig,
};
use noclat_sim::config::StarvationPolicy;
use noclat_workloads::workload;

const WORKLOAD: usize = 2;

/// Same window as the golden suite: long enough for Scheme-1's 10k-cycle
/// update period to elapse, so the equivalence covers threshold traffic.
fn lengths() -> RunLengths {
    RunLengths {
        warmup: 300,
        measure: 12_000,
    }
}

/// A bit-exact run fingerprint: per-app off-chip counts and IPC bits.
fn fingerprint(cfg: &SystemConfig, lengths: RunLengths) -> Vec<u64> {
    let r = run_mix(cfg, &workload(WORKLOAD).apps(), lengths);
    let mut fp = Vec::with_capacity(2 * r.per_app.len());
    for a in &r.per_app {
        fp.push(a.offchip);
        fp.push(a.ipc.to_bits());
    }
    fp
}

fn build_system(cfg: SystemConfig, apps: &[noclat_workloads::SpecApp]) -> System {
    Simulation::builder(cfg)
        .workload(apps)
        .build()
        .unwrap()
        .into_system()
}

fn with_policy(
    mut cfg: SystemConfig,
    request: RequestPolicyKind,
    response: ResponsePolicyKind,
) -> SystemConfig {
    cfg.policy.request = Some(request);
    cfg.policy.response = Some(response);
    cfg
}

/// The tentpole's acceptance bar: for every scheme combination, resolving
/// the paper schemes by registry name (flags off) is byte-identical to the
/// hardwired scheme-flag run.
#[test]
fn registry_names_reproduce_hardwired_schemes() {
    let base = SystemConfig::baseline_32();
    let combos: [(&str, SystemConfig, SystemConfig); 4] = [
        (
            "baseline",
            base.clone(),
            with_policy(
                base.clone(),
                RequestPolicyKind::Baseline,
                ResponsePolicyKind::Baseline,
            ),
        ),
        (
            "s1",
            base.clone().with_scheme1(),
            with_policy(
                base.clone(),
                RequestPolicyKind::Baseline,
                ResponsePolicyKind::Scheme1,
            ),
        ),
        (
            "s2",
            base.clone().with_scheme2(),
            with_policy(
                base.clone(),
                RequestPolicyKind::Scheme2,
                ResponsePolicyKind::Baseline,
            ),
        ),
        (
            "both",
            base.clone().with_both_schemes(),
            with_policy(
                base,
                RequestPolicyKind::Scheme2,
                ResponsePolicyKind::Scheme1,
            ),
        ),
    ];
    for (name, flags, named) in combos {
        assert_eq!(
            fingerprint(&flags, lengths()),
            fingerprint(&named, lengths()),
            "{name}: registry-resolved policies diverged from the scheme flags"
        );
    }
}

/// Satellite property: the `baseline` policy is schemes-disabled, across
/// seeds and regardless of the scheme flags (explicit names beat flags, so
/// all four golden flag combinations must collapse onto the same run).
#[test]
fn baseline_policy_equals_schemes_disabled() {
    let short = RunLengths {
        warmup: 200,
        measure: 6_000,
    };
    for seed_bump in [0u64, 1] {
        let mut reference = SystemConfig::baseline_32();
        reference.seed ^= seed_bump;
        let want = fingerprint(&reference, short);
        let flag_combos: [SystemConfig; 4] = [
            reference.clone(),
            reference.clone().with_scheme1(),
            reference.clone().with_scheme2(),
            reference.clone().with_both_schemes(),
        ];
        for (k, flags) in flag_combos.into_iter().enumerate() {
            let cfg = with_policy(
                flags,
                RequestPolicyKind::Baseline,
                ResponsePolicyKind::Baseline,
            );
            assert_eq!(
                fingerprint(&cfg, short),
                want,
                "combo {k} (seed bump {seed_bump}): baseline policy must \
                 neutralize the scheme flags"
            );
        }
    }
}

/// The non-paper registry entries run end-to-end, and the `--policy` spec
/// grammar drives all three decision layers.
#[test]
fn oldest_first_and_static_policies_run_end_to_end() {
    let short = RunLengths {
        warmup: 200,
        measure: 4_000,
    };
    for spec in [
        "req=oldest-first,resp=oldest-first",
        "req=static,resp=static",
        "req=oldest-first,resp=scheme1,arb=oldest-first",
        "resp=static,arb=static",
    ] {
        let ov = PolicyOverride::parse(spec).expect("spec parses");
        let mut cfg = SystemConfig::baseline_32();
        ov.apply(&mut cfg);
        cfg.validate().expect("override yields a valid config");
        let fp = fingerprint(&cfg, short);
        let offchip: u64 = fp.iter().step_by(2).sum();
        assert!(offchip > 0, "{spec}: the run must retire off-chip accesses");
    }
    // The arbitration slot reaches NocConfig.
    let ov = PolicyOverride::parse("arb=batching:64").expect("batching arbitration parses");
    let mut cfg = SystemConfig::baseline_32();
    ov.apply(&mut cfg);
    assert_eq!(
        cfg.noc.starvation,
        StarvationPolicy::Batching { interval: 64 }
    );
}

/// The resolved policy objects are visible on the built system (and in its
/// Debug rendering), for flags-derived and explicit names alike.
#[test]
fn system_reports_resolved_policy_names() {
    let apps = workload(WORKLOAD).apps();
    let sys = build_system(SystemConfig::baseline_32().with_both_schemes(), &apps);
    assert_eq!(sys.config().request_policy(), RequestPolicyKind::Scheme2);
    assert_eq!(sys.config().response_policy(), ResponsePolicyKind::Scheme1);
    let dbg = format!("{sys:?}");
    assert!(dbg.contains("scheme2") && dbg.contains("scheme1"), "{dbg}");

    let cfg = with_policy(
        SystemConfig::baseline_32(),
        RequestPolicyKind::OldestFirst,
        ResponsePolicyKind::Static,
    );
    let sys = build_system(cfg, &apps);
    assert_eq!(
        sys.config().request_policy(),
        RequestPolicyKind::OldestFirst
    );
    assert_eq!(sys.config().response_policy(), ResponsePolicyKind::Static);
}

/// Probes observe every layer without changing the simulation.
#[test]
fn counting_probe_observes_without_perturbing() {
    let cfg = SystemConfig::baseline_32().with_both_schemes();
    let apps = workload(WORKLOAD).apps();
    let mut plain = build_system(cfg.clone(), &apps);
    let mut probed = build_system(cfg, &apps);
    let (probe, counters) = CountingProbe::new();
    probed.attach_probe(Box::new(probe));

    let cycles = 6_000;
    plain.run(cycles);
    probed.run(cycles);

    let [hops, high_hops, mc_dequeues, _expedited, retirements, offchip] = counters.snapshot();
    assert!(hops > 0, "router hops must be observed");
    assert!(
        high_hops > 0,
        "with both schemes on, some flits travel at high priority"
    );
    assert!(mc_dequeues > 0, "controller dequeues must be observed");
    assert!(retirements > 0, "retirements must be observed");
    assert!(offchip > 0, "off-chip retirements must be observed");

    // Observation is free: the probed system walked the same trajectory.
    assert_eq!(plain.now(), probed.now());
    assert_eq!(plain.txns_in_flight(), probed.txns_in_flight());
    let (a, b) = (plain.network_stats(), probed.network_stats());
    assert_eq!(a.packets_injected.get(), b.packets_injected.get());
    assert_eq!(a.packets_delivered.get(), b.packets_delivered.get());
    for core in 0..4 {
        assert_eq!(
            plain.tracker().app(core).total.count(),
            probed.tracker().app(core).total.count(),
            "core {core} latency samples diverged under observation"
        );
    }
}
