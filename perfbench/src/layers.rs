//! Isolated layer drivers: each times one layer of the simulator through
//! its public API, fed at the load a traced run measured, so that a
//! layer's share of the untraced wall time is computed rather than guessed.

use std::hint::black_box;
use std::time::Instant;

use noclat::{canonical_core, BankHistoryTable, Cycle, SystemConfig, ThresholdTable};
use noclat_cache::{L1Access, L1Cache, L2Bank};
use noclat_cpu::{Instr, InstrStream, MemAccess, MemoryPort, OooCore};
use noclat_mem::MemoryController;
use noclat_noc::{
    flits_for_payload, Dir, Flit, FlitKind, Mesh, Network, NodeId, PacketId, Priority, Router, VNet,
};
use noclat_sim::rng::SimRng;
use noclat_workloads::{SpecApp, SyntheticStream};

use crate::stats::{median, time_per_op};

/// The operating point a traced run measured, averaged over its cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct Load {
    /// Switch traversals per router per cycle.
    pub flits_per_router_cycle: f64,
    /// Share of traversals at high priority.
    pub high_prio_hop_frac: f64,
    /// Packets injected per tile per cycle.
    pub packets_per_node_cycle: f64,
    /// Share of injected packets at high priority.
    pub high_prio_inject_frac: f64,
    /// Mean requests inside one controller.
    pub queue_depth: f64,
    /// Requests served per controller per cycle.
    pub mc_rate: f64,
    /// Share of controller accesses that hit the open row.
    pub row_hit_frac: f64,
    /// Share of memory operations that miss the L1.
    pub l1_miss_frac: f64,
    /// Mean off-chip round trip, in cycles.
    pub offchip_lat: f64,
}

/// Host nanoseconds one empty `Instant` bracket costs, subtracted from
/// per-call brackets around cheap calls.
fn bracket_ns() -> f64 {
    time_per_op(10_000, 0.02, || {
        let t = Instant::now();
        black_box(t.elapsed());
    })
}

/// Nanoseconds of one `Router::tick` of a central router whose inputs
/// receive single-flit packets at the measured traversal rate; downstream
/// credits return at once.
pub fn router_tick_ns(cfg: &SystemConfig, load: &Load, seed: u64) -> f64 {
    let mesh = Mesh::from_config(&cfg.topology);
    let noc = cfg.noc;
    let here = mesh.router_of(NodeId(canonical_core(cfg) as u16));
    let mut router = Router::new(here, mesh, noc);
    let ports: Vec<Dir> = mesh
        .ports()
        .iter()
        .copied()
        .filter(|&d| d == Dir::Local || mesh.neighbor(here, d).is_some())
        .collect();
    let mut credits = vec![vec![noc.buffer_depth; noc.vcs_per_port]; mesh.num_ports()];
    let half = noc.vcs_per_port / 2;
    let mut rng = SimRng::new(seed ^ 0x7e57);
    let per_port = (load.flits_per_router_cycle / ports.len() as f64).min(1.0);
    let overhead = bracket_ns();
    let mut busy_ns = Vec::new();
    let mut packet = 0u64;
    let (warm, cycles) = (2_000u64, 20_000u64);
    for t in 0..warm + cycles {
        for &port in &ports {
            if !rng.chance(per_port) {
                continue;
            }
            let vnet = if rng.chance(0.5) {
                VNet::Request
            } else {
                VNet::Response
            };
            let base = vnet.index() * half;
            let Some(vc) = (base..base + half).find(|&v| credits[port.index()][v] > 0) else {
                continue;
            };
            credits[port.index()][vc] -= 1;
            packet += 1;
            let flit = Flit {
                packet: PacketId(packet),
                kind: FlitKind::HeadTail,
                dest: NodeId(rng.index(mesh.num_nodes()) as u16),
                vnet,
                priority: if rng.chance(load.high_prio_hop_frac) {
                    Priority::High
                } else {
                    Priority::Normal
                },
                age: 0,
                batch: 0,
                vc: vc as u8,
                arrived_at: t,
                ready_at: t,
            };
            router.accept_flit(port, flit, t);
        }
        let start = Instant::now();
        let out = router.tick(t);
        let ns = start.elapsed().as_secs_f64() * 1e9;
        let freed: Vec<(Dir, u8)> = out
            .traversals
            .iter()
            .filter(|tr| tr.out_port != Dir::Local)
            .map(|tr| (tr.out_port, tr.flit.vc))
            .collect();
        for c in &out.credits {
            credits[c.in_port.index()][usize::from(c.vc)] += 1;
        }
        for (port, vc) in freed {
            router.apply_credit(port, vc);
        }
        if t >= warm {
            busy_ns.push(ns);
        }
    }
    (busy_ns.iter().sum::<f64>() / busy_ns.len() as f64 - overhead).max(0.0)
}

/// Microseconds of one `Network::tick` of the cell's fabric under open-loop
/// traffic at the measured injection rate: half the packets go to a memory
/// controller's tile (the corner hotspot), half to uniform random tiles;
/// requests are single-flit, responses carry a cache line.
pub fn network_tick_us(cfg: &SystemConfig, load: &Load, seed: u64) -> f64 {
    let mesh = Mesh::from_config(&cfg.topology);
    let mut net: Network<u64> = Network::new(mesh, cfg.noc);
    let mcs = mesh.mc_nodes(cfg.topology.mc_placement, cfg.mem.num_controllers);
    let data = flits_for_payload(cfg.l2.line_bytes, cfg.noc.flit_bits);
    let mut rng = SimRng::new(seed ^ 0x4e07);
    let n = mesh.num_nodes();
    let overhead = bracket_ns();
    let mut tick_ns = Vec::new();
    let (warm, cycles) = (1_000u64, 4_000u64);
    let start = Instant::now();
    for t in 0..warm + cycles {
        for src in 0..n {
            if !rng.chance(load.packets_per_node_cycle) {
                continue;
            }
            let dest = if rng.chance(0.5) {
                mcs[rng.index(mcs.len())]
            } else {
                NodeId(rng.index(n) as u16)
            };
            let (vnet, flits) = if rng.chance(0.5) {
                (VNet::Request, 1)
            } else {
                (VNet::Response, data)
            };
            let priority = if rng.chance(load.high_prio_inject_frac) {
                Priority::High
            } else {
                Priority::Normal
            };
            net.inject(NodeId(src as u16), dest, vnet, priority, flits, 0, t, t)
                .expect("driver packets are well formed");
        }
        let s = Instant::now();
        net.tick(t);
        let ns = s.elapsed().as_secs_f64() * 1e9;
        for node in 0..n {
            black_box(net.take_delivered(NodeId(node as u16)));
        }
        if t >= warm {
            tick_ns.push(ns);
            // The open-loop driver has no back-pressure: bound its cost on
            // a fabric that saturates at this load.
            if start.elapsed().as_secs_f64() > 3.0 {
                break;
            }
        }
    }
    ((tick_ns.iter().sum::<f64>() / tick_ns.len() as f64) - overhead).max(0.0) / 1e3
}

/// Nanoseconds of one controller cycle (`MemoryController::enqueue` of that
/// cycle's arrivals, then `tick`) holding the measured queue depth, with
/// arrivals at the measured service rate and the measured row-buffer
/// locality. The arrival schedule is drawn before timing starts.
pub fn ctrl_tick_ns(cfg: &SystemConfig, load: &Load, seed: u64) -> f64 {
    let mem = cfg.mem;
    let mut rng = SimRng::new(seed ^ 0x3e3);
    let banks = mem.banks_per_controller;
    let mut open_row = vec![0u64; banks];
    let mut request = |rng: &mut SimRng| {
        let bank = rng.index(banks);
        if !rng.chance(load.row_hit_frac) {
            open_row[bank] = rng.below(1 << 14);
        }
        (bank, open_row[bank], rng.chance(0.2))
    };
    let depth = load.queue_depth.round() as usize;
    let cap = depth.max(1);
    let initial: Vec<_> = (0..depth).map(|_| request(&mut rng)).collect();
    let cycles: Cycle = 50_000;
    let arrivals: Vec<Option<(usize, u64, bool)>> = (0..cycles)
        .map(|_| rng.chance(load.mc_rate).then(|| request(&mut rng)))
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut mc = MemoryController::new(mem);
        let mut token = 0u64;
        for &(bank, row, write) in &initial {
            token += 1;
            mc.enqueue(token, bank, row, write, 0)
                .expect("bank index in range");
        }
        let start = Instant::now();
        for (t, arrival) in arrivals.iter().enumerate() {
            let t = t as Cycle;
            if let Some((bank, row, write)) = *arrival {
                if mc.occupancy() < cap {
                    token += 1;
                    mc.enqueue(token, bank, row, write, t)
                        .expect("bank index in range");
                }
            }
            black_box(mc.tick(t));
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / cycles as f64);
    }
    best
}

/// A memory port with fixed latencies: an L1 hit latency, and the measured
/// off-chip round trip for the measured share of misses.
struct FixedPort {
    hit: Cycle,
    miss: Cycle,
    miss_frac: f64,
    acc: f64,
}

impl MemoryPort for FixedPort {
    fn access(&mut self, _addr: u64, _is_write: bool, _now: Cycle) -> MemAccess {
        self.acc += self.miss_frac;
        let latency = if self.acc >= 1.0 {
            self.acc -= 1.0;
            self.miss
        } else {
            self.hit
        };
        MemAccess::Done { latency }
    }
}

/// Nanoseconds of one `OooCore::tick` with the cells' own instruction
/// streams and a fixed-latency memory port, averaged over every core of
/// every stream set given (one set per cell).
pub fn core_tick_ns(cfg: &SystemConfig, sets: Vec<Vec<Box<dyn InstrStream>>>, load: &Load) -> f64 {
    let total_cores: usize = sets.iter().map(Vec::len).sum();
    let cycles = (2_000_000 / total_cores.max(1)).max(500) as Cycle;
    let warm: Cycle = 500;
    let mut total_ns = 0.0;
    let mut ticks = 0u64;
    for mut streams in sets {
        let mut cores: Vec<OooCore> = streams.iter().map(|_| OooCore::new(cfg.cpu)).collect();
        let mut port = FixedPort {
            hit: cfg.l1.latency,
            miss: load.offchip_lat.round().max(1.0) as Cycle,
            miss_frac: load.l1_miss_frac,
            acc: 0.0,
        };
        let mut run = |from: Cycle, to: Cycle| {
            for now in from..to {
                for (core, stream) in cores.iter_mut().zip(streams.iter_mut()) {
                    core.tick(now, stream, &mut port);
                }
            }
        };
        run(0, warm);
        let t = Instant::now();
        run(warm, warm + cycles);
        total_ns += t.elapsed().as_secs_f64() * 1e9;
        ticks += cycles * streams.len() as u64;
    }
    total_ns / ticks as f64
}

/// Nanoseconds one synthetic stream takes to generate an instruction,
/// averaged over the given applications' streams.
pub fn gen_ns_per_instr(apps: &[SpecApp], seed: u64) -> f64 {
    let rng = SimRng::new(seed);
    let mut streams: Vec<SyntheticStream> = apps
        .iter()
        .enumerate()
        .map(|(slot, &app)| SyntheticStream::new(app, slot, &rng))
        .collect();
    let mut i = 0;
    time_per_op(20_000, 0.2, || {
        let s = &mut streams[i % apps.len()];
        i += 1;
        black_box(s.next_instr());
    })
}

/// Memory addresses of the first `per_app` memory instructions of each
/// application's stream.
fn addresses(apps: &[SpecApp], seed: u64, per_app: usize) -> Vec<Vec<u64>> {
    let rng = SimRng::new(seed);
    apps.iter()
        .enumerate()
        .map(|(slot, &app)| {
            let mut s = SyntheticStream::new(app, slot, &rng);
            let mut out = Vec::with_capacity(per_app);
            while out.len() < per_app {
                match s.next_instr() {
                    Instr::Load { addr } | Instr::Store { addr } => out.push(addr),
                    Instr::Compute { .. } => {}
                }
            }
            out
        })
        .collect()
}

/// Nanoseconds of one `L1Cache::access` and one `L2Bank::access`: each
/// application's addresses run through a fresh private L1, and its L1
/// misses through one shared L2 bank.
pub fn cache_access_ns(cfg: &SystemConfig, apps: &[SpecApp], seed: u64) -> (f64, f64) {
    let addrs = addresses(apps, seed, 20_000);
    let mut l1_ns = Vec::new();
    let mut l2_ns = Vec::new();
    let mut l2 = L2Bank::new(
        cfg.l2.bank_size_bytes,
        cfg.l2.line_bytes,
        cfg.l2.associativity,
    );
    for seq in &addrs {
        let mut l1 = L1Cache::new(cfg.l1.size_bytes, cfg.l1.line_bytes);
        let mut misses = Vec::new();
        let t = Instant::now();
        for &a in seq {
            if let L1Access::Miss { .. } = l1.access(black_box(a), false) {
                misses.push(a);
            }
        }
        l1_ns.push(t.elapsed().as_secs_f64() * 1e9 / seq.len() as f64);
        if misses.is_empty() {
            continue;
        }
        let t = Instant::now();
        for &a in &misses {
            black_box(l2.access(black_box(a), false));
        }
        l2_ns.push(t.elapsed().as_secs_f64() * 1e9 / misses.len() as f64);
    }
    (median(&l1_ns), median(&l2_ns))
}

/// Nanoseconds of one Scheme-1 decision (`ThresholdTable::is_late`) and of
/// one Scheme-2 decision (`BankHistoryTable::should_expedite` + `record`).
pub fn scheme_ns(cfg: &SystemConfig) -> (f64, f64) {
    let cores = cfg.num_cores();
    let mut table = ThresholdTable::new(cores);
    for c in 0..cores {
        table.set(c, 300 + (c as u32 % 7) * 40);
    }
    let mut i = 0u64;
    let s1 = time_per_op(50_000, 0.1, || {
        i += 1;
        black_box(table.is_late((i % cores as u64) as usize, (i % 900) as u32));
    });
    let banks = cfg.mem.num_controllers * cfg.mem.banks_per_controller;
    let mut bht = BankHistoryTable::new(cfg.scheme2, banks);
    let mut now = 0u64;
    let s2 = time_per_op(50_000, 0.1, || {
        now += 3;
        let bank = ((now * 7) % banks as u64) as usize;
        black_box(bht.should_expedite(bank, now));
        bht.record(bank, now);
    });
    (s1, s2)
}
