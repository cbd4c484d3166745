//! A fixed host-speed reference: a small cycle-level mesh model compiled
//! into the benchmark, independent of the simulator's crates.
//!
//! A shared host's speed drifts by tens of percent over minutes, as other
//! tenants load the cores and caches. One slice of the reference is timed
//! between every two timed sections of the simulator, so each section has a
//! measurement of how fast the host was right then, taken with code of the
//! same kind (routers, queues, trait-object sources, branchy arbitration).
//! The reference never changes with the simulator, so scaling a section's
//! time by the reference removes host drift and keeps every change of the
//! simulator's own cost.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const W: usize = 8;
const NODES: usize = W * W;
const PORTS: usize = 5;
const DEPTH: usize = 4;

#[derive(Clone, Copy)]
struct Flit {
    dst: u16,
    born: u32,
    tag: u64,
}

/// A traffic source behind a trait object, as the simulator's streams are.
trait Source {
    fn next(&mut self, rng: &mut u64) -> Option<u16>;
}

struct Uniform(u32);
struct Hotspot(u16, u32);

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Source for Uniform {
    fn next(&mut self, rng: &mut u64) -> Option<u16> {
        let r = xorshift(rng);
        ((r & 1023) < u64::from(self.0)).then(|| ((r >> 10) % NODES as u64) as u16)
    }
}

impl Source for Hotspot {
    fn next(&mut self, rng: &mut u64) -> Option<u16> {
        let r = xorshift(rng);
        if (r & 1023) >= u64::from(self.1) {
            None
        } else if r >> 60 < 4 {
            Some(self.0)
        } else {
            Some(((r >> 10) % NODES as u64) as u16)
        }
    }
}

#[derive(Default)]
struct Router {
    inputs: [VecDeque<Flit>; PORTS],
    rr: [usize; PORTS],
}

/// The reference model's state; it stays in steady state across calls.
struct Reference {
    routers: Vec<Router>,
    sources: Vec<Box<dyn Source>>,
    rng: u64,
    cycle: u32,
    latency_sum: u64,
    delivered: u64,
}

impl Reference {
    fn new() -> Reference {
        let sources = (0..NODES)
            .map(|n| {
                if n % 3 == 0 {
                    Box::new(Hotspot((NODES - 1) as u16, 90)) as Box<dyn Source>
                } else {
                    Box::new(Uniform(110)) as Box<dyn Source>
                }
            })
            .collect();
        let mut r = Reference {
            routers: (0..NODES).map(|_| Router::default()).collect(),
            sources,
            rng: 0x9e37_79b9_7f4a_7c15,
            cycle: 0,
            latency_sum: 0,
            delivered: 0,
        };
        r.run(2_000);
        r
    }

    /// Output port of an XY route from `at` toward `dst`: 0 local, 1 east,
    /// 2 west, 3 north, 4 south.
    fn route(at: usize, dst: usize) -> usize {
        let (ax, ay, dx, dy) = (at % W, at / W, dst % W, dst / W);
        if dx > ax {
            1
        } else if dx < ax {
            2
        } else if dy > ay {
            3
        } else if dy < ay {
            4
        } else {
            0
        }
    }

    fn neighbor(at: usize, port: usize) -> (usize, usize) {
        // (node, input port at that node): a flit leaving east arrives on
        // the neighbour's west input, and so on.
        match port {
            1 => (at + 1, 2),
            2 => (at - 1, 1),
            3 => (at + W, 4),
            _ => (at - W, 3),
        }
    }

    fn step(&mut self) {
        self.cycle += 1;
        for n in 0..NODES {
            if self.routers[n].inputs[0].len() < DEPTH {
                if let Some(dst) = self.sources[n].next(&mut self.rng) {
                    let tag = xorshift(&mut self.rng);
                    self.routers[n].inputs[0].push_back(Flit {
                        dst,
                        born: self.cycle,
                        tag,
                    });
                }
            }
        }
        for n in 0..NODES {
            for out in 0..PORTS {
                let start = self.routers[n].rr[out];
                for k in 0..PORTS {
                    let inp = (start + k) % PORTS;
                    let Some(head) = self.routers[n].inputs[inp].front().copied() else {
                        continue;
                    };
                    if Self::route(n, usize::from(head.dst)) != out {
                        continue;
                    }
                    if out == 0 {
                        self.routers[n].inputs[inp].pop_front();
                        self.latency_sum += u64::from(self.cycle - head.born) ^ (head.tag & 1);
                        self.delivered += 1;
                    } else {
                        let (m, p) = Self::neighbor(n, out);
                        if self.routers[m].inputs[p].len() >= DEPTH {
                            continue;
                        }
                        self.routers[n].inputs[inp].pop_front();
                        self.routers[m].inputs[p].push_back(head);
                    }
                    self.routers[n].rr[out] = (inp + 1) % PORTS;
                    break;
                }
            }
        }
    }

    fn run(&mut self, cycles: u32) {
        for _ in 0..cycles {
            self.step();
        }
        black_box((self.latency_sum, self.delivered));
    }

    /// Host seconds of one fixed slice of the reference model.
    fn slice_s(&mut self) -> f64 {
        let t = Instant::now();
        self.run(SLICE);
        t.elapsed().as_secs_f64()
    }
}

/// Reference cycles per timed slice.
const SLICE: u32 = 200;

/// Host seconds of one slice on the nominal host, about what a slice takes
/// on an idle 2-vCPU Intel Xeon VM.
pub const NOMINAL_SLICE_S: f64 = 1e-3;

/// Times sections of host work. A scaled clock runs one reference slice
/// after every section and scales the section to the nominal host: raw
/// seconds x [`NOMINAL_SLICE_S`] / the mean of the slices just before and
/// just after it. A raw clock reports raw seconds for both.
pub struct HostClock {
    reference: Option<Reference>,
    last_slice_s: f64,
}

impl HostClock {
    #[must_use]
    pub fn scaled() -> HostClock {
        let mut reference = Reference::new();
        let last_slice_s = reference.slice_s();
        HostClock {
            reference: Some(reference),
            last_slice_s,
        }
    }

    #[must_use]
    pub fn raw() -> HostClock {
        HostClock {
            reference: None,
            last_slice_s: NOMINAL_SLICE_S,
        }
    }

    /// Runs `f` and returns its result with its raw and its scaled host
    /// seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        let Some(reference) = self.reference.as_mut() else {
            return (out, raw, raw);
        };
        let after = reference.slice_s();
        let scaled = raw * NOMINAL_SLICE_S / (0.5 * (self.last_slice_s + after));
        self.last_slice_s = after;
        (out, raw, scaled)
    }
}
