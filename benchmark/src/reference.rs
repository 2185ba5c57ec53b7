//! Host-speed references: fixed kernels of the benchmark's own code, run
//! between repetitions of a workload, that slow down when the shared host
//! slows the workload down.
//!
//! On a small shared VM, other tenants' load changes how fast the same
//! work runs by up to 1.7× within a minute, far more than any bound a
//! regression gate can use. Each workload is paired with a kernel that
//! stresses what it stresses. The event-loop kernel is a binary heap,
//! a hash map and a per-key state vector over the workload's key count.
//! The loopback kernel is UDP bursts through the kernel's loopback path.
//! Neither calls the program, so a change to the program cannot move
//! them. Dividing a repetition's time by the adjacent reference time
//! cancels most of the host's drift. Over 10 s windows, 1.7× swings in
//! the reactor's raw time became 5% swings in the ratio.
//!
//! Normalized times are expressed on the development host: a time `t`
//! measured next to a reference pass of `r` seconds reads
//! `t × nominal / r`, where `nominal` is about the reference's median on
//! the 2-core development VM.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Instant;

use crate::probes::loopback_pair;
use crate::workloads::Workload;

/// A reference kernel paired with one workload.
pub struct Reference {
    kernel: Kernel,
    /// About the median seconds of one pass on the development VM.
    pub nominal_s: f64,
}

enum Kernel {
    /// A timed-event loop over `keys` keys for `events` events.
    EventLoop { keys: usize, events: usize },
    /// `BURSTS` bursts of [`BURST`] datagrams sent, then received, over
    /// loopback.
    Loopback {
        tx: UdpSocket,
        rx: UdpSocket,
        addr: SocketAddr,
    },
}

const BURSTS: usize = 300;
const BURST: usize = 64;

impl Reference {
    pub fn for_workload(w: Workload) -> io::Result<Self> {
        let (kernel, nominal_s) = match w {
            Workload::DesScale1056 => (
                Kernel::EventLoop {
                    keys: 1056,
                    events: 300_000,
                },
                0.03,
            ),
            Workload::MegaSharded1e5 => (
                Kernel::EventLoop {
                    keys: 100_000,
                    events: 150_000,
                },
                0.06,
            ),
            Workload::MuxLossy2k => {
                let (tx, rx, addr) = loopback_pair()?;
                (Kernel::Loopback { tx, rx, addr }, 0.05)
            }
        };
        Ok(Reference { kernel, nominal_s })
    }

    /// One timed pass, in seconds.
    pub fn run(&mut self) -> io::Result<f64> {
        match &mut self.kernel {
            Kernel::EventLoop { keys, events } => Ok(event_loop(*keys, *events)),
            Kernel::Loopback { tx, rx, addr } => {
                let frame = [7u8; 40];
                let mut buf = [0u8; 256];
                let t = Instant::now();
                for _ in 0..BURSTS {
                    for _ in 0..BURST {
                        tx.send_to(&frame, *addr)?;
                    }
                    for _ in 0..BURST {
                        rx.recv_from(&mut buf)?;
                    }
                }
                Ok(t.elapsed().as_secs_f64())
            }
        }
    }
}

/// A heap of timed events over `keys` keys; each event updates a hash
/// map entry and a slot of a 512-byte per-key state block, sometimes
/// removes another key, and reschedules itself.
fn event_loop(keys: usize, events: usize) -> f64 {
    let t = Instant::now();
    let mut heap = BinaryHeap::with_capacity(2 * keys);
    let mut map: HashMap<u32, u64> = HashMap::with_capacity(keys);
    let mut state = vec![0u64; keys * 64];
    let mut s = 0x9E37_79B9u64;
    for k in 0..keys {
        heap.push(Reverse((k as u64, k as u32)));
    }
    for _ in 0..events {
        let Reverse((at, k)) = heap.pop().expect("one event per key stays queued");
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let e = map.entry(k).or_insert(0);
        *e = e.wrapping_add(s);
        let i = k as usize * 64 + (s as usize & 63);
        state[i] = state[i].wrapping_add(*e);
        if s & 3 == 0 {
            map.remove(&((s % keys as u64) as u32));
        }
        heap.push(Reverse((at + 1 + (s & 1023), k)));
    }
    black_box(&state);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_reference_that_runs() {
        for w in Workload::ALL {
            let mut r = Reference::for_workload(w).expect("loopback sockets");
            assert!(r.nominal_s > 0.0);
            assert!(r.run().expect("reference pass") > 0.0);
        }
    }
}
