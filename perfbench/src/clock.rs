//! Host time, raw and adjusted to a fixed host speed.
//!
//! On a shared host the simulator's speed swings by up to 2x over tens of
//! seconds, as co-tenants contend for the core's private caches, so raw
//! host seconds from runs a few minutes apart differ by more than any
//! useful bound. A fixed probe, random read-modify-writes over a 2 MiB
//! buffer (the size of a core's private cache), slows down with the same
//! contention. Every timed interval is followed by one probe, and its
//! adjusted time is its raw time scaled by `PROBE_REF_S` over the mean of
//! the probes on either side: the seconds it would have taken on a host
//! where the probe takes `PROBE_REF_S`.
//!
//! The probe is benchmark code and uses no repository crate. Before each
//! timed probe an untimed pass touches every line of its buffer, so the
//! probe starts from the same cache state whatever the interval before it
//! left behind: a change to the simulator's working set does not move it,
//! only contention from outside the process does.
use std::hint::black_box;
use std::time::Instant;

/// Probe buffer, in `u64`s: 2 MiB.
const PROBE_WORDS: usize = 1 << 18;
/// Read-modify-writes per probe (about 20 ms on a 2 GHz Xeon VM).
const PROBE_STEPS: usize = 2_000_000;
/// The probe time that adjusted seconds are expressed against.
pub const PROBE_REF_S: f64 = 0.02;
/// Bytes the probe's buffer adds to the process's resident set.
pub const PROBE_BYTES: usize = 8 * PROBE_WORDS;

/// One timed interval.
#[derive(Clone, Copy)]
pub struct Sample {
    pub raw: f64,
    pub adjusted: f64,
}

pub struct Clock {
    buf: Vec<u64>,
    state: u64,
    last_probe_s: f64,
    probes: Vec<f64>,
    mark: Instant,
}

impl Clock {
    pub fn new() -> Clock {
        let mut clock = Clock {
            buf: vec![1; PROBE_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
            last_probe_s: 0.0,
            probes: Vec::new(),
            mark: Instant::now(),
        };
        clock.probe();
        clock
    }

    fn probe(&mut self) -> f64 {
        warm(&mut self.buf);
        let started = Instant::now();
        self.state = walk(&mut self.buf, PROBE_STEPS, self.state);
        let secs = started.elapsed().as_secs_f64();
        self.last_probe_s = secs;
        self.probes.push(secs);
        secs
    }

    /// Starts an interval.
    pub fn start(&mut self) {
        self.mark = Instant::now();
    }

    /// Ends the interval begun by `start`, then runs the probe.
    pub fn lap(&mut self) -> Sample {
        let raw = self.mark.elapsed().as_secs_f64();
        let before = self.last_probe_s;
        let after = self.probe();
        Sample {
            raw,
            adjusted: raw * PROBE_REF_S * 2.0 / (before + after),
        }
    }

    /// Every probe time so far, in seconds.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

/// One read-modify-write per cache line of `buf`, in order: brings the
/// whole buffer back into the core's caches, untimed, before a probe.
fn warm(buf: &mut [u64]) {
    for line in buf.chunks_mut(8) {
        line[0] = line[0].wrapping_add(1);
    }
    black_box(buf);
}

/// `steps` xorshift-indexed read-modify-writes over `buf`; returns the
/// generator state, mixed with what was read so none of it is elided.
fn walk(buf: &mut [u64], steps: usize, mut x: u64) -> u64 {
    let n = buf.len();
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % n;
        buf[i] = buf[i].wrapping_add(x);
        acc = acc.wrapping_add(buf[(i * 7 + 3) % n]);
    }
    black_box(x ^ acc) | 1
}
