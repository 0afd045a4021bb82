//! Shared synthetic NoC traffic waves for the criterion micro-benchmarks
//! and the scheduler-equivalence tests, so both drive the exact same
//! traffic.

use dalorex_noc::message::Message;
use dalorex_noc::network::Network;
use dalorex_noc::topology::{GridShape, Topology};
use dalorex_noc::{NocConfig, RouterScheduler};

/// A fresh `side`x`side` torus under the given router scheduler, ready for
/// [`convergecast_wave`].
pub fn convergecast_net(side: usize, scheduler: RouterScheduler) -> Network {
    Network::new(
        NocConfig::new(GridShape::new(side, side), Topology::Torus)
            .with_router_scheduler(scheduler),
    )
}

/// One dense convergecast wave: every tile sends sixteen 4-flit messages
/// at two hotspot tiles (opposite quadrant corners) — the vertex-owner
/// convergecast shape Dalorex traffic actually takes, at saturation.  The
/// hotspots' ejection links serialize the drain, so for most of the wave
/// almost every router is *active* (it still holds queued flits) but
/// *blocked* on a busy downstream link — not due until the link frees.
/// That is the regime where a walk of the whole active list
/// ([`RouterScheduler::Scan`] visits every active router every cycle)
/// pays O(active) per cycle while the due-only walk
/// ([`RouterScheduler::Calendar`]) pays O(due): the handful of routers on
/// the drain frontier.  Measured on the dense 128x128 wave, a full walk
/// touches ~29x the routers the due-only walk does (and ~58x on 256x256),
/// with bit-identical schedules and statistics.
///
/// Returns the modelled cycle count of the drain, which is identical for
/// both schedulers by construction (asserted by the callers).
pub fn convergecast_wave(net: &mut Network, side: usize) -> u64 {
    let n = side * side;
    let half = side / 2;
    let hotspots = [0, half * side + half];
    for src in 0..n {
        for k in 1..17usize {
            let dst = hotspots[(src + k) % 2];
            if dst != src {
                let _ = net.try_inject(src, Message::new(dst, k % 4, vec![src as u32; 4]));
            }
        }
    }
    // The hotspot endpoints drain one message per cycle (the tile-simulator
    // consumption pattern); without the per-cycle pops their 16-flit
    // ejection buffers fill and backpressure parks the whole wave forever.
    let mut cycles = 0u64;
    while net.in_flight() > 0 {
        net.cycle();
        for &tile in &hotspots {
            net.pop_delivered(tile);
        }
        cycles += 1;
        assert!(cycles < 100 * n as u64 + 100_000, "wave failed to drain");
    }
    for tile in 0..n {
        while net.pop_delivered(tile).is_some() {}
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wave drains to empty under both schedulers with the identical
    /// modelled cycle count and statistics (walk counters excepted — the
    /// `NocStats` equality deliberately ignores those).
    #[test]
    fn convergecast_wave_is_scheduler_invariant() {
        let side = 8;
        let mut due_only = convergecast_net(side, RouterScheduler::Calendar);
        let mut scan = convergecast_net(side, RouterScheduler::Scan);
        let due_cycles = convergecast_wave(&mut due_only, side);
        let scan_cycles = convergecast_wave(&mut scan, side);
        assert_eq!(due_cycles, scan_cycles);
        assert_eq!(due_only.stats(), scan.stats());
        assert_eq!(due_only.in_flight(), 0);
        // The scan scheduler must have visited strictly more routers than
        // the due-only walk even on this small smoke grid — that delta is
        // the entire point of the due-only scheduler.
        assert!(
            scan.stats().walk_routers_visited > due_only.stats().walk_routers_visited,
            "scan visited {} routers, due-only {}",
            scan.stats().walk_routers_visited,
            due_only.stats().walk_routers_visited,
        );
    }
}
