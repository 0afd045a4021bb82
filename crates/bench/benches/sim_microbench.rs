//! Criterion micro-benchmarks for the simulator's hot paths: graph
//! generation, CSR construction, data-placement arithmetic, queue
//! operations and raw NoC message movement.  These guard the performance of
//! the substrate the figure experiments are built on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dalorex_graph::generators::rmat::RmatConfig;
use dalorex_graph::CsrGraph;
use dalorex_kernels::SsspKernel;
use dalorex_noc::message::Message;
use dalorex_noc::network::Network;
use dalorex_noc::topology::{GridShape, Topology};
use dalorex_noc::{NocConfig, RouterScheduler};
use dalorex_sim::config::{Engine, GridConfig, SimConfigBuilder};
use dalorex_sim::placement::{ArraySpace, Placement, VertexPlacement};
use dalorex_sim::queues::WordQueue;
use dalorex_sim::Simulation;

/// The bench-binary counterpart of the figure binaries' `--engine` flag:
/// when `cargo bench ... -- --engine=<name>` is passed, the end-to-end
/// simulation benches run only that engine's rung, so one engine can be
/// timed in isolation (the NoC-only benches are unaffected).  Only the
/// `=`-joined form is accepted here: with the space-separated form the
/// value would double as the criterion harness's positional benchmark
/// name *filter* (silently restricting the bench set to names containing
/// the engine's name), so that form is rejected loudly.  Parsing is the
/// shared [`dalorex_bench::cli::flag_value`], so flag syntax cannot
/// drift from the figure binaries'.
fn engine_flag() -> Option<Engine> {
    if std::env::args().any(|a| a == "--engine") {
        eprintln!(
            "use --engine=<name> with cargo bench: in `--engine <name>` the value would \
             also be taken as the positional benchmark-name filter"
        );
        std::process::exit(2);
    }
    let value = dalorex_bench::cli::flag_value("engine")?;
    match value.parse() {
        Ok(engine) => Some(engine),
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    }
}

/// Whether `engine`'s rung should run under the current `--engine=` filter.
fn engine_selected(engine: Engine) -> bool {
    engine_flag().is_none_or(|chosen| chosen == engine)
}

fn bench_rmat_generation(c: &mut Criterion) {
    c.bench_function("rmat_scale10_generation", |b| {
        b.iter(|| {
            let graph = RmatConfig::new(10, 8).seed(7).build().unwrap();
            black_box(graph.num_edges())
        })
    });
}

fn bench_csr_round_trip(c: &mut Criterion) {
    let edges = RmatConfig::new(10, 8).seed(7).build_edge_list().unwrap();
    c.bench_function("csr_from_edge_list_scale10", |b| {
        b.iter(|| black_box(CsrGraph::from_edge_list(&edges).num_edges()))
    });
}

fn bench_placement_mapping(c: &mut Criterion) {
    let placement = Placement::new(256, 1 << 20, 10 << 20, VertexPlacement::Interleaved);
    c.bench_function("placement_owner_and_local_1M_lookups", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in (0..(1 << 20)).step_by(17) {
                acc += placement.owner(ArraySpace::Vertex, i);
                acc += placement.to_local(ArraySpace::Edge, i);
            }
            black_box(acc)
        })
    });
}

fn bench_word_queue(c: &mut Criterion) {
    c.bench_function("word_queue_push_pop_4k", |b| {
        b.iter(|| {
            // Queues are storage-less ring descriptors over an arena slab;
            // the bench prices the descriptor arithmetic plus slab access.
            let mut slab = vec![0u32; 4096];
            let mut queue = WordQueue::new(0, 4096);
            for i in 0..1024u32 {
                queue.try_push(&mut slab, &[i, i + 1, i + 2]);
            }
            let mut acc = 0u32;
            while let Some(word) = queue.pop_word(&slab) {
                acc = acc.wrapping_add(word);
            }
            black_box(acc)
        })
    });
}

fn bench_noc_uniform_traffic(c: &mut Criterion) {
    c.bench_function("torus_8x8_uniform_traffic_drain", |b| {
        b.iter(|| {
            let mut net = Network::new(NocConfig::new(GridShape::new(8, 8), Topology::Torus));
            for src in 0..64usize {
                let dst = (src * 29 + 7) % 64;
                let _ = net.try_inject(src, Message::new(dst, 0, vec![src as u32, 1]));
            }
            let mut cycles = 0;
            while net.in_flight() > 0 && cycles < 10_000 {
                net.cycle();
                cycles += 1;
            }
            for tile in 0..64 {
                while net.pop_delivered(tile).is_some() {}
            }
            black_box(net.stats().delivered_messages)
        })
    });
}

/// One dense 64x64 wave: every tile sends three 2-flit messages (one of
/// them across the grid, as an engine-driven run's scattered traffic
/// does), the fabric drains, then the endpoints empty their ejection
/// buffers — deliveries pile up in the ejection buffers during the wave,
/// exactly the endpoint-bound regime the tile simulator produces.  `step`
/// selects the event-driven hot path or the pre-overhaul reference
/// implementation.
fn torus_64x64_wave(net: &mut Network, step: fn(&mut Network)) -> u64 {
    const N: usize = 64 * 64;
    for src in 0..N {
        for k in 1..4usize {
            let dst = (src * 13 + k * 977 + N / 2) % N;
            if dst != src {
                let _ = net.try_inject(src, Message::new(dst, k % 4, vec![src as u32, 1]));
            }
        }
    }
    let mut cycles = 0u64;
    while net.in_flight() > 0 {
        step(net);
        cycles += 1;
    }
    for tile in 0..N {
        while net.pop_delivered(tile).is_some() {}
    }
    cycles
}

/// The ISSUE-2 acceptance case: the event-driven `Network::cycle` must
/// sustain at least 2x the cycles/sec of the pre-overhaul scan
/// (`Network::cycle_reference`) on a dense 64x64 torus.  Compare the two
/// reported per-iteration times; both drain the identical wave, so time
/// per iteration is inversely proportional to cycles/sec.
fn bench_noc_cycle_64x64(c: &mut Criterion) {
    let shape = GridShape::new(64, 64);
    c.bench_function("torus_64x64_cycle_event_driven", |b| {
        let mut net = Network::new(NocConfig::new(shape, Topology::Torus));
        b.iter(|| black_box(torus_64x64_wave(&mut net, Network::cycle)))
    });
    c.bench_function("torus_64x64_cycle_reference_scan", |b| {
        let mut net = Network::new(NocConfig::new(shape, Topology::Torus));
        b.iter(|| black_box(torus_64x64_wave(&mut net, Network::cycle_reference)))
    });
}

/// One dense serialization-bound 64x64 wave for the cycle-skipping pair:
/// every tile sends three maximum-length (8-flit) messages, one of them
/// across the grid.  Long serialization makes most cycles forward nothing
/// — each link that moved a message sits busy for 8 cycles — which is
/// exactly the regime the skip-to-next-event drive loop
/// (`Network::advance_to`) jumps.
fn torus_64x64_serialization_wave(net: &mut Network) -> u64 {
    const N: usize = 64 * 64;
    const FLITS: usize = 8;
    for src in 0..N {
        for k in 1..4usize {
            let dst = (src * 13 + k * 977 + N / 2) % N;
            if dst != src {
                let _ = net.try_inject(src, Message::new(dst, k % 4, vec![src as u32; FLITS]));
            }
        }
    }
    while net.in_flight() > 0 {
        net.advance_to(net.next_event_cycle());
        net.cycle();
    }
    for tile in 0..N {
        while net.pop_delivered(tile).is_some() {}
    }
    net.current_cycle()
}

/// The skip-to-next-event drive loop on the fabric-bound dense 64x64
/// torus wave, where most cycles are provably quiet.
fn bench_noc_skip_64x64(c: &mut Criterion) {
    let shape = GridShape::new(64, 64);
    c.bench_function("sim_64x64_wave_skip", |b| {
        let mut net = Network::new(NocConfig::new(shape, Topology::Torus));
        b.iter(|| black_box(torus_64x64_serialization_wave(&mut net)))
    });
}

/// The due-only calendar walk on the dense convergecast waves at 64x64,
/// 128x128 and 256x256, where the per-cycle walk dominates: 65,536 routers
/// at the top rung, almost all of them active (holding backpressured
/// flits) for the whole drain, while the walk visits only the due ones.
/// The wave itself is the shared
/// [`dalorex_bench::waves::convergecast_wave`].
fn bench_noc_calendar_walk(c: &mut Criterion) {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    for (real_side, group_name) in [
        (64usize, "sim_64x64_wave_calendar"),
        (128, "sim_128x128_wave_calendar"),
        (256, "sim_256x256_wave_calendar"),
    ] {
        // Under plain `cargo test` the criterion shim smoke-runs each rung
        // once in the debug profile; the 128x128/256x256 waves take minutes
        // there, so shrink every group to an 8x8 smoke — the real
        // measurement only happens under `cargo bench`.  The 256x256 wave
        // runs ~1 minute per iteration even in release, so its rung takes
        // one sample instead of three.
        let side = if bench_mode { real_side } else { 8 };
        let mut group = c.benchmark_group(group_name);
        group.sample_size(if bench_mode && real_side >= 256 { 1 } else { 3 });
        group.bench_function("due_only", |b| {
            let mut net = dalorex_bench::waves::convergecast_net(side, RouterScheduler::Calendar);
            b.iter(|| black_box(dalorex_bench::waves::convergecast_wave(&mut net, side)))
        });
        group.finish();
    }
}

/// The ISSUE-3 acceptance case: end-to-end `Simulation::run` on a
/// tile-bound 64x64 SSSP sweep (RMAT scale 14, degree 8 — a few vertices
/// per tile, so the per-cycle TSU path, not the kernel bodies, dominates).
/// `Simulation::run` drives the allocation-free tile path (ring-buffer
/// queues, inline payloads, O(1) idle tracking, incremental scheduling,
/// parked-injection elision) under the skip-to-next-event engine, and
/// `Simulation::run_reference` the preserved pre-overhaul path ticking
/// every cycle.  Both produce cycle-exact identical outcomes (the
/// equivalence suite pins that), so per-iteration time is inversely
/// proportional to cycles/sec; the hot path must sustain at least 1.5x the
/// reference's throughput (measured ~2.7x when it was accepted).
fn bench_sim_tile_path_64x64(c: &mut Criterion) {
    // Under plain `cargo test` the criterion shim smoke-runs each bench
    // once in the debug profile (with debug assertions); the full 64x64
    // case takes minutes there, so shrink it to an 8x8 smoke — the real
    // measurement only happens under `cargo bench`.
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let (scale, side) = if bench_mode { (14, 64) } else { (10, 8) };
    let graph = RmatConfig::new(scale, 8).seed(11).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let mut group = c.benchmark_group("sim_64x64_sssp");
    group.sample_size(3);
    if engine_selected(Engine::Skip) {
        group.bench_function("tile_path_incremental", |b| {
            b.iter(|| black_box(sim.run(&SsspKernel::new(0)).unwrap().cycles))
        });
    }
    if engine_selected(Engine::Reference) {
        group.bench_function("tile_path_reference_scan", |b| {
            b.iter(|| black_box(sim.run_reference(&SsspKernel::new(0)).unwrap().cycles))
        });
    }
    group.finish();
}

/// The ISSUE-5 acceptance case: the calendar engine must sustain at least
/// 1.3x the end-to-end cycles/sec of the skip engine on the dense middle
/// of 64x64 SSSP — the regime where deliveries land nearly every cycle, so
/// whole-chip skipping barely helps (~1.07x over ticking) and the
/// full-network router scan dominates.  Both engines produce the identical
/// modelled schedule (the four-engine equivalence square pins that), so
/// per-iteration time is inversely proportional to cycles/sec; compare
/// `sim_64x64_sssp_dense/engine_calendar` against `.../engine_skip`.
fn bench_sim_calendar_64x64(c: &mut Criterion) {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let (scale, side) = if bench_mode { (14, 64) } else { (10, 8) };
    let graph = RmatConfig::new(scale, 8).seed(11).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let mut group = c.benchmark_group("sim_64x64_sssp_dense");
    group.sample_size(3);
    for engine in [Engine::Calendar, Engine::Skip] {
        if !engine_selected(engine) {
            continue;
        }
        group.bench_function(format!("engine_{}", engine.name()), |b| {
            b.iter(|| {
                black_box(
                    sim.run_with_engine(&SsspKernel::new(0), engine)
                        .unwrap()
                        .cycles,
                )
            })
        });
    }
    group.finish();
}

/// Dense 128x128 SSSP (RMAT scale 16, degree 8 — the same ~4
/// vertices/tile density as the 64x64 dense pair, scaled to 16,384 tiles):
/// the calendar engine against the skip engine where the network walk is
/// widest.  Both rungs model the identical schedule (the equivalence square
/// pins that), so per-iteration time is inversely proportional to
/// cycles/sec.
fn bench_sim_dense_128x128(c: &mut Criterion) {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    // The 128x128 setup (a scale-16 graph feeding a 16,384-tile simulator)
    // is heavy enough that a bench-mode name filter excluding this whole
    // group should skip it *before* construction — the criterion shim only
    // filters at `bench_function` granularity.  Mirror its filter rule
    // (first positional argument, bench mode only) against the rung names.
    if bench_mode {
        let filter = std::env::args()
            .skip(1)
            .find(|a| a != "--bench" && !a.starts_with('-'));
        if let Some(filter) = filter {
            let rungs = [
                "sim_128x128_sssp_dense/engine_calendar",
                "sim_128x128_sssp_dense/engine_skip",
            ];
            if !rungs.iter().any(|name| name.contains(&filter)) {
                return;
            }
        }
    }
    let (scale, side) = if bench_mode { (16, 128) } else { (10, 8) };
    let graph = RmatConfig::new(scale, 8).seed(11).build().unwrap();
    let config = SimConfigBuilder::new(GridConfig::square(side))
        .scratchpad_bytes(1 << 20)
        .build()
        .unwrap();
    let sim = Simulation::new(config, &graph).unwrap();
    let mut group = c.benchmark_group("sim_128x128_sssp_dense");
    group.sample_size(3);
    for engine in [Engine::Calendar, Engine::Skip] {
        if !engine_selected(engine) {
            continue;
        }
        group.bench_function(format!("engine_{}", engine.name()), |b| {
            b.iter(|| {
                black_box(
                    sim.run_with_engine(&SsspKernel::new(0), engine)
                        .unwrap()
                        .cycles,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rmat_generation,
    bench_csr_round_trip,
    bench_placement_mapping,
    bench_word_queue,
    bench_noc_uniform_traffic,
    bench_noc_cycle_64x64,
    bench_noc_skip_64x64,
    bench_noc_calendar_walk,
    bench_sim_tile_path_64x64,
    bench_sim_calendar_64x64,
    bench_sim_dense_128x128
);
criterion_main!(benches);
