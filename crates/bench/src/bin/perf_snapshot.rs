//! Engine performance snapshot: wall-clock cycles/sec for every cycle
//! engine on representative workloads, emitted as the repo's
//! `BENCH_<n>.json` series so engine-throughput regressions are visible
//! in review diffs.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin perf_snapshot -- \
//!     [--csv] [--json <path>] [--full]
//! ```
//!
//! Each row runs one (engine, workload) cell `REPS` times and reports the
//! best wall-clock (least-noise) repetition; `value` in the JSON is
//! modelled cycles per wall-clock second.  The modelled cycle counts are
//! engine-independent (the three-engine equivalence square pins that), so
//! cycles/sec comparisons across engines are exact throughput ratios —
//! and the binary *asserts* the equality per cell: any engine disagreeing
//! on the modelled cycle count aborts the snapshot, so a stale
//! `BENCH_<n>.json` can never paper over an equivalence break.
//!
//! Each row also carries the run's modeled memory footprint
//! (`modeled_bytes`, from the per-subsystem memory report) next to the
//! process's peak resident set (`peak_rss`, the `VmHWM` high-water mark on
//! Linux, absent elsewhere): the first is the memory the simulated machine
//! would need, the second is what the simulator itself costs — the pair
//! catches host-footprint regressions that the modeled numbers cannot see.
//!
//! Two workloads run by default: a light 32x32 SSSP (all three engines,
//! including the reference oracle) and the dense 64x64 SSSP middle (the
//! `skip` and `calendar` engines only — the reference takes minutes there
//! and its ratio is already covered by the light cell).  `--full` adds the
//! 128x128 dense grid from the `sim_128x128_sssp_dense` microbench pair.
//!
//! The snapshot ends with the *zero-fault-overhead rung*: the light cell
//! under an armed-but-never-firing fault plan (windows parked far beyond
//! the run's horizon) against the empty-plan hot path.  The two must model
//! the identical cycle count — armed-idle plans are schedule-invisible,
//! asserted here where the numbers are published.  The two plans are
//! timed in interleaved pairs (ABBA order, [`FAULT_PAIRS`] pairs), and
//! the median of the per-pair wall-clock ratios is emitted as the
//! `fault-overhead` row (target <= 1.02; a median above 1.25 aborts the
//! snapshot).  Pairing and the median keep host drift, which moves both
//! halves of a pair alike, out of the ratio.
use dalorex_bench::cli::FigureCli;
use dalorex_bench::report::{Measurement, MemoryColumns, Table, WalkColumns};
use dalorex_graph::generators::rmat::RmatConfig;
use dalorex_graph::CsrGraph;
use dalorex_kernels::SsspKernel;
use dalorex_sim::config::{Engine, GridConfig, SimConfigBuilder};
use dalorex_sim::{FaultPlan, Simulation};
use std::time::Instant;

/// Repetitions per cell; the fastest is reported.
const REPS: usize = 2;

/// Engines timed on every workload (event-path engines).
const EVENT_ENGINES: [Engine; 2] = [Engine::Skip, Engine::Calendar];

/// Interleaved (empty, armed) pairs the fault-overhead rung times.
const FAULT_PAIRS: usize = 8;

struct Cell {
    dataset: String,
    side: usize,
    graph: CsrGraph,
    engines: Vec<Engine>,
}

/// The process's peak resident-set size in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, `None` where that file does not exist.
/// The high-water mark is process-wide, so across a snapshot's rows it
/// only ever grows — the last row of a dataset bounds the simulator's own
/// footprint for every engine on that dataset.
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    let cli = FigureCli::parse();
    let full = std::env::args().any(|a| a == "--full");

    let mut cells = vec![
        Cell {
            dataset: "RMAT-12".to_string(),
            side: 32,
            graph: RmatConfig::new(12, 8).seed(11).build().unwrap(),
            engines: std::iter::once(Engine::Reference)
                .chain(EVENT_ENGINES)
                .collect(),
        },
        Cell {
            dataset: "RMAT-14".to_string(),
            side: 64,
            graph: RmatConfig::new(14, 8).seed(11).build().unwrap(),
            engines: EVENT_ENGINES.to_vec(),
        },
    ];
    if full {
        cells.push(Cell {
            dataset: "RMAT-16".to_string(),
            side: 128,
            graph: RmatConfig::new(16, 8).seed(11).build().unwrap(),
            engines: EVENT_ENGINES.to_vec(),
        });
    }

    let mut table = Table::new(vec![
        "workload",
        "dataset",
        "tiles",
        "engine",
        "cycles",
        "best wall (s)",
        "cycles/sec",
        "modeled-bytes",
        "peak-rss",
    ]);
    let mut measurements = Vec::new();

    for cell in &cells {
        let config = SimConfigBuilder::new(GridConfig::square(cell.side))
            .scratchpad_bytes(1 << 20)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &cell.graph).unwrap();
        // The first engine's modelled cycle count anchors the per-cell
        // equivalence assertion below.
        let mut cell_cycles: Option<u64> = None;
        for &engine in &cell.engines {
            let mut cycles = 0;
            let mut energy_j = 0.0;
            let mut rejections = 0;
            let mut modeled_bytes = 0;
            let mut memory = None;
            let mut walk = None;
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let started = Instant::now();
                let outcome = sim.run_with_engine(&SsspKernel::new(0), engine).unwrap();
                best = best.min(started.elapsed().as_secs_f64());
                cycles = outcome.cycles;
                energy_j = outcome.total_energy_j();
                rejections = outcome.stats.noc.total_injection_rejections();
                modeled_bytes = outcome.memory.modeled_total_bytes();
                memory = Some(MemoryColumns::from_report(&outcome.memory));
                walk = Some(WalkColumns::from_stats(&outcome.stats.noc));
            }
            // The equivalence square's guarantee, enforced where the
            // numbers are published: every engine models the same cycle
            // count, or the snapshot dies instead of writing BENCH_<n>.json.
            let anchor = *cell_cycles.get_or_insert(cycles);
            assert_eq!(
                cycles, anchor,
                "{}: engine {engine} modelled {cycles} cycles but {} modelled {anchor} — \
                 the engines have diverged; fix the equivalence break before snapshotting",
                cell.dataset, cell.engines[0]
            );
            let peak_rss = peak_rss_bytes();
            let throughput = cycles as f64 / best;
            table.push_row(vec![
                "SSSP".to_string(),
                cell.dataset.clone(),
                (cell.side * cell.side).to_string(),
                engine.to_string(),
                cycles.to_string(),
                format!("{best:.3}"),
                format!("{throughput:.3e}"),
                modeled_bytes.to_string(),
                peak_rss.map_or_else(|| "-".to_string(), |b| b.to_string()),
            ]);
            measurements.push(Measurement {
                experiment: "engine-throughput".to_string(),
                workload: "SSSP".to_string(),
                dataset: cell.dataset.clone(),
                configuration: format!("{} tiles, engine {engine}", cell.side * cell.side),
                cycles,
                energy_j,
                value: throughput,
                endpoint_drains: 1,
                rejected_injections: rejections,
                memory,
                peak_rss_bytes: peak_rss,
                walk,
            });
        }
    }

    fault_overhead_rung(&mut measurements);

    table.print(
        "Engine throughput snapshot (modelled cycles per wall-clock second)",
        cli.csv,
    );
    cli.write_json_if_requested(&measurements);
    cli.report_wall_clock();
}

/// The zero-fault-overhead rung: the light cell under an armed-but-idle
/// fault plan (one window of every kind, all parked billions of cycles
/// past the run) against the empty-plan hot path, on the skip engine.
/// Asserts the armed-idle plan is schedule-invisible and that the
/// fault-state checks cost at most 25% wall-clock (the target is 2%; the
/// hard cap only exists to survive noisy CI hosts without letting a real
/// regression through).
///
/// The plans are timed in [`FAULT_PAIRS`] interleaved pairs, the order
/// alternating ABBA so neither plan always runs first, and the gate reads
/// the median of the per-pair ratios.  Both halves of a pair run seconds
/// apart, so host drift mostly cancels inside the pair, and the median
/// discards the pairs a burst of host load lands on.
fn fault_overhead_rung(measurements: &mut Vec<Measurement>) {
    let graph = RmatConfig::new(12, 8).seed(11).build().unwrap();
    let armed: FaultPlan = "link:tile=5,start=4000000000,end=4000000100;\
                            stall:tile=9,start=4000000000,end=4000000100;\
                            slow:tile=3,factor=4,start=4000000000,end=4000000100;\
                            throttle:tile=7,budget=1,start=4000000000,end=4000000100"
        .parse()
        .unwrap();
    let sim = |plan: FaultPlan| {
        let config = SimConfigBuilder::new(GridConfig::square(32))
            .scratchpad_bytes(1 << 20)
            .faults(plan)
            .build()
            .unwrap();
        Simulation::new(config, &graph).unwrap()
    };
    let sims = [sim(FaultPlan::empty()), sim(armed)];
    let time = |sim: &Simulation| {
        let started = Instant::now();
        let outcome = sim
            .run_with_engine(&SsspKernel::new(0), Engine::Skip)
            .unwrap();
        (outcome.cycles, started.elapsed().as_secs_f64())
    };
    let mut ratios = Vec::with_capacity(FAULT_PAIRS);
    let mut empty_cycles = 0;
    for pair in 0..FAULT_PAIRS {
        // ABBA: even pairs run the empty plan first, odd pairs the armed.
        let (empty, armed) = if pair % 2 == 0 {
            let empty = time(&sims[0]);
            (empty, time(&sims[1]))
        } else {
            let armed = time(&sims[1]);
            (time(&sims[0]), armed)
        };
        assert_eq!(
            armed.0, empty.0,
            "an armed-but-idle fault plan moved the schedule ({} vs {} cycles) — \
             armed-idle plans must be schedule-invisible",
            armed.0, empty.0
        );
        empty_cycles = empty.0;
        ratios.push(armed.1 / empty.1);
    }
    // FAULT_PAIRS is even (whole ABBA blocks): the median is the mean of
    // the two middle ratios.
    ratios.sort_by(f64::total_cmp);
    let ratio = (ratios[FAULT_PAIRS / 2 - 1] + ratios[FAULT_PAIRS / 2]) / 2.0;
    eprintln!(
        "zero-fault overhead (armed-idle / empty plan, skip engine): median {ratio:.3} over \
         {FAULT_PAIRS} interleaved pairs, range {:.3}-{:.3} (target <= 1.02, hard cap 1.25)",
        ratios[0],
        ratios[FAULT_PAIRS - 1]
    );
    assert!(
        ratio <= 1.25,
        "armed-idle fault checks cost a median {ratio:.3}x wall-clock on the empty-plan hot \
         path — fix the fast path before snapshotting"
    );
    measurements.push(Measurement {
        experiment: "fault-overhead".to_string(),
        workload: "SSSP".to_string(),
        dataset: "RMAT-12".to_string(),
        configuration: "armed-idle vs empty plan, 1024 tiles, engine skip".to_string(),
        cycles: empty_cycles,
        energy_j: 0.0,
        value: ratio,
        endpoint_drains: 1,
        rejected_injections: 0,
        memory: None,
        peak_rss_bytes: peak_rss_bytes(),
        walk: None,
    });
}
