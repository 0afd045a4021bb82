//! The repository benchmark: simulator speed, set-up cost and modelled
//! results of the Dalorex simulator, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-small|noc-wave> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in this process, one cell at a time on
//! one thread, under the library defaults (`SimConfig`'s default engine and
//! `NocConfig`'s default router scheduler; neither is pinned, so a change
//! of default shows up as a measured change). Inputs are generated from
//! `--seed` before anything is timed; the simulator receives only them.
//! Host times are reported adjusted to a fixed host speed by a probe run
//! between the timed intervals (see [`clock`]), and also raw.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run and writes
//! its spans as Chrome trace-event JSON to `perfbench/out/`. Every output
//! is checked: simulated kernels against `dalorex_graph::reference`, the
//! NoC wave against what was injected. The last line of standard output is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench/METRICS.md` says what each metric measures.

mod clock;
mod trace;

use clock::{Clock, Sample};
use dalorex_baseline::Workload;
use dalorex_graph::generators::rmat::RmatConfig;
use dalorex_graph::{reference, CsrGraph};
use dalorex_kernels::SpmvKernel;
use dalorex_noc::message::Message;
use dalorex_noc::network::Network;
use dalorex_noc::topology::{GridShape, Topology};
use dalorex_noc::{NocConfig, NocMemoryReport, NocStats};
use dalorex_sim::area::{AreaConstants, AreaModel};
use dalorex_sim::config::{BarrierMode, GridConfig, SimConfigBuilder};
use dalorex_sim::energy::{ActivityCounters, EnergyConstants, EnergyModel};
use dalorex_sim::verify::{verify_kernel, VerifyContext};
use dalorex_sim::{Kernel, SimOutcome, Simulation};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Per-tile scratchpad of every simulated configuration (the
/// `perf_snapshot` cells' value).
const SCRATCHPAD_BYTES: usize = 1 << 20;
/// `sweep-small`: the five kernels of `Workload::full_set()` x these grid
/// sides, on one RMAT graph of this scale and average degree.
const RMAT_SCALE: u32 = 12;
const RMAT_DEGREE: usize = 8;
const SIDES: [usize; 3] = [4, 8, 16];
/// Set-up is timed as the median of repeated in-process set-ups of the
/// identical inputs. Before each untraced repetition the set-up runs at
/// least `SETUP_BURST_MIN` times and for at least `SETUP_BURST_S` seconds,
/// so the samples spread over the whole run, like the host's slow spells.
const SETUP_BURST_MIN: usize = 3;
const SETUP_BURST_S: f64 = 0.25;
/// Fewest measured repetitions of a workload, however long each takes.
const MIN_REPS: usize = 3;
/// Most traced repetitions: enough for per-layer means, few enough that
/// the NoC wave's per-cycle spans stay a trace of a few MB.
const TRACED_MAX_REPS: usize = 2;
/// NoC wave: grid side, messages per tile and flits per message.
const WAVE_SIDE: usize = 32;
const WAVE_MESSAGES_PER_TILE: usize = 16;
const WAVE_FLITS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Bench {
    SweepSmall,
    NocWave,
}

impl Bench {
    fn parse(name: &str) -> Option<Bench> {
        match name {
            "sweep-small" => Some(Bench::SweepSmall),
            "noc-wave" => Some(Bench::NocWave),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bench::SweepSmall => "sweep-small",
            Bench::NocWave => "noc-wave",
        }
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => bench = Some(Bench::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

// ---------------------------------------------------------------- metrics

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Per-layer values set so far, by name (see [`PER_LAYER`]).
    layers: BTreeMap<String, f64>,
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; one that does not apply to the
/// workload reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("graph.generate_s", "s"),
    ("baseline.prepare_graph_s", "s"),
    ("sim.new_s", "s"),
    ("sim.verify_s", "s"),
    ("graph.reference_s", "s"),
    ("noc.new_s", "s"),
    ("noc.inject_s", "s"),
    ("noc.cycle_s", "s"),
    ("noc.pop_s", "s"),
    ("sim.run_s", "s"),
    ("sim.run_s.bfs", "s"),
    ("sim.run_s.wcc", "s"),
    ("sim.run_s.pagerank", "s"),
    ("sim.run_s.sssp", "s"),
    ("sim.run_s.spmv", "s"),
    ("sim.run_s.side4", "s"),
    ("sim.run_s.side8", "s"),
    ("sim.run_s.side16", "s"),
    ("sim.ns_per_task", "ns"),
    ("sim.task_invocations", "count"),
    ("sim.messages_sent", "count"),
    ("sim.edges_processed", "count"),
    ("sim.epochs", "count"),
    ("sim.pu_utilization", "ratio"),
    ("noc.walk_routers_visited", "count"),
    ("noc.walk_routers_scanned", "count"),
    ("noc.walks_elided", "count"),
    ("noc.walk_efficiency", "ratio"),
    ("noc.flit_hops", "count"),
    ("noc.delivered_messages", "count"),
    ("noc.injection_rejections", "count"),
    ("noc.avg_latency_cycles", "cycles"),
    ("noc.ns_per_router_visit", "ns"),
    ("sim.memory.modeled_bytes", "bytes"),
    ("sim.memory.materialized_tiles", "count"),
    ("sim.memory.calendar_bytes", "bytes"),
    ("sim.energy.logic_uj", "uJ"),
    ("sim.energy.memory_uj", "uJ"),
    ("sim.energy.network_uj", "uJ"),
    ("host.raw_wall_s", "s"),
    ("host.raw_setup_s", "s"),
    ("host.probe_s", "s"),
    ("trace.overhead_s", "s"),
];

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// Sets a per-layer metric; it must be listed in [`PER_LAYER`].
    fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Pushes every per-layer metric, 0 where none was set.
    fn push_layers(&mut self) {
        for (name, unit) in PER_LAYER {
            let value = self.layers.get(name).copied().unwrap_or(0.0);
            self.push(name, value, unit);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The typical time of one repetition, robust to host slow-downs that hit
/// only some repetitions: each repetition is split into the same segments
/// (cells, or blocks of NoC cycles), and the per-segment medians over the
/// repetitions are summed.
fn segment_median(reps: &[Vec<f64>]) -> f64 {
    let segments = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..segments)
        .map(|k| {
            median(
                &reps
                    .iter()
                    .filter_map(|r| r.get(k).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// What one measured phase of a run collected.
struct Phase<R> {
    setups: Vec<Sample>,
    /// Per repetition, the host time of each of its segments.
    segments: Vec<Vec<Sample>>,
    /// The first repetition's result. Each later one is compared with it
    /// as soon as it ends and then dropped, so the resident set does not
    /// grow with the number of repetitions that fit in the run.
    first: R,
    /// Units (cells, or waves) of the later repetitions, and how many of
    /// them did not repeat the first exactly.
    repeat_units: u64,
    repeat_failures: u64,
}

impl<R> Phase<R> {
    fn wall(&self, pick: fn(&Sample) -> f64) -> f64 {
        segment_median(
            &self
                .segments
                .iter()
                .map(|r| r.iter().map(pick).collect())
                .collect::<Vec<_>>(),
        )
    }

    /// Adjusted host seconds of one repetition (see [`clock`]).
    fn wall_s(&self) -> f64 {
        self.wall(|s| s.adjusted)
    }

    fn raw_wall_s(&self) -> f64 {
        self.wall(|s| s.raw)
    }

    fn setup_s(&self, pick: fn(&Sample) -> f64) -> f64 {
        median(&self.setups.iter().map(pick).collect::<Vec<_>>())
    }
}

/// Repeats `setup` and one repetition of the workload (`rep`, which
/// returns its segments' host time and its result) until `budget_s` is
/// spent, at least `min_reps` (at least 1) times. Untraced, each repetition
/// runs on the last of a burst of set-ups; traced, on a single set-up, and
/// at most `TRACED_MAX_REPS` times. `repeats` compares a later result with
/// the first and returns its units and how many of them differ.
fn measure<T, R>(
    clock: &mut Clock,
    tracer: &mut Tracer,
    budget_s: f64,
    min_reps: usize,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
    mut rep: impl FnMut(&mut T, &mut Clock, &mut Tracer) -> Result<(Vec<Sample>, R), String>,
    repeats: impl Fn(&R, &R) -> (u64, u64),
) -> Result<Phase<R>, String> {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut all_segments = Vec::new();
    let mut first = None;
    let (mut repeat_units, mut repeat_failures) = (0, 0);
    let mut walls = Vec::new();
    while another_fits(started, budget_s, &walls, min_reps)
        && !(tracer.enabled() && walls.len() >= TRACED_MAX_REPS)
    {
        let root = tracer.begin("rep", format!("repetition {}", walls.len()));
        let burst = Instant::now();
        let mut state = None;
        let mut count = 0;
        while state.is_none()
            || (!tracer.enabled()
                && (count < SETUP_BURST_MIN || burst.elapsed().as_secs_f64() < SETUP_BURST_S))
        {
            drop(state.take());
            let span = tracer.begin("setup", String::new());
            clock.start();
            state = Some(setup(tracer)?);
            tracer.end(span);
            setups.push(clock.lap());
            count += 1;
        }
        let (segments, result) = rep(state.as_mut().expect("set up above"), clock, tracer)?;
        tracer.end(root);
        walls.push(segments.iter().map(|s| s.raw).sum());
        all_segments.push(segments);
        match &first {
            None => first = Some(result),
            Some(anchor) => {
                let (units, failures) = repeats(anchor, &result);
                repeat_units += units;
                repeat_failures += failures;
            }
        }
    }
    Ok(Phase {
        setups,
        segments: all_segments,
        first: first.expect("min_reps is at least 1"),
        repeat_units,
        repeat_failures,
    })
}

/// Whether another repetition is due: fewer than `min_reps` ran, or one
/// more still fits in `seconds` from `started`, judged by the median so far.
fn another_fits(started: Instant, seconds: f64, walls: &[f64], min_reps: usize) -> bool {
    walls.len() < min_reps || started.elapsed().as_secs_f64() + median(walls) <= seconds
}

/// The host-time metrics of a traced run: the untraced phase's raw
/// times, the probe, and the tracing overhead (traced minus untraced);
/// then every per-layer metric is pushed.
fn finish_layers<R>(report: &mut Report, plain: &Phase<R>, traced: &Phase<R>, clock: &Clock) {
    report.set("host.raw_wall_s", plain.raw_wall_s());
    report.set("host.raw_setup_s", plain.setup_s(|s| s.raw));
    report.set("host.probe_s", median(clock.probes()));
    report.set("trace.overhead_s", traced.wall_s() - plain.wall_s());
    report.push_layers();
}

/// One line per run on standard error: the raw and adjusted times.
fn eprint_phase<R>(bench: Bench, phase: &Phase<R>, clock: &Clock) {
    let raw: Vec<f64> = phase
        .segments
        .iter()
        .map(|r| r.iter().map(|s| s.raw).sum())
        .collect();
    eprintln!(
        "{}: {} repetitions, raw wall {raw:.4?} s; wall {:.4} s adjusted, {:.4} s raw; probe median {:.6} s",
        bench.name(),
        raw.len(),
        phase.wall_s(),
        phase.raw_wall_s(),
        median(clock.probes()),
    );
}

/// The process's peak resident set (`VmHWM`), in MiB, less the host-speed
/// probe's buffers.
fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0);
    (kib * 1024.0 - clock::PROBE_BYTES as f64) / (1024.0 * 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The NoC counters every workload reports.
fn set_noc_counts(report: &mut Report, noc: &NocStats) {
    report.set("noc.walk_routers_visited", noc.walk_routers_visited as f64);
    report.set("noc.walk_routers_scanned", noc.walk_routers_scanned as f64);
    report.set("noc.walks_elided", noc.walks_elided as f64);
    report.set(
        "noc.walk_efficiency",
        ratio(
            noc.walk_routers_scanned as f64,
            noc.walk_routers_visited as f64,
        ),
    );
    report.set("noc.flit_hops", noc.flit_hops as f64);
    report.set("noc.delivered_messages", noc.delivered_messages as f64);
    report.set(
        "noc.injection_rejections",
        noc.total_injection_rejections() as f64,
    );
    report.set("noc.avg_latency_cycles", noc.average_latency());
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn push_end_to_end<R>(report: &mut Report, phase: &Phase<R>, cycles: u64, energy_j: f64) {
    let pass_ratio = ratio(
        (report.attempted - report.failed) as f64,
        report.attempted as f64,
    );
    let wall_s = phase.wall_s();
    report.push("wall_s", wall_s, "s");
    report.push("sim_cycles_per_s", ratio(cycles as f64, wall_s), "1/s");
    report.push("setup_s", phase.setup_s(|s| s.adjusted), "s");
    report.push("peak_rss_mb", peak_rss_mib(), "MiB");
    report.push("sim_cycles", cycles as f64, "cycles");
    report.push("sim_energy_uj", energy_j * 1e6, "uJ");
    report.push("pass_ratio", pass_ratio, "ratio");
}

// ------------------------------------------------- simulated graph kernels

struct Cell {
    kernel: usize,
    side: usize,
    sim: Simulation,
}

/// Everything a simulated workload builds before its first cycle.
struct SimSetup {
    prepared: Vec<CsrGraph>,
    kernels: Vec<Box<dyn Kernel>>,
    cells: Vec<Cell>,
}

fn setup_sim(seed: u64, tracer: &mut Tracer) -> Result<SimSetup, String> {
    let span = tracer.begin("graph.generate", format!("RMAT-{RMAT_SCALE}"));
    let graph = RmatConfig::new(RMAT_SCALE, RMAT_DEGREE)
        .seed(seed)
        .build()
        .map_err(|e| format!("RMAT generation failed: {e}"))?;
    tracer.end(span);
    let mut setup = SimSetup {
        prepared: Vec::new(),
        kernels: Vec::new(),
        cells: Vec::new(),
    };
    for (k, workload) in Workload::full_set().iter().enumerate() {
        let span = tracer.begin("baseline.prepare_graph", workload.name().to_string());
        let prepared = workload.prepare_graph(&graph);
        tracer.end(span);
        let kernel = workload.kernel();
        let span = tracer.begin("sim.verify", workload.name().to_string());
        let verdict = verify_kernel(kernel.as_ref(), &VerifyContext::paper_default());
        tracer.end(span);
        if verdict.has_errors() {
            return Err(format!("{} fails static verification", workload.name()));
        }
        let barrier = if workload.requires_barrier() {
            BarrierMode::EpochBarrier
        } else {
            BarrierMode::Barrierless
        };
        for side in SIDES {
            let config = SimConfigBuilder::new(GridConfig::square(side))
                .scratchpad_bytes(SCRATCHPAD_BYTES)
                .barrier_mode(barrier)
                .build()
                .map_err(|e| format!("config {side}x{side}: {e}"))?;
            let span = tracer.begin("sim.new", format!("{}/{side}x{side}", workload.name()));
            let sim = Simulation::new(config, &prepared)
                .map_err(|e| format!("{} on {side}x{side}: {e}", workload.name()))?;
            tracer.end(span);
            setup.cells.push(Cell {
                kernel: k,
                side,
                sim,
            });
        }
        setup.prepared.push(prepared);
        setup.kernels.push(kernel);
    }
    Ok(setup)
}

/// Runs every cell once, in order; its segments are the cells, and its
/// result each cell's outcome (`None` where the run failed).
fn run_sim_rep(
    setup: &SimSetup,
    clock: &mut Clock,
    tracer: &mut Tracer,
) -> (Vec<Sample>, Vec<Option<SimOutcome>>) {
    setup
        .cells
        .iter()
        .map(|cell| {
            let name = Workload::full_set()[cell.kernel].name();
            let span = tracer.begin("sim.run", format!("{name}/{}x{}", cell.side, cell.side));
            clock.start();
            let result = cell.sim.run(setup.kernels[cell.kernel].as_ref());
            tracer.end(span);
            let secs = clock.lap();
            let outcome = result
                .map_err(|e| eprintln!("{name}/{}x{}: {e}", cell.side, cell.side))
                .ok();
            (secs, outcome)
        })
        .unzip()
}

/// How many cells of `run` failed or did not repeat `anchor`'s cycles,
/// statistics and output exactly, out of how many.
fn sim_repeats(anchor: &[Option<SimOutcome>], run: &[Option<SimOutcome>]) -> (u64, u64) {
    let differ = run
        .iter()
        .zip(anchor)
        .enumerate()
        .filter(|(_, pair)| match pair {
            (Some(o), Some(a)) => {
                o.cycles != a.cycles || o.stats != a.stats || o.output != a.output
            }
            _ => true,
        })
        .inspect(|(i, _)| eprintln!("cell {i} did not repeat the first repetition"))
        .count();
    (run.len() as u64, differ as u64)
}

/// The reference output of a kernel on its prepared graph, widened to
/// `u64`, with the name of the kernel's output array.
fn reference_output(workload: Workload, graph: &CsrGraph) -> (&'static str, Vec<u64>) {
    let widen = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect();
    match workload {
        Workload::Bfs { root } => ("value", widen(reference::bfs(graph, root).depths())),
        Workload::Sssp { root } => ("value", widen(reference::sssp(graph, root).distances())),
        Workload::Wcc => ("value", widen(reference::wcc(graph).labels())),
        Workload::PageRank { epochs } => {
            ("rank", reference::pagerank(graph, epochs).ranks().to_vec())
        }
        Workload::Spmv => {
            let x = SpmvKernel::with_default_input().input_vector(graph.num_vertices());
            ("y", reference::spmv(graph, &x).values().to_vec())
        }
    }
}

fn sim_matches(outcome: &SimOutcome, expected: &(&'static str, Vec<u64>)) -> bool {
    outcome.output.get(expected.0).is_some_and(|got| {
        got.len() == expected.1.len()
            && got
                .iter()
                .zip(&expected.1)
                .all(|(&g, &e)| u64::from(g) == e)
    })
}

fn bench_sim(args: &Args, report: &mut Report) -> Result<(), String> {
    let bench = Bench::SweepSmall;
    let kernels = Workload::full_set();
    let seed = args.seed;
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let (budget_s, min_reps) = if args.trace {
        (args.seconds / 2.0, 1)
    } else {
        (args.seconds, MIN_REPS)
    };
    let mut clock = Clock::new();
    let mut phase = |tracer: &mut Tracer| {
        measure(
            &mut clock,
            tracer,
            budget_s,
            min_reps,
            |t| setup_sim(seed, t),
            |setup, c, t| Ok(run_sim_rep(setup, c, t)),
            |anchor, run| sim_repeats(anchor, run),
        )
    };
    let plain = phase(&mut untraced)?;
    let traced_phase = if args.trace {
        Some(phase(&mut traced)?)
    } else {
        None
    };
    eprint_phase(bench, &plain, &clock);

    // Correctness, outside every timed region: each cell of the first
    // repetition against the reference kernels; every later repetition,
    // traced ones too, was compared with the first as it ended.
    let inputs = setup_sim(seed, &mut untraced)?;
    let span = traced.begin("graph.reference", bench.name().to_string());
    let expected: Vec<_> = kernels
        .iter()
        .zip(&inputs.prepared)
        .map(|(&w, g)| reference_output(w, g))
        .collect();
    traced.end(span);
    let first = &plain.first;
    for (outcome, cell) in first.iter().zip(&inputs.cells) {
        report.attempted += 1;
        if !outcome
            .as_ref()
            .is_some_and(|o| sim_matches(o, &expected[cell.kernel]))
        {
            eprintln!(
                "wrong or failed: {}/{}x{}",
                kernels[cell.kernel].name(),
                cell.side,
                cell.side
            );
            report.failed += 1;
        }
    }
    report.attempted += plain.repeat_units;
    report.failed += plain.repeat_failures;
    if let Some(p) = &traced_phase {
        let (units, failures) = sim_repeats(first, &p.first);
        report.attempted += units + p.repeat_units;
        report.failed += failures + p.repeat_failures;
    }

    let outcomes: Vec<&SimOutcome> = first.iter().flatten().collect();
    let cycles: u64 = outcomes.iter().map(|o| o.cycles).sum();
    let energy_j: f64 = outcomes.iter().map(|o| o.total_energy_j()).sum();
    let Some(traced_phase) = traced_phase else {
        push_end_to_end(report, &plain, cycles, energy_j);
        return Ok(());
    };

    // Per-layer: self times per traced repetition, and exact counts.
    let reps = traced_phase.segments.len() as f64;
    let layer = |name: &str| traced.self_time_s(name) / reps;
    let run_s = layer("sim.run");
    let cell_secs = |keep: &dyn Fn(&Cell) -> bool| {
        traced_phase
            .segments
            .iter()
            .flat_map(|rep| rep.iter().zip(&inputs.cells))
            .filter(|(_, cell)| keep(cell))
            .map(|(secs, _)| secs.raw)
            .sum::<f64>()
            / reps
    };
    let invocations: u64 = outcomes.iter().map(|o| o.stats.total_invocations()).sum();
    for (metric, span) in [
        ("graph.generate_s", "graph.generate"),
        ("baseline.prepare_graph_s", "baseline.prepare_graph"),
        ("sim.new_s", "sim.new"),
        ("sim.verify_s", "sim.verify"),
    ] {
        report.set(metric, layer(span));
    }
    report.set("graph.reference_s", traced.self_time_s("graph.reference"));
    report.set("sim.run_s", run_s);
    for (k, workload) in kernels.iter().enumerate() {
        let name = workload.name().to_lowercase();
        report.set(format!("sim.run_s.{name}"), cell_secs(&|c| c.kernel == k));
    }
    for side in SIDES {
        report.set(
            format!("sim.run_s.side{side}"),
            cell_secs(&|c| c.side == side),
        );
    }
    report.set("sim.ns_per_task", ratio(run_s * 1e9, invocations as f64));
    report.set("sim.task_invocations", invocations as f64);
    let total = |f: &dyn Fn(&SimOutcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>() as f64;
    report.set("sim.messages_sent", total(&|o| o.stats.messages_sent));
    report.set("sim.edges_processed", total(&|o| o.stats.edges_processed));
    report.set("sim.epochs", total(&|o| o.stats.epochs));
    let busy: f64 = outcomes
        .iter()
        .map(|o| o.stats.mean_pu_utilization() * o.cycles as f64)
        .sum();
    report.set("sim.pu_utilization", ratio(busy, cycles as f64));
    let mut noc = NocStats::default();
    for s in outcomes.iter().map(|o| &o.stats.noc) {
        noc.walk_routers_visited += s.walk_routers_visited;
        noc.walk_routers_scanned += s.walk_routers_scanned;
        noc.walks_elided += s.walks_elided;
        noc.flit_hops += s.flit_hops;
        noc.delivered_messages += s.delivered_messages;
        noc.total_latency_cycles += s.total_latency_cycles;
        noc.injection_rejections_per_tile
            .push(s.total_injection_rejections());
    }
    set_noc_counts(report, &noc);
    let largest =
        |f: &dyn Fn(&SimOutcome) -> usize| outcomes.iter().map(|o| f(o)).max().unwrap_or(0) as f64;
    report.set(
        "sim.memory.modeled_bytes",
        largest(&|o| o.memory.modeled_total_bytes()),
    );
    report.set(
        "sim.memory.materialized_tiles",
        largest(&|o| o.memory.materialized_tiles),
    );
    report.set(
        "sim.memory.calendar_bytes",
        largest(&|o| o.memory.calendar_bytes),
    );
    let energy_uj =
        |f: &dyn Fn(&SimOutcome) -> f64| outcomes.iter().map(|o| f(o)).sum::<f64>() * 1e6;
    report.set("sim.energy.logic_uj", energy_uj(&|o| o.energy.logic_j()));
    report.set("sim.energy.memory_uj", energy_uj(&|o| o.energy.memory_j()));
    report.set(
        "sim.energy.network_uj",
        energy_uj(&|o| o.energy.network_j()),
    );
    finish_layers(report, &plain, &traced_phase, &clock);
    write_trace(bench, &traced)
}

// ------------------------------------------------------------ the NoC wave

/// The wave's inputs: two hotspot tiles half a torus apart in both
/// dimensions, and each tile's sixteen messages to them.
struct Wave {
    hotspots: [usize; 2],
    messages: Vec<(usize, Message)>,
}

/// SplitMix64: a fixed, dependency-free stream for the wave's inputs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The convergecast of `dalorex_bench::waves`, placed by the seed: the
/// first hotspot is a seeded tile, the second sits half the torus away in
/// both dimensions, and every payload word is seeded. On a torus every
/// placement is the same traffic up to translation.
fn make_wave(seed: u64) -> Wave {
    let side = WAVE_SIDE;
    let n = side * side;
    let mut state = seed;
    let first = (splitmix64(&mut state) % n as u64) as usize;
    let (x, y) = (first % side, first / side);
    let second = ((y + side / 2) % side) * side + (x + side / 2) % side;
    let hotspots = [first, second];
    let mut messages = Vec::with_capacity(n * WAVE_MESSAGES_PER_TILE);
    for src in 0..n {
        for k in 1..=WAVE_MESSAGES_PER_TILE {
            let dst = hotspots[(src + k) % 2];
            if dst != src {
                let mut payload = [0u32; WAVE_FLITS];
                for word in &mut payload {
                    *word = splitmix64(&mut state) as u32;
                }
                messages.push((src, Message::new(dst, k % 4, payload)));
            }
        }
    }
    Wave { hotspots, messages }
}

fn payload_sum(acc: u64, message: &Message) -> u64 {
    message
        .payload()
        .iter()
        .fold(acc, |acc, &w| acc.wrapping_add(u64::from(w)))
}

/// A fresh network with the wave injected, and what it accepted.
struct Injected {
    net: Network,
    accepted: u64,
    payload_sum: u64,
}

fn setup_wave(wave: &Wave, tracer: &mut Tracer) -> Injected {
    let span = tracer.begin("noc.new", format!("{WAVE_SIDE}x{WAVE_SIDE} torus"));
    let net = Network::new(NocConfig::new(
        GridShape::new(WAVE_SIDE, WAVE_SIDE),
        Topology::Torus,
    ));
    tracer.end(span);
    let mut injected = Injected {
        net,
        accepted: 0,
        payload_sum: 0,
    };
    let span = tracer.begin("noc.inject", format!("{} messages", wave.messages.len()));
    for (src, message) in &wave.messages {
        if injected.net.try_inject(*src, message.clone()).is_ok() {
            injected.accepted += 1;
            injected.payload_sum = payload_sum(injected.payload_sum, message);
        }
    }
    tracer.end(span);
    injected
}

/// NoC cycles per timed block of the drain (one segment of
/// [`segment_median`]).
const DRAIN_BLOCK_CYCLES: u64 = 2048;

/// What one drained wave left behind, for the correctness check.
struct Drained {
    cycles: u64,
    delivered: u64,
    payload_sum: u64,
    accepted: u64,
    accepted_sum: u64,
    in_flight: u64,
    stats: NocStats,
    memory: NocMemoryReport,
}

/// Cycles the network until nothing is in flight, the hotspots taking one
/// message each per cycle (the tiles' consumption pattern), then empties
/// every ejection buffer. Its segments are blocks of `DRAIN_BLOCK_CYCLES`
/// cycles; the last also holds the final emptying.
fn drain_wave(
    injected: &mut Injected,
    wave: &Wave,
    clock: &mut Clock,
    tracer: &mut Tracer,
) -> Result<(Vec<Sample>, Drained), String> {
    let net = &mut injected.net;
    let (mut cycles, mut delivered, mut sum) = (0u64, 0u64, 0u64);
    let mut blocks = Vec::new();
    let limit = 100 * (WAVE_SIDE * WAVE_SIDE) as u64 + 100_000;
    clock.start();
    while net.in_flight() > 0 {
        if cycles > 0 && cycles % DRAIN_BLOCK_CYCLES == 0 {
            blocks.push(clock.lap());
            clock.start();
        }
        let span = tracer.begin("noc.cycle", String::new());
        net.cycle();
        tracer.end(span);
        let span = tracer.begin("noc.pop", String::new());
        for &tile in &wave.hotspots {
            if let Some(m) = net.pop_delivered(tile) {
                delivered += 1;
                sum = payload_sum(sum, &m);
            }
        }
        tracer.end(span);
        cycles += 1;
        if cycles > limit {
            return Err(format!("wave failed to drain in {limit} cycles"));
        }
    }
    let span = tracer.begin("noc.pop", "final drain".to_string());
    for tile in 0..WAVE_SIDE * WAVE_SIDE {
        while let Some(m) = net.pop_delivered(tile) {
            delivered += 1;
            sum = payload_sum(sum, &m);
        }
    }
    tracer.end(span);
    blocks.push(clock.lap());
    let drained = Drained {
        cycles,
        delivered,
        payload_sum: sum,
        accepted: injected.accepted,
        accepted_sum: injected.payload_sum,
        in_flight: net.in_flight(),
        stats: net.stats().clone(),
        memory: net.memory_report(),
    };
    Ok((blocks, drained))
}

/// Whether every message injected was delivered intact and nothing stayed
/// in flight.
fn wave_drained(d: &Drained) -> bool {
    let ok = d.in_flight == 0
        && d.stats.injected_messages == d.accepted
        && d.stats.delivered_messages == d.accepted
        && d.delivered == d.accepted
        && d.payload_sum == d.accepted_sum;
    if !ok {
        eprintln!(
            "noc-wave: wrong drain ({} of {} delivered)",
            d.delivered, d.accepted
        );
    }
    ok
}

/// One wave, and whether it failed to drain or to repeat `anchor` exactly.
fn wave_repeats(anchor: &Drained, d: &Drained) -> (u64, u64) {
    let ok = wave_drained(d) && d.cycles == anchor.cycles && d.stats == anchor.stats;
    (1, u64::from(!ok))
}

fn bench_noc(args: &Args, report: &mut Report) -> Result<(), String> {
    let wave = make_wave(args.seed);
    let mut traced = Tracer::new(true);
    let (budget_s, min_reps) = if args.trace {
        (args.seconds / 2.0, 1)
    } else {
        (args.seconds, MIN_REPS)
    };
    let mut clock = Clock::new();
    let mut phase = |tracer: &mut Tracer| {
        measure(
            &mut clock,
            tracer,
            budget_s,
            min_reps,
            |t| Ok(setup_wave(&wave, t)),
            |injected, c, t| drain_wave(injected, &wave, c, t),
            wave_repeats,
        )
    };
    let plain = phase(&mut Tracer::new(false))?;
    let traced_phase = if args.trace {
        Some(phase(&mut traced)?)
    } else {
        None
    };
    eprint_phase(Bench::NocWave, &plain, &clock);

    // The first wave drained correctly; every later one, traced ones too,
    // drained correctly and repeated the first, checked as it ended.
    let first = &plain.first;
    report.attempted += 1 + plain.repeat_units;
    report.failed += u64::from(!wave_drained(first)) + plain.repeat_failures;
    if let Some(p) = &traced_phase {
        let (units, failures) = wave_repeats(first, &p.first);
        report.attempted += units + p.repeat_units;
        report.failed += failures + p.repeat_failures;
    }

    let tiles = WAVE_SIDE * WAVE_SIDE;
    let pitch_mm = AreaModel::new(
        AreaConstants::paper_7nm(),
        tiles,
        SCRATCHPAD_BYTES,
        Topology::Torus,
    )
    .tile_pitch_mm();
    let activity = ActivityCounters {
        cycles: first.cycles,
        noc_flit_hops: first.stats.flit_hops,
        noc_flit_mm: first.stats.flit_tile_spans * pitch_mm,
        ..ActivityCounters::default()
    };
    let energy_j = EnergyModel::new(EnergyConstants::paper_7nm(), tiles, SCRATCHPAD_BYTES)
        .breakdown(&activity)
        .network_j();
    let Some(traced_phase) = traced_phase else {
        push_end_to_end(report, &plain, first.cycles, energy_j);
        return Ok(());
    };

    let reps = traced_phase.segments.len() as f64;
    let layer = |name: &str| traced.self_time_s(name) / reps;
    for (metric, span) in [
        ("noc.new_s", "noc.new"),
        ("noc.inject_s", "noc.inject"),
        ("noc.cycle_s", "noc.cycle"),
        ("noc.pop_s", "noc.pop"),
    ] {
        report.set(metric, layer(span));
    }
    set_noc_counts(report, &first.stats);
    report.set(
        "noc.ns_per_router_visit",
        ratio(
            layer("noc.cycle") * 1e9,
            first.stats.walk_routers_visited as f64,
        ),
    );
    let memory = first.memory;
    report.set(
        "sim.memory.modeled_bytes",
        (memory.buffer_bytes + memory.calendar_bytes) as f64,
    );
    report.set("sim.memory.calendar_bytes", memory.calendar_bytes as f64);
    report.set("sim.energy.network_uj", energy_j * 1e6);
    finish_layers(report, &plain, &traced_phase, &clock);
    write_trace(Bench::NocWave, &traced)
}

/// Writes the traced run's spans to `perfbench/out/trace-<workload>.json`.
fn write_trace(bench: Bench, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", bench.name()));
    std::fs::write(&path, tracer.to_chrome_json(bench.name()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <sweep-small|noc-wave> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let result = match args.bench {
        Bench::NocWave => bench_noc(&args, &mut report),
        Bench::SweepSmall => bench_sim(&args, &mut report),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.bench.name());
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        eprintln!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
