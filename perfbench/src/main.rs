//! `perfbench`: the wallclock benchmark of `dmst_core::run_mst`, end to end
//! and layer by layer.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out PATH] [--smoke]
//! ```
//!
//! One process runs one workload, so its peak RSS belongs to that workload.
//! With `--trace 0` it times untraced solves and prints the end-to-end
//! metrics. With `--trace 1` it records spans around the calls into each
//! crate on the `run_mst` path (see [`trace`]), runs the executor probes
//! (see [`probes`]) and prints the per-layer metrics. Every solve is checked
//! against `mst::kruskal`, against the counts of the first solve (so shard
//! counts must agree), and on the default seed against the pinned counts.
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod probes;
mod trace;
mod yardstick;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use congest_sim::{Network, Topology};
use dmst_core::{run_forest, run_mst, ElkinConfig, ElkinNode, MstRun, RunError};
use dmst_graphs::{analysis, generators as gen, mst, EdgeId, WeightedGraph};

use probes::Probe;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <random_16384|cliquepath_16384|random_16384_k8> \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--smoke]";

/// Executor shards of the sharded solves and probes. Every workload runs
/// with at most two executor threads.
const SHARDS: u32 = 2;

/// Set-ups timed before each timed solve, so the set-up samples span the
/// whole run.
const SETUPS_PER_SOLVE: usize = 2;

/// The 14 wire tags of `ElkinNode`, reported as `core.msgs.<tag>` with `:`
/// written as `_`.
const TAGS: [&str; 14] = [
    "a:bfs",
    "b:announce",
    "b:color",
    "b:connect",
    "b:match",
    "b:merge",
    "b:mwoe",
    "b:sync",
    "c:intervals",
    "d:announce",
    "d:downcast",
    "d:fragmwoe",
    "d:newcoarse",
    "d:upcast",
];

/// `(rounds, messages, wire_words)` of one solve.
type Counts = (u64, u64, u64);

#[derive(Clone, Copy)]
enum Family {
    /// `random_connected(n, 2n)`: low diameter, busy rounds.
    Random,
    /// `path_of_cliques(n / 8, 8)`: diameter ~n/4, mostly idle rounds.
    CliquePath,
}

/// One benchmark workload.
struct Workload {
    name: &'static str,
    family: Family,
    /// Generator seed when `--seed` is 0.
    default_seed: u64,
    /// Pinned base-forest parameter, or `None` for the algorithm's choice.
    k: Option<u64>,
    /// Counts at the default seed and full size.
    pins: Counts,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "random_16384",
        family: Family::Random,
        default_seed: 0x5CA1E,
        k: None,
        pins: (5740, 3_312_325, 5_064_691),
    },
    Workload {
        name: "cliquepath_16384",
        family: Family::CliquePath,
        default_seed: 0x51,
        k: None,
        pins: (56245, 4_179_705, 8_505_129),
    },
    Workload {
        name: "random_16384_k8",
        family: Family::Random,
        default_seed: 0x5CA1E,
        k: Some(8),
        pins: (1160, 1_863_536, 3_280_062),
    },
];

impl Workload {
    /// The workload's graph; `smoke` shrinks it to n = 1024.
    fn generate(&self, seed: u64, smoke: bool) -> WeightedGraph {
        let rng = &mut gen::WeightRng::new(seed);
        let n = if smoke { 1024 } else { 16_384 };
        match self.family {
            Family::Random => gen::random_connected(n, 2 * n, rng),
            Family::CliquePath => gen::path_of_cliques(n / 8, 8, rng),
        }
    }

    fn config(&self, shards: u32) -> ElkinConfig {
        let base = self.k.map_or_else(ElkinConfig::default, ElkinConfig::with_k);
        ElkinConfig { shards, ..base }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: &WORKLOADS[0],
            seed: 0,
            seconds: 10.0,
            trace: false,
            trace_out: None,
            smoke: false,
        };
        let mut named = false;
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    args.workload = WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?;
                    named = true;
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--trace-out" => args.trace_out = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !named {
            return Err("--workload is required".into());
        }
        if !(args.seconds.is_finite() && args.seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
        Ok(args)
    }
}

/// Counts attempted and failed operations; prints every failure.
struct Checker {
    oracle: Vec<EdgeId>,
    pins: Option<Counts>,
    reference: Option<Counts>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, label: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(why) = &outcome {
            self.failed += 1;
            eprintln!("FAIL {label}: {why}");
        }
        outcome.is_ok()
    }

    /// Checks one solve: the MST, then its counts against the pins and
    /// against the first solve. Returns the run if it passed.
    fn solve(&mut self, label: &str, res: Result<MstRun, RunError>) -> Option<MstRun> {
        let outcome = match &res {
            Err(e) => Err(format!("RunError: {e}")),
            Ok(run) if run.edges != self.oracle => Err("MST differs from mst::kruskal".into()),
            Ok(run) => {
                let counts = (run.stats.rounds, run.stats.messages, run.stats.wire_words);
                let reference = *self.reference.get_or_insert(counts);
                match self.pins {
                    Some(pin) if counts != pin => {
                        Err(format!("counts {counts:?} differ from the pinned {pin:?}"))
                    }
                    _ if counts != reference => Err(format!(
                        "counts {counts:?} differ from the first solve's {reference:?}"
                    )),
                    _ => Ok(()),
                }
            }
        };
        if self.check(label, outcome) {
            res.ok()
        } else {
            None
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Human-readable provenance: sample count, spread, definition.
    note: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric { name: name.into(), value, unit, note: note.into() }
}

/// A timing metric: the median of `samples`, noted with their count,
/// range and, once there are enough, the highest percentile that has ten
/// samples beyond it.
fn timing(name: &str, samples: &[f64]) -> Metric {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let mut note = match (s.first(), s.last()) {
        (Some(lo), Some(hi)) => format!("median of {n} (min {lo:.4}, max {hi:.4})"),
        _ => "no samples".to_string(),
    };
    if n >= 20 {
        note += &format!(", p{} {:.4}", 100 * (n - 10) / n, s[n - 11]);
    }
    metric(name, median(&s), "s", note)
}

/// A timing reported at nominal machine speed: the median of `samples`
/// times `scale` (see [`yardstick`]).
fn nominal(name: &str, samples: &[f64], scale: f64) -> Metric {
    let mut m = timing(name, samples);
    m.note = format!("raw {:.4} s, {}, x {scale:.4} to nominal speed", m.value, m.note);
    m.value *= scale;
    m
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Everything paid before round 0: the generator call, the CSR build and
/// node construction with the `ElkinNode` factory.
fn setup(
    w: &Workload,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
) -> (WeightedGraph, Network<ElkinNode>) {
    let g = tr.span("graphs.generate", 0, |_| w.generate(seed, smoke));
    let topo = tr.span("congest.topology", 0, |_| {
        Topology::new(g.num_nodes(), g.edges()).expect("generated graphs are valid topologies")
    });
    let cfg = w.config(1);
    let net =
        tr.span("congest.network_new", 0, |_| Network::new(topo, |info| ElkinNode::new(info, cfg)));
    (g, net)
}

/// Repeats `body` at least once and until the next repetition would
/// likely pass `deadline`.
fn repeat_until(deadline: Instant, mut body: impl FnMut()) {
    loop {
        let (_, dt) = timed(&mut body);
        if Instant::now() + Duration::from_secs_f64(dt) > deadline {
            return;
        }
    }
}

/// The untraced run: set-up and solve times at nominal machine speed,
/// counts and memory.
fn end_to_end(
    w: &Workload,
    seed: u64,
    args: &Args,
    g: &WeightedGraph,
    chk: &mut Checker,
) -> Vec<Metric> {
    // One untimed solve first, at SHARDS shards: first calls run up to 2x
    // slower, and every timed sequential solve must match its counts. The
    // peak RSS is read right after it, before the reference kernel's
    // buffers count towards it.
    let first = chk.solve(&format!("warm-up solve shards={SHARDS}"), run_mst(g, &w.config(SHARDS)));
    let peak_rss_mib = peak_rss_mib().unwrap_or(f64::NAN);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);

    // Set-ups and the reference kernel are interleaved with the solves so
    // all see the same machine load. The loop stops once the next solve,
    // predicted to take as long as the last, would likely end after the
    // deadline.
    let cfg = w.config(1);
    let (mut solve, mut setup_s, mut kernel) = (Vec::new(), Vec::new(), Vec::new());
    let mut off = Tracer::off();
    while solve.last().is_none_or(|&dt| Instant::now() + Duration::from_secs_f64(dt) <= deadline) {
        kernel.push(yardstick::kernel_s());
        for _ in 0..SETUPS_PER_SOLVE {
            let (built, dt) = timed(|| setup(w, seed, args.smoke, &mut off));
            drop(built);
            setup_s.push(dt);
        }
        let (res, dt) = timed(|| run_mst(g, &cfg));
        solve.push(dt);
        chk.solve("solve shards=1", res);
    }

    let (rounds, messages, wire_words) = first.map_or((f64::NAN, f64::NAN, f64::NAN), |r| {
        (r.stats.rounds as f64, r.stats.messages as f64, r.stats.wire_words as f64)
    });
    let scale = yardstick::NOMINAL_S / median(&kernel);
    println!("reference kernel: median {:.4} s of {}", median(&kernel), kernel.len());
    vec![
        nominal("solve_s", &solve, scale),
        nominal("setup_s", &setup_s, scale),
        metric("messages", messages, "count", format!("RunStats.messages, in {rounds} rounds")),
        metric("wire_words", wire_words, "count", "RunStats.wire_words"),
        metric("peak_rss_mib", peak_rss_mib, "MiB", "VmHWM after generation, oracle and one solve"),
    ]
}

/// Probe lengths: relay rounds, and ping hops at 1 and at [`SHARDS`]
/// shards (a sharded round costs ~100x an idle sequential one).
fn probe_plan(smoke: bool) -> [(&'static str, Probe, u32); 4] {
    let (relay, ping1, ping2) = if smoke { (3, 2_000, 200) } else { (20, 200_000, 4_000) };
    [
        ("congest.relay", Probe::Relay(relay), 1),
        ("congest.relay", Probe::Relay(relay), SHARDS),
        ("congest.ping", Probe::Ping(ping1), 1),
        ("congest.ping", Probe::Ping(ping2), SHARDS),
    ]
}

/// The traced run: spans around each layer's calls, the executor probes,
/// and the per-layer metrics derived from them.
fn per_layer(
    w: &Workload,
    seed: u64,
    args: &Args,
    g: &WeightedGraph,
    chk: &mut Checker,
) -> Vec<Metric> {
    let (cfg1, cfg2) = (w.config(1), w.config(SHARDS));
    let Some(run) = chk.solve("warm-up solve", run_mst(g, &cfg1)) else {
        return Vec::new();
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let plan = probe_plan(args.smoke);
    let m = g.num_edges() as u64;

    let mut tr = Tracer::on();
    let mut untraced = Vec::new();
    repeat_until(deadline, || {
        drop(tr.span("setup", 0, |tr| setup(w, seed, args.smoke, tr)));
        let (res, dt) = timed(|| run_mst(g, &cfg1));
        untraced.push(dt);
        chk.solve("untraced solve shards=1", res);
        let res = tr.span("core.run_mst", 1, |_| run_mst(g, &cfg1));
        chk.solve("solve shards=1", res);
        let res = tr.span("core.run_mst", SHARDS, |_| run_mst(g, &cfg2));
        chk.solve(&format!("solve shards={SHARDS}"), res);
        let res = tr.span("core.run_forest", 1, |_| run_forest(g, &cfg1));
        chk.check("run_forest", res.map(drop).map_err(|e| format!("RunError: {e}")));
        for (name, probe, shards) in plan {
            let topo = Topology::new(g.num_nodes(), g.edges())
                .expect("generated graphs are valid topologies");
            let mut net = probe.network(topo);
            let res = tr.span(name, shards, |_| net.run(shards));
            let outcome = match res {
                Ok(s) if (s.rounds, s.messages) == probe.expected(m) => Ok(()),
                Ok(s) => Err(format!(
                    "{:?} expected, got ({}, {})",
                    probe.expected(m),
                    s.rounds,
                    s.messages
                )),
                Err(e) => Err(format!("SimError: {e}")),
            };
            chk.check(&format!("{name} shards={shards}"), outcome);
        }
    });

    if let Some(path) = &args.trace_out {
        let written =
            std::fs::write(path, tr.to_jsonl()).map_err(|e| format!("writing {path}: {e}"));
        chk.check("trace output", written);
    }

    let med = |name: &str, shards: u32| median(&tr.durations(name, shards));
    let per = |name: &str, shards: u32| {
        let (_, probe, _) =
            plan.iter().find(|(n, _, s)| *n == name && *s == shards).expect("planned probe");
        let (rounds, messages) = probe.expected(m);
        let denom = if matches!(probe, Probe::Relay(_)) { messages } else { rounds };
        med(name, shards) * 1e9 / denom as f64
    };
    let n = g.num_nodes() as f64;
    let stats = &run.stats;
    let (rounds, messages) = (stats.rounds as f64, stats.messages as f64);
    let (solve1, solve2, forest) =
        (med("core.run_mst", 1), med("core.run_mst", SHARDS), med("core.run_forest", 1));
    let (relay_ns, ping1_ns, ping2_ns) =
        (per("congest.relay", 1), per("congest.ping", 1), per("congest.ping", SHARDS));
    let diameter = analysis::diameter_double_sweep(g) as u64;
    let round_bound =
        dmst_bench::round_bound(g.num_nodes() as u64, diameter, u64::from(cfg1.bandwidth));
    let message_bound = dmst_bench::message_bound(g.num_nodes() as u64, m);

    let mut out = vec![
        metric("core.rounds", rounds, "count", "RunStats.rounds"),
        timing("graphs.generate_s", &tr.durations("graphs.generate", 0)),
        timing("congest.topology_s", &tr.durations("congest.topology", 0)),
        timing("congest.network_new_s", &tr.durations("congest.network_new", 0)),
        metric(
            "congest.ns_per_node_round",
            solve1 * 1e9 / (rounds * n),
            "ns",
            "solve_s / (rounds * n)",
        ),
        metric("congest.relay_ns_per_msg", relay_ns, "ns", "relay probe, 1 shard"),
        metric(
            "congest.msg_path_share",
            relay_ns * messages / (solve1 * 1e9),
            "ratio",
            "relay_ns_per_msg * messages / solve_s",
        ),
        metric("congest.idle_round_ns", ping1_ns, "ns", "ping probe, 1 shard"),
        metric(
            "parallel.speedup",
            solve1 / solve2,
            "ratio",
            format!("solve_s / solve_s at {SHARDS} shards"),
        ),
        metric(
            "parallel.relay_speedup",
            med("congest.relay", 1) / med("congest.relay", SHARDS),
            "ratio",
            format!("relay probe, 1 vs {SHARDS} shards"),
        ),
        metric("parallel.round_sync_ns", ping2_ns, "ns", format!("ping probe, {SHARDS} shards")),
        metric(
            "parallel.sync_share",
            ping2_ns * rounds / (solve2 * 1e9),
            "ratio",
            "round_sync_ns * rounds / solve_s_sharded",
        ),
    ];
    for stage in ["a", "b", "c", "d"] {
        out.push(metric(
            format!("core.rounds.{stage}"),
            stats.rounds_in_stage(stage) as f64,
            "count",
            "rounds_by_stage",
        ));
    }
    out.extend([
        timing("core.forest_s", &tr.durations("core.run_forest", 1)),
        metric("core.cd_s", solve1 - forest, "s", "solve_s - forest_s"),
        metric("core.k", run.k as f64, "count", "base-forest parameter"),
        metric(
            "core.rounds_over_bound",
            rounds / round_bound,
            "ratio",
            format!("bound (D + sqrt n) log n, D >= {diameter}"),
        ),
        metric(
            "core.messages_over_bound",
            messages / message_bound,
            "ratio",
            "bound m log n + n log n log* n",
        ),
    ]);
    for tag in TAGS {
        out.push(metric(
            format!("core.msgs.{}", tag.replace(':', "_")),
            stats.messages_with_tag(tag) as f64,
            "count",
            "by_tag",
        ));
    }
    for tag in stats.by_tag.keys().filter(|t| !TAGS.contains(t)) {
        println!("note: unreported wire tag {tag}: {} messages", stats.messages_with_tag(tag));
    }
    out.push(metric(
        "trace.overhead_s",
        solve1 - median(&untraced),
        "s",
        format!("traced minus untraced solve_s ({:.4} s untraced)", median(&untraced)),
    ));
    out
}

fn report(chk: &Checker, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let fail_share = chk.failed as f64 / chk.attempted.max(1) as f64;
    println!(
        "{:<28} {:>16.6} {:<6} {} failed of {} attempted",
        "fail_share", fail_share, "ratio", chk.failed, chk.attempted
    );
    let correct =
        chk.failed == 0 && !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        chk.attempted.max(1),
        chk.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    // `--seed` offsets the workload's own seed; 0 is the pinned input.
    let seed = w.default_seed.wrapping_add(args.seed);
    let g = w.generate(seed, args.smoke);
    let pins = (args.seed == 0 && !args.smoke).then_some(w.pins);
    let mut chk =
        Checker { oracle: mst::kruskal(&g).edges, pins, reference: None, attempted: 0, failed: 0 };
    println!(
        "workload {} seed {seed:#x}: n = {}, m = {}, {} s, trace {}, available parallelism {}",
        w.name,
        g.num_nodes(),
        g.num_edges(),
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let metrics = if args.trace {
        per_layer(w, seed, &args, &g, &mut chk)
    } else {
        end_to_end(w, seed, &args, &g, &mut chk)
    };
    report(&chk, &metrics);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = timing("x", &samples);
        assert_eq!(t.value, 10.5);
        assert!(t.note.contains("p50 10.0000"), "{}", t.note);
        assert!(!timing("x", &samples[..19]).note.contains(", p"));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a =
            parse("--workload cliquepath_16384 --seed 3 --seconds 2.5 --trace 1 --smoke").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace, a.smoke),
            ("cliquepath_16384", 3, 2.5, true, true)
        );
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload random_16384 --trace").is_err());
    }

    #[test]
    fn smoke_solves_pass_every_check() {
        for w in &WORKLOADS {
            let g = w.generate(w.default_seed, true);
            let mut chk = Checker {
                oracle: mst::kruskal(&g).edges,
                pins: None,
                reference: None,
                attempted: 0,
                failed: 0,
            };
            for shards in [1, SHARDS] {
                assert!(chk.solve(w.name, run_mst(&g, &w.config(shards))).is_some(), "{}", w.name);
            }
            chk.reference = Some((0, 0, 0));
            assert!(chk.solve("drifted", run_mst(&g, &w.config(1))).is_none());
            assert_eq!((chk.attempted, chk.failed), (3, 1));
        }
    }
}
