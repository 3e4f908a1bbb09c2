//! Criterion wall-clock benches: engineering performance of the substrate
//! (the paper makes no wall-clock claims; these guard the simulator's and
//! oracles' throughput so the experiment harness stays usable).
//!
//! Pass `--gate` to run the pinned throughput regression gate instead of
//! the criterion benches: fixed workloads with absolute wallclock ceilings,
//! the way `tests/round_pins.rs` pins rounds. Release CI runs it as
//! `cargo bench --bench wallclock -- --gate`.

use std::time::Instant;

use criterion::{criterion_group, BatchSize, Criterion};

use congest_sim::{Message, Network, NodeProgram, RoundCtx, RunConfig, Topology};
use dmst_core::{run_mst, ElkinConfig};
use dmst_graphs::{generators as gen, mst};

/// A trivial flood program: measures raw simulator round/delivery overhead.
#[derive(Clone)]
struct Flood {
    seen: bool,
    origin: bool,
}

#[derive(Clone)]
struct Tok;
impl Message for Tok {
    fn encode(&self, out: &mut congest_sim::WireWriter<'_>) {
        out.word(0);
    }
    fn decode(r: &mut congest_sim::WireReader<'_>) -> Self {
        r.word();
        Tok
    }
}

impl NodeProgram for Flood {
    type Msg = Tok;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tok>) {
        if (self.origin || !ctx.inbox().is_empty()) && !self.seen {
            self.seen = true;
            for p in 0..ctx.degree() {
                ctx.send(p, Tok);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.seen
    }
}

fn bench_simulator(c: &mut Criterion) {
    let g = gen::torus_2d(32, 32, &mut gen::WeightRng::new(1));
    c.bench_function("simulator/flood_torus_1024", |b| {
        b.iter_batched(
            || {
                let topo = Topology::new(g.num_nodes(), g.edges()).unwrap();
                Network::new(topo, |i| Flood { seen: false, origin: i.id == 0 })
            },
            |mut net| net.run(&RunConfig::default()).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_generators(c: &mut Criterion) {
    c.bench_function("generators/random_connected_4096", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            gen::random_connected(4096, 12288, &mut gen::WeightRng::new(seed))
        })
    });
}

fn bench_sequential_mst(c: &mut Criterion) {
    let g = gen::random_connected(4096, 16384, &mut gen::WeightRng::new(2));
    c.bench_function("mst/kruskal_4096", |b| b.iter(|| mst::kruskal(&g)));
    c.bench_function("mst/prim_4096", |b| b.iter(|| mst::prim(&g)));
    c.bench_function("mst/boruvka_4096", |b| b.iter(|| mst::boruvka(&g)));
}

fn bench_end_to_end(c: &mut Criterion) {
    let g = gen::torus_2d(16, 16, &mut gen::WeightRng::new(3));
    c.bench_function("end_to_end/elkin_torus_256", |b| {
        b.iter(|| run_mst(&g, &ElkinConfig::default()).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator, bench_generators, bench_sequential_mst, bench_end_to_end
}

/// One pinned throughput check: run `work`, compare against an absolute
/// wallclock ceiling. Ceilings are at least 2x a healthy release
/// measurement (see EXPERIMENTS.md "Simulator throughput"), so only gross
/// regressions — an O(n)-per-round scan creeping back in, inbox churn,
/// a broken fast-forward — trip the gate, not scheduler noise.
fn gate_check<T>(label: &str, ceiling_ms: u128, work: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = work();
    let dt = start.elapsed();
    println!("gate: {label:<40} {:>8.1?}   (ceiling {ceiling_ms} ms)", dt);
    assert!(
        dt.as_millis() <= ceiling_ms,
        "throughput gate '{label}' took {dt:?}, ceiling {ceiling_ms} ms — \
         simulator hot path has regressed"
    );
    out
}

/// Peak resident set size of this process in kibibytes, from
/// `/proc/self/status` `VmHWM` (Linux only; `None` elsewhere). Printed by
/// the gate so memory regressions in the flat-arena executor are visible
/// in CI logs next to the wallclock numbers.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The pinned gate (`--gate`). Debug builds are ~10-20x slower and would
/// need their own pins; CI runs this under `--release` only.
fn gate() {
    // Raw executor overhead: a flood over the 1024-node torus (about 4k
    // messages in ~65 rounds). Healthy: ~3 ms release.
    gate_check("simulator/flood_torus_1024", 100, || {
        let g = gen::torus_2d(32, 32, &mut gen::WeightRng::new(1));
        let topo = Topology::new(g.num_nodes(), g.edges()).unwrap();
        let mut net = Network::new(topo, |i| Flood { seen: false, origin: i.id == 0 });
        net.run(&RunConfig::default()).unwrap()
    });

    // End-to-end run at n = 16384 — the EXPERIMENTS.md throughput
    // workload (same generator and seed as scale_probe).
    // Healthy: ~0.9-1.2 s release on one core of a 2-CPU box, so the 4 s
    // ceiling keeps over 3x headroom. The rounds/messages of this run are
    // themselves pinned so the gate cannot pass by doing less work. Six
    // color classes moved this row's rounds up, 931 -> 935, while its
    // messages fell 14%: across seeds the rounds move both ways
    // (EXPERIMENTS.md, "Six color classes").
    let g = gen::random_connected(16_384, 32_768, &mut gen::WeightRng::new(0x5CA1E));
    let run = gate_check("end_to_end/elkin_random_16384", 4_000, || {
        run_mst(&g, &ElkinConfig::default()).unwrap()
    });
    assert_eq!(
        run.stats.rounds, 935,
        "gate workload rounds moved; re-pin deliberately (`repin -- --large`)"
    );
    assert_eq!(
        run.stats.messages, 1_180_461,
        "gate workload messages moved; re-pin deliberately (`repin -- --large`)"
    );
    println!("gate: end_to_end wire words {:>27}", run.stats.wire_words);

    // Its high-diameter counterpart (perfbench's cliquepath_16384): 2048
    // cliques of 8 in a path, diameter ~4096, 34k mostly idle rounds, so
    // per-round fixed cost — wakes, fast-forward — sets the pace. Healthy:
    // ~1.7-2.2 s release on one core of a 2-CPU box; the 7 s ceiling keeps
    // over 3x headroom. Counts pinned as above.
    let g = gen::path_of_cliques(2048, 8, &mut gen::WeightRng::new(0x51));
    let run = gate_check("end_to_end/elkin_cliquepath_16384", 7_000, || {
        run_mst(&g, &ElkinConfig::default()).unwrap()
    });
    assert_eq!(
        run.stats.rounds, 33_841,
        "cliquepath rounds moved; re-pin deliberately (`repin -- --large`)"
    );
    assert_eq!(
        run.stats.messages, 1_940_424,
        "cliquepath messages moved; re-pin deliberately (`repin -- --large`)"
    );

    match peak_rss_kib() {
        Some(kib) => println!("gate: peak RSS {:>34} KiB", kib),
        None => println!("gate: peak RSS unavailable on this platform"),
    }
    println!("\nwallclock gate ok");
}

fn main() {
    if std::env::args().any(|a| a == "--gate") {
        gate();
        return;
    }
    benches();
}
