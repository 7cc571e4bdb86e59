//! Criterion bench group `routing`: the pull message fabric against the preserved
//! pre-fabric reference executor.
//!
//! Three tiers isolate where the win comes from:
//!
//! * a message-dense flood on the full executors — delivery plus mailbox management, no
//!   algorithm logic;
//! * the two broadcast schedules of the headliners on a hub graph (`star_forest_union`,
//!   n = 2·10⁵, 50 hubs of degree in the thousands): `flood/hubs` broadcasts from every
//!   vertex every round, like Linial's and Arb-Recolor's color exchanges, and `slots/hubs`
//!   has each vertex broadcast once in a hashed slot out of 26 (a `SlotSweep` with a
//!   finalize round, like GK's halving splits),
//!   so hubs are stepped with a few of their thousands of ports carrying mail.  Each row
//!   prints its messages per run, so ns per message is its median over that count;
//! * the Ghaffari–Kuhn pipeline under an installed run configuration — what experiment E18
//!   measures at much larger `n`.
//!
//! Outputs are bit-identical across fabrics (enforced by `tests/message_fabric.rs`), so
//! every comparison is pure wall-clock.

use arbcolor_baselines::registry::headline_algorithms;
use arbcolor_graph::{generators, Graph, Vertex};
use arbcolor_runtime::algorithms::{FloodMaxId, SlotSweep, SweepRule};
use arbcolor_runtime::{Executor, ExecutorKind, Inbox, ReferenceExecutor, RunConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_flood_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    for (family, n, degree) in [("dense", 10_000usize, 32usize), ("sparse", 40_000, 6)] {
        let g = generators::random_regular_like(n, degree, 11).unwrap().with_shuffled_ids(4);
        let flood = FloodMaxId { rounds: 8 };
        group.bench_with_input(BenchmarkId::new(format!("flood/{family}/flat"), n), &g, |b, g| {
            b.iter(|| Executor::new(g).run(&flood).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new(format!("flood/{family}/reference"), n),
            &g,
            |b, g| b.iter(|| ReferenceExecutor::new(g).run(&flood).unwrap()),
        );
    }
    group.finish();
}

/// Every vertex broadcasts its identifier once, in round `1 + hash(id) % SLOTS`, sums what
/// it hears, and halts in round `SLOTS + 1`: sparse mail over many rounds.
struct SlotBroadcast<'g>(&'g Graph);

/// The rounds [`SlotBroadcast`] spreads its broadcasts over.
const SLOTS: u64 = 26;

impl SweepRule for SlotBroadcast<'_> {
    type Msg = u64;
    type Output = u64;
    type State = u64;

    fn name(&self) -> &'static str {
        "slot-broadcast"
    }

    fn start(&self, v: Vertex) -> (usize, u64) {
        (1 + ((self.0.id(v).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % SLOTS) as usize, 0)
    }

    fn absorb(&self, heard: &mut u64, inbox: &Inbox<'_, u64>) {
        for (_, &id) in inbox.iter() {
            *heard = heard.wrapping_add(id);
        }
    }

    fn announce(&self, v: Vertex, _heard: &mut u64) -> Option<u64> {
        Some(self.0.id(v))
    }

    fn finalize_round(&self) -> Option<usize> {
        Some(SLOTS as usize + 1)
    }

    fn output(&self, _v: Vertex, &heard: &u64) -> u64 {
        heard
    }
}

fn bench_hub_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    let n = 200_000usize;
    let g = generators::star_forest_union(n, 3, 50, 1).unwrap();
    let flood = FloodMaxId { rounds: 10 };
    let messages = Executor::new(&g).run(&flood).unwrap().report.messages;
    println!("flood/hubs/flat: {messages} messages per run");
    group.bench_with_input(BenchmarkId::new("flood/hubs/flat", n), &g, |b, g| {
        b.iter(|| Executor::new(g).run(&flood).unwrap())
    });
    let slots = SlotBroadcast(&g);
    let messages = Executor::new(&g).run(&SlotSweep(&slots)).unwrap().report.messages;
    println!("slots/hubs/flat: {messages} messages per run");
    group.bench_with_input(BenchmarkId::new("slots/hubs/flat", n), &g, |b, g| {
        b.iter(|| Executor::new(g).run(&SlotSweep(&slots)).unwrap())
    });
    group.finish();
}

fn bench_headliner_fabric(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    let n = 4_000usize;
    let g = generators::random_regular_like(n, 24, 13).unwrap().with_shuffled_ids(2);
    let gk = headline_algorithms()
        .into_iter()
        .find(|a| a.name() == "ghaffari_kuhn")
        .expect("registry has the GK headliner");
    for (label, kind) in
        [("gk/flat", ExecutorKind::sharded(1)), ("gk/reference", ExecutorKind::Reference)]
    {
        group.bench_with_input(BenchmarkId::new(label, n), &g, |b, g| {
            let _config = RunConfig { executor: kind, ..RunConfig::default() }.install();
            b.iter(|| gk.run(g).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flood_delivery, bench_hub_shapes, bench_headliner_fabric);
criterion_main!(benches);
