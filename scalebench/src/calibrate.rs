//! The host-speed reference: a fixed kernel of the benchmark's own, timed beside every
//! measured operation so that each operation's latency can be quoted at one host speed.
//!
//! The 2-CPU shared hosts this benchmark runs on change speed by up to 2× for stretches
//! of seconds to minutes, and every time measured in a slow stretch is longer whatever
//! the program does.  The kernel mixes the three kinds of work the program does (a
//! dependent random walk through a 16 MiB table, a streaming pass over it, and branchy
//! cache-resident work: sorting a 256 KiB array), so it slows with the host as the
//! program does.  It is no code of the program's, so a change to the program leaves it
//! alone.

use std::hint::black_box;
use std::time::Instant;

const WORDS: usize = 1 << 21;
const WALK_STEPS: usize = 50_000;
const SORT_WORDS: usize = 1 << 15;
const SORTS: usize = 24;

/// The kernel's time, in milliseconds, at the host speed normalized latencies are quoted
/// at: about what it takes on the host this benchmark was tuned on.
pub const NOMINAL_MS: f64 = 30.0;

/// The kernel and the memory it works on.
pub struct Reference {
    table: Vec<u64>,
    scratch: Vec<u64>,
    sorted: Vec<u64>,
}

impl Reference {
    /// Fills the table and runs the kernel once, so that page faults are not timed.
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..WORDS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let mut reference =
            Reference { table, scratch: vec![0; WORDS], sorted: Vec::with_capacity(SORT_WORDS) };
        reference.run();
        reference
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mask = WORDS as u64 - 1;
        let mut at = 1u64;
        for _ in 0..WALK_STEPS {
            at = self.table[(at & mask) as usize] ^ at.rotate_left(7);
        }
        for (out, value) in self.scratch.iter_mut().zip(&self.table) {
            *out = value.wrapping_add(*out >> 1);
        }
        for round in 0..SORTS {
            self.sorted.clear();
            let start = round * SORT_WORDS;
            self.sorted.extend_from_slice(&self.table[start..start + SORT_WORDS]);
            self.sorted.sort_unstable();
        }
        black_box((at, &self.scratch, &self.sorted));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Times rescaled to the host speed at which the kernel takes [`NOMINAL_MS`]:
/// operation `i` took `times[i]` (in any unit) between kernel runs `kernel[i]` and
/// `kernel[i + 1]` (so `kernel` has one more entry), and is scaled by the mean of the two.
pub fn normalize(times: &[f64], kernel: &[f64]) -> Vec<f64> {
    assert_eq!(
        kernel.len(),
        times.len() + 1,
        "one kernel run before each operation and after the last"
    );
    times
        .iter()
        .zip(kernel.windows(2))
        .map(|(ms, around)| ms * NOMINAL_MS * 2.0 / (around[0] + around[1]))
        .collect()
}
