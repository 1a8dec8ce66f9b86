//! The corpus and seeded draws from it. Every program a run submits
//! derives from `--seed` through independent streams, so drawing more from
//! one stream never shifts another.
//!
//! The corpus is the one the repository's experiments document
//! (EXPERIMENTS.md): the E10 Livermore-style kernels, and random loops of
//! the four E16 size tiers with E16's array counts.

use arrayflow::ir::pretty::print_program;
use arrayflow::workloads::{livermore_kernels, random_loop, LoopShape, Prng};

/// Stream tags.
pub const COLD: u64 = 1;
pub const SESSIONS: u64 = 2;
pub const EDITS: u64 = 3;
pub const HOT: u64 = 4;
pub const PICKS: u64 = 5;
pub const SAMPLING: u64 = 6;
pub const TRIPS: u64 = 7;

/// One E16 size tier: assignments per loop, arrays the loop draws from,
/// and the length of E16's edit chain on it.
#[derive(Clone, Copy)]
pub struct Tier {
    pub stmts: usize,
    pub arrays: usize,
    pub edits: usize,
}

/// The E16 tiers: small, medium, large, xlarge.
pub const TIERS: [Tier; 4] = [
    Tier {
        stmts: 8,
        arrays: 4,
        edits: 64,
    },
    Tier {
        stmts: 32,
        arrays: 8,
        edits: 48,
    },
    Tier {
        stmts: 128,
        arrays: 16,
        edits: 24,
    },
    Tier {
        stmts: 512,
        arrays: 64,
        edits: 8,
    },
];

impl Tier {
    /// E16's generator shape for this tier.
    pub fn shape(self) -> LoopShape {
        LoopShape {
            stmts: self.stmts,
            arrays: self.arrays,
            ..LoopShape::default()
        }
    }
}

/// The seed E16 draws each tier's base loop with.
const E16_SEED: u64 = 42;

/// E16's own base loop of `tier`.
pub fn e16_base(tier: Tier) -> Source {
    let shape = tier.shape();
    Source {
        text: print_program(&random_loop(&shape, E16_SEED)),
        shape,
    }
}

/// Trip counts the Livermore kernels are drawn with. The trip count is
/// part of a loop's fingerprint, so each draw is a new cache key.
const TRIP_COUNTS: (i64, i64) = (64, 4096);

/// One program: DSL source plus the shape edits against it draw from.
pub struct Source {
    pub text: String,
    pub shape: LoopShape,
}

/// An independent seeded stream of draws.
pub struct Stream(Prng);

impl Stream {
    pub fn new(seed: u64, tag: u64) -> Stream {
        Stream(Prng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag,
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0.below_usize(n)
    }

    /// A fresh random loop of `tier`.
    pub fn program(&mut self, tier: Tier) -> Source {
        let shape = tier.shape();
        Source {
            text: print_program(&random_loop(&shape, self.0.next_u64())),
            shape,
        }
    }

    /// The eight Livermore kernels at one freshly drawn trip count.
    pub fn livermore(&mut self) -> Vec<Source> {
        let ub = self.0.range_i64(TRIP_COUNTS.0, TRIP_COUNTS.1);
        livermore_kernels(ub)
            .into_iter()
            .map(|(_, p)| Source {
                text: print_program(&p),
                shape: LoopShape::default(),
            })
            .collect()
    }
}

/// The E16 tiers interleaved in proportion to E16's edit-chain lengths
/// (64 : 48 : 24 : 8), as indices into `tiers`, one cycle long. Spreading
/// each tier evenly keeps any stretch of the cycle close to the
/// proportions.
pub fn tier_cycle(tiers: &[Tier]) -> Vec<usize> {
    let mut slots: Vec<(f64, usize)> = tiers
        .iter()
        .enumerate()
        .flat_map(|(t, tier)| {
            (0..tier.edits).map(move |k| ((k as f64 + 0.5) / tier.edits as f64, t))
        })
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, t)| t).collect()
}

/// A uniform sample of at most `cap` items from a stream of unknown length
/// (reservoir sampling), so the output checks cover the whole window.
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    rng: Stream,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize, rng: Stream) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
            rng,
        }
    }

    /// Offers the next item; `make` runs only when the item is kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(make());
        } else {
            let slot = self.rng.0.below(self.seen) as usize;
            if slot < self.cap {
                self.items[slot] = make();
            }
        }
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}
