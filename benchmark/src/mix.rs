//! `serve_mix` (one node) and `serve_routed` (three nodes behind a
//! router): a fixed request mix from concurrent clients against `serve`
//! processes over loopback.

use arrayflow::ir::Program;
use arrayflow::service::Client;

use crate::corpus::{self, Reservoir, Source, Stream, TIERS};
use crate::serve::{self, Stack};
use crate::stats::{self, Step};
use crate::workloads::{
    check_all, hit_ratio, parse, session_bases, Chain, Chains, Got, Kept, Run, SAMPLES, SETUPS,
};
use crate::Args;

/// Concurrent closed-loop clients, each on its own connections: the
/// middle of the 1, 4 and 8 clients E11 measured.
const CLIENTS: usize = 4;
/// The E16 tiers the mix draws loops from: small and medium. The large
/// and xlarge tiers' solves (tens of milliseconds, seconds) are timed by
/// `cold_batch` and `edit_session`; here they would queue the other
/// clients behind whichever node the hash sends them to, which moves the
/// p90 with the seed.
const MIX_TIERS: usize = 2;
/// Hot loops per mix tier; the eight Livermore kernels are hot as well.
const HOT_PER_TIER: [usize; MIX_TIERS] = [8, 8];
/// Sessions each client edits per mix tier.
const SESSIONS_PER_TIER: [usize; MIX_TIERS] = [4, 3];

/// Request kinds of the mix.
#[derive(Clone, Copy)]
enum Kind {
    /// Binary fingerprint-first analyze of a hot program (fast-path hit).
    Fingerprint,
    /// JSON analyze of a hot program (memo-cache hit).
    Hot,
    /// JSON custom (G, K) problem over a hot program (memo-cache hit).
    Custom,
    /// JSON analyze of a program never seen before (miss).
    Fresh,
    /// JSON delta against an open session.
    Delta,
}

/// One cycle of the mix: 20% binary fingerprint hits, 35% JSON analyze
/// hits, 10% custom-problem hits, 20% session deltas, 15% JSON analyze
/// misses. No trace of real traffic exists to take the shares from; they
/// are fixed so that every serving path (binary fast path, JSON decode
/// and memo cache, custom problems, sessions, cold solves) runs in every
/// stretch of a run, and so the latency quantiles fall at the same place
/// in the mix on every seed. Client `c` starts the cycle at slot `5c`.
#[rustfmt::skip]
const MIX: [Kind; 20] = {
    use Kind::*;
    [
        Fingerprint, Hot, Delta, Hot, Fresh, Fingerprint, Hot, Custom, Delta, Hot, Fingerprint,
        Hot, Fresh, Delta, Hot, Custom, Fingerprint, Hot, Delta, Fresh,
    ]
};

/// A program the mix repeats, so its requests hit the caches.
struct Hot {
    source: Source,
    program: Program,
    fingerprint: [u8; 16],
}

/// The hot programs: the Livermore kernels and seeded loops of the mix
/// tiers.
fn hot_programs(seed: u64) -> Result<Vec<Hot>, String> {
    let mut stream = Stream::new(seed, corpus::HOT);
    let mut sources = stream.livermore();
    for (t, &n) in HOT_PER_TIER.iter().enumerate() {
        sources.extend((0..n).map(|_| stream.program(TIERS[t])));
    }
    sources
        .into_iter()
        .map(|source| {
            Ok(Hot {
                program: parse(&source.text)?,
                fingerprint: arrayflow::fingerprint(&source.text)?,
                source,
            })
        })
        .collect()
}

struct MixClient {
    client: Client,
    chains: Chains,
    picks: Stream,
    fresh: Stream,
    edits: Stream,
    op: usize,
    kept: Reservoir<Kept>,
}

/// Memo-cache hits and misses, and the total and count of queue waits in
/// microseconds, summed over every node.
fn counters(client: &mut Client) -> Result<[f64; 4], String> {
    let text = serve::exposition(client)?;
    Ok([
        "arrayflow_cache_hits_total",
        "arrayflow_cache_misses_total",
        "arrayflow_queue_wait_us_sum",
        "arrayflow_queue_wait_us_count",
    ]
    .map(|name| serve::scrape(&text, name, None)))
}

/// Opens the sessions of `bases` through `client`.
fn open_chains(client: &mut Client, bases: &[Vec<&Source>]) -> Result<Vec<Vec<Chain>>, String> {
    bases
        .iter()
        .map(|tier| {
            tier.iter()
                .map(|base| {
                    let opened = client
                        .open_session(&base.text)
                        .map_err(|e| format!("open: {e}"))?;
                    let mut program = parse(&base.text)?;
                    program.renumber();
                    Ok(Chain {
                        session: opened.session,
                        fingerprint: opened.fingerprint,
                        program,
                        shape: base.shape,
                    })
                })
                .collect()
        })
        .collect()
}

pub fn serve(args: &Args, routed: bool) -> Result<Run, String> {
    let hot = hot_programs(args.seed)?;
    let per_tier = SESSIONS_PER_TIER.map(|n| n * CLIENTS);
    let bases = session_bases(args.seed, &TIERS[..MIX_TIERS], &per_tier);
    // Client `c` edits the `c`-th share of every tier's sessions.
    let bases_of = |c: usize| -> Vec<Vec<&Source>> {
        bases
            .iter()
            .zip(SESSIONS_PER_TIER)
            .map(|(tier, n)| tier[c * n..(c + 1) * n].iter().collect())
            .collect()
    };
    let (setup_secs, (stack, clients)) = stats::repeat_setup(SETUPS, || {
        // Set-up starts the processes, warms the hot programs (plain and
        // custom) and opens the sessions the mix edits.
        let stack = Stack::start(&args.serve_bin, routed)?;
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let mut client = serve::client(&stack.addr);
            if c == 0 {
                for h in &hot {
                    serve::analyze(&mut client, &h.source.text)?;
                    serve::custom(&mut client, &h.source.text)?;
                }
            }
            let chains = open_chains(&mut client, &bases_of(c))?;
            let tag = 16 * c as u64;
            clients.push(MixClient {
                client,
                chains: Chains::new(chains, &TIERS[..MIX_TIERS], c),
                picks: Stream::new(args.seed, corpus::PICKS + tag),
                fresh: Stream::new(args.seed, corpus::COLD + tag),
                edits: Stream::new(args.seed, corpus::EDITS + tag),
                op: 5 * c,
                kept: Reservoir::new(
                    SAMPLES / CLIENTS,
                    Stream::new(args.seed, corpus::SAMPLING + tag),
                ),
            });
        }
        Ok((stack, clients))
    })?;
    let mut probe = serve::client(&stack.addr);
    let before = counters(&mut probe)?;
    let fresh_cycle = corpus::tier_cycle(&TIERS[..MIX_TIERS]);
    let (window, clients) = stats::run_clients(clients, args.seconds, |c| {
        let kind = MIX[c.op % MIX.len()];
        c.op += 1;
        match kind {
            Kind::Fingerprint => {
                let h = &hot[c.picks.below(hot.len())];
                let (took, out) = stats::timed(|| {
                    serve::analyze_fingerprint(&mut c.client, h.fingerprint, &h.source.text)
                });
                let (step, out) = Step::one(took, out);
                if let Some(out) = out {
                    c.kept
                        .offer(|| Kept::analysis(h.program.clone(), Got::Binary(out)));
                }
                step
            }
            Kind::Hot | Kind::Custom => {
                let h = &hot[c.picks.below(hot.len())];
                let custom = matches!(kind, Kind::Custom);
                let (took, out) = stats::timed(|| {
                    if custom {
                        serve::custom(&mut c.client, &h.source.text)
                    } else {
                        serve::analyze(&mut c.client, &h.source.text)
                    }
                });
                let (step, out) = Step::one(took, out);
                if let Some(out) = out {
                    c.kept.offer(|| Kept {
                        program: h.program.clone(),
                        custom,
                        got: Got::Text(out),
                    });
                }
                step
            }
            Kind::Fresh => {
                let tier = fresh_cycle[c.op % fresh_cycle.len()];
                let source = c.fresh.program(TIERS[tier]);
                let program = match parse(&source.text) {
                    Ok(program) => program,
                    Err(e) => return Step::one(Default::default(), Err::<(), _>(e)).0,
                };
                let (took, out) = stats::timed(|| serve::analyze(&mut c.client, &source.text));
                let (step, out) = Step::one(took, out);
                if let Some(out) = out {
                    c.kept.offer(|| Kept::analysis(program, Got::Text(out)));
                }
                step
            }
            Kind::Delta => {
                let (_, chain) = c.chains.next();
                let edit = match chain.next_edit(&mut c.edits) {
                    Ok(edit) => edit,
                    Err(e) => return Step::one(Default::default(), Err::<(), _>(e)).0,
                };
                let client = &mut c.client;
                let (took, out) = stats::timed(|| {
                    serve::delta(
                        client,
                        chain.session,
                        &chain.fingerprint,
                        edit.stmt.0,
                        &edit.text,
                    )
                });
                let (step, out) = Step::one(took, out);
                if let Some(out) = out {
                    match chain.apply(&edit) {
                        Ok(()) => c
                            .kept
                            .offer(|| Kept::analysis(chain.program.clone(), Got::Text(vec![out]))),
                        Err(e) => eprintln!("afbench: delta: {e}"),
                    }
                }
                step
            }
        }
    });
    let after = counters(&mut probe)?;
    let [hits, misses, queue_us, queued] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    drop((probe, stack));
    let kept: Vec<Kept> = clients
        .into_iter()
        .flat_map(|c| c.kept.into_items())
        .collect();
    Ok(Run {
        window,
        setup_secs,
        correct: check_all(if routed { "serve_routed" } else { "serve_mix" }, &kept),
        cache_hit_ratio: hit_ratio(hits, misses),
        queue_wait_us: Some(queue_us / queued.max(1.0)),
    })
}
