//! The in-process workloads, the output samples every workload keeps,
//! and what every workload reports. Each workload sets itself up several
//! times (`setup_s` is the median), then runs closed-loop clients for
//! `--seconds` (see [`stats::run_clients`]), keeping a uniform sample of
//! outputs that is checked once the clock stops.

use arrayflow::engine::{Engine, EngineConfig};
use arrayflow::ir::{apply_edit, Edit, Program};
use arrayflow::store::codec::decode_report;
use arrayflow::workloads::{random_edit, LoopShape};

use crate::corpus::{self, Reservoir, Source, Stream, Tier, TIERS};
use crate::reference;
use crate::stats::{self, Metric, Step, Window};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Set-ups per `cold_batch` run, whose set-up takes a few milliseconds.
const COLD_SETUPS: usize = 25;
/// Set-ups per `edit_session` run, whose set-up opens an xlarge session.
const SESSION_SETUPS: usize = 5;
/// Outputs kept for checking per run.
pub const SAMPLES: usize = 128;
/// Kept outputs per run also checked against the instance propagation.
const ORACLE_CHECKS: usize = 24;
/// Sessions `edit_session` keeps open per E16 tier, on seeded loops. The
/// xlarge tier's session takes about two seconds to open, so it gets
/// one, on E16's own xlarge loop: a seeded one would move the set-up time
/// from seed to seed by a fifth.
const SESSIONS_PER_TIER: [usize; 4] = [16, 8, 8, 0];
/// Outputs `edit_session` keeps per tier; the xlarge tier's reference
/// analysis takes about two seconds.
const SAMPLES_PER_TIER: [usize; 4] = [48, 32, 8, 1];

/// What one workload run produced.
pub struct Run {
    pub window: Window,
    pub setup_secs: Vec<f64>,
    pub correct: bool,
    /// Memo-cache hits over lookups during the measured window.
    pub cache_hit_ratio: f64,
    /// Mean queue wait of the window's requests at the serving nodes.
    pub queue_wait_us: Option<f64>,
}

impl Run {
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let w = &self.window;
        if w.completed() == 0 {
            return Err("no operation completed".into());
        }
        let lat = w.scaled_latencies();
        Ok(vec![
            Metric::new("latency_p50_us", stats::quantile(&lat, 0.5), "us"),
            Metric::new("latency_p90_us", stats::quantile(&lat, 0.9), "us"),
            Metric::new("throughput_per_s", w.throughput(), "1/s"),
            Metric::new("setup_s", stats::median(&self.setup_secs), "s"),
        ])
    }
}

pub fn hit_ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// An output as it came back.
pub enum Got {
    /// Rendered reports.
    Text(Vec<String>),
    /// Store-codec report bytes (binary protocol).
    Binary(Vec<Vec<u8>>),
}

/// A kept output and the program it answers.
pub struct Kept {
    pub program: Program,
    /// Whether the output answers the custom δ-live-elements problem
    /// rather than the canned analyses.
    pub custom: bool,
    pub got: Got,
}

impl Kept {
    pub fn analysis(program: Program, got: Got) -> Kept {
        Kept {
            program,
            custom: false,
            got,
        }
    }

    /// Checks 1 and 2 of [`reference`]: the output equals the reference.
    fn consistent(&self) -> Result<(), String> {
        let got = match &self.got {
            Got::Text(reports) => reports.clone(),
            Got::Binary(bytes) => bytes
                .iter()
                .map(|b| decode_report(b).map(|r| r.render()))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("undecodable binary report: {e:?}"))?,
        };
        let want = if self.custom {
            reference::custom(&self.program)?
        } else {
            reference::analyze_program(&self.program)?
        };
        if want == got {
            Ok(())
        } else {
            Err("report differs from the reference analysis".into())
        }
    }
}

/// Runs every check of [`reference`] over the kept outputs; check 3 over
/// the first [`ORACLE_CHECKS`] programs it can compare.
pub fn check_all(what: &str, kept: &[Kept]) -> bool {
    let mut ok = true;
    let mut compared = 0;
    for k in kept {
        if let Err(e) = k.consistent() {
            eprintln!("afbench: {what}: {e}");
            ok = false;
        }
        if compared < ORACLE_CHECKS {
            match reference::against_instance_propagation(&k.program) {
                Ok(true) => compared += 1,
                Ok(false) => {}
                Err(e) => {
                    eprintln!("afbench: {what}: {e}");
                    ok = false;
                }
            }
        }
    }
    if compared == 0 {
        eprintln!("afbench: {what}: no kept output could be compared with instance propagation");
        ok = false;
    }
    ok
}

pub fn parse(source: &str) -> Result<Program, String> {
    reference::parse(source).map_err(|e| format!("generated program does not parse: {e}"))
}

/// One `cold_batch` operation's programs, all new, so every one misses
/// the memo cache: the eight Livermore kernels at a fresh trip count and
/// fresh loops of the small, medium and large E16 tiers, in proportion
/// to E16's edit chains (an eighth of 64 : 48 : 24). The xlarge tier is
/// left out: its two-second analysis would leave a run with a handful of
/// batches.
fn cold_programs(inputs: &mut Stream) -> Vec<Source> {
    let mut batch = inputs.livermore();
    for &tier in &TIERS[..3] {
        batch.extend((0..tier.edits / 8).map(|_| inputs.program(tier)));
    }
    batch
}

struct ColdClient {
    inputs: Stream,
    ops: usize,
    kept: Reservoir<Kept>,
}

/// `cold_batch`: batches of the corpus through one engine, all misses.
pub fn cold_batch(args: &Args) -> Result<Run, String> {
    let warm: Vec<Program> = cold_programs(&mut Stream::new(args.seed, corpus::TRIPS))
        .iter()
        .map(|s| parse(&s.text))
        .collect::<Result<_, _>>()?;
    let (setup_secs, engine) = stats::repeat_setup(COLD_SETUPS, || {
        // Set-up builds the engine and runs one batch through it, which
        // pays every first-use cost. One worker and a bounded cache keep
        // a long run's memory and thread scheduling flat.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            cache_capacity: 4096,
            ..EngineConfig::default()
        });
        engine.analyze_batch(&warm);
        Ok(engine)
    })?;
    let before = engine.stats().cache;
    let client = ColdClient {
        inputs: Stream::new(args.seed, corpus::COLD),
        ops: 0,
        kept: Reservoir::new(SAMPLES, Stream::new(args.seed, corpus::SAMPLING)),
    };
    let (window, clients) = stats::run_clients(vec![client], args.seconds, |c| {
        let batch = cold_programs(&mut c.inputs);
        let (took, results) = stats::timed(|| {
            let programs = batch
                .iter()
                .map(|s| parse(&s.text))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>((engine.analyze_batch(&programs), programs))
        });
        let units = batch.len() as u64;
        let Ok((results, mut programs)) = results else {
            return Step {
                took,
                units,
                failed: units,
            };
        };
        let failed = results.iter().filter(|r| r.error.is_some()).count() as u64;
        // Keep one program per batch, taking each slot of the batch in turn.
        let i = c.ops % batch.len();
        c.ops += 1;
        c.kept.offer(|| {
            let got = results[i].loops.iter().map(|l| l.report.render()).collect();
            Kept::analysis(programs.swap_remove(i), Got::Text(got))
        });
        Step {
            took,
            units,
            failed,
        }
    });
    let after = engine.stats().cache;
    let kept: Vec<Kept> = clients
        .into_iter()
        .flat_map(|c| c.kept.into_items())
        .collect();
    Ok(Run {
        window,
        setup_secs,
        correct: check_all("cold_batch", &kept),
        cache_hit_ratio: hit_ratio(
            (after.hits - before.hits) as f64,
            (after.misses - before.misses) as f64,
        ),
        queue_wait_us: None,
    })
}

/// One open session and the benchmark's own copy of its program.
pub struct Chain {
    pub session: u64,
    pub fingerprint: String,
    pub program: Program,
    pub shape: LoopShape,
}

impl Chain {
    /// The next seeded single-statement edit against this session.
    pub fn next_edit(&self, edits: &mut Stream) -> Result<Edit, String> {
        random_edit(&self.program, &self.shape, edits.next_u64())
            .ok_or_else(|| "a session program has no assignment".to_string())
    }

    /// Mirrors an applied edit on the local copy.
    pub fn apply(&mut self, edit: &Edit) -> Result<(), String> {
        apply_edit(&mut self.program, edit).map_err(|e| e.to_string())?;
        self.program.renumber();
        Ok(())
    }
}

/// The base programs of a run's sessions: `per_tier[t]` fresh loops of
/// tier `t`, grouped by tier.
pub fn session_bases(seed: u64, tiers: &[Tier], per_tier: &[usize]) -> Vec<Vec<Source>> {
    let mut stream = Stream::new(seed, corpus::SESSIONS);
    tiers
        .iter()
        .zip(per_tier)
        .map(|(&tier, &n)| (0..n).map(|_| stream.program(tier)).collect())
        .collect()
}

/// Edit chains over sessions grouped by tier, visited in
/// [`corpus::tier_cycle`] order and round-robin within a tier.
pub struct Chains {
    by_tier: Vec<Vec<Chain>>,
    cycle: Vec<usize>,
    next: usize,
    next_in_tier: Vec<usize>,
}

impl Chains {
    pub fn new(by_tier: Vec<Vec<Chain>>, tiers: &[Tier], start: usize) -> Chains {
        let cycle = corpus::tier_cycle(tiers);
        Chains {
            next_in_tier: vec![0; by_tier.len()],
            next: start % cycle.len(),
            by_tier,
            cycle,
        }
    }

    /// The tier and the chain the next edit goes to.
    pub fn next(&mut self) -> (usize, &mut Chain) {
        let tier = self.cycle[self.next % self.cycle.len()];
        self.next += 1;
        let chains = &mut self.by_tier[tier];
        let k = self.next_in_tier[tier] % chains.len();
        self.next_in_tier[tier] += 1;
        (tier, &mut chains[k])
    }
}

struct EditClient {
    chains: Chains,
    edits: Stream,
    kept: Vec<Reservoir<Kept>>,
}

/// `edit_session`: single-statement edit chains over open sessions of
/// every E16 tier, through the engine's incremental delta path.
pub fn edit_session(args: &Args) -> Result<Run, String> {
    let mut bases = session_bases(args.seed, &TIERS, &SESSIONS_PER_TIER);
    bases[3].push(corpus::e16_base(TIERS[3]));
    let (setup_secs, (engine, by_tier)) = stats::repeat_setup(SESSION_SETUPS, || {
        // Set-up opens every session: one full analysis per program.
        let engine = Engine::new(EngineConfig::default());
        let by_tier = bases
            .iter()
            .map(|tier| {
                tier.iter()
                    .map(|base| {
                        let mut program = parse(&base.text)?;
                        program.renumber();
                        let (session, report) =
                            engine.open_session(&program).map_err(|e| e.to_string())?;
                        Ok(Chain {
                            session,
                            fingerprint: report.fingerprint.to_string(),
                            program,
                            shape: base.shape,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((engine, by_tier))
    })?;
    let client = EditClient {
        chains: Chains::new(by_tier, &TIERS, 0),
        edits: Stream::new(args.seed, corpus::EDITS),
        kept: SAMPLES_PER_TIER
            .iter()
            .enumerate()
            .map(|(t, &cap)| {
                Reservoir::new(
                    cap,
                    Stream::new(args.seed, corpus::SAMPLING + 16 * t as u64),
                )
            })
            .collect(),
    };
    let (window, clients) = stats::run_clients(vec![client], args.seconds, |c| {
        let (tier, chain) = c.chains.next();
        let edit = match chain.next_edit(&mut c.edits) {
            Ok(edit) => edit,
            Err(e) => return Step::one(Default::default(), Err::<(), _>(e)).0,
        };
        let (took, delta) = stats::timed(|| engine.analyze_delta(chain.session, &edit));
        let (step, delta) = Step::one(took, delta.map_err(|e| e.to_string()));
        if let Some(delta) = delta {
            match chain.apply(&edit) {
                Ok(()) => c.kept[tier].offer(|| {
                    Kept::analysis(
                        chain.program.clone(),
                        Got::Text(vec![delta.report.render()]),
                    )
                }),
                Err(e) => eprintln!("afbench: edit_session: {e}"),
            }
        }
        step
    });
    let kept: Vec<Kept> = clients
        .into_iter()
        .flat_map(|c| c.kept.into_iter().flat_map(Reservoir::into_items))
        .collect();
    Ok(Run {
        window,
        setup_secs,
        correct: check_all("edit_session", &kept),
        cache_hit_ratio: hit_ratio(0.0, 0.0),
        queue_wait_us: None,
    })
}
