//! The closed-loop runner, its host-speed calibration, quantiles and the
//! result line.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Microseconds the calibration kernel takes on the reference core.
///
/// A shared host runs the same code up to 1.7 times slower for seconds at
/// a time while neighbours load it, which swamps any change worth
/// measuring. So every end-to-end time the benchmark reports is scaled by
/// `REFERENCE_US / k`, where `k` is the calibration kernel's own time
/// measured around it: the figures read as times on a core that runs the
/// kernel in exactly one millisecond. The kernel is the benchmark's own
/// code, so no change to the repository moves it, and it runs only while
/// every client is paused (see [`run_clients`]), so the program's own
/// request work does not slow it.
pub const REFERENCE_US: f64 = 1000.0;
/// How long the clients run between two calibration pauses.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);
/// Kernel runs per pause; the pause's kernel time is their median, so
/// one run cut short by the scheduler does not skew the scale.
const KERNEL_RUNS: usize = 3;

/// One instruction of the calibration kernel's stack machine.
#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Xor,
    Shr(u32),
    /// Jumps to the target while variable 0 is below the limit.
    LoopBelow(usize, i64),
    Call(usize),
    Ret,
}

/// Times one run of the calibration kernel, in microseconds.
///
/// The kernel interprets a fixed bytecode loop: indirect dispatch, short
/// calls and a small stack, the branchy pointer-light work that the
/// analysis pipeline is made of. Of the kernels tried (a plain integer
/// chain, random access over tables of 16 KiB to 4 MiB, this one), its
/// time followed the analysis's own time most closely as the host's load
/// changed.
pub fn kernel_us() -> f64 {
    use Op::*;
    let program = std::hint::black_box([
        // i = 0
        Push(0),
        Store(0),
        // loop: acc = (acc * i | 1) ^ k; sub(); i += 1
        Load(1),
        Load(0),
        Mul,
        Push(0x9e37),
        Xor,
        Store(1),
        Call(15),
        Load(0),
        Push(1),
        Add,
        Store(0),
        LoopBelow(2, 20_000),
        Ret,
        // sub: sum += acc >> 3
        Load(2),
        Load(1),
        Shr(3),
        Add,
        Store(2),
        Ret,
    ]);
    let start = Instant::now();
    let mut vars = [0i64, 1, 0];
    let mut stack: Vec<i64> = Vec::with_capacity(8);
    let mut calls: Vec<usize> = Vec::with_capacity(2);
    fn pop(stack: &mut Vec<i64>) -> i64 {
        stack.pop().unwrap_or(0)
    }
    let mut pc = 0;
    loop {
        match program[pc] {
            Push(v) => stack.push(v),
            Load(i) => stack.push(vars[i]),
            Store(i) => vars[i] = pop(&mut stack),
            Add => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push(a.wrapping_add(b));
            }
            Mul => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push(a.wrapping_mul(b) | 1);
            }
            Xor => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push(a ^ b);
            }
            Shr(k) => {
                let a = pop(&mut stack);
                stack.push(a >> k);
            }
            LoopBelow(target, limit) if vars[0] < limit => {
                pc = target;
                continue;
            }
            LoopBelow(..) => {}
            Call(target) => {
                calls.push(pc + 1);
                pc = target;
                continue;
            }
            Ret => match calls.pop() {
                Some(back) => {
                    pc = back;
                    continue;
                }
                None => break,
            },
        }
        pc += 1;
    }
    std::hint::black_box(vars);
    start.elapsed().as_secs_f64() * 1e6
}

/// Median kernel time over `runs` back-to-back runs.
pub fn kernel_median(runs: usize) -> f64 {
    let all: Vec<f64> = (0..runs).map(|_| kernel_us()).collect();
    median(&all)
}

/// What one operation did: how long it took and how many units of work
/// it covered, `failed` of which failed.
pub struct Step {
    pub took: Duration,
    pub units: u64,
    pub failed: u64,
}

impl Step {
    /// A single-unit step: failed when `outcome` is an error, which is
    /// reported on stderr. Returns the output on success.
    pub fn one<T>(took: Duration, outcome: Result<T, String>) -> (Step, Option<T>) {
        let failed = outcome.is_err();
        let out = outcome
            .map_err(|e| eprintln!("afbench: operation failed: {e}"))
            .ok();
        (
            Step {
                took,
                units: 1,
                failed: u64::from(failed),
            },
            out,
        )
    }
}

/// The measured window of a run: each operation's latency with the
/// calibration epoch it ran in, and each epoch's length and kernel time.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// `(epoch, microseconds)` per operation, over all clients.
    ops: Vec<(usize, f64)>,
    /// Microseconds the clients ran in each epoch.
    epochs_us: Vec<f64>,
    /// Kernel times: entry `e` was taken in the pause before epoch `e`,
    /// and the last one after the final epoch.
    kernels_us: Vec<f64>,
}

/// Runs `op` in a closed loop on every client, each on its own thread,
/// for `length`: a client starts its next operation as soon as the last
/// one returns. Every [`CALIBRATE_EVERY`] the clients pause between
/// operations and the calibration kernel runs alone; the time between two
/// pauses is one epoch. Returns the window and the clients, whose state
/// (kept samples, say) is then checked.
pub fn run_clients<C: Send>(
    clients: Vec<C>,
    length: Duration,
    op: impl Fn(&mut C) -> Step + Sync,
) -> (Window, Vec<C>) {
    let n = clients.len();
    let pause = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let epoch = AtomicUsize::new(0);
    let barrier = Barrier::new(n + 1);
    let records = Mutex::new(Vec::new());
    let mut kernels_us = vec![kernel_median(KERNEL_RUNS)];
    let mut epochs_us = Vec::new();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (pause, stop, epoch, barrier, records, op) =
                    (&pause, &stop, &epoch, &barrier, &records, &op);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        if pause.load(Ordering::Acquire) {
                            barrier.wait();
                            barrier.wait();
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            continue;
                        }
                        let step = op(&mut client);
                        mine.push((epoch.load(Ordering::Acquire), step));
                    }
                    records.lock().expect("records lock").extend(mine);
                    client
                })
            })
            .collect();
        let end = Instant::now() + length;
        loop {
            let started = Instant::now();
            std::thread::sleep(CALIBRATE_EVERY.min(end.saturating_duration_since(started)));
            pause.store(true, Ordering::Release);
            barrier.wait();
            epochs_us.push(started.elapsed().as_secs_f64() * 1e6);
            kernels_us.push(kernel_median(KERNEL_RUNS));
            let done = Instant::now() >= end;
            stop.store(done, Ordering::Release);
            epoch.fetch_add(1, Ordering::AcqRel);
            pause.store(false, Ordering::Release);
            barrier.wait();
            if done {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let records = records.into_inner().expect("records lock");
    let mut window = Window {
        attempted: 0,
        failed: 0,
        ops: Vec::with_capacity(records.len()),
        epochs_us,
        kernels_us,
    };
    for (e, step) in records {
        window.attempted += step.units;
        window.failed += step.failed;
        window.ops.push((e, step.took.as_secs_f64() * 1e6));
    }
    (window, clients)
}

impl Window {
    /// The factor that scales a time in epoch `e` to the reference core:
    /// `REFERENCE_US` over the median of the kernel times in the pauses
    /// around the epoch (before it, after it, and the one before that).
    /// The host's speed changes within a second, so the nearest samples
    /// track it better than the window's.
    fn scale(&self, e: usize) -> f64 {
        let k = &self.kernels_us;
        REFERENCE_US / median(&[k[e.saturating_sub(1)], k[e], k[e + 1]])
    }

    /// Every operation's latency scaled to the reference core.
    pub fn scaled_latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|&(e, us)| us * self.scale(e)).collect()
    }

    /// Every operation's latency as measured.
    pub fn raw_latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|&(_, us)| us).collect()
    }

    /// Units of work per second of the clients' running time, with each
    /// epoch's length scaled to the reference core.
    pub fn throughput(&self) -> f64 {
        let busy_us: f64 = (0..self.epochs_us.len())
            .map(|e| self.epochs_us[e] * self.scale(e))
            .sum();
        self.attempted as f64 * 1e6 / busy_us
    }

    /// Units of work per second of the clients' running time, unscaled.
    pub fn raw_throughput(&self) -> f64 {
        self.attempted as f64 * 1e6 / self.epochs_us.iter().sum::<f64>()
    }

    pub fn completed(&self) -> usize {
        self.ops.len()
    }

    /// Median kernel time over the window, in microseconds.
    pub fn kernel_median(&self) -> f64 {
        median(&self.kernels_us)
    }
}

/// Linearly interpolated quantile `q` (in `[0, 1]`) of unsorted values;
/// NaN when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs `f` and returns how long it took with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Microseconds per call of `f` over `reps` back-to-back calls: short
/// layers are timed in bulk so the clock's resolution does not dominate.
pub fn per_call_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// Runs `setup` `times` times and keeps the last instance. Each set-up's
/// time is scaled to the reference core by the calibration kernel's median
/// time right after it; `setup_s` is the median of the scaled times. Each
/// previous instance is dropped (its processes stopped) before the next
/// set-up starts.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let (took, instance) = timed(&mut setup);
        let instance = instance?;
        secs.push(took.as_secs_f64() * REFERENCE_US / kernel_median(KERNEL_RUNS));
        last = Some(instance);
    }
    Ok((secs, last.expect("at least one set-up")))
}

/// The result object the benchmark prints as its last line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
