//! Run outcome, summary statistics, the repeated set-up and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric the traced run reports, with its unit. A layer
/// that does not run on a workload reports 0 (see METRICS.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_s", "s"),
    ("linprog.pivots_reported", "count"),
    ("minlp.bb_nodes", "count"),
    ("minlp.search_s", "s"),
    ("gp.barrier_iterations", "count"),
    ("linalg.factorizations", "count"),
    ("gp.relax_s", "s"),
    ("gp.us_per_factorization", "us"),
    ("discretize.bb_nodes", "count"),
    ("discretize_s", "s"),
    ("greedy_s", "s"),
    ("greedy.dropped_cus", "count"),
    ("alloc.solves", "count"),
    ("alloc.solve_s", "s"),
    ("explore.busy_share", "share"),
    ("explore.warm_share", "share"),
    ("explore.warm_over_cold.factorizations", "ratio"),
    ("explore.cold.factorizations", "count"),
    ("explore.warm_over_cold.wall", "ratio"),
    ("explore.cold.wall_s", "s"),
    ("wire.bytes", "bytes"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("store.get_calls", "count"),
    ("store.get_s", "s"),
    ("store.put_calls", "count"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.puts", "count"),
    ("store.corrupt", "count"),
    ("dispatch.populate_s", "s"),
    ("dispatch.units", "count"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.tail", "ms"),
    ("serve.solve_ms.p50", "ms"),
    ("serve.solve_ms.tail", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_decode_us", "us"),
    ("serve.cache_hit_rate", "share"),
    ("serve.evictions", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_late_ms.p50", "ms"),
    ("serve.gen_late_ms.tail", "ms"),
    ("serve.latency_ms.p50", "ms"),
    ("serve.latency_ms.tail", "ms"),
    ("mix.hot_hit_share", "share"),
    ("mix.cold_miss_share", "share"),
    ("mix.degraded_share", "share"),
    ("mix.skipped_share", "share"),
];

/// The end-to-end metrics of an untraced run, with their units. Every
/// workload reports all of them; METRICS.md gives each one's meaning per
/// workload.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("rate_per_s", "1/s")];

/// Correctness tally of a run: operations attempted and operations that
/// failed their check, errored or were rejected.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// What a run prints: the tally and one metric table.
pub struct Outcome {
    tally: Tally,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    order: &'static [(&'static str, &'static str)],
}

impl Outcome {
    /// An outcome reporting the end-to-end metrics (untraced run).
    pub fn end_to_end(tally: Tally) -> Self {
        Self::with_table(tally, END_TO_END)
    }

    /// An outcome reporting the per-layer metrics (traced run), every one
    /// starting at 0 for layers the workload does not run.
    pub fn per_layer(tally: Tally) -> Self {
        let mut outcome = Self::with_table(tally, PER_LAYER);
        for (name, unit) in PER_LAYER {
            outcome.metrics.insert(name, (0.0, unit));
        }
        outcome
    }

    fn with_table(tally: Tally, order: &'static [(&'static str, &'static str)]) -> Self {
        Outcome {
            tally,
            metrics: BTreeMap::new(),
            order,
        }
    }

    /// Sets a metric of this outcome's table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = self
            .order
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's table"))
            .1;
        self.metrics.insert(name, (value, unit));
    }

    /// Prints every metric by name and unit, then the result line.
    pub fn print(&self) {
        println!(
            "correctness: attempted {} failed {} failed_share {}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_share()
        );
        let mut json = Vec::new();
        for (name, _) in self.order {
            let (value, unit) = self
                .metrics
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            json.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// `num / den`, 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `setup_s` is the median of repeated set-ups. `SETUP_FIRST_REPEATS` of
/// them run before the first pass. The workloads with the millisecond
/// set-ups (`dse-exact`, `store-sweep`) repeat theirs between passes too,
/// until set-ups have taken `SETUP_SHARE` of the run so far, at most
/// `SETUP_MAX_REPEATS` in all. On a shared machine whose speed moves for
/// seconds at a time, a batch of such set-ups run only at the start samples
/// one moment of it; spread over the run they follow the run's typical
/// speed, as the passes' median does. A set-up of half a second already
/// takes more than that share in its first batch.
const SETUP_FIRST_REPEATS: usize = 5;
const SETUP_SHARE: f64 = 0.05;
const SETUP_MAX_REPEATS: usize = 400;

/// Repeats a workload's set-up and keeps its times. `make` builds a set-up
/// (it is given the number of set-ups so far) and `discard` tears one down.
pub struct SetupTimer<M, D> {
    make: M,
    discard: D,
    started: Instant,
    times: Vec<f64>,
}

impl<T, M, D> SetupTimer<M, D>
where
    M: FnMut(usize) -> Result<T, String>,
    D: FnMut(T),
{
    /// Runs the first batch of set-ups and returns the last one, which the
    /// run uses; every earlier one is discarded as soon as the next is ready,
    /// and so is the last one if a later set-up fails.
    pub fn start(make: M, discard: D) -> Result<(T, Self), String> {
        let mut timer = SetupTimer {
            make,
            discard,
            started: Instant::now(),
            times: Vec::new(),
        };
        let mut kept = timer.once()?;
        while timer.times.len() < SETUP_FIRST_REPEATS {
            match timer.once() {
                Ok(fresh) => (timer.discard)(std::mem::replace(&mut kept, fresh)),
                Err(err) => {
                    (timer.discard)(kept);
                    return Err(err);
                }
            }
        }
        Ok((kept, timer))
    }

    fn once(&mut self) -> Result<T, String> {
        let t0 = Instant::now();
        let fresh = (self.make)(self.times.len())?;
        self.times.push(t0.elapsed().as_secs_f64());
        Ok(fresh)
    }

    /// Sets up and discards more set-ups until they have taken
    /// `SETUP_SHARE` of the time since the first one began.
    pub fn between_passes(&mut self) -> Result<(), String> {
        while self.times.len() < SETUP_MAX_REPEATS
            && self.times.iter().sum::<f64>() < SETUP_SHARE * self.started.elapsed().as_secs_f64()
        {
            let spare = self.once()?;
            (self.discard)(spare);
        }
        Ok(())
    }

    /// The median set-up time, after printing the count, median, minimum
    /// and maximum.
    pub fn median(&self) -> f64 {
        let (lo, hi) = self
            .times
            .iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &t| {
                (lo.min(t), hi.max(t))
            });
        println!(
            "set-up repeated {} times: median {} s, min {lo} s, max {hi} s",
            self.times.len(),
            median(&self.times)
        );
        median(&self.times)
    }
}

/// Median of the samples (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The highest percentile of a fixed ladder that leaves at least ten samples
/// beyond it, as `(value, percentile label, samples beyond)`. With fewer
/// than twenty samples no percentile above the median qualifies, and the
/// tail is the median itself.
pub fn tail(samples: &[f64]) -> (f64, &'static str, usize) {
    const LADDER: [(f64, &str); 5] = [
        (0.999, "p99.9"),
        (0.99, "p99"),
        (0.95, "p95"),
        (0.9, "p90"),
        (0.75, "p75"),
    ];
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for (p, label) in LADDER {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n >= rank && n - rank >= 10 {
            return (sorted[rank - 1], label, n - rank);
        }
    }
    (median(samples), "p50", n / 2)
}

/// Prints a latency summary line: median, the tail percentile and its
/// sample counts.
pub fn print_latency(name: &str, unit: &str, samples: &[f64]) {
    let (value, label, beyond) = tail(samples);
    println!(
        "{name}: p50 {} {unit}, tail {label} {} {unit} ({} samples, {beyond} beyond the tail)",
        median(samples),
        value,
        samples.len()
    );
}
