//! Benchmark entry point: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, run from the repository root.
//!
//! Repeats passes of the workload until `--seconds` are used (at least
//! [`MIN_PASSES`]), each plain pass followed by the calibration laps, then
//! prints a provenance line and, as the last line
//! of standard output, the result object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates plain and span-timed passes,
//! adds one cycle-attributed pass, and reports the per-layer metrics.

use std::process::ExitCode;
use std::time::Instant;

use psim_kernels::PimDevice;
use psim_perfbench::check::Percentile;
use psim_perfbench::{calibrate, fastest_laps_s, host, workload, Opts, Pass, Sim, Workload};
use psyncpim_core::Category;

/// Fewest plain (and, when tracing, span-timed) passes in a run.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <spmv_suite|sptrsv_suite|service_backlog> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("a whole number of seconds"))?;
                seconds = Some(s.max(1) as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: name.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every pass of one run.
struct Run {
    /// Plain passes (tracing off), the cold first pass included.
    plain: Vec<Pass>,
    /// Span-timed passes (`--trace 1` only).
    traced: Vec<Pass>,
    /// The cycle-attributed pass (`--trace 1` only).
    attributed: Option<Pass>,
    /// Minor page faults of the first pass.
    first_minflt: u64,
    /// Calibration lap times after each plain pass; `None` if a
    /// calibration checksum came out wrong.
    calibration: Option<Vec<Vec<f64>>>,
}

impl Run {
    fn execute(w: &dyn Workload, args: &Args) -> Run {
        let start = Instant::now();
        let want = calibrate::lap_work();
        let faults = host::minor_faults();
        let mut run = Run {
            plain: vec![w.pass(args.seed, Opts::default())],
            traced: Vec::new(),
            attributed: None,
            first_minflt: host::minor_faults() - faults,
            calibration: Some(Vec::new()),
        };
        run.calibrate(want);
        let mut last_wall = start.elapsed().as_secs_f64();
        loop {
            let enough =
                run.plain.len() >= MIN_PASSES && (!args.trace || run.traced.len() >= MIN_PASSES);
            if enough && start.elapsed().as_secs_f64() + last_wall > args.seconds {
                break;
            }
            let t0 = Instant::now();
            if args.trace && run.traced.len() < run.plain.len() {
                run.traced.push(w.pass(
                    args.seed,
                    Opts {
                        spans: true,
                        attribute: false,
                    },
                ));
            } else {
                run.plain.push(w.pass(args.seed, Opts::default()));
                run.calibrate(want);
            }
            last_wall = t0.elapsed().as_secs_f64();
        }
        if args.trace {
            run.attributed = Some(w.pass(
                args.seed,
                Opts {
                    spans: false,
                    attribute: true,
                },
            ));
        }
        run
    }

    /// Run the calibration laps after a plain pass.
    fn calibrate(&mut self, want: u64) {
        let laps = calibrate::laps(want);
        self.calibration = self.calibration.take().zip(laps).map(|(mut all, laps)| {
            all.push(laps);
            all
        });
    }

    /// Sum of the calibration's fastest laps (0 if a checksum was wrong).
    fn calibration_s(&self) -> f64 {
        self.calibration.as_ref().map_or(0.0, |all| {
            let runs: Vec<&[f64]> = all.iter().map(Vec::as_slice).collect();
            fastest_laps_s(&runs).unwrap_or(0.0)
        })
    }

    /// How much faster the machine ran than nominal: multiplying a host
    /// time by this expresses it at the nominal machine speed.
    fn speed(&self) -> f64 {
        calibrate::NOMINAL_S / self.calibration_s()
    }

    /// Sum of the plain passes' fastest laps, or the fastest pass when
    /// their lap counts differ.
    fn raw_pass_s(&self) -> f64 {
        let runs: Vec<&[f64]> = self.plain.iter().map(|p| p.laps_s.as_slice()).collect();
        fastest_laps_s(&runs).unwrap_or_else(|| Self::fastest(&self.plain).timed_s)
    }

    /// The fastest plain set-up.
    fn raw_setup_s(&self) -> f64 {
        self.plain
            .iter()
            .map(|p| p.setup_s)
            .fold(f64::INFINITY, f64::min)
    }

    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.plain
            .iter()
            .chain(&self.traced)
            .chain(&self.attributed)
    }

    /// The first pass's simulated figures.
    fn sim(&self) -> &Sim {
        &self.plain[0].outcome.sim
    }

    /// Every pass failed nothing, every pass's simulated figures equal the
    /// first's, attribution conserves the attributed pass's cycles, and
    /// every calibration lap gave its checksum.
    fn correct(&self) -> bool {
        let same = self
            .passes()
            .all(|p| p.outcome.failed == 0 && p.outcome.sim.without_attr() == *self.sim());
        let conserved = self
            .attributed
            .as_ref()
            .is_none_or(|p| p.outcome.sim.attr.iter().sum::<u64>() == p.outcome.sim.dram_cycles);
        same && conserved && self.calibration.is_some()
    }

    fn fastest(passes: &[Pass]) -> &Pass {
        passes
            .iter()
            .min_by(|a, b| a.timed_s.total_cmp(&b.timed_s))
            .expect("a run has at least one pass")
    }

    /// `(median - fastest) / fastest` of the plain passes' timed sections.
    fn pass_spread(&self) -> f64 {
        let mut t: Vec<f64> = self.plain.iter().map(|p| p.timed_s).collect();
        t.sort_by(f64::total_cmp);
        let median = if t.len() % 2 == 1 {
            t[t.len() / 2]
        } else {
            (t[t.len() / 2 - 1] + t[t.len() / 2]) / 2.0
        };
        (median - t[0]) / t[0]
    }

    fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let sim = self.sim();
        let us = |p: Percentile| p.value * 1e6;
        vec![
            ("pass_s".into(), self.raw_pass_s() * self.speed(), "s"),
            ("setup_s".into(), self.raw_setup_s() * self.speed(), "s"),
            ("peak_rss_mb".into(), host::peak_rss_mb(), "MiB"),
            ("sim_s".into(), sim.sim_s(), "s"),
            ("sim_energy_j".into(), sim.energy_j, "J"),
            (
                "sim_jobs_per_s".into(),
                sim.ops as f64 / sim.makespan_s,
                "1/s",
            ),
            ("sim_p50_us".into(), us(sim.p50), "us"),
            ("sim_p99_us".into(), us(sim.p99), "us"),
            (
                "sim_interactive_p99_us".into(),
                us(sim.interactive_p99),
                "us",
            ),
        ]
    }

    fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let sim = self.sim();
        let t = Self::fastest(&self.traced);
        let s = |name: &str| t.spans.get(name);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let kernel_spans = s("kernels.spmv_s") + s("kernels.sptrsv_s");
        let engine = s("core.engine_s");
        let busy = &sim.sched.shard_busy;
        let mean_busy = ratio(busy.iter().sum::<u64>() as f64, busy.len() as f64);
        let first = &self.plain[0];
        let mut m: Vec<(String, f64, &'static str)> = vec![
            ("sparse.gen_s".into(), s("sparse.gen_s"), "s"),
            ("sparse.level_s".into(), s("sparse.level_s"), "s"),
            ("sparse.partition_s".into(), s("sparse.partition_s"), "s"),
            (
                "sparse.partition_calls".into(),
                s("sparse.partition_calls"),
                "count",
            ),
            ("core.engine_s".into(), engine, "s"),
            (
                "core.engine_ns_per_cycle".into(),
                ratio(engine * 1e9, sim.dram_cycles as f64),
                "ns",
            ),
            ("core.launches".into(), sim.launches as f64, "count"),
            ("core.asm_us".into(), s("core.asm_us"), "us"),
            ("core.lint_us".into(), s("core.lint_us"), "us"),
            ("core.lint_calls".into(), sim.lint_calls as f64, "count"),
            ("kernels.spmv_s".into(), s("kernels.spmv_s"), "s"),
            ("kernels.sptrsv_s".into(), s("kernels.sptrsv_s"), "s"),
            (
                "kernels.prep_s".into(),
                if kernel_spans > 0.0 {
                    kernel_spans - engine
                } else {
                    0.0
                },
                "s",
            ),
            (
                "kernels.dram_cycles".into(),
                sim.dram_cycles as f64,
                "count",
            ),
            (
                "kernels.commands_all_bank".into(),
                sim.commands_all_bank as f64,
                "count",
            ),
            (
                "kernels.commands_per_bank".into(),
                sim.commands_per_bank as f64,
                "count",
            ),
            (
                "kernels.external_bytes".into(),
                sim.external_bytes as f64,
                "B",
            ),
            ("kernels.mem_ops".into(), sim.mem_ops as f64, "count"),
            (
                "kernels.bank_bursts".into(),
                sim.bank_bursts as f64,
                "count",
            ),
            (
                "kernels.burst_use".into(),
                ratio(sim.mem_ops as f64, sim.bank_bursts as f64),
                "ratio",
            ),
            ("sched.fill_s".into(), s("sched.fill_s"), "s"),
            ("sched.run_s".into(), s("sched.run_s"), "s"),
            (
                "sched.nonengine_s".into(),
                if s("sched.run_s") > 0.0 {
                    s("sched.run_s") - engine
                } else {
                    0.0
                },
                "s",
            ),
            ("sched.validate_s".into(), s("sched.validate_s"), "s"),
            ("sched.windows".into(), sim.sched.windows as f64, "count"),
            (
                "sched.fused_jobs".into(),
                sim.sched.fused_jobs as f64,
                "count",
            ),
            (
                "sched.fused_groups".into(),
                sim.sched.fused_groups as f64,
                "count",
            ),
            (
                "sched.fusion_rate".into(),
                ratio(sim.sched.fused_jobs as f64, sim.ops as f64),
                "ratio",
            ),
            ("sched.steals".into(), sim.sched.steals as f64, "count"),
            (
                "sched.store_evictions".into(),
                sim.sched.store_evictions as f64,
                "count",
            ),
            (
                "sched.shard_imbalance".into(),
                ratio(busy.iter().copied().max().unwrap_or(0) as f64, mean_busy),
                "ratio",
            ),
            (
                "sched.wait_p99_us".into(),
                sim.sched.wait_p99.value * 1e6,
                "us",
            ),
            (
                "sched.service_p99_us".into(),
                sim.sched.service_p99.value * 1e6,
                "us",
            ),
            ("sim.kernel_s".into(), sim.kernel_s, "s"),
            ("sim.host_if_s".into(), sim.host_s, "s"),
        ];
        let attr = self
            .attributed
            .as_ref()
            .map(|p| p.outcome.sim.attr)
            .unwrap_or_default();
        for (cat, cycles) in Category::ALL.iter().zip(attr) {
            m.push((
                format!("sim.{}_cycles", cat.label()),
                cycles as f64,
                "count",
            ));
        }
        m.extend([
            (
                "sim.latency_samples".into(),
                sim.p99.samples as f64,
                "count",
            ),
            ("sim.p99_beyond".into(), sim.p99.beyond as f64, "count"),
            (
                "sim.interactive_samples".into(),
                sim.interactive_p99.samples as f64,
                "count",
            ),
            (
                "sim.interactive_p99_beyond".into(),
                sim.interactive_p99.beyond as f64,
                "count",
            ),
            (
                "host.first_pass_s".into(),
                first.setup_s + first.timed_s,
                "s",
            ),
            (
                "host.first_pass_minflt".into(),
                self.first_minflt as f64,
                "count",
            ),
            ("host.pass_spread".into(), self.pass_spread(), "ratio"),
            ("host.raw_pass_s".into(), self.raw_pass_s(), "s"),
            ("host.calibration_s".into(), self.calibration_s(), "s"),
            (
                "host.untracked_s".into(),
                t.timed_s - kernel_spans - s("sched.run_s"),
                "s",
            ),
            (
                "host.trace_overhead".into(),
                t.timed_s / Self::fastest(&self.plain).timed_s,
                "ratio",
            ),
            (
                "host.passes".into(),
                (self.plain.len() + self.traced.len()) as f64,
                "count",
            ),
        ]);
        m
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 and are caught by the caller's finiteness check.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn percentile_json(p: Percentile) -> String {
    format!(
        "{{\"value_us\": {}, \"samples\": {}, \"beyond\": {}}}",
        num(p.value * 1e6),
        p.samples,
        p.beyond
    )
}

fn list(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(num).collect();
    format!("[{}]", items.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let psim = host::psim_env();
    if !psim.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: PSIM_* variables select a different \
             engine or synchronisation back-end than the one measured",
            psim.join(", ")
        );
        return ExitCode::from(2);
    }
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    let run = Run::execute(w.as_ref(), &args);
    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let attempted: u64 = run.passes().map(|p| p.outcome.attempted).sum();
    let failed: u64 = run.passes().map(|p| p.outcome.failed).sum();
    let sim = run.sim();

    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_revision\": \"{}\", \"source_fnv\": \"{}\", \"nproc\": {}, \"engine_tier\": \"{:?}\", \
         \"plain_pass_s\": {}, \"plain_setup_s\": {}, \"traced_pass_s\": {}, \"fastest_pass_s\": {}, \
         \"laps\": {}, \"raw_pass_s\": {}, \"raw_setup_s\": {}, \"calibration_s\": {}, \
         \"pass_spread\": {}, \
         \"ops_per_pass\": {}, \"p50\": {}, \"p99\": {}, \"interactive_p99\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::git_revision(),
        host::source_fingerprint(),
        std::thread::available_parallelism().map_or(0, usize::from),
        PimDevice::psync_1x().tier,
        list(run.plain.iter().map(|p| p.timed_s)),
        list(run.plain.iter().map(|p| p.setup_s)),
        list(run.traced.iter().map(|p| p.timed_s)),
        num(Run::fastest(&run.plain).timed_s),
        run.plain[0].laps_s.len(),
        num(run.raw_pass_s()),
        num(run.raw_setup_s()),
        num(run.calibration_s()),
        num(run.pass_spread()),
        sim.ops,
        percentile_json(sim.p50),
        percentile_json(sim.p99),
        percentile_json(sim.interactive_p99),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.correct() && finite,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
