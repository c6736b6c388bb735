//! One workload, one process: set-up, the timed phase, the metrics.

use crate::measure::{
    median, peak_rss_mb, percentile, process_cpu_ms, thread_cpu_ns, threads_cpu_ns,
};
use crate::metrics::{per_layer, Layers, END_TO_END};
use crate::trace::Tracer;
use crate::workloads::{self, Clock, Ready};
use earthc::earth_ir::json::{self, Obj};
use std::time::Instant;

/// Set-ups per untraced run, of which `setup_s` is the median: at least
/// `MIN_SETUPS`, then as many as fit in `SETUP_BUDGET_S` (the cheapest
/// set-up takes 50 ms, and three samples of that are no measurement), at
/// most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;
/// Fewest timed ops of a full run, so that the 90th percentile has ten
/// samples beyond it even where `--seconds` alone would give fewer.
const MIN_OPS: usize = 100;
/// Fewest traced ops of a traced run (each is paired with an untraced one).
const MIN_TRACED_OPS: usize = 30;
/// Ops of a `--quick` run.
const QUICK_OPS: usize = 5;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A few ops, one set-up: exercises every check, times nothing worth
    /// comparing.
    pub quick: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line of the benchmark contract.
    pub fn to_json(&self) -> String {
        let mut metrics = Obj::new();
        for m in &self.metrics {
            let value = Obj::new()
                .f64("value", m.value)
                .str("unit", &m.unit)
                .finish();
            metrics = metrics.raw(&m.name, &value);
        }
        Obj::new()
            .bool("correct", self.correct)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    pub fn from_json(line: &str) -> Result<Outcome, String> {
        use json::ObjectExt as _;
        let bad = |e: json::JsonError| format!("result line: {e}");
        let doc = json::parse(line).map_err(bad)?;
        let doc = doc.as_object("result").map_err(bad)?;
        let mut metrics = Vec::new();
        let fields = doc.field("metrics").ok_or("result line: no metrics")?;
        for (name, m) in fields.as_object("metrics").map_err(bad)? {
            let m = m.as_object(name).map_err(bad)?;
            metrics.push(Metric {
                name: name.clone(),
                value: m.get_f64("value").map_err(bad)?,
                unit: m.get_str("unit").map_err(bad)?,
            });
        }
        Ok(Outcome {
            attempted: doc.get_u64("attempted").map_err(bad)?,
            failed: doc.get_u64("failed").map_err(bad)?,
            correct: doc.get_bool("correct").map_err(bad)?,
            metrics,
        })
    }
}

/// Op times of one kind of op (untraced or traced), on both clocks.
#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Samples {
    fn on(&self, clock: Clock) -> &[f64] {
        match clock {
            Clock::Wall => &self.wall_ms,
            Clock::Cpu => &self.cpu_ms,
        }
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let start = Instant::now();
    let Ready {
        mut workload,
        problems,
    } = workloads::setup(&opts.workload, opts.seed)?;
    let first_setup_s = start.elapsed().as_secs_f64();
    for p in &problems {
        eprintln!("reference check failed: {p}");
    }
    let clock = workload.clock();
    let spinner = workload.spinner_tid();
    // The process total, less what the harness's own spinner burnt.
    let program_cpu_ms = || -> Result<f64, String> {
        let spun_ns = spinner.map_or(Ok(0), thread_cpu_ns)?;
        Ok(process_cpu_ms()? - spun_ns as f64 / 1e6)
    };

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut tracer = Tracer::on();
    let mut off = Tracer::off();
    let mut failed = 0u64;
    let mut timed = |workload: &mut dyn workloads::Workload, t: &mut Tracer, into: &mut Samples| {
        let cpu = threads_cpu_ns(spinner)?;
        let start = Instant::now();
        let result = workload.op(t);
        into.wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        into.cpu_ms
            .push(threads_cpu_ns(spinner)?.saturating_sub(cpu) as f64 / 1e6);
        match result {
            Ok(0) => {}
            Ok(mismatches) => {
                eprintln!("op failed: {mismatches} outputs differ from their references");
                failed += 1;
            }
            Err(e) => {
                eprintln!("op failed: {e}");
                failed += 1;
            }
        }
        Ok::<(), String>(())
    };

    let cpu_start = program_cpu_ms()?;
    let phase = Instant::now();
    loop {
        let done = if opts.trace {
            traced.wall_ms.len()
        } else {
            untraced.wall_ms.len()
        };
        let enough = if opts.quick {
            done >= QUICK_OPS
        } else {
            let min = if opts.trace { MIN_TRACED_OPS } else { MIN_OPS };
            done >= min && phase.elapsed().as_secs_f64() >= opts.seconds
        };
        if enough {
            break;
        }
        if !opts.trace {
            timed(workload.as_mut(), &mut off, &mut untraced)?;
            continue;
        }
        // An untraced and a traced op per round, so that drift during the
        // run cannot pass for tracing overhead; which goes first alternates,
        // because the op after the probes finds the caches cold.
        tracer.next_op();
        if done % 2 == 0 {
            timed(workload.as_mut(), &mut off, &mut untraced)?;
            timed(workload.as_mut(), &mut tracer, &mut traced)?;
        } else {
            timed(workload.as_mut(), &mut tracer, &mut traced)?;
            timed(workload.as_mut(), &mut off, &mut untraced)?;
        }
        workload.probe(&mut tracer)?;
    }
    let cpu_ms = program_cpu_ms()? - cpu_start;

    let attempted = (untraced.wall_ms.len() + traced.wall_ms.len()) as u64;
    // A reference the set-up could not accept leaves no op verified.
    let failed = if problems.is_empty() {
        failed
    } else {
        attempted
    };
    let mut metrics = Vec::new();
    if opts.trace {
        let mut layers = Layers::zeroed();
        workload.layers(&tracer.per_op(), &mut layers)?;
        let (plain, with_spans) = (median(untraced.on(clock)), median(traced.on(clock)));
        layers.set("trace.overhead_pct", 100.0 * (with_spans - plain) / plain);
        if clock == Clock::Cpu {
            let wall: f64 = untraced.wall_ms.iter().sum();
            let cpu: f64 = untraced.cpu_ms.iter().sum();
            layers.set("serve.wall_ms_per_op", wall / untraced.wall_ms.len() as f64);
            layers.set("serve.cpu_util", cpu / wall);
        }
        for m in per_layer() {
            metrics.push(Metric {
                value: layers.get(&m.name),
                name: m.name,
                unit: m.unit.to_string(),
            });
        }
        workload.finish()?;
    } else {
        let times = untraced.on(clock);
        let exact = workload.exact();
        // Memory first: one set-up and the timed phase, as a user's process
        // would have. Then set-up again, several times over: its time is a
        // metric, and one sample of 50 ms is no measurement.
        let peak_rss = peak_rss_mb()?;
        workload.finish()?;
        let setup_s = repeat_setup(opts, first_setup_s)?;
        let value = |name: &str| -> Result<f64, String> {
            Ok(match name {
                "op_p50_ms" => percentile(times, 50.0),
                "op_p90_ms" => percentile(times, 90.0),
                "ops_per_s" => times.len() as f64 / (times.iter().sum::<f64>() / 1e3),
                "cpu_ms_per_op" => cpu_ms / times.len() as f64,
                "peak_rss_mb" => peak_rss,
                "setup_s" => median(&setup_s),
                "virt_ms" => exact.virt_ms,
                "virt_vs_simple" => exact.virt_vs_simple,
                "comm_ops" => exact.comm_ops as f64,
                other => unreachable!("`{other}` has no definition"),
            })
        };
        for m in END_TO_END {
            metrics.push(Metric {
                name: m.name.to_string(),
                value: value(m.name)?,
                unit: m.unit.to_string(),
            });
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
    })
}

/// Sets the workload up again until there are [`MIN_SETUPS`] samples and
/// either [`SETUP_BUDGET_S`] is spent or there are [`MAX_SETUPS`].
fn repeat_setup(opts: &Options, first_s: f64) -> Result<Vec<f64>, String> {
    let mut samples = vec![first_s];
    while !opts.quick
        && (samples.len() < MIN_SETUPS
            || (samples.len() < MAX_SETUPS && samples.iter().sum::<f64>() < SETUP_BUDGET_S))
    {
        let start = Instant::now();
        let ready = workloads::setup(&opts.workload, opts.seed)?;
        samples.push(start.elapsed().as_secs_f64());
        ready.workload.finish()?;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, seed: u64, trace: bool) -> Outcome {
        let outcome = run(&Options {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            quick: true,
        })
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(outcome.correct, "{workload}: an op failed its checks");
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted >= QUICK_OPS as u64);
        outcome
    }

    fn value(o: &Outcome, name: &str) -> f64 {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no {name}"))
            .value
    }

    /// Every workload, every reference check and the traced pass. Counts
    /// and everything on the simulator's clock must repeat exactly under
    /// one seed; another seed reorders the requests and edits other
    /// literals, and may move nothing the optimizer or the simulator
    /// computes.
    #[test]
    fn counts_repeat_exactly_and_simulated_numbers_ignore_the_seed() {
        for workload in workloads::NAMES {
            let (a, b, reseeded) = (
                quick(workload, 5, true),
                quick(workload, 5, true),
                quick(workload, 6, true),
            );
            assert_eq!(
                a.metrics.len(),
                per_layer().len(),
                "{workload}: every per-layer metric is reported"
            );
            for m in &a.metrics {
                if ["count", "sim_ms", "sim_us"].contains(&m.unit.as_str()) {
                    assert_eq!(
                        m.value,
                        value(&b, &m.name),
                        "{workload}: {} does not repeat",
                        m.name
                    );
                }
                if m.name.starts_with("virt_us.") || m.name.starts_with("comm.") {
                    assert_eq!(
                        m.value,
                        value(&reseeded, &m.name),
                        "{workload}: {} follows the seed",
                        m.name
                    );
                }
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
            }
            let (a, reseeded) = (quick(workload, 5, false), quick(workload, 6, false));
            for m in END_TO_END {
                let v = value(&a, m.name);
                assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
                if m.exact {
                    assert_eq!(
                        v,
                        value(&reseeded, m.name),
                        "{workload}: {} follows the seed",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn the_layers_a_workload_is_about_are_the_ones_it_reports() {
        let churn = quick("daemon_churn", 5, true);
        // Every request re-optimizes exactly one function and, the cache
        // once full, evicts exactly one artifact.
        assert_eq!(value(&churn, "commopt.functions_reoptimized"), 12.0);
        assert_eq!(value(&churn, "serve.hit_ratio"), 0.0);
        assert!(value(&churn, "serve.evictions") > 11.0);
        assert!(value(&churn, "serve.backend_compile_ms") > 0.0);
        assert_eq!(value(&churn, "sim.native_ms"), 0.0);
        let warm = quick("daemon_warm", 5, true);
        assert_eq!(value(&warm, "serve.hit_ratio"), 1.0);
        assert_eq!(value(&warm, "serve.evictions"), 0.0);
        assert!(value(&warm, "serve.resp_decode_ms") > 0.0);
        let sim = quick("sim_run", 5, true);
        assert!(value(&sim, "sim.native_ms.health") > 0.0);
        assert_eq!(value(&sim, "frontend.parse_ms"), 0.0);
    }

    #[test]
    fn an_unknown_workload_is_an_error_not_a_result() {
        let opts = Options {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: true,
        };
        assert!(run(&opts).is_err());
    }

    #[test]
    fn the_result_line_round_trips() {
        let o = Outcome {
            attempted: 7,
            failed: 1,
            correct: false,
            metrics: vec![Metric {
                name: "op_p50_ms".into(),
                value: 1.2034,
                unit: "ms".into(),
            }],
        };
        let back = Outcome::from_json(&o.to_json()).unwrap();
        assert_eq!((back.attempted, back.failed, back.correct), (7, 1, false));
        assert_eq!(back.metrics[0].name, "op_p50_ms");
        assert_eq!(back.metrics[0].value, 1.2034);
        assert_eq!(back.metrics[0].unit, "ms");
    }
}
