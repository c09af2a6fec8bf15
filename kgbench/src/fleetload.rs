//! The `fleet` workload: many short tenant sessions over a shared,
//! wear-levelled PCM device — the only multi-threaded path.

use fleet::{run_fleet, FleetConfig, FleetOutcome, PlacementStrategy};

use crate::harness::{cpu_seconds, nproc, peak_rss_mb, repeat_for, Inject, Measurement, RunOptions, Tally};
use crate::metrics::Values;
use crate::micro;
use crate::spans::SpanLog;
use crate::stats::{median, undisturbed};

/// The fleet workload's size.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Tenant sessions per fleet run.
    pub tenants: usize,
    /// Base session scale divisor.
    pub scale: u64,
}

/// Every simulated statistic of a fleet run, none of the host timing:
/// bit-identical runs produce equal digests.
fn digest(outcome: &FleetOutcome) -> String {
    let per_tenant: Vec<String> = outcome
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}:{}:{}:{}:{}:{}:{:x}",
                o.index,
                o.region,
                o.warm.label(),
                o.pcm_writes,
                o.pcm_bytes,
                o.touch_events,
                o.elapsed_s.to_bits()
            )
        })
        .collect();
    format!(
        "lines={} pages={} bytes={} events={} modeled={:x} warm={}/{}/{} | {}",
        outcome.failed_lines,
        outcome.retired_pages,
        outcome.pcm_bytes,
        outcome.touch_events,
        outcome.modeled_s.to_bits(),
        outcome.warm_starts,
        outcome.drifted_warm_starts,
        outcome.cold_starts,
        per_tenant.join(",")
    )
}

struct Prepared {
    /// The levelled `jobs = 1` run: source of every simulated metric.
    serial: FleetOutcome,
    /// `VmHWM` right after that run.
    serial_peak_rss_mb: Option<f64>,
    reference: String,
    round_robin_retired_pages: u64,
}

struct Runner {
    base: FleetConfig,
    jobs: usize,
}

impl Runner {
    fn new(spec: &FleetSpec, options: &RunOptions) -> Self {
        let (tenants, scale) = if options.quick {
            (spec.tenants / 2, spec.scale * 16)
        } else {
            (spec.tenants, spec.scale)
        };
        Runner {
            base: FleetConfig::new(tenants)
                .with_seed(options.seed)
                .with_scale(scale),
            jobs: nproc(),
        }
    }

    /// One fleet run; every tenant session is an attempted operation.
    fn run(
        &self,
        strategy: PlacementStrategy,
        jobs: usize,
        name: &str,
        spans: &mut SpanLog,
        tally: &mut Tally,
    ) -> (FleetOutcome, f64) {
        let config = self.base.clone().with_strategy(strategy).with_jobs(jobs);
        let (outcome, secs) = spans.scope(name, |_| run_fleet(&config));
        let died = outcome.outcomes.iter().filter(|o| o.died.is_some()).count();
        let failed = outcome.failures.len() + died;
        tally.add(
            (outcome.outcomes.len() + outcome.failures.len()) as u64,
            failed as u64,
            || format!("{name}: {failed} tenant sessions failed"),
        );
        (outcome, secs)
    }

    fn levelled(
        &self,
        jobs: usize,
        reference: &str,
        spans: &mut SpanLog,
        tally: &mut Tally,
    ) -> (FleetOutcome, f64) {
        let name = if jobs == 1 { "jobs1" } else { "jobsN" };
        let (outcome, secs) = self.run(PlacementStrategy::WearLevelled, jobs, name, spans, tally);
        tally.check(digest(&outcome) == reference, || {
            format!("fleet digest at jobs={jobs} differs from the jobs=1 reference")
        });
        (outcome, secs)
    }

    /// One full set-up: the serial reference run, the round-robin baseline
    /// and a parallel warm-up, with the output checks between them. The
    /// serial run comes first so that the process's peak RSS can be read
    /// before any thread timing has a say in it.
    fn prepare(&self, spans: &mut SpanLog, tally: &mut Tally) -> Prepared {
        let (serial, _) = self.run(PlacementStrategy::WearLevelled, 1, "jobs1", spans, tally);
        let serial_peak_rss_mb = peak_rss_mb();
        let reference = digest(&serial);
        let (naive, _) = self.run(
            PlacementStrategy::RoundRobin,
            self.jobs,
            "round-robin",
            spans,
            tally,
        );
        self.levelled(self.jobs, &reference, spans, tally);
        tally.check(serial.retired_pages < naive.retired_pages, || {
            format!(
                "wear levelling retired {} pages, round-robin {}",
                serial.retired_pages, naive.retired_pages
            )
        });
        Prepared {
            serial,
            serial_peak_rss_mb,
            reference,
            round_robin_retired_pages: naive.retired_pages,
        }
    }

    fn describe(&self, prepared: &Prepared) -> String {
        format!(
            "fleet: {} tenants at base scale {} (seed {}), jobs 1 vs {}; {} touch events per run",
            self.base.tenants, self.base.scale, self.base.seed, self.jobs, prepared.serial.touch_events
        )
    }
}

fn apply(inject: Option<Inject>, prepared: &mut Prepared) -> Result<(), String> {
    match inject {
        Some(Inject::ForgeDigest) => prepared.reference.push('!'),
        Some(Inject::FlipTraceByte) => {
            return Err("the fleet workload has no encoded trace to corrupt".into())
        }
        None => {}
    }
    Ok(())
}

/// The `--trace 0` run: set-ups, then timed `jobs = nproc` fleet runs.
pub fn run_end_to_end(
    spec: &FleetSpec,
    options: &RunOptions,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Result<Measurement, String> {
    let runner = Runner::new(spec, options);
    let mut setup_s = Vec::new();
    let mut prepared = None;
    // Only the first set-up's serial run precedes every parallel run.
    let mut peak_rss = None;
    for _ in 0..options.setups() {
        let (state, secs) = spans.scope("setup", |spans| runner.prepare(spans, tally));
        setup_s.push(secs);
        peak_rss = peak_rss.or(state.serial_peak_rss_mb);
        prepared = Some(state);
    }
    let mut prepared = prepared.expect("at least one set-up");
    apply(options.inject, &mut prepared)?;

    let mut walls = Vec::new();
    let passes = repeat_for(options.budget(), options.min_passes(), |_| {
        spans.enter("pass");
        walls.push(runner.levelled(runner.jobs, &prepared.reference, spans, tally).1);
        spans.exit();
    });

    let mut values = Values::default();
    let events = prepared.serial.touch_events as f64;
    let rates: Vec<f64> = walls.iter().map(|wall| events / wall).collect();
    values.set_measured("events_per_sec", events / undisturbed(&walls), &rates);
    values.set_samples("setup_s", &setup_s);
    values.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    let pcm_writes: u64 = prepared
        .serial
        .outcomes
        .iter()
        .map(|tenant| tenant.pcm_writes)
        .sum();
    values.set(
        "sim_pcm_writes_per_event",
        pcm_writes as f64 / prepared.serial.touch_events.max(1) as f64,
    );
    Ok(Measurement {
        values,
        passes,
        setups: setup_s.len(),
        notes: vec![runner.describe(&prepared)],
    })
}

/// The `--trace 1` run: one set-up, then rounds of a serial and a parallel
/// fleet run with wall-clock and CPU time around each.
pub fn run_traced(
    spec: &FleetSpec,
    options: &RunOptions,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Result<Measurement, String> {
    let runner = Runner::new(spec, options);
    let (mut prepared, _) = spans.scope("setup", |spans| runner.prepare(spans, tally));
    apply(options.inject, &mut prepared)?;

    let (mut wall_1, mut wall_n, mut cpu_1, mut cpu_n) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let rounds = repeat_for(options.budget(), if options.quick { 1 } else { 2 }, |_| {
        spans.enter("pass");
        for (jobs, walls, cpus) in [
            (1, &mut wall_1, &mut cpu_1),
            (runner.jobs, &mut wall_n, &mut cpu_n),
        ] {
            let before = cpu_seconds();
            walls.push(runner.levelled(jobs, &prepared.reference, spans, tally).1);
            if let (Some(before), Some(after)) = (before, cpu_seconds()) {
                cpus.push(after - before);
            }
        }
        spans.exit();
    });
    let micro = spans.scope("micro", |spans| micro::run(options, spans, tally)).0;

    let serial = &prepared.serial;
    let mut values = Values::default();
    values.set_times("fleet.wall_s.jobs1", &wall_1);
    values.set_times("fleet.wall_s.jobsN", &wall_n);
    values.set_samples("fleet.cpu_s.jobs1", &cpu_1);
    values.set_samples("fleet.cpu_s.jobsN", &cpu_n);
    if median(&cpu_1) > 0.0 {
        values.set("fleet.cpu_inflation", median(&cpu_n) / median(&cpu_1));
    }
    let (serial_s, parallel_s) = (undisturbed(&wall_1), undisturbed(&wall_n));
    values.set("fleet.jobs_speedup", serial_s / parallel_s);
    values.set("fleet.retired_pages", serial.retired_pages as f64);
    values.set("fleet.failed_lines", serial.failed_lines as f64);
    values.set("fleet.warm_starts", serial.warm_starts as f64);
    values.set("fleet.cold_starts", serial.cold_starts as f64);
    values.set("fleet.tenant_failures", serial.failures.len() as f64);
    values.set(
        "fleet.retired_pages_vs_round_robin",
        serial.retired_pages as f64 / prepared.round_robin_retired_pages.max(1) as f64,
    );
    values.set(
        "fleet.warm_pcm_write_ratio",
        serial.warm_cold_ratio().unwrap_or(0.0),
    );
    // GC pauses are host time, so they come from the last measured run
    // rather than the digest; any levelled run serves.
    values.set(
        "kingsguard.pause_p50_us",
        serial.pauses.quantile(0.5) as f64 / 1e3,
    );
    values.set("kingsguard.pause_max_us", serial.pauses.max as f64 / 1e3);
    micro.record(&mut values);

    let notes = vec![
        runner.describe(&prepared),
        format!(
            "jobs=1 {:.3} s, jobs={} {:.3} s: speedup {:.2}x, CPU time x{:.2}",
            serial_s,
            runner.jobs,
            parallel_s,
            serial_s / parallel_s,
            median(&cpu_n) / median(&cpu_1).max(f64::MIN_POSITIVE),
        ),
    ];
    Ok(Measurement {
        values,
        passes: rounds,
        setups: 1,
        notes,
    })
}
