//! Batched streaming execution over the grid pool.
//!
//! A run is described by **band** (the scheduler's unit of spatial
//! isolation): tenants *within* a shared band are time-multiplexed, so
//! every slot whose tenant differs from the one before it is charged a
//! full-region micro-reconfiguration in the ledger (the cost that makes
//! oversubscription visible). Those charges follow from slot order and
//! [`BandWork::swap_in_first`] alone; the engine does not ask whether a
//! band is shared — a configuration left behind by a released tenant
//! costs its successor the same swap-in.
//!
//! Host execution is organized by **unit**, not by band. Every job
//! arrives as an [`ExecPlan`] — its mapped graph lowered once, by
//! [`crate::Runtime::run`], which is also where a mapping that cannot
//! be lowered or a value in the wrong format is refused — and is cut
//! into units of `BATCH_SIZE` (64) consecutive items. The calling thread
//! and its helper threads take units off one shared cursor, so a call
//! takes about the total item work divided by the workers, whatever the
//! sizes of the bands. Outputs are put back in item order.
//!
//! A unit is one [`ExecPlan::run_chunk`] call: its items become the
//! lanes of `u64` columns in a buffer the worker keeps, and each op of
//! the plan runs over a whole column. `BATCH_SIZE` is therefore the
//! lane count; nothing here touches a single item.
//!
//! The plan computes, bit for bit, what `vcgra::sim::run_mapped` and
//! `run_dataflow` compute in FloPoCo arithmetic; the bit-exactness
//! acceptance tests pin that down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use softfloat::FpValue;
use vcgra::sim::ExecPlan;

use crate::pool::TenantId;

/// Items in one unit of streaming work handed to a worker: what
/// [`crate::Runtime::run`] passes [`run_bands`] as `batch_size`.
pub(crate) const BATCH_SIZE: usize = 64;

/// One tenant's work within a band.
pub struct Job {
    /// The tenant being served.
    pub tenant: TenantId,
    /// Its placed configuration under its current parameters, lowered.
    pub plan: ExecPlan,
    /// Input vectors to stream, one value per external input each.
    pub inputs: Vec<Vec<FpValue>>,
}

/// All work scheduled onto one band this run.
pub struct BandWork {
    /// True when the configuration loaded in the band is not the first
    /// job's — the first slot must swap in too.
    pub swap_in_first: bool,
    /// Modeled port time of one context switch (full-region reconfig).
    pub switch_cost: Duration,
    /// Jobs, in slot order.
    pub jobs: Vec<Job>,
}

/// Per-tenant result of one streaming run.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The tenant.
    pub tenant: TenantId,
    /// One output vector per input vector, in order.
    pub outputs: Vec<Vec<FpValue>>,
    /// Input vectors processed.
    pub items: usize,
    /// Batches (units of `batch_size` items; 64 under [`crate::Runtime::run`])
    /// processed.
    pub batches: usize,
    /// Measured host execution time.
    pub exec_time: Duration,
    /// Context switches charged to this tenant: 1 when its slot swapped
    /// its configuration in, else 0.
    pub context_switches: usize,
    /// Modeled port time of that switch.
    pub switch_port_time: Duration,
}

/// The `request` → `execute` spans over the consecutive units of one job
/// that one worker ran: a span pair per unit would cost the traced run
/// more than the units' bookkeeping costs the untraced one. `execute`
/// carries its item count and the column tier the units ran on
/// (`softfloat::kernel::column_tier`).
struct UnitSpans {
    job: usize,
    items: usize,
    // Dropped in this order: spans close innermost first.
    execute: trace::Span,
    _request: trace::Span,
}

impl UnitSpans {
    fn open(job: usize, tenant: TenantId) -> Self {
        let mut request = trace::span("request");
        request.arg("tenant", tenant);
        request.arg("op", "execute");
        UnitSpans {
            job,
            items: 0,
            execute: trace::span("execute"),
            _request: request,
        }
    }
}

impl Drop for UnitSpans {
    fn drop(&mut self) {
        self.execute.arg("items", self.items);
        self.execute.arg("tier", softfloat::kernel::column_tier());
    }
}

/// Runs every job of every band on up to `workers` threads, the calling
/// thread being one of them. `batch_size` is the number of items in a
/// unit of work, and the granularity of the `batches` counter.
pub fn run_bands(bands: Vec<BandWork>, workers: usize, batch_size: usize) -> Vec<TenantRun> {
    assert!(batch_size > 0);
    let mut jobs = Vec::new();
    let mut runs = Vec::new();
    for band in bands {
        let mut loaded: Option<TenantId> = None;
        for job in band.jobs {
            // A slot swaps its configuration into the shared region when
            // the one loaded there is another tenant's: the previous
            // slot's, or before the first slot the band's resident.
            let swap_in = match loaded {
                Some(tenant) => tenant != job.tenant,
                None => band.swap_in_first,
            };
            loaded = Some(job.tenant);
            if swap_in {
                // The swap-in reconfigures this band while other bands
                // keep computing — the overlap the runtime's timeline
                // models as a lane-local phase.
                let mut request_span = trace::span("request");
                request_span.arg("tenant", job.tenant);
                request_span.arg("op", "switch");
                let mut sw = trace::span("reconfig_overlap");
                sw.arg("tenant", job.tenant);
                sw.arg("switch_ns", band.switch_cost.as_nanos() as u64);
            }
            runs.push(TenantRun {
                tenant: job.tenant,
                outputs: Vec::with_capacity(job.inputs.len()),
                items: job.inputs.len(),
                batches: job.inputs.len().div_ceil(batch_size),
                exec_time: Duration::ZERO,
                context_switches: usize::from(swap_in),
                switch_port_time: if swap_in {
                    band.switch_cost
                } else {
                    Duration::ZERO
                },
            });
            jobs.push(job);
        }
    }

    // (job, first item) of every unit, in output order.
    let units: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| {
            (0..job.inputs.len())
                .step_by(batch_size)
                .map(move |start| (j, start))
        })
        .collect();
    // Relaxed: the cursor only hands out indices; a worker's results
    // reach the caller through its join.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        let mut columns = Vec::new();
        let mut spans: Option<UnitSpans> = None;
        while let Some(&(j, start)) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let job = &jobs[j];
            let chunk = &job.inputs[start..job.inputs.len().min(start + batch_size)];
            if spans.as_ref().is_some_and(|s| s.job != j) {
                // Closed before the next job's open: spans nest per thread.
                spans = None;
            }
            spans
                .get_or_insert_with(|| UnitSpans::open(j, job.tenant))
                .items += chunk.len();
            let t0 = Instant::now();
            let outputs = job.plan.run_chunk(chunk, &mut columns);
            done.push((j, start, outputs, t0.elapsed()));
        }
        done
    };
    let helpers = workers.min(units.len()).saturating_sub(1);
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("engine worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(j, start, ..)| (j, start));
    for (j, _, outputs, elapsed) in done {
        runs[j].outputs.extend(outputs);
        runs[j].exec_time += elapsed;
    }
    runs.sort_by_key(|r| r.tenant);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::FpFormat;
    use vcgra::app::AppGraph;
    use vcgra::flow::map_app;
    use vcgra::VcgraArch;

    const F: FpFormat = FpFormat::PAPER;

    fn fp(x: f64) -> FpValue {
        FpValue::from_f64(x, F)
    }

    fn plan(app: &AppGraph, seed: u64) -> ExecPlan {
        let mapping = map_app(app, VcgraArch::paper_4x4(), seed).unwrap();
        ExecPlan::lower(&mapping, app).unwrap()
    }

    /// Two dedicated bands of unequal size, a shared band of two slots,
    /// and a job without items.
    fn mixed_bands(plans: &[ExecPlan], inputs: &[Vec<Vec<FpValue>>]) -> Vec<BandWork> {
        let job = |t: usize| Job {
            tenant: t as TenantId,
            plan: plans[t].clone(),
            inputs: inputs[t].clone(),
        };
        let cost = Duration::from_millis(100);
        let band = |jobs| BandWork {
            swap_in_first: false,
            switch_cost: cost,
            jobs,
        };
        vec![
            band(vec![job(0)]),
            band(vec![job(3), job(1)]),
            band(vec![job(2)]),
        ]
    }

    #[test]
    fn runs_do_not_depend_on_workers_or_batch_size() {
        let apps = [
            AppGraph::dot_product(F, &[0.5, 0.25, 0.125]),
            AppGraph::mac_chain(F, &[1.0, -1.0]),
            AppGraph::dot_product(F, &[2.0, -3.0, 0.5, 4.0, 1.5]),
            AppGraph::dot_product(F, &[1.0, 2.0]),
        ];
        let plans: Vec<ExecPlan> = apps.iter().map(|a| plan(a, 3)).collect();
        let items = [10, 0, 150, 65];
        let inputs: Vec<Vec<Vec<FpValue>>> = apps
            .iter()
            .zip(items)
            .map(|(a, n)| {
                (0..n)
                    .map(|i| {
                        (0..a.num_inputs)
                            .map(|j| fp((i * 7 + j) as f64 * 0.5))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // What each item gives on its own, outside the engine.
        let want: Vec<Vec<Vec<FpValue>>> = plans
            .iter()
            .zip(&inputs)
            .map(|(p, ins)| {
                ins.chunks(1)
                    .flat_map(|x| p.run_chunk(x, &mut Vec::new()))
                    .collect()
            })
            .collect();

        for workers in [1, 2, 4, 8] {
            for batch_size in [1, 7, 64, 4096] {
                let runs = run_bands(mixed_bands(&plans, &inputs), workers, batch_size);
                assert_eq!(runs.len(), 4, "a job without items still reports");
                for (t, run) in runs.iter().enumerate() {
                    let at = format!("tenant {t}, {workers} workers, batches of {batch_size}");
                    assert_eq!(run.tenant, t as TenantId, "{at}");
                    assert_eq!(run.outputs, want[t], "{at}: outputs in item order");
                    assert_eq!(run.items, items[t], "{at}");
                    assert_eq!(run.batches, items[t].div_ceil(batch_size), "{at}");
                    // Tenant 1 runs in the second slot of the shared band.
                    assert_eq!(run.context_switches, usize::from(t == 1), "{at}");
                    assert_eq!(
                        run.switch_port_time,
                        Duration::from_millis(if t == 1 { 100 } else { 0 }),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_band_charges_context_switches() {
        let app = AppGraph::dot_product(F, &[1.0, 2.0]);
        let plan = plan(&app, 1);
        let inputs: Vec<Vec<FpValue>> = vec![vec![fp(1.0), fp(2.0)]; 3];
        let cost = Duration::from_millis(100);
        let band = BandWork {
            swap_in_first: false,
            switch_cost: cost,
            jobs: (0..3)
                .map(|t| Job {
                    tenant: t,
                    plan: plan.clone(),
                    inputs: inputs.clone(),
                })
                .collect(),
        };
        let runs = run_bands(vec![band], 2, 8);
        assert_eq!(
            runs[0].context_switches, 0,
            "first slot is already resident"
        );
        assert_eq!(runs[1].context_switches, 1);
        assert_eq!(runs[2].context_switches, 1);
        assert_eq!(runs[1].switch_port_time, cost);

        // With another tenant's configuration loaded — resident from a
        // previous run, or left behind by a tenant that has gone, so that
        // the band is no longer shared — the first slot pays a swap-in too.
        let band = BandWork {
            swap_in_first: true,
            switch_cost: cost,
            jobs: vec![Job {
                tenant: 0,
                plan: plan.clone(),
                inputs: inputs.clone(),
            }],
        };
        let runs = run_bands(vec![band], 1, 8);
        assert_eq!(runs[0].context_switches, 1, "resident tenant differs");

        // Two requests for one tenant are adjacent slots: the second finds
        // its own configuration loaded and pays nothing.
        let band = BandWork {
            swap_in_first: false,
            switch_cost: cost,
            jobs: [0, 0, 1]
                .map(|t| Job {
                    tenant: t,
                    plan: plan.clone(),
                    inputs: inputs.clone(),
                })
                .into(),
        };
        let switches: Vec<usize> = run_bands(vec![band], 2, 8)
            .iter()
            .map(|r| r.context_switches)
            .collect();
        assert_eq!(switches, [0, 0, 1]);
    }
}
