//! The streaming executor: runs lowered jobs over their items.
//!
//! Every job arrives as an [`ExecPlan`] — its mapped graph lowered once,
//! by [`crate::Runtime::run`], which is also where a mapping that cannot
//! be lowered or a value in the wrong format is refused, and where every
//! band, slot and swap-in is decided and booked. Here a job is only a plan
//! and its items: each is cut into units of [`BATCH_SIZE`] consecutive
//! items, and the calling thread and its helper threads take units off
//! one shared cursor, so a call takes about the total item work divided
//! by the workers, whatever the sizes of the jobs. Outputs are put back in
//! item order.
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

/// Items in one unit of streaming work handed to a worker.
pub(crate) const BATCH_SIZE: usize = 64;

/// One tenant's lowered plan and the items to stream through it.
pub(crate) struct Job {
    /// The tenant being served (named on the job's trace spans).
    pub(crate) tenant: TenantId,
    /// Its placed configuration under its current parameters, lowered.
    pub(crate) plan: ExecPlan,
    /// Input vectors to stream, one value per external input each.
    pub(crate) inputs: Vec<Vec<FpValue>>,
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

/// Runs every job on up to `workers` threads, the calling thread being one
/// of them. Returns, in job order, each job's outputs (one vector per
/// input vector, in item order) and the measured host time of its units.
pub(crate) fn execute(jobs: &[Job], workers: usize) -> Vec<(Vec<Vec<FpValue>>, Duration)> {
    // (job, first item) of every unit, in output order.
    let units: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| {
            (0..job.inputs.len())
                .step_by(BATCH_SIZE)
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
            let chunk = &job.inputs[start..job.inputs.len().min(start + BATCH_SIZE)];
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
    let mut results: Vec<(Vec<Vec<FpValue>>, Duration)> = jobs
        .iter()
        .map(|job| (Vec::with_capacity(job.inputs.len()), Duration::ZERO))
        .collect();
    for (j, _, outputs, elapsed) in done {
        results[j].0.extend(outputs);
        results[j].1 += elapsed;
    }
    results
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

    #[test]
    fn runs_do_not_depend_on_workers() {
        let apps = [
            AppGraph::dot_product(F, &[0.5, 0.25, 0.125]),
            AppGraph::mac_chain(F, &[1.0, -1.0]),
            AppGraph::dot_product(F, &[2.0, -3.0, 0.5, 4.0, 1.5]),
            AppGraph::dot_product(F, &[1.0, 2.0]),
        ];
        // Jobs of unequal size on both sides of the 64-item unit, and one
        // without items.
        let items = [10, 0, 150, 65];
        let jobs: Vec<Job> = apps
            .iter()
            .zip(items)
            .enumerate()
            .map(|(t, (a, n))| Job {
                tenant: t as TenantId,
                plan: plan(a, 3),
                inputs: (0..n)
                    .map(|i| {
                        (0..a.num_inputs)
                            .map(|j| fp((i * 7 + j) as f64 * 0.5))
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        // What each item gives on its own, outside the engine.
        let want: Vec<Vec<Vec<FpValue>>> = jobs
            .iter()
            .map(|job| {
                job.inputs
                    .chunks(1)
                    .flat_map(|x| job.plan.run_chunk(x, &mut Vec::new()))
                    .collect()
            })
            .collect();

        for workers in [1, 2, 4, 8] {
            let done = execute(&jobs, workers);
            assert_eq!(done.len(), 4, "a job without items still reports");
            for (t, (outputs, exec_time)) in done.iter().enumerate() {
                let at = format!("job {t}, {workers} workers");
                assert_eq!(outputs, &want[t], "{at}: outputs in item order");
                if items[t] == 0 {
                    assert_eq!(*exec_time, Duration::ZERO, "{at}: no units, no time");
                }
            }
        }
    }
}
