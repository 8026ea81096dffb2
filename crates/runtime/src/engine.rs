//! The streaming executor: runs lowered jobs over their items, in place.
//!
//! Every job arrives as an [`ExecPlan`] — its graph lowered once, by
//! [`crate::Runtime::run`], which is also where a graph that cannot be
//! lowered is refused, and where every band, slot and swap-in is
//! decided and booked. Here a job is only a plan and its items: each is
//! cut into units of [`BATCH_SIZE`] consecutive items, and the calling
//! thread and its helper threads take units, in job and item order, off
//! one lock over the jobs' `chunks_mut` — one lock per unit — so a call
//! takes about the total item work divided by the workers, whatever the
//! sizes of the jobs.
//!
//! A unit is one [`ExecPlan::run_chunk`] call: its items are checked
//! (arity and format) while they become the lanes of `u64` columns in a
//! buffer the worker keeps, each op of the plan runs over a whole column,
//! and each item's own vector is overwritten with its outputs — so the
//! outputs are already in item order, and no vector is allocated or freed
//! per item. `BATCH_SIZE` is therefore the lane count; nothing here
//! touches a single item. A unit that holds a bad item is left as it was
//! and reported; since units are handed out in order, the first bad item
//! of the call is the least of the workers' first failures.
//!
//! The engine measures nothing: a run's host time is its `execute` trace
//! spans, and the modeled time axis has no execution phase.
//!
//! The plan computes, bit for bit, what `vcgra::sim::run_dataflow`
//! computes in FloPoCo arithmetic; the bit-exactness acceptance tests pin
//! that down.

use std::sync::Mutex;

use softfloat::FpValue;
use vcgra::sim::{ExecPlan, ItemError};

use crate::pool::TenantId;

/// Items in one unit of streaming work handed to a worker.
pub(crate) const BATCH_SIZE: usize = 64;

/// One tenant's lowered plan and the items to stream through it.
pub(crate) struct Job {
    /// The tenant being served (named on the job's trace spans).
    pub(crate) tenant: TenantId,
    /// Its graph under its current parameters, lowered.
    pub(crate) plan: ExecPlan,
    /// Input vectors to stream, one value per external input each; on
    /// success each holds its item's outputs instead.
    pub(crate) items: Vec<Vec<FpValue>>,
}

/// Where a call stopped: (job, item within the job, what is wrong with it).
pub(crate) type ItemFault = (usize, usize, ItemError);

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
/// of them, overwriting each item with its outputs. Fails with the first
/// item that cannot be read, in job and item order; items of units that
/// ran before the fault was found hold outputs then, the others are as
/// they were.
pub(crate) fn execute(jobs: &mut [Job], workers: usize) -> Result<(), ItemFault> {
    let units: usize = jobs
        .iter()
        .map(|j| j.items.len().div_ceil(BATCH_SIZE))
        .sum();
    // (job, its tenant and plan, first item, the unit's items), in order.
    let next = Mutex::new(jobs.iter_mut().enumerate().flat_map(|(j, job)| {
        let (tenant, plan) = (job.tenant, &job.plan);
        job.items
            .chunks_mut(BATCH_SIZE)
            .enumerate()
            .map(move |(u, chunk)| (j, tenant, plan, u * BATCH_SIZE, chunk))
    }));
    let work = || -> Result<(), ItemFault> {
        let mut columns = Vec::new();
        let mut spans: Option<UnitSpans> = None;
        loop {
            // The guard is dropped at the end of this statement.
            let unit = next.lock().expect("no worker panics holding it").next();
            let Some((j, tenant, plan, start, chunk)) = unit else {
                return Ok(());
            };
            if spans.as_ref().is_some_and(|s| s.job != j) {
                // Closed before the next job's open: spans nest per thread.
                spans = None;
            }
            spans
                .get_or_insert_with(|| UnitSpans::open(j, tenant))
                .items += chunk.len();
            // A worker's units come in order, so its first fault is its
            // least; units it would take next belong to other workers.
            plan.run_chunk(chunk, &mut columns)
                .map_err(|e| (j, start + e.lane(), e))?;
        }
    };
    let helpers = workers.min(units).saturating_sub(1);
    let results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut results = vec![work()];
        results.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked")),
        );
        results
    });
    results
        .into_iter()
        .filter_map(Result::err)
        .min_by_key(|&(j, item, _)| (j, item))
        .map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::FpFormat;
    use vcgra::app::AppGraph;

    const F: FpFormat = FpFormat::PAPER;

    fn fp(x: f64) -> FpValue {
        FpValue::from_f64(x, F)
    }

    /// Jobs of unequal size on both sides of the 64-item unit, and one
    /// without items.
    fn jobs(sizes: [usize; 4]) -> Vec<Job> {
        let apps = [
            AppGraph::dot_product(F, &[0.5, 0.25, 0.125]),
            AppGraph::mac_chain(F, &[1.0, -1.0]),
            AppGraph::dot_product(F, &[2.0, -3.0, 0.5, 4.0, 1.5]),
            AppGraph::dot_product(F, &[1.0, 2.0]),
        ];
        apps.iter()
            .zip(sizes)
            .enumerate()
            .map(|(t, (a, n))| Job {
                tenant: t as TenantId,
                plan: ExecPlan::lower(a).unwrap(),
                items: (0..n)
                    .map(|i| {
                        (0..a.num_inputs)
                            .map(|j| fp((i * 7 + j) as f64 * 0.5))
                            .collect()
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn runs_do_not_depend_on_workers() {
        let sizes = [10, 0, 150, 65];
        // What each item gives on its own, outside the engine.
        let want: Vec<Vec<Vec<FpValue>>> = jobs(sizes)
            .into_iter()
            .map(|mut job| {
                for item in job.items.chunks_mut(1) {
                    job.plan.run_chunk(item, &mut Vec::new()).unwrap();
                }
                job.items
            })
            .collect();

        for workers in [1, 2, 4, 8] {
            let mut jobs = jobs(sizes);
            execute(&mut jobs, workers).unwrap();
            for (t, job) in jobs.iter().enumerate() {
                let at = format!("job {t}, {workers} workers");
                assert_eq!(job.items, want[t], "{at}: outputs in item order");
            }
        }
    }

    #[test]
    fn the_first_bad_item_is_reported_at_any_worker_count() {
        let other = FpFormat::new(5, 10);
        for workers in [1, 2, 4, 8] {
            let mut jobs = jobs([10, 0, 150, 65]);
            // Bad items in job 2's last unit, in job 3's first unit, and
            // — the first in job and item order — in job 2's second unit.
            jobs[2].items[149].pop();
            jobs[3].items[3][1] = FpValue::from_f64(1.0, other);
            jobs[2].items[67][4] = FpValue::from_f64(1.0, other);
            let untouched = jobs[2].items[64..128].to_vec();
            let fault = execute(&mut jobs, workers).unwrap_err();
            assert_eq!(
                fault,
                (
                    2,
                    67,
                    ItemError::Format {
                        lane: 3,
                        got: other
                    }
                ),
                "{workers} workers"
            );
            assert_eq!(jobs[2].items[64..128], untouched, "a bad unit is left");
        }
    }
}
