//! The streaming executor: runs lowered jobs over their items, in place.
//!
//! Every job arrives as an [`ExecPlan`] — its graph lowered once, by
//! [`crate::Runtime::run`], which is also where a graph that cannot be
//! lowered is refused, where every band, slot and swap-in is decided and
//! booked, and where the thread count is capped by the host's. Here a job
//! is only a plan and its items: each is cut into units of [`BATCH_SIZE`]
//! consecutive items, and the calling thread and its helper threads take
//! the units in *grabs*: each lock over the jobs' `chunks_mut` hands its
//! taker the next [`grab`] consecutive units, in job and item order —
//! long runs while much work is left, single units at the end — so a
//! worker streams a contiguous stretch of items, a call takes a few locks
//! per thread rather than one per unit, and it still takes about the
//! total item work divided by the threads, whatever the sizes of the jobs.
//!
//! A unit is one [`ExecPlan::run_chunk`] call: its items are checked
//! (arity and format) while they become the lanes of `u64` columns in a
//! buffer the worker keeps, each op of the plan runs over a whole column,
//! and each item's own vector is overwritten with its outputs — so the
//! outputs are already in item order, and no vector is allocated or freed
//! per item. `BATCH_SIZE` is therefore the lane count; nothing here
//! touches a single item. A unit that holds a bad item is left as it was
//! and reported, and its worker stops there. That is the first bad item
//! of the call, whichever worker meets it: grabs are handed out in order,
//! so each unit before it was grabbed before it; each worker runs its
//! grabs in order and stops only at a bad item, so the worker holding the
//! first bad item reaches it, and the least of the workers' first faults
//! is that item.
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

/// Grabs per thread the remaining units are cut into: a grab takes
/// `1 / (GRAB_SHARE · threads)` of what is left.
const GRAB_SHARE: usize = 2;

/// Units the next grab takes when `remaining` are left for `threads`
/// threads: a `GRAB_SHARE · threads`-th of them, at least one and at most
/// all. So the first grabs are long and contiguous, and the last ones are
/// single units that even out the threads' finishing times.
fn grab(remaining: usize, threads: usize) -> usize {
    (remaining / (GRAB_SHARE * threads)).max(1).min(remaining)
}

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
/// carries its item count, the grabs they came in, the call's thread
/// count and the column tier the units ran on
/// (`softfloat::kernel::column_tier`).
struct UnitSpans {
    job: usize,
    items: usize,
    grabs: usize,
    /// The worker's grab that last added units here.
    last_grab: usize,
    threads: usize,
    // Dropped in this order: spans close innermost first.
    execute: trace::Span,
    _request: trace::Span,
}

impl UnitSpans {
    fn open(job: usize, tenant: TenantId, threads: usize) -> Self {
        let mut request = trace::span("request");
        request.arg("tenant", tenant);
        request.arg("op", "execute");
        UnitSpans {
            job,
            items: 0,
            grabs: 0,
            last_grab: usize::MAX,
            threads,
            execute: trace::span("execute"),
            _request: request,
        }
    }

    /// Counts a unit of `items` items that came in the worker's grab
    /// number `grab`.
    fn add(&mut self, grab: usize, items: usize) {
        self.items += items;
        if self.last_grab != grab {
            self.last_grab = grab;
            self.grabs += 1;
        }
    }
}

impl Drop for UnitSpans {
    fn drop(&mut self) {
        self.execute.arg("items", self.items);
        self.execute.arg("grabs", self.grabs);
        self.execute.arg("threads", self.threads);
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
    let threads = workers.min(units).max(1);
    // The units not handed out yet, and how many they are:
    // (job, its tenant and plan, first item, the unit's items), in order.
    let next = Mutex::new((
        units,
        jobs.iter_mut().enumerate().flat_map(|(j, job)| {
            let (tenant, plan) = (job.tenant, &job.plan);
            job.items
                .chunks_mut(BATCH_SIZE)
                .enumerate()
                .map(move |(u, chunk)| (j, tenant, plan, u * BATCH_SIZE, chunk))
        }),
    ));
    let work = || -> Result<(), ItemFault> {
        let mut columns = Vec::new();
        let mut taken = Vec::new();
        let mut spans: Option<UnitSpans> = None;
        for g in 0.. {
            {
                let mut next = next.lock().expect("no worker panics holding it");
                let (remaining, rest) = &mut *next;
                let n = grab(*remaining, threads);
                *remaining -= n;
                taken.extend(rest.take(n));
            }
            if taken.is_empty() {
                break;
            }
            for (j, tenant, plan, start, chunk) in taken.drain(..) {
                if spans.as_ref().is_some_and(|s| s.job != j) {
                    // Closed before the next job's open: spans nest per
                    // thread.
                    spans = None;
                }
                spans
                    .get_or_insert_with(|| UnitSpans::open(j, tenant, threads))
                    .add(g, chunk.len());
                // A worker's grabs come in order, so its first fault is
                // its least; the rest of the grab is left as it was.
                plan.run_chunk(chunk, &mut columns)
                    .map_err(|e| (j, start + e.lane(), e))?;
            }
        }
        Ok(())
    };
    let results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
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
    use softfloat::{FpFormat, NotIn};
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
        // 1 + 64 + 3 units: the first grab runs deep into job 2 at any
        // of these worker counts.
        let sizes = [10, 0, 4096, 130];
        for workers in [1, 2, 4, 8] {
            let first_grab = grab(68, workers);
            let first_grab_end = (first_grab - 1) * BATCH_SIZE;
            let mut jobs = jobs(sizes);
            // Bad items in job 2's last unit and in job 3's first unit —
            // later grabs, another worker's, as the one holding the first
            // grab stops in it — and, the first in job and item order, in
            // job 2's third unit, inside the first grab.
            jobs[2].items[4095].pop();
            jobs[3].items[3][1] = FpValue::from_f64(1.0, other);
            jobs[2].items[131][4] = FpValue::from_f64(1.0, other);
            let before = jobs[2].items.clone();
            let fault = execute(&mut jobs, workers).unwrap_err();
            assert_eq!(
                fault,
                (
                    2,
                    131,
                    ItemError::Value {
                        lane: 3,
                        why: NotIn::Format(other)
                    }
                ),
                "{workers} workers"
            );
            let at = format!("{workers} workers, first grab of {first_grab} units");
            assert_ne!(jobs[2].items[..128], before[..128], "{at}: ran up to it");
            assert_eq!(
                jobs[2].items[128..first_grab_end],
                before[128..first_grab_end],
                "{at}: the bad unit and the rest of its grab are left"
            );
        }
    }

    #[test]
    fn grabs_shrink_from_a_share_of_the_units_to_single_units() {
        for threads in [1, 2, 3, 4, 8] {
            for units in [0, 1, 2, 7, 15, 16, 17, 64, 68, 448, 1000] {
                let mut remaining = units;
                let mut grabs = Vec::new();
                while remaining > 0 {
                    let n = grab(remaining, threads);
                    assert!(
                        (1..=remaining).contains(&n),
                        "{units} units, {threads} threads: {n} of {remaining} left"
                    );
                    grabs.push(n);
                    remaining -= n;
                }
                let at = format!("{units} units, {threads} threads: {grabs:?}");
                assert_eq!(grabs.iter().sum::<usize>(), units, "{at}");
                if units > 0 {
                    assert_eq!(grabs[0], (units / (2 * threads)).max(1), "{at}");
                }
                assert!(grabs.windows(2).all(|w| w[0] >= w[1]), "{at}");
                if units >= 2 * threads {
                    assert_eq!(grabs[grabs.len() - 1], 1, "{at}: ends on a single unit");
                }
            }
        }
        // A 7 × 4 096-item call on two threads takes 22 grabs, not 448.
        let (mut remaining, mut grabs) = (448, 0);
        while remaining > 0 {
            remaining -= grab(remaining, 2);
            grabs += 1;
        }
        assert_eq!(grabs, 22);
    }
}
