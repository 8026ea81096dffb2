//! Admission: leasing a region, compiling or sharing a cached compile,
//! the FIFO queue, release and band compaction.

use vcgra::app::AppGraph;
use vcgra::VcgraArch;

use crate::cache::ConfigKey;
use crate::config::RuntimeError;
use crate::pool::{GridPool, Lease, PoolError, Relocation, TenantId};
use crate::pricer;
use crate::runtime::{Runtime, Tenant};
use crate::timeline::Phase;

/// Result of one `submit`: the application was either placed immediately
/// or joined the FIFO admission queue.
#[derive(Debug, Clone)]
pub enum Admission {
    /// A region was leased and the configuration is loaded.
    Admitted(Admitted),
    /// The pool is full; the application waits in the admission queue
    /// and will be placed by the drain a later `release` or `run` makes.
    Queued(Queued),
}

impl Admission {
    /// The tenant id, placed or queued.
    pub fn tenant(&self) -> TenantId {
        match self {
            Admission::Admitted(a) => a.tenant,
            Admission::Queued(q) => q.tenant,
        }
    }

    /// True when the submission went to the queue.
    pub fn is_queued(&self) -> bool {
        matches!(self, Admission::Queued(_))
    }

    /// Unwraps the placement report; panics with `msg` if queued.
    pub fn expect_admitted(self, msg: &str) -> Admitted {
        match self {
            Admission::Admitted(a) => a,
            Admission::Queued(q) => panic!("{msg}: tenant {} was queued", q.tenant),
        }
    }
}

/// Report of one *placed* admission.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// Assigned tenant id.
    pub tenant: TenantId,
    /// Leased region at admission (a later compaction may move it: ask
    /// [`GridPool::lease`]).
    pub lease: Lease,
    /// True when the configuration cache already held the structure.
    pub cache_hit: bool,
    /// Bands the scheduler relocated (compaction) to place this tenant.
    pub relocations: usize,
}

/// A submission parked in the admission queue.
#[derive(Debug, Clone)]
pub struct Queued {
    /// Assigned tenant id (stable across the wait).
    pub tenant: TenantId,
    /// Position in the queue at enqueue time (0 = head).
    pub position: usize,
}

/// A submission waiting in the admission queue.
pub(crate) struct Pending {
    pub(crate) tenant: TenantId,
    name: String,
    graph: AppGraph,
}

impl Runtime {
    /// Admits an application: lease a region (cache-aware, compacting if
    /// needed), then compile or share a cached compile. When the pool is
    /// full the submission parks in the FIFO queue instead of failing — it
    /// will be placed under the same tenant id by the drain a later
    /// [`Runtime::release`] or [`Runtime::run`] makes.
    ///
    /// A refused submission (a malformed graph, one too big for any grid,
    /// a failed compile) still consumes its tenant id — the shard tier
    /// names a tenant by its dispatch count — and leaves the pool, the
    /// queue and the cache as they were (a compaction done to place a
    /// graph that then fails to compile stays, and stays charged).
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        graph: AppGraph,
    ) -> Result<Admission, RuntimeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.check_graph(&graph)?;
        let name = name.into();
        // Strict FIFO: while earlier submissions wait, later ones join
        // the tail even if they would fit — no queue jumping. A graph
        // that could never fit any grid is still rejected synchronously;
        // queueing it would only defer the TooBig to a silent drop.
        if !self.queue.is_empty() {
            self.pool.fits_any_grid(graph.pe_demand())?;
            return Ok(Admission::Queued(self.enqueue(id, name, graph)));
        }
        match self.place_and_admit(id, &name, &graph) {
            Ok(adm) => Ok(Admission::Admitted(adm)),
            Err(RuntimeError::Pool(PoolError::Oversubscribed { .. })) => {
                Ok(Admission::Queued(self.enqueue(id, name, graph)))
            }
            Err(e) => Err(e),
        }
    }

    /// The graph-shape rules, at the door: `submit` calls this before it
    /// touches the pool or the queue, so a graph `run` could never lower
    /// holds no rows; the refusal is named by [`RuntimeError::malformed`].
    fn check_graph(&mut self, graph: &AppGraph) -> Result<(), RuntimeError> {
        graph.validate().map_err(|e| {
            self.ledger.refused += 1;
            RuntimeError::malformed(graph.format, e)
        })
    }

    fn enqueue(&mut self, tenant: TenantId, name: String, graph: AppGraph) -> Queued {
        let position = self.queue.len();
        self.queue.push_back(Pending {
            tenant,
            name,
            graph,
        });
        self.ledger.queued += 1;
        trace::instant("runtime.queued", || {
            vec![("tenant", tenant.into()), ("position", position.into())]
        });
        Queued { tenant, position }
    }

    /// Drains the admission queue: places waiting tenants in strict FIFO
    /// order until the head no longer fits (head-of-line blocking keeps
    /// the order deterministic). A head whose placement fails terminally
    /// (too big, compile error) is dropped and recorded in
    /// [`Runtime::queue_failures`]. Returns the admissions produced.
    ///
    /// `release` and `run` call this: capacity is freed only by a release.
    pub(crate) fn drain_queue(&mut self) -> Vec<Admitted> {
        let mut admitted = Vec::new();
        while let Some(front) = self.queue.pop_front() {
            match self.place_and_admit(front.tenant, &front.name, &front.graph) {
                Ok(adm) => {
                    self.ledger.queue_admitted += 1;
                    admitted.push(adm);
                }
                Err(RuntimeError::Pool(PoolError::Oversubscribed { .. })) => {
                    // Still blocked: the head keeps its place.
                    self.queue.push_front(front);
                    break;
                }
                Err(e) => {
                    self.ledger.queue_dropped += 1;
                    self.queue_failures.push((front.tenant, e));
                }
            }
        }
        admitted
    }

    /// Leases a region and loads the configuration. Never queues — the
    /// caller decides what an `Oversubscribed` error means. `name` and
    /// `graph` are only cloned once placement has succeeded.
    fn place_and_admit(
        &mut self,
        id: TenantId,
        name: &str,
        graph: &AppGraph,
    ) -> Result<Admitted, RuntimeError> {
        // Per-request span tree: request > admission > {placement, cache,
        // compile, pricing}; compaction opens its own child inside
        // apply_relocations.
        let mut request_span = trace::span("request");
        request_span.arg("tenant", id);
        request_span.arg("op", "admit");
        let admission_span = trace::span("admission");
        let demand = graph.pe_demand();
        let channel_capacity = self.pool.channel_capacity();

        // Cache-aware placement: among grids that can host a dedicated
        // band right now, prefer one whose region shape already has this
        // structure compiled — a warm hit there skips `map_app` entirely.
        let placement_span = trace::span("placement");
        let archs = self.pool.grid_archs();
        let (lease, relocations) = self.pool.allocate(id, demand, |gi| {
            let region = VcgraArch::new(
                GridPool::rows_needed(demand, archs[gi].cols),
                archs[gi].cols,
                channel_capacity,
            );
            self.cache.contains(&ConfigKey::new(region, graph))
        })?;
        drop(placement_span);
        self.apply_relocations(&relocations);

        // Compile against the *minimal* region for this demand, not the
        // leased band (a time-shared band can be taller than needed): the
        // cache key must depend only on (grid width, structure), so a
        // tenant re-admitted onto a roomier band still hits.
        let region = VcgraArch::new(
            GridPool::rows_needed(demand, lease.cols),
            lease.cols,
            channel_capacity,
        );
        let key = ConfigKey::new(region, graph);

        let mut cache_span = trace::span("cache");
        let lookup = self.cache.get(&key);
        cache_span.arg("hit", lookup.is_some());
        drop(cache_span);
        // Either way the tenant shares the cache's compile: a mapping holds
        // no coefficient, so nothing in it is the tenant's own to write.
        let (mapping, cache_hit) = match lookup {
            Some(cached) => (cached, true),
            None => {
                let compile_span = trace::span("compile");
                let mapping = match vcgra::flow::map_app(graph, region, self.cfg.place_seed) {
                    Ok(m) => m,
                    Err(e) => {
                        // The lease is surrendered; any compaction the
                        // placement performed stays (already charged).
                        self.pool.release(id);
                        return Err(e.into());
                    }
                };
                drop(compile_span);
                (self.cache.insert(key, mapping), false)
            }
        };

        let mut pricing_span = trace::span("pricing");
        let config_port_time = pricer::full_config_cost(demand);
        pricing_span.arg("port_ns", config_port_time.as_nanos() as u64);
        drop(pricing_span);
        if cache_hit {
            self.ledger.warm_admissions += 1;
        } else {
            self.ledger.cold_compiles += 1;
        }
        self.charge(
            (lease.grid, lease.row0),
            Phase::Admission,
            Some(id),
            config_port_time,
        );

        // Admission writes the tenant's configuration into the region, so
        // it becomes the band's resident — only now that the compile has
        // succeeded: a failed one leaves the previous resident in place.
        self.pool.set_resident(lease.grid, lease.row0, id);
        self.tenants.insert(
            id,
            Tenant {
                id,
                name: name.to_string(),
                graph: graph.clone(),
                mapping,
            },
        );
        drop(admission_span);
        request_span.arg("cache_hit", cache_hit);
        Ok(Admitted {
            tenant: id,
            lease,
            cache_hit,
            relocations: relocations.len(),
        })
    }

    /// Charges a compaction's band moves (each band carried its tenants
    /// and its resident in the pool, so every lease on it moved too): one
    /// full-region configuration replay per moved band — relocating a band
    /// means streaming its (cached) configuration back at the new offset.
    fn apply_relocations(&mut self, relocations: &[Relocation]) {
        if relocations.is_empty() {
            return;
        }
        let mut compaction_span = trace::span("compaction");
        compaction_span.arg("bands", relocations.len());
        self.ledger.compactions += 1;
        let archs = self.pool.grid_archs();
        for r in relocations {
            self.ledger.relocated_bands += 1;
            let replay = pricer::full_config_cost(r.rows * archs[r.grid].cols);
            // The replay re-emits a grid-resident image at the new row
            // offset: it occupies the moved band's lane but neither the
            // host→fabric port nor any other band. The band's history
            // moves with it, then the replay is booked on the new lane.
            let lane = (r.grid, r.new_row0);
            self.timeline.move_lane((r.grid, r.old_row0), lane, replay);
            self.charge_reconfig_overlap(lane, Phase::Replay, r.tenants.first().copied(), replay);
        }
    }

    /// Releases a tenant's region (or cancels its queued admission), then
    /// drains the admission queue in FIFO order. Returns the admissions
    /// the freed capacity produced.
    pub fn release(&mut self, tenant: TenantId) -> Result<Vec<Admitted>, RuntimeError> {
        if let Some(pos) = self.queue.iter().position(|p| p.tenant == tenant) {
            self.queue.remove(pos);
            self.ledger.queue_cancelled += 1;
            // Cancelling the head may unblock everyone behind it.
            return Ok(self.drain_queue());
        }
        // The pool slot goes, and the band's resident if it was this one.
        self.tenants
            .remove(&tenant)
            .ok_or(RuntimeError::UnknownTenant(tenant))?;
        self.pool.release(tenant);
        Ok(self.drain_queue())
    }
}
