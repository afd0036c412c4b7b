//! Clustered local time stepping (LTS): the dt-cluster assigner and the
//! macro-cycle task graph over a level-aware [`ShardPlan`].
//!
//! Every cell gets a **cluster level** `L`: it advances with time steps
//! of `2^L` times the global stable dt (the minimum over all cells), so
//! a mesh whose stiffest cells are confined to one thin layer no longer
//! throttles everything else. Two rules shape the assignment
//! ([`assign_levels`]):
//!
//! * **power-of-two buckets** — a cell's level is the largest `L` with
//!   `dt_min · 2^L ≤ dt_cell` (capped at [`MAX_LTS_LEVEL`]), so cluster
//!   steps nest exactly inside each other;
//! * **2:1 gradation** — neighbouring cells differ by at most one level,
//!   so a face couples at most two sub-steps against one, and the coarse
//!   side's predictor needs exactly one extra half-window evaluation.
//!
//! [`LtsGraph`] unrolls one **macro cycle** (one coarsest-cluster step of
//! `2^Lmax` base *slots*) into a static task graph over the shards of a
//! level-aware [`ShardPlan`] (shards are level-uniform —
//! [`ShardPlan::with_levels`] cuts them at level changes). Per shard `s`
//! at level `L`:
//!
//! * `Predict(s, k)` — the space-time predictor over the shard's cells
//!   for its `k`-th sub-window (`k < 2^(Lmax−L)`), starting at slot
//!   `k·2^L`;
//! * `Flux(s, i)` — the once-per-face Riemann sweep over the shard's
//!   owned faces at slot `i·2^fc(s)` where `fc(s)` is the shard's
//!   **sweep cadence** (the minimum cadence over its owned faces; a
//!   face's cadence is the finer adjacent cell's level). A face of
//!   cadence `c` is re-solved at every slot divisible by `2^c`;
//! * `Apply(s, k)` — volume + six face corrections closing sub-window
//!   `k`.
//!
//! The dependency edges make every buffer's writer precede all its
//! readers *through the graph* (no lock is ever contended): a sweep
//! waits for the predictors of every shard adjacent to an active face,
//! an apply waits for its own predictor and the last sweep touching each
//! of its cells' faces inside the sub-window, and the next predictor of
//! a shard waits for its previous apply. Sweeps of one shard are chained
//! so the per-face flux accumulator (coarse side of a level-mismatched
//! face) sees its two sub-window contributions in order.

use crate::shard::{FaceTopo, ShardPlan};
use crate::structured::{Face, Neighbor, StructuredMesh};

/// Deepest cluster level the assigner hands out. Level `L` cells step at
/// `2^L` times the global stable dt, so 6 levels already cover a 64:1
/// per-cell dt contrast; beyond that the macro cycle's slot count (and
/// task-graph size) doubles per level for ever-rarer cells.
pub const MAX_LTS_LEVEL: u8 = 6;

/// Buckets cells into power-of-two dt-clusters.
///
/// `cell_dt[c]` is cell `c`'s own stable time step (its CFL bound). The
/// returned level vector satisfies, with `dt_min = min(cell_dt)`:
///
/// * **total & deterministic** — one level per cell, a pure function of
///   the inputs (exact f64 comparisons, no logarithms);
/// * **bucketed** — `dt_min · 2^level[c] ≤ cell_dt[c]` (doubling an f64
///   only touches the exponent, so the ladder is exact), with
///   `level[c] ≤ max_level`;
/// * **maximal up to gradation** — `level[c]` is the largest value
///   allowed by the bucket rule and the constraint that face-adjacent
///   cells differ by at most one level (the relaxation below converges
///   to the unique greatest such assignment).
///
/// Degenerate inputs (empty mesh, a non-finite or non-positive
/// `dt_min`) collapse to a single level-0 cluster; the engine surfaces
/// the degenerate dt itself.
///
/// # Panics
/// If `cell_dt.len()` differs from the mesh's cell count.
pub fn assign_levels(mesh: &StructuredMesh, cell_dt: &[f64], max_level: u8) -> Vec<u8> {
    assert_eq!(
        cell_dt.len(),
        mesh.num_cells(),
        "one stable dt per mesh cell"
    );
    let dt_min = cell_dt.iter().copied().fold(f64::INFINITY, f64::min);
    if !(dt_min.is_finite() && dt_min > 0.0) {
        return vec![0; cell_dt.len()];
    }
    let mut levels: Vec<u8> = cell_dt
        .iter()
        .map(|&dt_c| {
            // Largest L with dt_min·2^L ≤ dt_c: climb the exact
            // power-of-two ladder (cells with an unbounded dt, e.g. a
            // zero local wavespeed, saturate at max_level).
            let mut level = 0u8;
            let mut window = dt_min;
            while level < max_level && window * 2.0 <= dt_c {
                window *= 2.0;
                level += 1;
            }
            level
        })
        .collect();
    // 2:1 gradation: cap every cell at min(neighbour levels) + 1 until
    // nothing changes. Each pass only lowers levels, every cap is a
    // monotone function of the neighbour levels, and the result is
    // bounded below by 0 — so the relaxation reaches the unique
    // greatest fixpoint regardless of visit order (determinism does not
    // depend on the sweep direction).
    loop {
        let mut changed = false;
        for c in 0..cell_dt.len() {
            for face in Face::ALL {
                if let Neighbor::Cell(nb) = mesh.neighbor(c, face) {
                    let cap = levels[nb] + 1;
                    if levels[c] > cap {
                        levels[c] = cap;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    levels
}

/// One task of the LTS macro cycle (see the module docs for the slot
/// arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LtsTask {
    /// Space-time predictor of `shard` over its `step`-th sub-window.
    Predict {
        /// Shard index.
        shard: usize,
        /// Sub-window index, `0..2^(Lmax − level)`.
        step: usize,
    },
    /// Once-per-face flux sweep `sweep` over `shard`'s owned faces (the
    /// sweep covers slot `sweep · 2^sweep_cadence(shard)`; only owned
    /// faces whose cadence divides the slot are re-solved).
    Flux {
        /// Shard index.
        shard: usize,
        /// Sweep index, `0..2^(Lmax − sweep_cadence)`.
        sweep: usize,
    },
    /// Volume + face-correction application closing `shard`'s `step`-th
    /// sub-window.
    Apply {
        /// Shard index.
        shard: usize,
        /// Sub-window index, `0..2^(Lmax − level)`.
        step: usize,
    },
}

/// The static task graph of one macro cycle over a level-aware
/// [`ShardPlan`]. With a single cluster (`num_levels() == 1`) it is
/// exactly one predict/flux/apply task per shard — the global-dt step.
#[derive(Debug, Clone)]
pub struct LtsGraph {
    /// Base sub-steps (`2^Lmax`) per macro cycle.
    num_slots: usize,
    /// Task descriptors, indexed by task id.
    tasks: Vec<LtsTask>,
    /// Unmet-dependency counts per task (ready for
    /// `par::run_graph_init`-style schedulers).
    indegree: Vec<usize>,
    /// `dependents[t]` = tasks unblocked when `t` finishes.
    dependents: Vec<Vec<usize>>,
    /// Per-shard sweep cadence: min cadence over the shard's owned
    /// faces.
    sweep_cadence: Vec<u8>,
    /// Index of each shard's sweep 0 in `flux_deps`.
    flux_base: Vec<usize>,
    /// Per flux sweep (shards in order, sweeps in order): the sorted,
    /// deduplicated shards whose predictor outputs the sweep reads —
    /// the shard-level mirror of the sweep's predictor edges.
    flux_deps: Vec<Vec<usize>>,
}

impl LtsGraph {
    /// Unrolls the macro cycle of `plan` into tasks and dependency
    /// edges. Deterministic: a pure function of the plan.
    pub fn build(plan: &ShardPlan) -> Self {
        let ns = plan.num_shards();
        let lmax = plan.num_levels() - 1;
        let num_slots = 1usize << lmax;

        let sweep_cadence: Vec<u8> = (0..ns)
            .map(|s| {
                plan.owned_faces(s)
                    .map(|id| plan.face_cadence(id))
                    .min()
                    // Every cell owns its three upper-side slots, so a
                    // shard always owns faces; the fallback is for the
                    // impossible empty case only.
                    .unwrap_or_else(|| plan.shard_level(s))
            })
            .collect();

        // Task-id layout: per shard, its predict steps, then its flux
        // sweeps, then its apply steps, shards in order.
        let mut p_base = vec![0usize; ns];
        let mut f_base = vec![0usize; ns];
        let mut a_base = vec![0usize; ns];
        let mut tasks = Vec::new();
        for s in 0..ns {
            let steps = 1usize << (lmax - plan.shard_level(s) as usize);
            let sweeps = 1usize << (lmax - sweep_cadence[s] as usize);
            p_base[s] = tasks.len();
            tasks.extend((0..steps).map(|step| LtsTask::Predict { shard: s, step }));
            f_base[s] = tasks.len();
            tasks.extend((0..sweeps).map(|sweep| LtsTask::Flux { shard: s, sweep }));
            a_base[s] = tasks.len();
            tasks.extend((0..steps).map(|step| LtsTask::Apply { shard: s, step }));
        }

        let n = tasks.len();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut flux_base = Vec::with_capacity(ns);
        let mut flux_deps: Vec<Vec<usize>> = Vec::new();
        for s in 0..ns {
            let level = plan.shard_level(s) as usize;
            let steps = 1usize << (lmax - level);
            let fc = sweep_cadence[s] as usize;
            let sweeps = 1usize << (lmax - fc);

            // A shard's own tasks are totally ordered through
            // P(k) → … → A(k) → P(k+1), which is what lets the engine
            // back each shard with plain (uncontended) buffers.
            for k in 1..steps {
                deps[p_base[s] + k].push(a_base[s] + (k - 1));
            }

            flux_base.push(flux_deps.len());
            for i in 0..sweeps {
                let t = f_base[s] + i;
                let mut shards = Vec::new();
                if i > 0 {
                    // Sweep chain: orders the flux accumulator's
                    // overwrite-then-add pairs on mismatched faces.
                    deps[t].push(f_base[s] + (i - 1));
                }
                let slot = i << fc;
                for id in plan.owned_faces(s) {
                    let c = plan.face_cadence(id) as usize;
                    if slot & ((1usize << c) - 1) != 0 {
                        continue; // face not re-solved at this slot
                    }
                    // The sweep reads the adjacent cells' predictor
                    // traces for the sub-window containing `slot`.
                    let mut dep_on = |cell: usize| {
                        let cs = plan.shard_of(cell);
                        let window = slot >> plan.shard_level(cs) as usize;
                        deps[t].push(p_base[cs] + window);
                        shards.push(cs);
                    };
                    match plan.face(id) {
                        FaceTopo::Interior { lower, upper, .. } => {
                            dep_on(lower);
                            dep_on(upper);
                        }
                        FaceTopo::Boundary { cell, .. } => dep_on(cell),
                    }
                }
                shards.sort_unstable();
                shards.dedup();
                flux_deps.push(shards);
            }

            for k in 0..steps {
                let t = a_base[s] + k;
                // The apply reads its own predictor's volume outputs …
                deps[t].push(p_base[s] + k);
                // … and, per touched face, the last sweep of the
                // owning shard that re-solved the face inside this
                // sub-window (slots [k·2^L, (k+1)·2^L)).
                for cell in plan.shard_range(s) {
                    for &id in plan.cell_faces(cell) {
                        let owner = plan.face_owner(id);
                        let c = plan.face_cadence(id) as usize;
                        let slot_last = ((k + 1) << level) - (1usize << c);
                        let sweep = slot_last >> sweep_cadence[owner] as usize;
                        deps[t].push(f_base[owner] + sweep);
                    }
                }
            }
        }

        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (t, ds) in deps.iter_mut().enumerate() {
            ds.sort_unstable();
            ds.dedup();
            for &d in ds.iter() {
                dependents[d].push(t);
                indegree[t] += 1;
            }
        }

        Self {
            num_slots,
            tasks,
            indegree,
            dependents,
            sweep_cadence,
            flux_base,
            flux_deps,
        }
    }

    /// Base sub-steps per macro cycle (`2^Lmax`); the macro step length
    /// divided by this is the finest cluster's dt.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Total number of tasks in the macro cycle.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Descriptor of task `id`.
    pub fn task(&self, id: usize) -> LtsTask {
        self.tasks[id]
    }

    /// Unmet-dependency counts, indexed by task id.
    pub fn indegree(&self) -> &[usize] {
        &self.indegree
    }

    /// Dependency edges: `dependents()[t]` lists the tasks unblocked by
    /// `t` finishing.
    pub fn dependents(&self) -> &[Vec<usize>] {
        &self.dependents
    }

    /// Shard `s`'s sweep cadence: the minimum cadence over its owned
    /// faces. Sweep `i` of the shard covers slot `i · 2^cadence`.
    pub fn sweep_cadence(&self, s: usize) -> u8 {
        self.sweep_cadence[s]
    }

    /// The base slot covered by sweep `i` of shard `s`.
    pub fn sweep_slot(&self, s: usize, i: usize) -> usize {
        i << self.sweep_cadence[s] as usize
    }

    /// Shards whose predictor outputs sweep `i` of shard `s` reads: the
    /// shards of every cell adjacent to an owned face due at the sweep's
    /// slot (sorted, deduplicated). For a one-level plan this equals
    /// [`ShardPlan::flux_deps`].
    pub fn flux_deps(&self, s: usize, i: usize) -> &[usize] {
        &self.flux_deps[self.flux_base[s] + i]
    }
}
