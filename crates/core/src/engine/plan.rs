//! The graph driver's plan: what [`Engine::step`] steps with — the
//! shard partition, the macro-cycle task graph over it and the face-flux
//! storage — and when it is built, cached and dropped.

use super::{auto_shard_size, Engine, SteppingMode};
use crate::kernels::FaceTraces;
use aderdg_mesh::{assign_levels, LtsGraph, ShardPlan, MAX_LTS_LEVEL};
use aderdg_pde::LinearPde;
use std::sync::{OnceLock, RwLock};

/// Everything the task-graph driver steps with: the shard partition, the
/// macro-cycle task graph over it and the face-flux storage. Under
/// [`SteppingMode::Global`] the partition is the flat one-level
/// [`ShardPlan::new`] (state-independent, built once in
/// [`Engine::new`]); under [`SteppingMode::Lts`] it is the level-aware
/// plan derived deterministically from the state the engine held when it
/// was built.
pub(super) struct GraphPlan {
    /// Shard partition and canonical face enumeration (shards are
    /// level-uniform).
    pub(super) plan: ShardPlan,
    /// The macro-cycle task graph (one predict/apply pair per shard per
    /// sub-window, one flux sweep per shard per owned-face slot; one
    /// task triple per shard for a one-level plan).
    pub(super) graph: LtsGraph,
    /// Stable dt of the finest cluster — the global CFL dt of the state
    /// the clustering was derived from; `max_dt` reports
    /// `dt_base · num_slots` so drive loops step whole macro cycles.
    /// NaN and never read under global stepping, whose `max_dt` reduces
    /// the live state every step.
    pub(super) dt_base: f64,
    /// Per-shard storage for the owned faces' resolved fluxes `F*` of
    /// the *current* sub-window (`owned_faces × plan.flux_face.len()`
    /// doubles each), overwritten at each re-solve.
    pub(super) f_star: Vec<RwLock<Vec<f64>>>,
    /// Per-shard F* accumulated over a coarse window for cadence-
    /// mismatched faces: the sub-window-0 solve overwrites, the
    /// sub-window-1 solve adds, and the coarse cell applies the sum —
    /// so the face flux telescopes exactly against the fine cell's two
    /// separate applications. Empty for a one-level plan.
    pub(super) f_star_acc: Vec<RwLock<Vec<f64>>>,
    /// Per-shard half-window face traces for cells that border a finer
    /// face (the sub-window differencing source). Empty for a one-level
    /// plan.
    pub(super) halo: Vec<RwLock<HaloShard>>,
}

/// Half-window face traces of one shard's cells that border a
/// finer-cadence face.
pub(super) struct HaloShard {
    /// Shard-local indices of those cells, ascending.
    pub(super) cells: Vec<usize>,
    /// Half-dt face traces, parallel to `cells`, rewritten by each of the
    /// shard's predict tasks *before* its in-place volume update (the
    /// half-window runs read `q⁰`).
    pub(super) half: Vec<FaceTraces>,
}

/// Splits a flat per-cell buffer into per-shard mutable slices matching
/// `splan.shard_range` (shards are contiguous but not uniform — LTS
/// shard boundaries also break at cluster-level changes, so a plain
/// `chunks_mut` does not apply).
pub(super) fn shard_slices<'a, T>(splan: &ShardPlan, mut buf: &'a mut [T]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(splan.num_shards());
    for s in 0..splan.num_shards() {
        let (head, tail) = buf.split_at_mut(splan.shard_range(s).len());
        out.push(head);
        buf = tail;
    }
    debug_assert!(buf.is_empty(), "shard ranges must tile the buffer");
    out
}

impl<P: LinearPde> Engine<P> {
    /// The graph driver's plan. Under global stepping it never depends on
    /// the state; under LTS it is built from the *current* state on first
    /// use and cached until the state is replaced wholesale
    /// ([`Engine::set_initial`], [`Engine::restore_state`],
    /// [`Engine::cell_state_mut`]).
    pub(super) fn graph_plan(&self) -> &GraphPlan {
        self.graph.get_or_init(|| self.build_graph_plan())
    }

    fn build_graph_plan(&self) -> GraphPlan {
        let shard_size = auto_shard_size(self.mesh.num_cells(), self.block_size);
        let (splan, dt_base) = match self.config.stepping {
            SteppingMode::Global => (ShardPlan::new(&self.mesh, shard_size), f64::NAN),
            SteppingMode::Lts => {
                let cell_dt: Vec<f64> = self
                    .state
                    .iter()
                    .map(|q| self.rate_to_dt(self.cell_rate(q)))
                    .collect();
                // Bitwise equal to `base_dt`: f64 division by a positive
                // value is monotone, so the min over per-cell dt is the
                // dt of the max per-cell rate.
                let dt_base = cell_dt.iter().copied().fold(f64::INFINITY, f64::min);
                let levels = assign_levels(&self.mesh, &cell_dt, MAX_LTS_LEVEL);
                (
                    ShardPlan::with_levels(&self.mesh, shard_size, &levels),
                    dt_base,
                )
            }
        };
        let graph = LtsGraph::build(&splan);
        let face_len = self.plan.flux_face.len();
        let ns = splan.num_shards();
        let flux_storage = || -> Vec<RwLock<Vec<f64>>> {
            (0..ns)
                .map(|s| RwLock::new(vec![0.0; splan.owned_faces(s).len() * face_len]))
                .collect()
        };
        let f_star = flux_storage();
        // The accumulator and halo buffers only exist when clusters
        // actually differ — a one-level plan (global stepping, or LTS on
        // a dt-homogeneous state) allocates nothing beyond `f_star`.
        let (f_star_acc, halo) = if splan.num_levels() > 1 {
            let halo = (0..ns)
                .map(|s| {
                    let level = splan.shard_level(s);
                    let range = splan.shard_range(s);
                    let cells: Vec<usize> = range
                        .clone()
                        .filter(|&c| {
                            splan
                                .cell_faces(c)
                                .iter()
                                .any(|&id| splan.face_cadence(id) < level)
                        })
                        .map(|c| c - range.start)
                        .collect();
                    let half = cells.iter().map(|_| FaceTraces::new(&self.plan)).collect();
                    RwLock::new(HaloShard { cells, half })
                })
                .collect();
            (flux_storage(), halo)
        } else {
            (Vec::new(), Vec::new())
        };
        GraphPlan {
            plan: splan,
            graph,
            dt_base,
            f_star,
            f_star_acc,
            halo,
        }
    }

    /// Drops the cached LTS clustering after the state was replaced: the
    /// per-cell dt field it was derived from may have changed. The global
    /// plan is state-independent and stays.
    pub(super) fn invalidate_clustering(&mut self) {
        if self.config.stepping == SteppingMode::Lts {
            self.graph = OnceLock::new();
        }
    }
}
