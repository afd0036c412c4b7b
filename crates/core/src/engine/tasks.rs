//! The graph driver's tasks: one macro cycle of Predict / Flux / Apply
//! tasks over the plan's shards ([`LtsTask`]), run on the dependency
//! scheduler. Predict and Flux borrow their thread's [`GraphScratch`],
//! which lives as long as the thread and is rebuilt only when a step of
//! another shape comes along.

use super::lts::{sub_window_trace, HaloScratch};
use super::plan::{shard_slices, HaloShard};
use super::Engine;
use crate::block::{BlockInputs, CellBlock};
use crate::corrector::{apply_face, apply_volume, CorrectorScratch};
use crate::kernels::{FaceTraces, StpInputs, StpKernel, StpOutputs, StpScratch};
use crate::par;
use crate::plan::{CellSource, StpConfig, StpPlan};
use crate::riemann::{boundary_face, rusanov_face, BoundaryScratch};
use aderdg_mesh::{Face, FaceTopo, LtsGraph, LtsTask, ShardPlan};
use aderdg_pde::LinearPde;
use aderdg_tensor::AlignedVec;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, RwLock};

/// One thread's scratch of the graph driver, reused across that thread's
/// tasks and steps. Every buffer is sized by the plan's [`StpConfig`]
/// alone and holds no value of the plan it last ran under, so one
/// scratch serves every engine of its [`Shape`].
pub(super) struct GraphScratch {
    stp: Box<dyn StpScratch>,
    block: CellBlock,
    /// The predictor outputs of the block in flight (`block_size` of
    /// them), volume tensors only: each cell's own face buffers are
    /// swapped in before the kernel runs and back out after the volume
    /// update.
    outs: Vec<StpOutputs>,
    corr: CorrectorScratch,
    boundary: BoundaryScratch,
    /// Sub-window trace temps, built on the first cadence-mismatched
    /// face this thread solves: a one-level plan never composes a
    /// sub-window trace, and a scratch built under one may later serve
    /// an LTS plan.
    pub(super) halo: Option<HaloScratch>,
}

impl GraphScratch {
    /// One thread's scratch for predictor blocks of `bsize` cells of
    /// `kernel` under `plan`.
    pub(super) fn new(plan: &StpPlan, kernel: &dyn StpKernel, bsize: usize) -> Self {
        Self {
            stp: kernel.make_block_scratch(plan, bsize),
            block: CellBlock::new(plan, bsize),
            outs: (0..bsize).map(|_| StpOutputs::volume_only(plan)).collect(),
            corr: CorrectorScratch::new(plan),
            boundary: BoundaryScratch::new(plan),
            halo: None,
        }
    }
}

/// What a [`GraphScratch`] is built for: the kernel (by its registry
/// name, which tells kernels apart), the plan's size configuration and
/// the predictor block size.
#[derive(Clone, Copy, PartialEq)]
struct Shape {
    kernel: &'static str,
    cfg: StpConfig,
    bsize: usize,
}

thread_local! {
    /// This thread's graph-driver scratch and the shape it was built
    /// for. A pool worker keeps the scratch of the last shape it stepped
    /// until the pool is rebuilt; the one-thread and nested paths use
    /// the calling thread's slot.
    static SCRATCH: RefCell<Option<(Shape, GraphScratch)>> = const { RefCell::new(None) };
}

/// Whether this thread's scratch exists and holds sub-window trace
/// temps (`None`: no scratch yet).
#[cfg(test)]
pub(super) fn thread_scratch_has_halo() -> Option<bool> {
    SCRATCH.with_borrow(|slot| slot.as_ref().map(|(_, ws)| ws.halo.is_some()))
}

/// Looks up a shard's lock guard in a small sorted `(shard, guard)` list
/// (the per-task dependency guards).
fn dep_guard<T>(guards: &[(usize, T)], shard: usize) -> &T {
    let i = guards
        .binary_search_by_key(&shard, |g| g.0)
        // PANIC-OK: internal invariant — the static task graph listed
        // every shard this task may read.
        .expect("shard not in the task's dependency set");
    &guards[i].1
}

/// What every task of one macro cycle borrows: the engine's plan,
/// physics and sources, the graph plan's partition, task graph and flux
/// storage, and per-shard locks over the state and the face traces.
struct StepCtx<'a, P: LinearPde> {
    plan: &'a StpPlan,
    pde: &'a P,
    kernel: &'static dyn StpKernel,
    bsize: usize,
    cell_sources: &'a BTreeMap<usize, CellSource>,
    splan: &'a ShardPlan,
    graph: &'a LtsGraph,
    /// Sub-step of the finest cluster: `dt / num_slots`.
    dt_base: f64,
    /// Doubles per flux-side face tensor (`plan.flux_face.len()`).
    face_len: usize,
    /// More than one cluster level: halo traces and accumulators exist.
    multi: bool,
    state_shards: Vec<Mutex<&'a mut [AlignedVec]>>,
    trace_shards: Vec<RwLock<&'a mut [FaceTraces]>>,
    f_star: &'a [RwLock<Vec<f64>>],
    f_star_acc: &'a [RwLock<Vec<f64>>],
    halo_shards: &'a [RwLock<HaloShard>],
}

impl<P: LinearPde> Engine<P> {
    /// The task-graph driver: one **macro cycle** of `2^Lmax` level-0
    /// sub-windows, scheduled as the sub-window-resolved predict /
    /// flux-sweep / apply task graph ([`LtsGraph`]) on the persistent
    /// work-stealing pool ([`par::run_graph_init`]). A shard's sweep
    /// starts as soon as its own and its face-neighbours' predictors are
    /// done, with no global barrier, and each finished task pushes the
    /// dependents it unlocks onto the finishing worker's own deque.
    ///
    /// Global stepping is the one-cluster case: `Lmax = 0`, one slot, one
    /// predict / flux / apply triple per shard at the full `dt`. Under
    /// LTS `dt` is the macro step; a level-`L` cluster takes
    /// `2^(Lmax−L)` sub-steps of `dt · 2^L / 2^Lmax` each (exact f64
    /// scalings, so a clipped macro step scales all clusters alike).
    ///
    /// Cadence-mismatched faces (a cadence-`c` face under a level-`c+1`
    /// cell) are re-solved per fine sub-window with the coarse side's
    /// trace composed by [`sub_window_trace`]; the two fine `F*` are
    /// accumulated and applied once by the coarse cell, so the face flux
    /// telescopes exactly and conservation holds to round-off.
    ///
    /// Fused volume update: Predict applies [`apply_volume`] to each
    /// cell's `q` in place right after the kernel ran into the worker's
    /// own [`StpOutputs`], and keeps only the cell's face traces; Apply
    /// is the six face lifts. A shard's half-window runs read `q⁰`, so
    /// they run first. Nothing else reads a cell's `q` between its
    /// Predict and its Apply.
    ///
    /// Determinism: every face flux is computed exactly once per due
    /// slot by one task from fixed predictor outputs into the
    /// face-indexed buffer, and each cell's operations on `q` — volume
    /// x, y, z in Predict, then its six faces in `Face::ALL` order in
    /// Apply — run in one fixed order, so results are independent of the
    /// schedule and bit-identical across worker-thread counts.
    ///
    /// ORDERING: most locks below are uncontended — every pair of
    /// conflicting accesses to `traces`, `state` and `halo` is ordered by
    /// the task graph (a shard's tasks form a chain `P(k) → … → A(k) →
    /// P(k+1)`, and every cross-shard read has graph edges — with
    /// `AcqRel` ready-counters — placing it after the writer and before
    /// the next one). With more than one slot `f_star` and `f_star_acc`
    /// *are* contended (a sweep may rewrite segments of faces unrelated
    /// to a concurrently-running apply task holding the same lock — the
    /// data stays disjoint, the lock is shared), so all tasks acquire
    /// them along one global hierarchy: `f_star[i]` before every
    /// `f_star_acc[j]`, each tier in ascending shard order. Flux takes
    /// `f_star[s]` then `f_star_acc[s]`; Apply takes all its `f_star`
    /// read guards ascending, then all `f_star_acc` read guards
    /// ascending — strictly increasing ranks, hence no deadlock.
    pub(super) fn step_graph(&mut self, dt: f64) {
        let num_levels = self.graph_plan().plan.num_levels();
        self.start_lts_clocks(num_levels);
        // PANIC-OK: internal invariant — just built above.
        let gp = self.graph.get().expect("graph plan built");
        let splan = &gp.plan;
        let graph = &gp.graph;
        let num_slots = graph.num_slots();
        let plan = &self.plan;
        let ctx = StepCtx {
            plan,
            pde: &self.pde,
            kernel: self.config.kernel,
            bsize: self.block_size,
            cell_sources: &self.cell_sources,
            splan,
            graph,
            // Exact: `num_slots` is a power of two.
            dt_base: dt / num_slots as f64,
            face_len: plan.flux_face.len(),
            multi: num_levels > 1,
            state_shards: shard_slices(splan, &mut self.state)
                .into_iter()
                .map(Mutex::new)
                .collect(),
            trace_shards: shard_slices(splan, &mut self.traces)
                .into_iter()
                .map(RwLock::new)
                .collect(),
            f_star: &gp.f_star,
            f_star_acc: &gp.f_star_acc,
            halo_shards: &gp.halo,
        };
        par::run_graph_init(
            graph.indegree(),
            graph.dependents(),
            || (),
            |(), task| match graph.task(task) {
                LtsTask::Predict { shard, .. } => ctx.with_scratch(|ws| ctx.predict(ws, shard)),
                LtsTask::Flux { shard, sweep } => ctx.with_scratch(|ws| ctx.flux(ws, shard, sweep)),
                LtsTask::Apply { shard, .. } => ctx.apply(shard),
            },
        );
        self.advance_lts_clocks(dt, num_slots);
    }
}

impl<'a, P: LinearPde> StepCtx<'a, P> {
    /// Runs `f` on this thread's scratch, first building it if the slot
    /// is empty or holds another shape. The old scratch is dropped before
    /// the new one is built, so a thread never holds two.
    fn with_scratch(&self, f: impl FnOnce(&mut GraphScratch)) {
        let shape = Shape {
            kernel: self.kernel.name(),
            cfg: self.plan.cfg,
            bsize: self.bsize,
        };
        SCRATCH.with_borrow_mut(|slot| {
            if slot.as_ref().map_or(true, |(s, _)| *s != shape) {
                *slot = None;
            }
            let (_, ws) = slot.get_or_insert_with(|| {
                (shape, GraphScratch::new(self.plan, self.kernel, self.bsize))
            });
            f(ws);
        });
    }

    /// Predict: the predictor over the shard's cells at the cluster's own
    /// sub-step, in predictor blocks, each block's volume update applied
    /// in place; before that, half-window runs for halo cells.
    fn predict(&self, ws: &mut GraphScratch, s: usize) {
        let StepCtx {
            plan,
            pde,
            kernel,
            bsize,
            cell_sources,
            splan,
            dt_base,
            multi,
            ref state_shards,
            ref trace_shards,
            halo_shards,
            ..
        } = *self;
        let level = splan.shard_level(s);
        let dt_s = dt_base * (1u64 << level) as f64;
        let range = splan.shard_range(s);
        // PANIC-OK: lock poisoning means a sibling task
        // panicked; cascading into the batch abort is
        // correct (likewise for every lock below).
        let mut state = state_shards[s].lock().unwrap();
        // PANIC-OK: poisoning cascades (see above).
        let mut traces = trace_shards[s].write().unwrap();
        if multi {
            // First: these runs read q⁰, which the volume
            // update below overwrites.
            // PANIC-OK: poisoning cascades (see above).
            let mut halo = halo_shards[s].write().unwrap();
            let HaloShard { cells, half } = &mut *halo;
            let out = &mut ws.outs[0];
            for (&local, h) in cells.iter().zip(half.iter_mut()) {
                h.swap(out);
                kernel.run(
                    plan,
                    pde,
                    ws.stp.as_mut(),
                    &StpInputs {
                        q0: &state[local][..],
                        dt: 0.5 * dt_s,
                        source: cell_sources.get(&(range.start + local)),
                    },
                    out,
                );
                h.swap(out);
            }
        }
        let mut sources = Vec::with_capacity(bsize);
        let blocks = state.chunks_mut(bsize).zip(traces.chunks_mut(bsize));
        for (bi, (qs, ts)) in blocks.enumerate() {
            let first = range.start + bi * bsize;
            ws.block.clear();
            for q in qs.iter() {
                ws.block.push(q);
            }
            sources.clear();
            sources.extend((0..qs.len()).map(|i| cell_sources.get(&(first + i))));
            let outs = &mut ws.outs[..qs.len()];
            for (t, out) in ts.iter_mut().zip(outs.iter_mut()) {
                t.swap(out);
            }
            kernel.run_block(
                plan,
                pde,
                ws.stp.as_mut(),
                &BlockInputs::new(&ws.block, dt_s, &sources),
                outs,
            );
            for ((t, out), q) in ts.iter_mut().zip(outs.iter_mut()).zip(qs) {
                apply_volume(plan, pde, &mut ws.corr, out, q);
                t.swap(out);
            }
        }
    }

    /// Flux: the once-per-face sweep over the shard's owned faces *due at
    /// this sweep's slot*, into the shard's dense F* segment (and the
    /// coarse-window accumulator for mismatched faces).
    fn flux(&self, ws: &mut GraphScratch, s: usize, sweep: usize) {
        let StepCtx {
            plan,
            pde,
            splan,
            graph,
            face_len,
            multi,
            ref trace_shards,
            f_star,
            f_star_acc,
            halo_shards,
            ..
        } = *self;
        let slot = graph.sweep_slot(s, sweep);
        // Shards whose predictors feed this sweep's active
        // faces (the graph's edges mirror exactly these).
        let deps = graph.flux_deps(s, sweep);
        let guards: Vec<_> = deps
            .iter()
            // PANIC-OK: poisoning cascades (see above).
            .map(|&t| (t, trace_shards[t].read().unwrap()))
            .collect();
        let hguards: Vec<_> = if multi {
            deps.iter()
                // PANIC-OK: poisoning cascades (see above).
                .map(|&t| (t, halo_shards[t].read().unwrap()))
                .collect()
        } else {
            Vec::new()
        };
        let traces_of = |cell: usize| {
            let t = splan.shard_of(cell);
            (t, &dep_guard(&guards, t)[cell - splan.shard_range(t).start])
        };
        // Lock hierarchy: own f_star, then (at the first
        // mismatched face) own f_star_acc — see the ORDERING
        // note in the doc comment.
        // PANIC-OK: poisoning cascades (see above).
        let mut fs = f_star[s].write().unwrap();
        let mut acc = None;
        for (i, id) in splan.owned_faces(s).enumerate() {
            let c = splan.face_cadence(id) as usize;
            if slot & ((1usize << c) - 1) != 0 {
                continue;
            }
            let sub = (slot >> c) & 1;
            let dst = &mut fs[i * face_len..(i + 1) * face_len];
            match splan.face(id) {
                FaceTopo::Interior { dim, lower, upper } => {
                    let (ls, lo) = traces_of(lower);
                    let (us, up) = traces_of(upper);
                    // Lower cell's upper trace is the left
                    // state.
                    let (fl, fu) = (2 * dim + 1, 2 * dim);
                    let mut left: (&[f64], &[f64]) = (&lo.qface[fl], &lo.fface[fl]);
                    let mut right: (&[f64], &[f64]) = (&up.qface[fu], &up.fface[fu]);
                    // The face cadence is the *min* adjacent
                    // level, so at most one side is coarse.
                    let lo_mis = (splan.shard_level(ls) as usize) > c;
                    let up_mis = (splan.shard_level(us) as usize) > c;
                    if lo_mis || up_mis {
                        let (cs, cell, full, fi) = if lo_mis {
                            (ls, lower, lo, fl)
                        } else {
                            (us, upper, up, fu)
                        };
                        let h = dep_guard(&hguards, cs);
                        let hi = h
                            .cells
                            .binary_search(&(cell - splan.shard_range(cs).start))
                            // PANIC-OK: internal invariant —
                            // `build_graph_plan` registered a
                            // halo slot for every coarse cell
                            // bordering a finer face.
                            .expect("halo slot for coarse cell");
                        let hs = ws.halo.get_or_insert_with(|| HaloScratch::new(plan));
                        let composed = sub_window_trace(plan, hs, full, &h.half[hi], fi, sub);
                        if lo_mis {
                            left = composed;
                        } else {
                            right = composed;
                        }
                    }
                    rusanov_face(plan, pde, dim, left.0, left.1, right.0, right.1, dst);
                    if lo_mis || up_mis {
                        let acc = acc.get_or_insert_with(|| {
                            // PANIC-OK: poisoning cascades
                            // (see above).
                            f_star_acc[s].write().unwrap()
                        });
                        let a = &mut acc[i * face_len..(i + 1) * face_len];
                        if sub == 0 {
                            a.copy_from_slice(dst);
                        } else {
                            for (av, dv) in a.iter_mut().zip(dst.iter()) {
                                *av += dv;
                            }
                        }
                    }
                }
                FaceTopo::Boundary {
                    dim,
                    cell,
                    side,
                    kind,
                } => {
                    let (_, own) = traces_of(cell);
                    let fi = 2 * dim + side;
                    boundary_face(
                        plan,
                        pde,
                        dim,
                        side,
                        kind,
                        &own.qface[fi],
                        &own.fface[fi],
                        &mut ws.boundary,
                        dst,
                    );
                }
            }
        }
    }

    /// Apply: six face lifts per cell at the cluster's sub-step (the
    /// volume update already ran in Predict), reading F* from the owning
    /// shards' segments — the accumulated coarse-window flux for faces
    /// finer than this cluster's window.
    fn apply(&self, s: usize) {
        let StepCtx {
            plan,
            splan,
            face_len,
            multi,
            ref state_shards,
            ref trace_shards,
            f_star,
            f_star_acc,
            ..
        } = *self;
        let level = splan.shard_level(s);
        let range = splan.shard_range(s);
        // PANIC-OK: poisoning cascades (see above).
        let traces = trace_shards[s].read().unwrap();
        // Lock hierarchy: every f_star guard (ascending),
        // then every f_star_acc guard (ascending) — see the
        // ORDERING note in the doc comment.
        let owners = splan.apply_deps(s);
        let fguards: Vec<_> = owners
            .iter()
            // PANIC-OK: poisoning cascades (see above).
            .map(|&t| (t, f_star[t].read().unwrap()))
            .collect();
        let aguards: Vec<_> = if multi {
            owners
                .iter()
                // PANIC-OK: poisoning cascades (see above).
                .map(|&t| (t, f_star_acc[t].read().unwrap()))
                .collect()
        } else {
            Vec::new()
        };
        // PANIC-OK: poisoning cascades (see above).
        let mut state = state_shards[s].lock().unwrap();
        for (i, (q, own)) in state.iter_mut().zip(traces.iter()).enumerate() {
            let c = range.start + i;
            for face in Face::ALL {
                let id = splan.cell_faces(c)[face.index()];
                let owner = splan.face_owner(id);
                let local = id - splan.owned_faces(owner).start;
                let seg: &[f64] = if splan.face_cadence(id) < level {
                    &dep_guard(&aguards, owner)[..]
                } else {
                    &dep_guard(&fguards, owner)[..]
                };
                let fstar = &seg[local * face_len..(local + 1) * face_len];
                apply_face(
                    plan,
                    face.dim,
                    face.side,
                    fstar,
                    &own.fface[face.index()],
                    q,
                );
            }
        }
    }
}
