//! Seeded property tests for the LTS cluster assigner and macro task
//! graph (same style as the pool torture battery: random inputs from a
//! fixed-seed LCG, invariants checked exhaustively).
//!
//! Invariants pinned here:
//!
//! * buckets are powers of two of the global dt (`dt_min · 2^L ≤ dt_c`)
//!   and maximal up to the gradation constraint;
//! * face-adjacent cells differ by at most one level;
//! * the assignment is deterministic and total;
//! * the macro graph is acyclic and, executed in topological order,
//!   re-solves every face **exactly once** per due slot (exactly-once
//!   stamps) and steps every shard's predict/apply pair exactly once
//!   per sub-window.

use aderdg_mesh::{
    assign_levels, BoundaryKind, Face, FaceTopo, LtsGraph, LtsTask, Neighbor, ShardPlan,
    StructuredMesh, MAX_LTS_LEVEL,
};
use aderdg_tensor::Lcg;
use std::collections::HashSet;

/// A random mesh (varied dims and boundary mix) plus a random per-cell
/// stable-dt field spanning several powers of two.
fn random_case(seed: u64) -> (StructuredMesh, Vec<f64>) {
    let mut rng = Lcg::new(seed);
    let dims = [rng.usize(1, 5), rng.usize(1, 5), rng.usize(1, 4)];
    let kinds = [
        BoundaryKind::Periodic,
        BoundaryKind::Outflow,
        BoundaryKind::Reflective,
    ];
    let boundary = [
        kinds[rng.usize(0, 3)],
        kinds[rng.usize(0, 3)],
        kinds[rng.usize(0, 3)],
    ];
    let mesh = StructuredMesh::new(dims, [0.0; 3], [1.0; 3], boundary);
    let cell_dt = (0..mesh.num_cells())
        .map(|_| rng.f64(1.0, 300.0) * 1e-4)
        .collect();
    (mesh, cell_dt)
}

#[test]
fn levels_are_power_of_two_buckets_total_and_deterministic() {
    for seed in [1u64, 7, 42, 1234, 98765] {
        let (mesh, cell_dt) = random_case(seed);
        let levels = assign_levels(&mesh, &cell_dt, MAX_LTS_LEVEL);
        assert_eq!(levels.len(), mesh.num_cells(), "total assignment");
        // Deterministic: a second run is identical.
        assert_eq!(levels, assign_levels(&mesh, &cell_dt, MAX_LTS_LEVEL));

        let dt_min = cell_dt.iter().copied().fold(f64::INFINITY, f64::min);
        for (c, &l) in levels.iter().enumerate() {
            assert!(l <= MAX_LTS_LEVEL);
            // Bucket rule: the cluster step never exceeds the cell's
            // own stable dt (power-of-two scaling is exact in f64).
            let window = dt_min * (1u64 << l) as f64;
            assert!(
                window <= cell_dt[c],
                "seed {seed} cell {c}: dt_min·2^{l} = {window} > {}",
                cell_dt[c]
            );
        }
        // The stiffest cell anchors level 0.
        assert!(levels.contains(&0));
    }
}

#[test]
fn neighbouring_cells_differ_by_at_most_one_level_and_levels_are_maximal() {
    for seed in [3u64, 11, 77, 4242] {
        let (mesh, cell_dt) = random_case(seed);
        let levels = assign_levels(&mesh, &cell_dt, MAX_LTS_LEVEL);
        let dt_min = cell_dt.iter().copied().fold(f64::INFINITY, f64::min);
        for c in 0..mesh.num_cells() {
            let mut min_nb = u8::MAX;
            for face in Face::ALL {
                if let Neighbor::Cell(nb) = mesh.neighbor(c, face) {
                    let d = levels[c].abs_diff(levels[nb]);
                    assert!(d <= 1, "seed {seed}: cells {c}/{nb} differ by {d} levels");
                    min_nb = min_nb.min(levels[nb]);
                }
            }
            // Maximality: a cell sits below its bucket level only when a
            // neighbour pins it (gradation), never gratuitously.
            let l = levels[c];
            let bucket_allows_more =
                l < MAX_LTS_LEVEL && dt_min * (1u64 << (l + 1)) as f64 <= cell_dt[c];
            if bucket_allows_more {
                assert!(
                    min_nb != u8::MAX && l == min_nb + 1,
                    "seed {seed} cell {c}: level {l} not maximal and not neighbour-pinned"
                );
            }
        }
    }
}

#[test]
fn degenerate_dt_fields_collapse_to_one_cluster() {
    let mesh = StructuredMesh::unit_cube(2);
    let cells = mesh.num_cells();
    // A non-positive dt anywhere poisons dt_min → single cluster (the
    // engine surfaces the degenerate dt itself); a NaN loses against
    // any finite dt in the min and its cell conservatively stays at
    // level 0.
    for bad in [f64::NAN, 0.0, -1.0] {
        let mut dt = vec![1.0; cells];
        dt[3] = bad;
        assert_eq!(assign_levels(&mesh, &dt, MAX_LTS_LEVEL), vec![0u8; cells]);
    }
    // An unbounded cell dt (zero local wavespeed) saturates at the cap
    // and is then pulled down to one level above its neighbours.
    let mut dt = vec![1.0; cells];
    dt[3] = f64::INFINITY;
    let levels = assign_levels(&mesh, &dt, MAX_LTS_LEVEL);
    for (c, &l) in levels.iter().enumerate() {
        assert_eq!(l, u8::from(c == 3));
    }
    // Uniform dt is one cluster too.
    assert_eq!(
        assign_levels(&mesh, &vec![0.25; cells], MAX_LTS_LEVEL),
        vec![0u8; cells]
    );
}

/// Executes the graph in Kahn (topological) order, checking acyclicity,
/// and returns the visit order.
fn kahn_order(graph: &LtsGraph) -> Vec<usize> {
    let mut indegree = graph.indegree().to_vec();
    let mut ready: Vec<usize> = (0..graph.num_tasks())
        .filter(|&t| indegree[t] == 0)
        .collect();
    let mut order = Vec::with_capacity(graph.num_tasks());
    while let Some(t) = ready.pop() {
        order.push(t);
        for &d in &graph.dependents()[t] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(d);
            }
        }
    }
    assert_eq!(
        order.len(),
        graph.num_tasks(),
        "macro task graph must be acyclic"
    );
    order
}

/// A level-aware plan from a random case, exercising varied shard sizes.
fn random_plan(seed: u64) -> ShardPlan {
    let mut rng = Lcg::new(seed);
    let (mesh, cell_dt) = random_case(seed);
    let levels = assign_levels(&mesh, &cell_dt, MAX_LTS_LEVEL);
    let shard_size = rng.usize(1, mesh.num_cells() + 1);
    ShardPlan::with_levels(&mesh, shard_size, &levels)
}

#[test]
fn level_aware_plans_are_level_uniform_and_tile_the_mesh() {
    for seed in [2u64, 13, 99, 7777] {
        let plan = random_plan(seed);
        let mut next = 0;
        for s in 0..plan.num_shards() {
            let range = plan.shard_range(s);
            assert_eq!(range.start, next, "shard ranges must tile the cells");
            assert!(!range.is_empty());
            assert!(range.len() <= plan.shard_size());
            next = range.end;
            for c in range {
                assert_eq!(plan.shard_of(c), s);
            }
        }
        assert_eq!(next, plan.num_cells());
    }
}

#[test]
fn macro_graph_stamps_every_face_exactly_once_per_due_slot() {
    for seed in [5u64, 21, 303, 55555] {
        let plan = random_plan(seed);
        let graph = LtsGraph::build(&plan);
        let slots = graph.num_slots();
        let order = kahn_order(&graph);

        // Replay the schedule, stamping (face, slot) per re-solve and
        // (shard, step) per predict/apply — the exactly-once ledger.
        let mut face_stamps: HashSet<(usize, usize)> = HashSet::new();
        let mut predict_stamps: HashSet<(usize, usize)> = HashSet::new();
        let mut apply_stamps: HashSet<(usize, usize)> = HashSet::new();
        for &t in &order {
            match graph.task(t) {
                LtsTask::Predict { shard, step } => {
                    assert!(predict_stamps.insert((shard, step)), "duplicate predict");
                }
                LtsTask::Apply { shard, step } => {
                    // The matching predictor ran first (graph edge).
                    assert!(predict_stamps.contains(&(shard, step)));
                    assert!(apply_stamps.insert((shard, step)), "duplicate apply");
                }
                LtsTask::Flux { shard, sweep } => {
                    let slot = graph.sweep_slot(shard, sweep);
                    for id in plan.owned_faces(shard) {
                        let c = plan.face_cadence(id) as usize;
                        if slot % (1 << c) != 0 {
                            continue;
                        }
                        assert!(
                            face_stamps.insert((id, slot)),
                            "seed {seed}: face {id} re-solved twice at slot {slot}"
                        );
                    }
                }
            }
        }

        // Coverage: every face carries exactly its due slots, no more.
        let mut expected_faces = 0;
        for id in 0..plan.num_faces() {
            let c = plan.face_cadence(id) as usize;
            for slot in (0..slots).step_by(1 << c) {
                assert!(
                    face_stamps.contains(&(id, slot)),
                    "seed {seed}: face {id} missing its slot-{slot} re-solve"
                );
                expected_faces += 1;
            }
        }
        assert_eq!(face_stamps.len(), expected_faces, "no stray face solves");

        // Every shard stepped each of its sub-windows exactly once.
        let mut expected_steps = 0;
        for s in 0..plan.num_shards() {
            let steps = slots >> plan.shard_level(s);
            for k in 0..steps {
                assert!(predict_stamps.contains(&(s, k)));
                assert!(apply_stamps.contains(&(s, k)));
            }
            expected_steps += steps;
        }
        assert_eq!(predict_stamps.len(), expected_steps);
        assert_eq!(apply_stamps.len(), expected_steps);
    }
}

#[test]
fn single_cluster_graph_degenerates_to_one_task_triple_per_shard() {
    let mesh = StructuredMesh::unit_cube(3);
    let levels = vec![0u8; mesh.num_cells()];
    let flat = ShardPlan::with_levels(&mesh, 4, &levels);
    let plain = ShardPlan::new(&mesh, 4);
    // The degenerate level-aware partition matches the plain one.
    assert_eq!(flat.num_shards(), plain.num_shards());
    for s in 0..flat.num_shards() {
        assert_eq!(flat.shard_range(s), plain.shard_range(s));
        assert_eq!(flat.owned_faces(s), plain.owned_faces(s));
        assert_eq!(flat.shard_level(s), 0);
    }
    assert_eq!(flat.num_levels(), 1);

    let graph = LtsGraph::build(&flat);
    assert_eq!(graph.num_slots(), 1);
    assert_eq!(graph.num_tasks(), 3 * flat.num_shards());
    kahn_order(&graph);
}

/// The dependency-shard list a flux sweep needs, rebuilt from first
/// principles the way the engine's flux task used to per call: the
/// shards of every cell adjacent to an owned face due at the sweep's
/// slot.
fn rebuilt_flux_deps(plan: &ShardPlan, graph: &LtsGraph, s: usize, sweep: usize) -> Vec<usize> {
    let slot = graph.sweep_slot(s, sweep);
    let mut deps = Vec::new();
    for id in plan.owned_faces(s) {
        if slot % (1usize << plan.face_cadence(id)) != 0 {
            continue;
        }
        match plan.face(id) {
            FaceTopo::Interior { lower, upper, .. } => {
                deps.push(plan.shard_of(lower));
                deps.push(plan.shard_of(upper));
            }
            FaceTopo::Boundary { cell, .. } => deps.push(plan.shard_of(cell)),
        }
    }
    deps.sort_unstable();
    deps.dedup();
    deps
}

/// Likewise for an apply task: the owners of every face its cells touch.
fn rebuilt_apply_owners(plan: &ShardPlan, s: usize) -> Vec<usize> {
    let mut owners: Vec<usize> = plan
        .shard_range(s)
        .flat_map(|c| plan.cell_faces(c).iter().map(|&id| plan.face_owner(id)))
        .collect();
    owners.sort_unstable();
    owners.dedup();
    owners
}

#[test]
fn precomputed_dependency_lists_equal_the_per_task_rebuild() {
    let mut multi_level_sweeps = 0;
    let flat = ShardPlan::new(&StructuredMesh::unit_cube(3), 4);
    let plans = [5u64, 21, 303, 55555]
        .into_iter()
        .map(random_plan)
        .chain([flat]);
    for plan in plans {
        let graph = LtsGraph::build(&plan);
        for s in 0..plan.num_shards() {
            assert_eq!(plan.apply_deps(s), rebuilt_apply_owners(&plan, s));
            let sweeps = graph.num_slots() >> graph.sweep_cadence(s);
            for sweep in 0..sweeps {
                assert_eq!(
                    graph.flux_deps(s, sweep),
                    rebuilt_flux_deps(&plan, &graph, s, sweep),
                    "shard {s} sweep {sweep}"
                );
                multi_level_sweeps += usize::from(sweeps > 1);
            }
            if plan.num_levels() == 1 {
                // One level: one sweep over every owned face.
                assert_eq!(graph.flux_deps(s, 0), plan.flux_deps(s));
            }
        }
    }
    assert!(
        multi_level_sweeps > 0,
        "the seeds must exercise sub-cycled sweeps"
    );
}
