//! No kernel may depend on what an earlier invocation left behind: every
//! registered kernel, run on scratch and outputs poisoned with NaN, must
//! reproduce a clean-buffer run bit for bit — per cell and per block.
//!
//! This is the licence for the AoSoA kernel running without any clearing
//! pass (its entry and exit transposes write their own zero padding, its
//! first derivative sweep of an order overwrites): its scratch tensors are
//! filled with NaN directly. Every kernel's scratch is additionally
//! dirtied by a full invocation on all-NaN inputs, which leaves NaN in
//! every entry the kernel writes while respecting entries a kernel never
//! writes by design (allocation-time zero padding).

use super::aosoa::AosoaScratch;
use super::{StpInputs, StpKernel, StpOutputs, StpScratch};
use crate::block::{BlockInputs, CellBlock};
use crate::plan::{CellSource, StpConfig, StpPlan};
use crate::registry::KernelRegistry;
use aderdg_pde::{Acoustic, AdvectionNcpSystem, Elastic, LinearPde, Material};
use aderdg_tensor::Lcg;

const CELLS: usize = 3;
const DT: f64 = 0.01;

/// One PDE with `CELLS` physically valid cell states; cell 1 carries a
/// point source.
struct Case {
    name: &'static str,
    pde: Box<dyn LinearPde>,
    plan: StpPlan,
    states: Vec<Vec<f64>>,
    source: CellSource,
}

impl Case {
    fn new(
        name: &'static str,
        pde: Box<dyn LinearPde>,
        n: usize,
        set_params: impl Fn(usize, &mut [f64]),
    ) -> Self {
        let (vars, m) = (pde.num_vars(), pde.num_quantities());
        let plan = StpPlan::new(StpConfig::new(n, m), [1.0, 0.8, 1.25]);
        let mut rng = Lcg::new(n as u64 * 1000 + m as u64);
        let states = (0..CELLS)
            .map(|_| {
                let mut q = vec![0.0; plan.aos.len()];
                for (k, node) in q.chunks_exact_mut(plan.aos.m_pad()).enumerate() {
                    node[..vars].copy_from_slice(&rng.vec(vars, -0.5, 0.5));
                    set_params(k, &mut node[..m]);
                }
                q
            })
            .collect();
        let derivs = (0..=n)
            .map(|o| rng.vec(vars, -0.1, 0.1 + o as f64))
            .collect();
        let source = CellSource::project(&plan, [0.7, 0.2, 0.4], [1.0, 0.8, 1.25], derivs);
        Self {
            name,
            pde,
            plan,
            states,
            source,
        }
    }

    fn source(&self, c: usize) -> Option<&CellSource> {
        (c == 1).then_some(&self.source)
    }
}

fn cases() -> Vec<Case> {
    let mat = Material {
        rho: 2.7,
        cp: 6.0,
        cs: 3.46,
    };
    vec![
        // The paper's benchmark configuration: m = 21, curvilinear metric.
        Case::new("elastic", Box::new(Elastic), 4, move |k, q| {
            let mut jac = Elastic::IDENTITY_JAC;
            jac[1] = 0.05 * ((k % 5) as f64 - 2.0);
            jac[5] = 0.03 * ((k % 3) as f64 - 1.0);
            Elastic::set_params(q, mat, &jac);
        }),
        Case::new("acoustic", Box::new(Acoustic), 5, |k, q| {
            Acoustic::set_params(q, 1.1 + 0.02 * (k % 7) as f64, 2.5);
        }),
        Case::new(
            "advection_ncp",
            Box::new(AdvectionNcpSystem::new(3, [0.6, -0.1, 0.9])),
            4,
            |_, _| {},
        ),
    ]
}

fn poison_outputs(out: &mut StpOutputs) {
    let StpOutputs {
        qavg,
        favg,
        qface,
        fface,
    } = out;
    let tensors = favg.iter_mut().chain(qface).chain(fface);
    for t in tensors.chain([qavg]) {
        t.fill(f64::NAN);
    }
}

fn bits(out: &StpOutputs) -> Vec<u64> {
    let tensors = out.favg.iter().chain(&out.qface).chain(&out.fface);
    tensors
        .chain([&out.qavg])
        .flat_map(|t| t.iter().map(|v| v.to_bits()))
        .collect()
}

fn run_cell(
    case: &Case,
    kernel: &dyn StpKernel,
    scratch: &mut dyn StpScratch,
    q0: &[f64],
    source: Option<&CellSource>,
    out: &mut StpOutputs,
) {
    let inputs = StpInputs { q0, dt: DT, source };
    kernel.run(&case.plan, case.pde.as_ref(), scratch, &inputs, out);
}

fn run_staged(
    case: &Case,
    kernel: &dyn StpKernel,
    scratch: &mut dyn StpScratch,
    states: &[Vec<f64>],
    sources: &[Option<&CellSource>],
    outs: &mut [StpOutputs],
) {
    let mut block = CellBlock::new(&case.plan, CELLS);
    for q0 in states {
        block.push(q0);
    }
    let inputs = BlockInputs::new(&block, DT, sources);
    kernel.run_block(&case.plan, case.pde.as_ref(), scratch, &inputs, outs);
}

/// Leaves NaN in `scratch`: the AoSoA tensors directly, everything a
/// kernel writes through an invocation on all-NaN inputs.
fn poison_scratch(case: &Case, kernel: &dyn StpKernel, scratch: &mut dyn StpScratch, block: bool) {
    let plan = &case.plan;
    let nan_state = vec![f64::NAN; plan.aos.len()];
    let nan_source = CellSource {
        node_coeffs: vec![f64::NAN; plan.n().pow(3)],
        derivs: vec![vec![f64::NAN; case.pde.num_vars()]; plan.n() + 1],
    };
    if block {
        let states = vec![nan_state; CELLS];
        let sources = [Some(&nan_source); CELLS];
        let mut outs: Vec<StpOutputs> = (0..CELLS).map(|_| StpOutputs::new(plan)).collect();
        run_staged(case, kernel, scratch, &states, &sources, &mut outs);
    } else {
        let mut out = StpOutputs::new(plan);
        run_cell(
            case,
            kernel,
            scratch,
            &nan_state,
            Some(&nan_source),
            &mut out,
        );
    }
    if let Some(aosoa) = scratch.as_any_mut().downcast_mut::<AosoaScratch>() {
        aosoa.poison();
    }
}

#[test]
fn poisoned_scratch_and_outputs_reproduce_a_clean_run_bitwise() {
    for case in cases() {
        let plan = &case.plan;
        let sources: Vec<Option<&CellSource>> = (0..CELLS).map(|c| case.source(c)).collect();
        for kernel in KernelRegistry::global().kernels() {
            let ctx =
                |what: &str, c: usize| format!("{} {} {what} cell {c}", kernel.name(), case.name);

            // Per cell.
            let mut clean = kernel.make_scratch(plan);
            let mut dirty = kernel.make_scratch(plan);
            for (c, q0) in case.states.iter().enumerate() {
                let mut want = StpOutputs::new(plan);
                run_cell(&case, kernel, clean.as_mut(), q0, sources[c], &mut want);
                poison_scratch(&case, kernel, dirty.as_mut(), false);
                let mut got = StpOutputs::new(plan);
                poison_outputs(&mut got);
                run_cell(&case, kernel, dirty.as_mut(), q0, sources[c], &mut got);
                assert!(bits(&got) == bits(&want), "{}", ctx("run", c));
            }

            // Per block.
            let fresh =
                || -> Vec<StpOutputs> { (0..CELLS).map(|_| StpOutputs::new(plan)).collect() };
            let mut want = fresh();
            let mut clean = kernel.make_block_scratch(plan, CELLS);
            run_staged(
                &case,
                kernel,
                clean.as_mut(),
                &case.states,
                &sources,
                &mut want,
            );
            let mut dirty = kernel.make_block_scratch(plan, CELLS);
            poison_scratch(&case, kernel, dirty.as_mut(), true);
            let mut got = fresh();
            got.iter_mut().for_each(poison_outputs);
            run_staged(
                &case,
                kernel,
                dirty.as_mut(),
                &case.states,
                &sources,
                &mut got,
            );
            for (c, (got, want)) in got.iter().zip(&want).enumerate() {
                assert!(bits(got) == bits(want), "{}", ctx("run_block", c));
            }
        }
    }
}
