//! Acoustic scenarios: plane-wave convergence, a reflecting Gaussian
//! pulse, and a layered medium with a 10:1 wave-speed contrast (the
//! dt-heterogeneous workload local time stepping is built for).

use crate::scenario::{
    drive, RunRequest, RunSummary, Scenario, ScenarioError, ScenarioInfo, ScenarioParts,
};
use aderdg_mesh::{BoundaryKind, StructuredMesh};
use aderdg_pde::{Acoustic, AcousticPlaneWave};

/// `acoustic_wave` — a right-going acoustic plane wave on the periodic
/// unit cube, checked against the exact solution (the quickstart
/// workload).
#[derive(Debug, Clone, Copy)]
pub struct AcousticWave;

fn plane_wave() -> AcousticPlaneWave {
    AcousticPlaneWave {
        direction: [1.0, 0.0, 0.0],
        amplitude: 1.0,
        wavenumber: 1.0,
        rho: 1.0,
        bulk: 1.0,
    }
}

impl Scenario for AcousticWave {
    fn info(&self) -> ScenarioInfo {
        ScenarioInfo {
            name: "acoustic_wave",
            title: "periodic acoustic plane wave vs exact solution",
            system: "acoustic",
            order: 5,
            cells: [3, 3, 3],
            t_end: 0.4,
            kernel: "splitck",
            has_exact: true,
            smoke_cells: [2, 2, 2],
        }
    }

    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
        let wave = plane_wave();
        drive(
            &self.info(),
            req,
            |dims| StructuredMesh::new(dims, [0.0; 3], [1.0; 3], [BoundaryKind::Periodic; 3]),
            Acoustic,
            ScenarioParts::new(|x, q: &mut [f64], _mesh: &StructuredMesh| {
                use aderdg_pde::ExactSolution;
                wave.evaluate(x, 0.0, q);
                Acoustic::set_params(q, wave.rho, wave.bulk);
            })
            .with_exact(&wave),
        )
    }
}

/// `acoustic_pulse` — a Gaussian pressure pulse in a rigid-walled box:
/// the pulse reflects off all six walls while the total pressure integral
/// stays conserved to round-off (the wall flux of `p` vanishes for the
/// rigid-wall ghost state).
#[derive(Debug, Clone, Copy)]
pub struct AcousticPulse;

/// `acoustic_layered` — a Gaussian pressure pulse in a rigid-walled box
/// with a stiff layer: cells with `x < 0.25` carry `bulk = 100` (sound
/// speed 10), the rest `bulk = 1` (sound speed 1). The stiff minority
/// pins the global CFL dt to a tenth of what the bulk of the domain
/// could take — under `stepping = lts` the slow cells cluster at coarser
/// dt levels and skip most sub-steps, which is where clustered local
/// time stepping wins (see `docs/LTS.md`).
#[derive(Debug, Clone, Copy)]
pub struct AcousticLayered;

/// The stiff/slow interface position (a cell boundary for the default
/// and smoke grids, so every cell's material is uniform).
const LAYER_X: f64 = 0.25;

impl Scenario for AcousticLayered {
    fn info(&self) -> ScenarioInfo {
        ScenarioInfo {
            name: "acoustic_layered",
            title: "pressure pulse over a stiff layer (10:1 wave-speed contrast)",
            system: "acoustic",
            order: 4,
            cells: [8, 2, 2],
            t_end: 0.3,
            kernel: "splitck",
            has_exact: false,
            smoke_cells: [4, 2, 2],
        }
    }

    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
        drive(
            &self.info(),
            req,
            |dims| StructuredMesh::new(dims, [0.0; 3], [1.0; 3], [BoundaryKind::Reflective; 3]),
            Acoustic,
            ScenarioParts::new(|x, q: &mut [f64], _mesh: &StructuredMesh| {
                q.fill(0.0);
                let r2: f64 = x.iter().map(|&c| (c - 0.6) * (c - 0.6)).sum();
                q[aderdg_pde::acoustic::P] = (-r2 / (2.0 * 0.1 * 0.1)).exp();
                let bulk = if x[0] < LAYER_X { 100.0 } else { 1.0 };
                Acoustic::set_params(q, 1.0, bulk);
            }),
        )
    }
}

impl Scenario for AcousticPulse {
    fn info(&self) -> ScenarioInfo {
        ScenarioInfo {
            name: "acoustic_pulse",
            title: "Gaussian pressure pulse in a rigid-walled box",
            system: "acoustic",
            order: 4,
            cells: [4, 4, 4],
            t_end: 0.6,
            kernel: "splitck",
            has_exact: false,
            smoke_cells: [2, 2, 2],
        }
    }

    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
        drive(
            &self.info(),
            req,
            |dims| StructuredMesh::new(dims, [0.0; 3], [1.0; 3], [BoundaryKind::Reflective; 3]),
            Acoustic,
            ScenarioParts::new(|x, q: &mut [f64], _mesh: &StructuredMesh| {
                q.fill(0.0);
                let r2: f64 = x.iter().map(|&c| (c - 0.5) * (c - 0.5)).sum();
                q[aderdg_pde::acoustic::P] = (-r2 / (2.0 * 0.1 * 0.1)).exp();
                Acoustic::set_params(q, 1.0, 1.0);
            }),
        )
    }
}
