//! Elastic scenarios: plane-wave convergence, the LOH.1-style layered
//! half-space benchmark (paper Sec. VI), and the short high-load stress
//! workload.

use crate::scenario::{
    drive, RunRequest, RunSummary, Scenario, ScenarioError, ScenarioInfo, ScenarioParts,
};
use aderdg_mesh::{BoundaryKind, CurvilinearMap, InterfaceFittedMap, StructuredMesh};
use aderdg_pde::{
    elastic, Elastic, ElasticPlaneWave, ExactSolution, Material, PointSource, SourceTimeFunction,
};

/// `elastic_wave` — a P-wave on the periodic unit cube with the full
/// `m = 21` stored quantities (identity metric), checked against the
/// exact plane-wave solution.
#[derive(Debug, Clone, Copy)]
pub struct ElasticWave;

impl Scenario for ElasticWave {
    fn info(&self) -> ScenarioInfo {
        ScenarioInfo {
            name: "elastic_wave",
            title: "periodic elastic P-wave, m = 21 quantities, vs exact solution",
            system: "elastic",
            order: 4,
            cells: [3, 3, 3],
            t_end: 0.3,
            kernel: "splitck",
            has_exact: true,
            smoke_cells: [2, 2, 2],
        }
    }

    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
        let mat = Material {
            rho: 1.0,
            cp: 1.0,
            cs: 0.6,
        };
        let wave = ElasticPlaneWave {
            direction: [1.0, 0.0, 0.0],
            polarization: [1.0, 0.0, 0.0],
            amplitude: 0.1,
            wavenumber: 1.0,
            material: mat,
        };
        drive(
            &self.info(),
            req,
            |dims| StructuredMesh::new(dims, [0.0; 3], [1.0; 3], [BoundaryKind::Periodic; 3]),
            Elastic,
            ScenarioParts::new(|x, q: &mut [f64], _mesh: &StructuredMesh| {
                wave.evaluate(x, 0.0, q);
                Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
            })
            .with_exact(&wave),
        )
    }
}

/// `loh1` — Layer Over Halfspace (paper Sec. VI): a low-velocity elastic
/// layer over a stiffer half-space on an interface-fitted curvilinear
/// mesh, a buried Ricker-wavelet point source, a free surface on top and
/// surface receivers recording seismograms.
#[derive(Debug, Clone, Copy)]
pub struct Loh1;

/// LOH1 soft-layer material (scaled units).
const LAYER: Material = Material {
    rho: 1.0,
    cp: 1.0,
    cs: 0.58,
};
/// LOH1 half-space material (scaled units).
const HALFSPACE: Material = Material {
    rho: 1.3,
    cp: 1.6,
    cs: 0.92,
};

/// The interface-fitted vertical stretch: the mesh plane `z = 0.75` is
/// pulled to the material interface at depth `z = 0.7`, with a small
/// lateral bump. `z = 0.75` is a cell boundary of every mesh whose
/// z-dimension is a multiple of 4 (the default 4³ grid and the
/// `[2, 2, 4]` smoke grid), so no cell straddles the interface.
const MAP: InterfaceFittedMap = InterfaceFittedMap {
    plane_z: 0.75,
    interface_z: 0.7,
    bump: 0.02,
};

/// Surface-receiver offsets from the epicentre along the 45° azimuth.
pub const LOH1_OFFSETS: [f64; 3] = [0.1, 0.2, 0.35];

impl Scenario for Loh1 {
    fn info(&self) -> ScenarioInfo {
        ScenarioInfo {
            name: "loh1",
            title: "LOH.1-style layered elastic half-space with buried point source",
            system: "elastic",
            order: 4,
            cells: [4, 4, 4],
            t_end: 2.2,
            kernel: "aosoa_splitck",
            has_exact: false,
            smoke_cells: [2, 2, 4],
        }
    }

    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
        // The interface-fitted map pulls the mesh plane z = 0.75 to the
        // material interface; the per-cell material assignment below is
        // only exact when that plane is a cell boundary. Reject a
        // `--cells` override that would let a cell straddle the
        // interface (silently mis-located seismogram arrivals otherwise).
        let dims = crate::scenario::resolve(&self.info(), req)?.dims;
        if dims[2] % 4 != 0 {
            return Err(ScenarioError::new(format!(
                "loh1 needs a z-dimension that is a multiple of 4 (got {}), so the mesh plane \
                 z = 0.75 fitted to the material interface is a cell boundary",
                dims[2]
            )));
        }
        // Buried double-couple-like source: moment rate on σxy below the
        // interface, Ricker wavelet with its dominant frequency resolved
        // by the default mesh (≥ ~4 cells/wavelength in the slow layer).
        let mut amplitude = vec![0.0; elastic::VARS];
        amplitude[elastic::SXY] = 1.0;
        let source = PointSource {
            position: [0.5, 0.5, 0.55],
            amplitude,
            stf: SourceTimeFunction::Ricker {
                t0: 0.6,
                frequency: 1.8,
            },
        };
        // Surface receivers at increasing offset along the 45° azimuth
        // (maximum P radiation of an σxy double-couple; the coordinate
        // axes are its nodal planes).
        let receivers: Vec<[f64; 3]> = LOH1_OFFSETS
            .iter()
            .map(|&dx| {
                let h = dx / std::f64::consts::SQRT_2;
                [0.5 + h, 0.5 + h, 0.97]
            })
            .collect();
        drive(
            &self.info(),
            req,
            |dims| {
                StructuredMesh::new(
                    dims,
                    [0.0; 3],
                    [1.0; 3],
                    [
                        BoundaryKind::Outflow,
                        BoundaryKind::Outflow,
                        BoundaryKind::Reflective, // free surface (elastic ghost)
                    ],
                )
            },
            Elastic,
            ScenarioParts::new(|x, q: &mut [f64], mesh: &StructuredMesh| {
                // Quiescent medium; material constant per cell (the map
                // fits the interface to a cell boundary), metric varying
                // smoothly per node.
                q.fill(0.0);
                let cell_center = mesh.cell_center(mesh.locate(x));
                let mat = if MAP.map(cell_center)[2] > 0.7 {
                    LAYER
                } else {
                    HALFSPACE
                };
                let metric = MAP.metric(x);
                Elastic::set_params(q, mat, &metric);
            })
            .with_sources(vec![source])
            .with_receivers(receivers),
        )
    }
}

/// `elastic_stress` — the stress workload: order 5 on 6³ cells of the
/// paper's 21-quantity elastic system with the AoSoA SplitCK kernel, a
/// short high-load run whose `cell_updates_per_second` is the headline
/// number.
#[derive(Debug, Clone, Copy)]
pub struct ElasticStress;

impl Scenario for ElasticStress {
    fn info(&self) -> ScenarioInfo {
        ScenarioInfo {
            name: "elastic_stress",
            title: "short high-load stress run: order 5, 6^3 cells, m = 21",
            system: "elastic",
            order: 5,
            cells: [6, 6, 6],
            t_end: 0.005,
            kernel: "aosoa_splitck",
            has_exact: true,
            smoke_cells: [2, 2, 2],
        }
    }

    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
        let mat = Material {
            rho: 2.7,
            cp: 6.0,
            cs: 3.46,
        };
        let wave = ElasticPlaneWave {
            direction: [0.0, 1.0, 0.0],
            polarization: [0.0, 1.0, 0.0],
            amplitude: 0.1,
            wavenumber: 1.0,
            material: mat,
        };
        drive(
            &self.info(),
            req,
            |dims| StructuredMesh::new(dims, [0.0; 3], [1.0; 3], [BoundaryKind::Periodic; 3]),
            Elastic,
            ScenarioParts::new(|x, q: &mut [f64], _mesh: &StructuredMesh| {
                wave.evaluate(x, 0.0, q);
                Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
            })
            .with_exact(&wave),
        )
    }
}
