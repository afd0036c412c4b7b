//! Bit-level pin of whole engine steps: for **every registered kernel**
//! at several block sizes, three steps over a mesh with all three
//! boundary kinds must reproduce a stored FNV-1a hash of the evolved
//! state — an acoustic run with a point source, and a shallow-water run
//! whose ncp branch the volume update takes.
//!
//! The hashes were read from both the task-graph driver and the
//! cell-centric barrier loop it replaced (the unfused reference, every
//! interior face solved twice), which agreed bit for bit; so the pin
//! keeps what that reference checked after its code is gone. Every
//! engine runs at [`Isa::Baseline`] — the portable
//! GEMM tile and lane bodies — and the initial data are polynomials, so
//! the only libm call is the source time function and the values do not
//! depend on the host. The shard size is derived from the block size
//! ([`auto_shard_size`]), so each block size is also a shard partition.
//!
//! [`auto_shard_size`]: aderdg::core::auto_shard_size

use aderdg::core::{Engine, EngineConfig, KernelRegistry};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::{swe, Acoustic, LinearPde, LinearizedSwe, PointSource, SourceTimeFunction};
use aderdg::tensor::Isa;

/// A small mesh exercising interior, periodic-wrap, outflow and
/// reflective faces at once.
fn mesh() -> StructuredMesh {
    StructuredMesh::new(
        [3, 3, 2],
        [0.0; 3],
        [1.0; 3],
        [
            BoundaryKind::Periodic,
            BoundaryKind::Outflow,
            BoundaryKind::Reflective,
        ],
    )
}

/// A smooth cubic over the unit cube.
fn poly(x: [f64; 3]) -> f64 {
    (x[0] - 0.4) * (x[1] + 0.3) - 0.5 * x[2] * x[2] + 0.7 * x[0] * x[1] * x[2]
}

/// FNV-1a 64 over the little-endian bytes of every state double.
fn fnv1a(values: impl Iterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs three steps of `engine` and hashes the full evolved state.
fn evolve<P: LinearPde>(mut engine: Engine<P>) -> u64 {
    let dt = engine.max_dt() * 0.6;
    for _ in 0..3 {
        engine.step(dt);
    }
    let state: Vec<f64> = (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().copied())
        .collect();
    assert!(
        state.iter().all(|v| v.is_finite()) && state.iter().any(|&v| v != 0.0),
        "the run must evolve finite data"
    );
    fnv1a(state.into_iter())
}

/// An acoustic problem with a point source.
fn run_acoustic(config: EngineConfig) -> u64 {
    let mut engine = Engine::new(mesh(), Acoustic, config);
    engine.set_initial(|x, q| {
        let s = poly(x);
        q[0] = 0.2 * s;
        q[1] = 0.1 * (x[1] - 0.5) * x[0];
        q[2] = -0.05 * s;
        q[3] = 0.03 * s * s;
        Acoustic::set_params(q, 1.0 + 0.3 * x[0], 1.0 + 0.1 * x[2]);
    });
    engine.add_point_source(PointSource {
        position: [0.45, 0.52, 0.3],
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.05,
            frequency: 8.0,
        },
    });
    evolve(engine)
}

/// A shallow-water problem over varying depth: its velocity rows are
/// driven by the non-conservative product, so the volume update's ncp
/// branch runs.
fn run_swe(config: EngineConfig) -> u64 {
    let mut engine = Engine::new(mesh(), LinearizedSwe, config);
    engine.set_initial(|x, q| {
        let s = poly([x[1], x[2], x[0]]);
        q[swe::ETA] = 0.1 * s;
        q[swe::U] = 0.05 * (x[2] - 0.2) * (x[2] + 0.6);
        q[swe::U + 1] = -0.02 * s;
        q[swe::U + 2] = 0.01 * s * s;
        LinearizedSwe::set_params(q, 1.0 + 0.4 * x[0] * x[1], 1.0);
    });
    evolve(engine)
}

/// Block sizes of the pin and the shard count each gives on this
/// 18-cell mesh (one shard per block); `None` is the tuner's pick. Every
/// kernel's per-cell arithmetic is independent of the block it runs in,
/// so all four share one hash.
const BLOCK_SIZES: [(Option<usize>, Option<usize>); 4] = [
    (Some(1), Some(18)),
    (Some(3), Some(6)),
    (Some(18), Some(1)),
    (None, None),
];

/// (kernel, [acoustic + point source, swe with ncp]) state hashes after
/// three steps.
const PINNED: [(&str, [u64; 2]); 5] = [
    ("generic", [0x0b559cfa3eadc493, 0x8b36bf49b5b14447]),
    ("log", [0xbfc75da026bef452, 0x0a655cb7b3d7862b]),
    ("splitck", [0xf185bd14cc61d768, 0x390fe156f473ca07]),
    ("aosoa_splitck", [0x578779d95d13d210, 0x390fe156f473ca07]),
    ("onthefly", [0x578779d95d13d210, 0x390fe156f473ca07]),
];

#[test]
fn step_results_are_pinned_bit_for_bit() {
    assert_eq!(
        KernelRegistry::global().names(),
        PINNED.map(|p| p.0),
        "registry and pin table list different kernels"
    );
    for (name, hashes) in PINNED {
        for (block_size, shards) in BLOCK_SIZES {
            let mut config = EngineConfig::new(3)
                .with_kernel_name(name)
                .with_width(Isa::Baseline);
            if let Some(b) = block_size {
                config = config.with_block_size(b);
            }
            if let Some(shards) = shards {
                let engine = Engine::new(mesh(), Acoustic, config);
                assert_eq!(engine.shard_plan().unwrap().num_shards(), shards);
            }
            let what = format!("{name}, block_size={block_size:?}");
            let got = [run_acoustic(config), run_swe(config)];
            assert_eq!(got, hashes, "{what}: state hashes [acoustic, swe]");
        }
    }
}
