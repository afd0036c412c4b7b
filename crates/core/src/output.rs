//! Solution output — the engine's "plotter" component (the paper's
//! architecture diagram lists plotters for various file formats as part of
//! the ExaHyPE core; Fig. 2).
//!
//! Writes nodal snapshots as flat CSV ([`write_csv`], what `aderdg-run
//! --snapshot` writes) and files atomically ([`write_atomic`]); receiver
//! seismograms are written from a run summary by
//! [`write_receivers_csv`](crate::report::write_receivers_csv).

use crate::engine::Engine;
use aderdg_pde::LinearPde;
use std::io::{self, Write};
use std::path::Path;

/// Writes a file atomically: the content goes to a `<name>.tmp` sibling
/// first and is renamed over `path` only after a successful flush — a
/// failure mid-write can never leave a truncated file where a previous
/// good one (a checkpoint, say) used to be. The sibling lives in the
/// same directory so the rename stays within one filesystem.
pub fn write_atomic(
    path: &Path,
    f: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut file = io::BufWriter::new(std::fs::File::create(&tmp)?);
        f(&mut file)?;
        file.flush()?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()
    })();
    match result {
        Ok(()) => std::fs::rename(&tmp, path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Writes the nodal solution as CSV: `x,y,z,q0,q1,...` (evolved
/// quantities only), one row per quadrature node.
pub fn write_csv<P: LinearPde>(engine: &Engine<P>, out: &mut dyn Write) -> io::Result<()> {
    let n = engine.plan.n();
    let m_pad = engine.plan.aos.m_pad();
    let vars = engine.pde.num_vars();
    let nodes = &engine.plan.basis.nodes;
    write!(out, "x,y,z")?;
    for s in 0..vars {
        write!(out, ",q{s}")?;
    }
    writeln!(out)?;
    for cell in 0..engine.mesh.num_cells() {
        let q = engine.cell_state(cell);
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let x = engine
                        .mesh
                        .cell_point(cell, [nodes[k1], nodes[k2], nodes[k3]]);
                    write!(out, "{},{},{}", x[0], x[1], x[2])?;
                    let node = (k3 * n + k2) * n + k1;
                    for s in 0..vars {
                        write!(out, ",{}", q[node * m_pad + s])?;
                    }
                    writeln!(out)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use aderdg_mesh::StructuredMesh;
    use aderdg_pde::{Acoustic, AcousticPlaneWave, ExactSolution};

    fn small_engine() -> Engine<Acoustic> {
        let wave = AcousticPlaneWave {
            direction: [1.0, 0.0, 0.0],
            amplitude: 1.0,
            wavenumber: 1.0,
            rho: 1.0,
            bulk: 1.0,
        };
        let mesh = StructuredMesh::unit_cube(2);
        let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(3));
        engine.set_initial(|x, q| {
            wave.evaluate(x, 0.0, q);
            Acoustic::set_params(q, 1.0, 1.0);
        });
        engine
    }

    #[test]
    fn csv_snapshot_has_all_nodes() {
        let engine = small_engine();
        let mut buf = Vec::new();
        write_csv(&engine, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "x,y,z,q0,q1,q2,q3");
        assert_eq!(lines.len() - 1, 8 * 27);
        // A data row parses to numbers.
        let fields: Vec<f64> = lines[1].split(',').map(|t| t.parse().unwrap()).collect();
        assert_eq!(fields.len(), 7);
    }

    #[test]
    fn write_atomic_failure_preserves_the_old_file() {
        let path = std::env::temp_dir().join(format!("aderdg_atomic_{}.csv", std::process::id()));
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        std::fs::write(&path, "old good content").unwrap();

        // A failing writer leaves the original untouched and no sibling.
        let err = write_atomic(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("disk full"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old good content");
        assert!(!tmp.exists(), "failed write left {} behind", tmp.display());

        // A successful writer replaces the content and the sibling is gone.
        write_atomic(&path, |w| w.write_all(b"new content")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new content");
        assert!(!tmp.exists());
        let _ = std::fs::remove_file(&path);
    }
}
