//! Solution output — the engine's "plotter" component (the paper's
//! architecture diagram lists plotters for various file formats as part of
//! the ExaHyPE core; Fig. 2).
//!
//! Writes nodal snapshots as legacy-VTK structured grids (readable by
//! ParaView/VisIt) or as flat CSV; receiver seismograms are written from a
//! run summary by [`write_receivers_csv`](crate::report::write_receivers_csv).

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

/// Writes the full nodal solution as a legacy-VTK structured grid:
/// one point per quadrature node, `var_names.len()` scalar fields (the
/// first evolved quantities).
pub fn write_vtk<P: LinearPde>(
    engine: &Engine<P>,
    var_names: &[&str],
    out: &mut dyn Write,
) -> io::Result<()> {
    let n = engine.plan.n();
    let m_pad = engine.plan.aos.m_pad();
    let vars = engine.pde.num_vars();
    assert!(
        var_names.len() <= vars,
        "more names than evolved quantities"
    );
    let dims = engine.mesh.dims;
    let nodes = &engine.plan.basis.nodes;
    let (px, py, pz) = (dims[0] * n, dims[1] * n, dims[2] * n);
    let total = px * py * pz;

    writeln!(out, "# vtk DataFile Version 3.0")?;
    writeln!(out, "aderdg snapshot t={}", engine.time)?;
    writeln!(out, "ASCII")?;
    writeln!(out, "DATASET STRUCTURED_GRID")?;
    writeln!(out, "DIMENSIONS {px} {py} {pz}")?;
    writeln!(out, "POINTS {total} double")?;
    // Point order: x fastest, then y, then z (VTK convention).
    for gk in 0..pz {
        for gj in 0..py {
            for gi in 0..px {
                let (ci, ki) = (gi / n, gi % n);
                let (cj, kj) = (gj / n, gj % n);
                let (ck, kk) = (gk / n, gk % n);
                let cell = engine.mesh.cell_index(ci, cj, ck);
                let x = engine
                    .mesh
                    .cell_point(cell, [nodes[ki], nodes[kj], nodes[kk]]);
                writeln!(out, "{} {} {}", x[0], x[1], x[2])?;
            }
        }
    }
    writeln!(out, "POINT_DATA {total}")?;
    for (s, name) in var_names.iter().enumerate() {
        writeln!(out, "SCALARS {name} double 1")?;
        writeln!(out, "LOOKUP_TABLE default")?;
        for gk in 0..pz {
            for gj in 0..py {
                for gi in 0..px {
                    let (ci, ki) = (gi / n, gi % n);
                    let (cj, kj) = (gj / n, gj % n);
                    let (ck, kk) = (gk / n, gk % n);
                    let cell = engine.mesh.cell_index(ci, cj, ck);
                    let node = (kk * n + kj) * n + ki;
                    let v = engine.cell_state(cell)[node * m_pad + s];
                    writeln!(out, "{v}")?;
                }
            }
        }
    }
    Ok(())
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
    fn vtk_snapshot_is_well_formed() {
        let engine = small_engine();
        let mut buf = Vec::new();
        write_vtk(&engine, &["p", "u"], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let total = (2 * 3usize).pow(3);
        assert!(text.starts_with("# vtk DataFile Version 3.0"));
        assert!(text.contains(&format!("DIMENSIONS {0} {0} {0}", 6)));
        assert!(text.contains(&format!("POINTS {total} double")));
        assert!(text.contains("SCALARS p double 1"));
        assert!(text.contains("SCALARS u double 1"));
        // Point count: header lines + coordinates + 2 × scalars.
        let n_coord_lines = text
            .lines()
            .filter(|l| {
                l.split_whitespace().count() == 3
                    && l.chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '0')
            })
            .count();
        assert!(n_coord_lines >= total);
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

    #[test]
    #[should_panic(expected = "more names")]
    fn vtk_rejects_too_many_names() {
        let engine = small_engine();
        let mut buf = Vec::new();
        let _ = write_vtk(&engine, &["a", "b", "c", "d", "e"], &mut buf);
    }
}
