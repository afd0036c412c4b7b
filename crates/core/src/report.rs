//! Rendering a [`RunSummary`] for humans and CSV consumers — shared by
//! `aderdg-run` and `aderdg-serve` so a job fetched over the wire looks
//! exactly like a local run.

use crate::scenario::RunSummary;
use std::io::Write;

/// Renders the human-readable run report.
pub fn render_summary(s: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "scenario {} [{}]: order {}, {}x{}x{} cells ({}), kernel {}, stepping {}\n",
        s.scenario,
        s.system,
        s.order,
        s.cells[0],
        s.cells[1],
        s.cells[2],
        s.num_cells,
        s.kernel,
        s.stepping.as_str(),
    ));
    out.push_str(&format!("tune: {}\n", s.tune));
    out.push_str(&format!(
        "{} steps to t = {:.6} in {:.3} s ({:.0} cell updates/s)\n",
        s.steps, s.t_end, s.wall_seconds, s.cell_updates_per_second
    ));
    if s.paused {
        out.push_str("run paused before reaching its target (resumable from checkpoint)\n");
    }
    out.push_str(&format!(
        "{:>10} {:>8} {:>13} {:>13}\n",
        "t", "steps", "L2 norm", "L2 error"
    ));
    for p in &s.series {
        let err = p
            .l2_error
            .map(|e| format!("{e:>13.4e}"))
            .unwrap_or_else(|| format!("{:>13}", "-"));
        out.push_str(&format!(
            "{:>10.4} {:>8} {:>13.6e} {err}\n",
            p.t, p.steps, p.l2_norm
        ));
    }
    let drift: f64 = s
        .integrals_initial
        .iter()
        .zip(&s.integrals_final)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    out.push_str(&format!(
        "conserved-quantity drift: max |Δ∫q| = {drift:.3e} over {} quantities\n",
        s.integrals_final.len()
    ));
    if let Some(err) = s.l2_error {
        out.push_str(&format!("final L2 error vs exact solution: {err:.6e}\n"));
    }
    if !s.receivers.is_empty() {
        out.push_str(&format!(
            "{} receiver(s) recorded {} samples each\n",
            s.receivers.len(),
            s.receivers.first().map_or(0, |r| r.records.len())
        ));
    }
    out
}

/// Writes the checkpoint time series as CSV (`t,steps,l2_norm,l2_error`).
pub fn write_series_csv(s: &RunSummary, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "t,steps,l2_norm,l2_error")?;
    for p in &s.series {
        match p.l2_error {
            Some(e) => writeln!(out, "{},{},{},{e}", p.t, p.steps, p.l2_norm)?,
            None => writeln!(out, "{},{},{},", p.t, p.steps, p.l2_norm)?,
        }
    }
    Ok(())
}

/// Writes every receiver's seismogram as CSV
/// (`receiver,x,y,z,t,q0,q1,…`).
pub fn write_receivers_csv(s: &RunSummary, out: &mut dyn Write) -> std::io::Result<()> {
    let vars = s
        .receivers
        .iter()
        .flat_map(|r| r.records.first())
        .map(|(_, v)| v.len())
        .next()
        .unwrap_or(0);
    write!(out, "receiver,x,y,z,t")?;
    for v in 0..vars {
        write!(out, ",q{v}")?;
    }
    writeln!(out)?;
    for (i, r) in s.receivers.iter().enumerate() {
        for (t, v) in &r.records {
            write!(
                out,
                "{i},{},{},{},{t}",
                r.position[0], r.position[1], r.position[2]
            )?;
            for x in v {
                write!(out, ",{x}")?;
            }
            writeln!(out)?;
        }
    }
    Ok(())
}
