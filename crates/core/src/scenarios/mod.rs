//! The built-in scenario gallery — eleven registry-resolved workloads
//! spanning all five PDE systems (acoustics, advection, elasticity,
//! Maxwell, shallow water).
//!
//! Every scenario here is documented in `docs/SCENARIOS.md` with its
//! reproduction command and expected norms; the CLI smoke gate
//! (`aderdg-run --smoke-all`) fails if a registered scenario is missing
//! from that gallery, so registration and documentation cannot drift
//! apart. Adding a scenario is one `impl Scenario`, one entry in the
//! table of [`ScenarioRegistry::global`](crate::scenario::ScenarioRegistry::global),
//! and one gallery section.

mod acoustic;
mod advection;
mod elastic;
mod maxwell;
mod swe;

pub use acoustic::{AcousticLayered, AcousticPulse, AcousticWave};
pub use advection::{AdvectionRotation, AdvectionWave};
pub use elastic::{ElasticStress, ElasticWave, Loh1, LOH1_OFFSETS};
pub use maxwell::MaxwellCavity;
pub use swe::{SweDamBreak, SweLakeAtRest};

#[cfg(test)]
mod tests {
    use crate::scenario::{RunRequest, ScenarioRegistry};
    use std::collections::BTreeSet;

    #[test]
    fn gallery_has_at_least_eight_scenarios_covering_all_five_systems() {
        let registry = ScenarioRegistry::global();
        let scenarios = registry.scenarios();
        assert!(scenarios.len() >= 8, "only {} scenarios", scenarios.len());
        let systems: BTreeSet<&str> = scenarios.iter().map(|s| s.info().system).collect();
        for system in ["acoustic", "advection", "elastic", "maxwell", "swe"] {
            assert!(systems.contains(system), "no scenario covers `{system}`");
        }
        // Names are the resolution key: no two scenarios may share one.
        let names: BTreeSet<&str> = scenarios.iter().map(|s| s.info().name).collect();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario name");
        assert!(registry.resolve("missing").is_none());
    }

    #[test]
    fn gallery_defaults_are_resolvable() {
        for &scenario in ScenarioRegistry::global().scenarios() {
            let info = scenario.info();
            crate::scenario::resolve(&info, &RunRequest::new())
                .unwrap_or_else(|e| panic!("scenario `{}` has invalid defaults: {e}", info.name));
            assert!(info.t_end > 0.0);
            assert!(info.cells.iter().all(|&c| c >= 1));
            assert!(info.smoke_cells.iter().all(|&c| c >= 1));
            // Smoke grids must actually be small — the CI gate runs every
            // scenario through them.
            assert!(
                info.smoke_cells.iter().product::<usize>() <= 16,
                "scenario `{}` smoke grid too large",
                info.name
            );
        }
    }
}
