//! The kernel registry — name lookup for the Space-Time Predictor
//! implementations.
//!
//! The paper's Toolkit resolves the `kernel = …` line of the specification
//! file to a generated kernel (Sec. II-C/D). [`KernelRegistry`] is that
//! resolution step: a fixed table of the built-in kernels, keyed by name.
//! The engine and [`scenario::resolve`](crate::scenario::resolve) (behind
//! every flag, spec file and `SUBMIT` command) resolve names through
//! [`KernelRegistry::global`], and the equivalence tests and figure
//! harnesses enumerate the table. A new variant is one new module
//! implementing [`StpKernel`] plus one entry in the table. Any other
//! `StpKernel` still runs through
//! [`EngineConfig::with_kernel`](crate::engine::EngineConfig::with_kernel);
//! it only has no name to look up. Kernels opt into the engine's batched
//! cell-block pipeline by overriding
//! [`run_block`](crate::kernels::StpKernel::run_block).

use crate::kernels::{aosoa, generic, log, onthefly, splitck, StpKernel};

/// The fixed, named table of [`StpKernel`] implementations.
pub struct KernelRegistry {
    kernels: &'static [&'static dyn StpKernel],
}

impl KernelRegistry {
    /// The process-wide table: the paper's four variants plus the
    /// rejected on-the-fly-transpose design (Sec. V-A), which rides along
    /// so the `onthefly` figure and the equivalence matrix exercise it
    /// like any other kernel.
    pub fn global() -> &'static KernelRegistry {
        static GLOBAL: KernelRegistry = KernelRegistry {
            kernels: &[
                &generic::GenericKernel,
                &log::LogKernel,
                &splitck::SplitCkKernel,
                &aosoa::AosoaKernel,
                &onthefly::OnTheFlyKernel,
            ],
        };
        &GLOBAL
    }

    /// Resolves a kernel by its registry key (the specification-file
    /// name, e.g. `splitck`).
    pub fn resolve(&self, name: &str) -> Option<&'static dyn StpKernel> {
        self.kernels.iter().copied().find(|k| k.name() == name)
    }

    /// Every kernel, in table order.
    pub fn kernels(&self) -> &'static [&'static dyn StpKernel] {
        self.kernels
    }

    /// Registry keys of every kernel, in table order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|k| k.name()).collect()
    }
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelRegistry")
            .field("kernels", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_has_paper_variants_and_onthefly() {
        let names = KernelRegistry::global().names();
        for expected in ["generic", "log", "splitck", "aosoa_splitck", "onthefly"] {
            assert!(
                names.contains(&expected),
                "missing `{expected}` in {names:?}"
            );
        }
        // Names are the resolution key: no two kernels may share one.
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
    }

    #[test]
    fn resolve_finds_registered_and_rejects_unknown() {
        let registry = KernelRegistry::global();
        assert_eq!(registry.resolve("splitck").unwrap().name(), "splitck");
        assert!(registry.resolve("turbo").is_none());
    }
}
