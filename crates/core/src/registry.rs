//! The kernel registry — open-ended dispatch for Space-Time Predictor
//! implementations.
//!
//! The paper's Toolkit resolves the `kernel = …` line of the specification
//! file to a generated kernel (Sec. II-C/D). [`KernelRegistry`] is that
//! resolution step made extensible: kernels are registered by name, the
//! engine and [`scenario::resolve`](crate::scenario::resolve) (behind
//! every flag, config table and spec file) resolve them through
//! [`KernelRegistry::global`], and the equivalence tests and figure
//! harnesses enumerate whatever is registered. A new variant is one new
//! module implementing [`StpKernel`] plus one
//! [`register`](KernelRegistry::register) call — no
//! enum, no match arms, no test edits. Kernels opt into the engine's
//! batched cell-block pipeline by overriding
//! [`run_block`](crate::kernels::StpKernel::run_block).

use crate::kernels::{aosoa, generic, log, onthefly, splitck, StpKernel};
use std::sync::{OnceLock, RwLock};

/// A named collection of [`StpKernel`] implementations.
///
/// Thread-safe: registration and resolution may happen concurrently (the
/// engine resolves once at construction, never in the hot loop).
pub struct KernelRegistry {
    kernels: RwLock<Vec<&'static dyn StpKernel>>,
}

impl KernelRegistry {
    /// Creates an empty registry (tests, custom kernel sets).
    pub fn new() -> Self {
        Self {
            kernels: RwLock::new(Vec::new()),
        }
    }

    /// The process-wide registry, seeded with the paper's four variants
    /// plus the rejected on-the-fly-transpose design (Sec. V-A), which
    /// rides along so the ablation harness and the equivalence matrix
    /// exercise it like any other kernel.
    pub fn global() -> &'static KernelRegistry {
        static GLOBAL: OnceLock<KernelRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = KernelRegistry::new();
            registry.register(&generic::GenericKernel);
            registry.register(&log::LogKernel);
            registry.register(&splitck::SplitCkKernel);
            registry.register(&aosoa::AosoaKernel);
            registry.register(&onthefly::OnTheFlyKernel);
            registry
        })
    }

    /// Registers a kernel.
    ///
    /// # Panics
    /// If a kernel with the same name is already registered — names are
    /// the resolution key, so a collision is a programming error.
    pub fn register(&self, kernel: &'static dyn StpKernel) {
        // PANIC-OK: registry poisoning means a register/resolve call
        // panicked; no sane recovery exists (×4 in this impl).
        let mut kernels = self.kernels.write().expect("kernel registry poisoned");
        assert!(
            !kernels.iter().any(|k| k.name() == kernel.name()),
            "kernel `{}` registered twice",
            kernel.name()
        );
        kernels.push(kernel);
    }

    /// Resolves a kernel by its registry key (the specification-file
    /// name, e.g. `splitck`).
    pub fn resolve(&self, name: &str) -> Option<&'static dyn StpKernel> {
        self.kernels
            .read()
            // PANIC-OK: poisoned registry (see `register`).
            .expect("kernel registry poisoned")
            .iter()
            .copied()
            .find(|k| k.name() == name)
    }

    /// Every registered kernel, in registration order.
    pub fn kernels(&self) -> Vec<&'static dyn StpKernel> {
        self.kernels
            .read()
            // PANIC-OK: poisoned registry (see `register`).
            .expect("kernel registry poisoned")
            .clone()
    }

    /// Registry keys of every registered kernel, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kernels
            .read()
            // PANIC-OK: poisoned registry (see `register`).
            .expect("kernel registry poisoned")
            .iter()
            .map(|k| k.name())
            .collect()
    }
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::new()
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
    }

    #[test]
    fn resolve_finds_registered_and_rejects_unknown() {
        let registry = KernelRegistry::global();
        assert_eq!(registry.resolve("splitck").unwrap().name(), "splitck");
        assert!(registry.resolve("turbo").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let registry = KernelRegistry::new();
        registry.register(&generic::GenericKernel);
        registry.register(&generic::GenericKernel);
    }

    #[test]
    fn custom_registry_is_independent() {
        let registry = KernelRegistry::new();
        assert!(registry.kernels().is_empty());
        registry.register(&splitck::SplitCkKernel);
        assert_eq!(registry.names(), vec!["splitck"]);
    }
}
