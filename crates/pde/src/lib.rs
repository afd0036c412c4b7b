//! # aderdg-pde
//!
//! PDE definitions for the linear ADER-DG engine: the [`LinearPde`]
//! user-function API (pointwise *and* vectorized SoA variants, mirroring
//! the paper's API split), concrete systems (multi-component linear
//! advection in flux and non-conservative form, 3-D acoustics, and the
//! paper's 21-quantity elastic wave equation on curvilinear meshes),
//! exact plane-wave solutions for convergence testing, and point sources
//! with analytic time derivatives for the Cauchy-Kowalewsky predictor.
//!
//! `unsafe` is denied crate-wide except in the private `lanes` module, the
//! ISA-dispatched lane driver the vectorized user functions run on; the
//! PDE files themselves contain none.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod acoustic;
pub mod advection;
pub mod elastic;
#[allow(unsafe_code)] // raw-pointer lane loads/stores of the SoA driver
mod lanes;
pub mod maxwell;
pub mod source;
pub mod swe;
pub mod traits;

pub use acoustic::{Acoustic, AcousticPlaneWave};
pub use advection::{
    AdvectedSine, AdvectionNcpSystem, AdvectionSystem, RotatingAdvection, RotatingGaussian,
};
pub use elastic::{Elastic, ElasticPlaneWave, Material};
pub use maxwell::{Maxwell, MaxwellPlaneWave};
pub use source::{PointSource, SourceTimeFunction};
pub use swe::{LinearizedSwe, SweGravityWave};
pub use traits::{ExactSolution, LinearPde};
