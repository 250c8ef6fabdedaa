//! Dense linear-algebra and neural-network kernels for the FedProxVR
//! reproduction.
//!
//! The paper trains its models in TensorFlow; this crate is the from-scratch
//! numeric substrate that replaces it. It provides:
//!
//! * [`vecops`] — BLAS-level-1 style operations on `&[f64]` slices (dot,
//!   axpy, norms, …),
//! * [`kernel`] — the runtime-selectable kernel layer: scalar
//!   cpu-reference oracles and cache-blocked register-tiled GEMM /
//!   matvec kernels that match them bitwise,
//! * [`Matrix`] — a row-major dense matrix whose products dispatch
//!   through the kernel layer,
//! * [`conv`] — im2col-based 2-D convolution and max-pooling with full
//!   backward passes (enough to express the paper's two-layer CNN),
//! * [`activations`] — ReLU / softmax / log-softmax and their derivatives,
//! * [`init`] — seeded Xavier/He parameter initialisation.
//!
//! Everything is `f64`: the experiments compare convergence *curves*, and
//! curve fidelity matters more than the 2x throughput a switch to `f32`
//! would buy (see DESIGN.md).
//!
//! # Example
//!
//! ```
//! use fedprox_tensor::{Matrix, vecops};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! assert_eq!(vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
//! ```

#![warn(missing_docs)]

pub mod activations;
pub mod conv;
pub mod error;
pub mod guard;
pub mod init;
pub mod kernel;
pub mod matrix;
pub mod vecops;

pub use error::{ShapeError, TensorResult};
pub use matrix::Matrix;
