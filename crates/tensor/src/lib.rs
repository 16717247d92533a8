//! Dense `f32` tensor math for the Learn-to-Scale reproduction.
//!
//! This crate is the numerical substrate under `lts-nn`: owned,
//! contiguous, row-major tensors ([`Tensor`]), shape bookkeeping
//! ([`Shape`]), a blocked row-parallel GEMM ([`matmul`]), the `im2col`
//! lowering used by convolution layers, seeded weight initializers, the
//! 16-bit fixed-point format used by the simulated accelerator cores
//! ([`fixed::Fixed16`]) together with its first-class inference kernels
//! (per-tensor symmetric scales in [`quant`], the i16/i32 instance of the
//! register-tile GEMM in [`qmatmul`], and the element-generic `im2col`),
//! and sparsity/norm statistics used by the structured-sparsification
//! pipeline.
//!
//! It also hosts the deterministic parallel execution engine ([`par`],
//! configured by [`ExecConfig`] or the `LTS_THREADS` environment variable)
//! and the reusable scratch arena ([`Workspace`], one pool per thread) that
//! the layer kernels draw their temporaries from. Everything built on the engine is
//! bit-reproducible: results are identical for any worker count.
//!
//! The GEMM picks its compiled form at run time: where the CPU has AVX2
//! it runs the same kernels in 256-bit lanes, and i16 `A·B` a fused
//! `pmaddwd` tile, with results bit-identical to the portable build. That
//! dispatch and its register loads are the crate's only `unsafe` code,
//! held in one private module (`avx2`); everywhere else `unsafe` is
//! denied, and every `unsafe` block must state why it is sound.
//!
//! # Examples
//!
//! ```
//! use lts_tensor::{Tensor, Shape};
//!
//! # fn main() -> Result<(), lts_tensor::TensorError> {
//! let a = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::ones(Shape::d2(3, 2));
//! let c = lts_tensor::matmul::matmul(&a, &b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.as_slice()[0], 6.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(clippy::print_stdout, clippy::print_stderr)]

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod fixed;
pub mod im2col;
pub mod init;
pub mod matmul;
pub mod ops;
pub mod par;
pub mod qmatmul;
pub mod quant;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod workspace;

pub use fixed::Fixed16;
pub use par::ExecConfig;
pub use quant::QuantParams;
pub use shape::Shape;
pub use tensor::{Tensor, TensorError};
pub use workspace::Workspace;
