//! # sparsetir-smat
//!
//! Sparse/dense matrix substrate for the SparseTIR reproduction: the
//! storage formats something in the workspace lowers, serves or measures.
//!
//! | Format | Module | Paper use |
//! |---|---|---|
//! | Dense | [`dense`] | `X`, `Y`, `W` operands |
//! | COO | [`coo`] | construction |
//! | CSR | [`csr`] | baselines, GNN graphs |
//! | ELL | [`ell`] | `hyb` building block |
//! | BSR | [`bsr`] | sparse attention, block pruning |
//! | DBSR | [`bsr::Dbsr`] | block pruning with zero rows (§4.3.2) |
//! | SR-BCRS(t, g) | [`srbcrs`] | unstructured pruning (§4.3.2) |
//! | `hyb(c, k)` | [`hyb`] | composable SpMM format (§4.2.1, Fig. 11) |
//!
//! Each compressed format carries `to_dense`/`spmm` reference routines used
//! as correctness oracles by the kernel crates, and conversion constructors
//! implementing the "indices inference" the paper delegates to SciPy.
//! Beside the formats: [`delta`] (`GraphDelta` + `Csr::apply_delta`, the one
//! update path), [`fingerprint`] (sparsity fingerprints and their drift),
//! [`gen`] (seeded generators) and [`linalg`] (batched / relational
//! references).
//!
//! ```
//! use sparsetir_smat::prelude::*;
//!
//! let mut rng = gen::rng(42);
//! let a = gen::random_csr(64, 64, 0.05, &mut rng);
//! let hyb = Hyb::with_default_k(&a, 2)?;          // hyb(c=2, default k)
//! let x = gen::random_dense(64, 16, &mut rng);
//! assert!(hyb.spmm(&x)?.approx_eq(&a.spmm(&x)?, 1e-4));
//! # Ok::<(), sparsetir_smat::SmatError>(())
//! ```

#![warn(missing_docs)]

pub mod bsr;
pub mod coo;
pub mod csr;
pub mod delta;
pub mod dense;
pub mod ell;
pub mod fingerprint;
pub mod gen;
pub mod hyb;
pub mod linalg;
pub mod srbcrs;

pub use dense::SmatError;

/// Common imports.
pub mod prelude {
    pub use crate::bsr::{Bsr, Dbsr};
    pub use crate::coo::Coo;
    pub use crate::csr::Csr;
    pub use crate::delta::GraphDelta;
    pub use crate::dense::{Dense, SmatError};
    pub use crate::ell::Ell;
    pub use crate::fingerprint::SparsityFingerprint;
    pub use crate::gen;
    pub use crate::hyb::{bucket_for, ceil_log2, default_k, EllBucket, Hyb, HybPartition};
    pub use crate::linalg::{batched_sddmm, batched_spmm, rgms_reference};
    pub use crate::srbcrs::SrBcrs;
}
