//! # or-analyze — static analysis for the or-sets repository
//!
//! Two passes, one entry point each, both exposed through the `or-analyze`
//! binary and delegated to by the test suite:
//!
//! * [`plans`] — **plan verification**: compile every statement the
//!   repository ships (`examples/*.orql`, the engine-bench workload table)
//!   into the physical plans the engine would execute and check each
//!   against the typed rule catalog in [`or_nra::verify`] (arity, operator
//!   typing, Theorem 5.1 α-expansion placement, budget admission) under a
//!   serving configuration.  `or-analyze verify-plans`.
//! * [`lint`] — **repo lint**: hand-rolled, std-only source rules encoding
//!   the repository's own discipline — no panicking combinators in
//!   or-server request paths, lock-order hygiene, the decode-once arena
//!   boundary, `InternId`-keyed hot paths, workspace-wide
//!   `#![forbid(unsafe_code)]`, and the markdown link audit.
//!   `or-analyze lint`.
//!
//! The rule catalogs (verifier `V01`–`V10`, lint `L01`–`L06`) are
//! documented with rationale in `docs/ANALYZE.md`; the CI
//! `static-analysis` job fails on any violation.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod lint;
pub mod plans;

pub use lint::{lint_repo, Finding};
pub use plans::{verify_repo_plans, PlanCheck, PlansReport};
