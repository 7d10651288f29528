//! The repo benchmark as a library, so `tests/` can reach the contract
//! tables and the helpers; `main.rs` is the command.

pub mod gen;
pub mod layers;
pub mod measure;
pub mod serve;
pub mod spec;
pub mod sut;
pub mod trace;
pub mod workloads;
