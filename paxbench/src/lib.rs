//! The repository benchmark (see `README.md`).

pub mod kv;
pub mod report;
pub mod run;
pub mod stats;
pub mod store;
pub mod trace;
