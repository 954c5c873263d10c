//! # shrimp-bench — harnesses regenerating the paper's evaluation
//!
//! One binary per figure (`fig3`, `fig4`, `fig5`, `fig7`, `fig8`,
//! `ttcp`, `ablations`, `scale`), the fault-injection harness
//! (`chaos`), the collective-communication scaling study
//! (`collectives`), the virtual-time profiler (`simprof`), the
//! host-cost harness (`simperf`), and `artifacts`, which regenerates
//! and checks the four digest-gated studies (`svc`, `svcsoak`, `rmc`,
//! `topo`; see [`artifact`]). This library holds the shared workloads
//! and reporting. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod artifact;
pub mod chaos;
pub mod cli;
pub mod collectives;
pub mod nx_pingpong;
pub mod pingpong;
pub mod report;
pub mod rmcbench;
pub mod rpc_compare;
pub mod scale;
pub mod simperf;
pub mod simprof;
pub mod socket_bench;
pub mod svcbench;
pub mod svcsoak;
pub mod topobench;
pub mod vrpc_bench;

pub use report::{paper_sizes, render_figure, Point, Series, LATENCY_CUTOFF};
