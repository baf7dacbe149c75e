//! # cl-harness — regenerates every table and figure of the paper
//!
//! One module per figure ([`figures`]) and one for the tables ([`tables`]).
//! Each experiment returns a [`report::Figure`]: labelled series of points
//! that render to Markdown/CSV exactly in the shape the paper plots.
//!
//! Two measurement planes (see DESIGN.md §4):
//!
//! * **Modeled** (default): deterministic times from `perf-model` — the
//!   reproduction of the paper's *shapes* that runs identically everywhere,
//!   including the GPU side (we have no GTX 580).
//! * **Native** (`Config::native`): wall-clock on the host through the real
//!   `ocl-rt` execution engine, for the CPU-side experiments whose
//!   mechanisms are physically present in this runtime (scheduling
//!   overhead, map-vs-copy, ILP, vectorization, affinity).
//!
//! The `repro` binary runs everything and writes `results/` +
//! `EXPERIMENTS.md`. Every binary parses its flags, writes its reports and
//! exits through [`cli::Cli`].

pub mod bench;
pub mod cli;
pub mod figures;
pub mod measure;
pub mod profiles;
pub mod report;
pub mod tables;

pub use measure::Config;
pub use report::{Figure, Series};

/// All figure experiments in paper order.
pub fn all_figures(cfg: &Config) -> Vec<Figure> {
    vec![
        figures::fig1::run(cfg),
        figures::fig2::run(cfg),
        figures::fig3::run(cfg),
        figures::fig4::run(cfg),
        figures::fig5::run(cfg),
        figures::fig6::run(cfg),
        figures::fig7::run(cfg),
        figures::fig8::run(cfg),
        figures::fig9::run(cfg),
        figures::fig10::run(cfg),
        figures::fig11::run(cfg),
    ]
}
