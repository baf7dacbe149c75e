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
//! `EXPERIMENTS.md`.

pub mod bench;
pub mod figures;
pub mod measure;
pub mod profiles;
pub mod report;
pub mod tables;

pub use measure::Config;
pub use report::{Figure, Series};

/// The value after flag `args[i - 1]` of a harness binary's command line,
/// parsed as `T`. Panics if it is missing or does not parse.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i)
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: not a valid value: {}", args[i]))
}

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
