//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--full] [--native] [--out DIR] [--only ID]
//!
//!   --full     use the paper's full problem sizes (default: scaled down)
//!   --native   also run wall-clock measurements on this host
//!   --out DIR  output directory (default: results)
//!   --only ID  run a single experiment, e.g. --only fig6
//! ```
//!
//! Writes one Markdown + CSV file per figure, the tables, and a combined
//! `EXPERIMENTS.generated.md`.

use std::panic::catch_unwind;

use cl_harness::cli::Cli;
use cl_harness::{figures, tables, Config, Figure};

/// Every experiment id, in report order (`all_figures` plus the extras).
const ALL_IDS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "extra-vectorizer",
    "extra-occupancy",
    "extra-scheduling",
];

const USAGE: &str = "usage: repro [--full] [--native] [--out DIR] [--only ID]";

fn main() {
    let mut cli = Cli::parse("repro", USAGE);
    let cfg = Config {
        quick: !cli.on("--full"),
        native: cli.on("--native"),
        ..Config::default()
    };
    let only: Option<String> = cli.value("--only");
    if let Some(id) = only.as_deref().filter(|id| !ALL_IDS.contains(id)) {
        cli.usage_error(&format!(
            "unknown experiment id: {id} (expected fig1..fig11 or extra-vectorizer/\
             extra-occupancy/extra-scheduling)"
        ));
    }

    eprintln!(
        "repro: plane = modeled{}, sizes = {}",
        if cfg.native { " + native" } else { "" },
        if cfg.quick { "quick" } else { "full (paper)" }
    );

    // Each experiment runs inside `catch_unwind`: one panicking figure is
    // reported (and fails the run with a nonzero exit) without losing the
    // results of every other figure.
    let ids: Vec<&str> = match &only {
        Some(id) => vec![id.as_str()],
        None => ALL_IDS.to_vec(),
    };
    let mut figures: Vec<Figure> = Vec::with_capacity(ids.len());
    for id in ids {
        match catch_unwind(|| run_one(id, &cfg)) {
            Ok(fig) => figures.push(fig),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                cli.fail(format!("{id}: {msg}"));
            }
        }
    }

    let mut combined = String::new();
    combined.push_str("# Generated experiment results\n\n");
    combined.push_str(&format!(
        "Configuration: {} sizes{}.\n\n",
        if cfg.quick { "quick" } else { "full paper" },
        if cfg.native {
            ", with native wall-clock series"
        } else {
            ""
        }
    ));

    if only.is_none() {
        let t = tables::all_tables();
        eprintln!("wrote {}", cli.write("tables.md", &t).display());
        combined.push_str(&t);
    }

    for fig in &figures {
        let md = fig.to_markdown();
        let md_path = cli.write(&format!("{}.md", fig.id), &md);
        cli.write(&format!("{}.csv", fig.id), fig.to_csv());
        combined.push_str(&md);
        eprintln!("wrote {} (+ .csv)", md_path.display());
    }

    eprintln!(
        "wrote {}",
        cli.write("EXPERIMENTS.generated.md", combined).display()
    );
    cli.finish();
}

fn run_one(id: &str, cfg: &Config) -> Figure {
    match id {
        "fig1" => figures::fig1::run(cfg),
        "fig2" => figures::fig2::run(cfg),
        "fig3" => figures::fig3::run(cfg),
        "fig4" => figures::fig4::run(cfg),
        "fig5" => figures::fig5::run(cfg),
        "fig6" => figures::fig6::run(cfg),
        "fig7" => figures::fig7::run(cfg),
        "fig8" => figures::fig8::run(cfg),
        "fig9" => figures::fig9::run(cfg),
        "fig10" => figures::fig10::run(cfg),
        "fig11" => figures::fig11::run(cfg),
        "extra-vectorizer" => figures::extra::vectorizer_ablation(cfg),
        "extra-occupancy" => figures::extra::occupancy_figure(cfg),
        "extra-scheduling" => figures::extra::scheduling_ablation(cfg),
        other => unreachable!("experiment id {other} is checked against ALL_IDS"),
    }
}
