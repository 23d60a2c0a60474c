//! One module per reproduced figure/table.

mod fig06;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig13_multicore;
mod fig_dram_fidelity;
mod fig_htap;
mod fig_txn;
mod tables;

pub use fig06::fig06;
pub use fig07::fig07;
pub use fig08::fig08;
pub use fig09::fig09;
pub use fig10::fig10;
pub use fig11::fig11;
pub use fig12::fig12;
pub use fig13::fig13;
pub use fig13_multicore::fig13_multicore;
pub use fig_dram_fidelity::{fig_dram_fidelity, fig_dram_fidelity_traced};
pub use fig_htap::{fig_htap, fig_htap_open_loop, fig_htap_open_loop_traced};
pub use fig_txn::{fig_txn, fig_txn_traced};
pub use tables::{table1, table2};

use relmem_sim::report::Table;
use relmem_sim::Trace;

/// A reproduced experiment: an identifier, a description of what the paper
/// shows, and one or more result tables.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Identifier used on the command line ("fig6", "table2", ...).
    pub id: &'static str,
    /// What the corresponding paper figure/table shows.
    pub description: String,
    /// The regenerated data.
    pub tables: Vec<Table>,
}

impl Experiment {
    /// Renders every table of the experiment as text.
    pub fn render_text(&self) -> String {
        let mut out = format!("# {} — {}\n\n", self.id, self.description);
        for t in &self.tables {
            out.push_str(&t.render_text());
            out.push('\n');
        }
        out
    }

    /// Renders every table of the experiment as CSV blocks.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&format!("# {}\n", t.title));
            out.push_str(&t.render_csv());
            out.push('\n');
        }
        out
    }
}

/// Identifiers of every experiment, in paper order.
pub fn all_experiments() -> Vec<&'static str> {
    vec![
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig13_multicore",
        "fig_htap",
        "fig_htap_openloop",
        "fig_txn",
        "fig_dram_fidelity",
        "table1",
        "table2",
    ]
}

/// Runs an experiment by identifier. `quick` shrinks the workload (used by
/// tests and smoke runs); `full` extends sweeps to the paper's largest
/// configurations (2 GB tables for Figure 13).
pub fn experiment_by_id(id: &str, quick: bool, full: bool) -> Option<Experiment> {
    match id {
        "fig6" => Some(fig06(quick)),
        "fig7" => Some(fig07(quick)),
        "fig8" => Some(fig08(quick)),
        "fig9" => Some(fig09(quick)),
        "fig10" => Some(fig10(quick)),
        "fig11" => Some(fig11(quick)),
        "fig12" => Some(fig12(quick)),
        "fig13" => Some(fig13(quick, full)),
        "fig13_multicore" => Some(fig13_multicore(quick)),
        "fig_htap" => Some(fig_htap(quick)),
        "fig_htap_openloop" => Some(fig_htap_open_loop(quick)),
        "fig_txn" => Some(fig_txn(quick)),
        "fig_dram_fidelity" => Some(fig_dram_fidelity(quick)),
        "table1" => Some(table1()),
        "table2" => Some(table2()),
        _ => None,
    }
}

/// Like [`experiment_by_id`], but additionally records a simulated-time
/// trace of the experiment's designated headline run when `trace` is set.
/// Three experiments have one: `fig_htap_openloop` (the 4× overload
/// point), `fig_txn` (4 cores at 100 % hot-row skew) and
/// `fig_dram_fidelity` (the cycle-accurate widest-row RME-cold scan).
/// Every other experiment runs untraced and returns `None` for the trace.
pub fn experiment_by_id_traced(
    id: &str,
    quick: bool,
    full: bool,
    trace: bool,
) -> Option<(Experiment, Option<Trace>)> {
    match id {
        "fig_htap_openloop" => Some(fig_htap_open_loop_traced(quick, trace)),
        "fig_txn" => Some(fig_txn_traced(quick, trace)),
        "fig_dram_fidelity" => Some(fig_dram_fidelity_traced(quick, trace)),
        _ => experiment_by_id(id, quick, full).map(|e| (e, None)),
    }
}

/// Default row count of the benchmark relation (the paper's 44 K), shrunk
/// when `quick` is requested.
pub(crate) fn default_rows(quick: bool) -> u64 {
    if quick {
        4_000
    } else {
        44_000
    }
}
