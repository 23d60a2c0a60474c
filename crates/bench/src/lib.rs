//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Each `figNN` function runs the corresponding experiment on the simulated
//! platform and returns an [`Experiment`]: one or more tables whose rows are
//! the series the paper plots. The `figures` binary renders them to text and
//! CSV; `EXPERIMENTS.md` records the measured output next to the paper's
//! reported shape.
//!
//! Absolute numbers are simulated nanoseconds, not wall-clock on a ZCU102 —
//! only orderings, ratios and crossover points are meaningful.

pub mod figures;

pub use figures::{
    all_experiments, experiment_by_id, experiment_by_id_traced, fig06, fig07, fig08, fig09, fig10,
    fig11, fig12, fig13, fig13_multicore, fig_dram_fidelity, fig_dram_fidelity_traced, fig_htap,
    fig_htap_open_loop, fig_htap_open_loop_traced, fig_txn, fig_txn_traced, table1, table2,
    Experiment,
};
