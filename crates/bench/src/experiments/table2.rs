//! Table 2 — CECI size for query/data combinations, vs the theoretical
//! bound `|E_q| × |E_g| × 8` bytes, with the % saved by filtering and
//! refinement.

use ceci_core::Ceci;
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::table::Table;

/// The Table 2 dataset columns.
const COLUMNS: [Dataset; 6] = [
    Dataset::Fs,
    Dataset::Lj,
    Dataset::Ok,
    Dataset::Wt,
    Dataset::Yh,
    Dataset::Yt,
];

/// Prints the CECI-size table.
pub fn run(scale: Scale) {
    println!(
        "Table 2: CECI size per query/data pair — actual (theoretical) [% saved], scale {scale:?}\n"
    );
    let graphs: Vec<_> = COLUMNS.iter().map(|d| (d, d.build(scale))).collect();
    let mut header = vec!["Query".to_string()];
    header.extend(COLUMNS.iter().map(|d| d.abbrev().to_string()));
    let mut t = Table::new(header);
    for q in PaperQuery::ALL {
        let mut row = vec![q.name().to_string()];
        for (_, graph) in &graphs {
            let plan = QueryPlan::with_options(q.build(), graph, &PlanOptions::paper());
            let ceci = Ceci::build(graph, &plan);
            let stats = ceci.stats();
            let actual_kb = stats.size_bytes as f64 / 1024.0;
            let theory_kb = stats.theoretical_bytes as f64 / 1024.0;
            row.push(format!(
                "{:.0}K ({:.0}K) [{:.0}%]",
                actual_kb,
                theory_kb,
                stats.percent_saved()
            ));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nPaper shape: filtering + reverse-BFS refinement cut CECI to roughly half of the \
         theoretical |Eq|x|Eg| bound (31-88% saved)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_below_theoretical_on_small_sample() {
        let graph = Dataset::Wt.build(Scale::Quick);
        let plan = QueryPlan::with_options(PaperQuery::Qg1.build(), &graph, &PlanOptions::paper());
        let ceci = Ceci::build(&graph, &plan);
        let s = ceci.stats();
        let actual_entry_bytes =
            (s.te_entries_after_refine + s.nte_entries_after_refine) as u64 * 8;
        assert!(actual_entry_bytes < s.theoretical_bytes);
        assert!(s.percent_saved() > 0.0);
    }
}
