//! The RWD experiments: Table II, Figure 2a/2b/2c, Figure 4, Table V and
//! Table VII.

use afd_core::measure_by_name;
use afd_eval::{auc_pr, average_stats, mislabeled_stats, pr_curve, rank_at_max_recall};

use crate::ctx::{Config, RwdEval};
use crate::render::{f3, pct, TextTable};

/// `table2`: benchmark overview. `#insp` follows the paper's rule: the
/// number of candidates with a g3-score ≥ 0.5 (the manual-inspection
/// filter).
pub fn table2(cfg: &Config, eval: &RwdEval) {
    let g3 = measure_by_name("g3").expect("registered");
    let mut table = TextTable::new([
        "relation", "#rows", "#attrs", "#cand", "#insp", "#PFD", "#AFD",
    ]);
    // Recompute g3 per candidate (cheap) to count inspectables.
    let bench = afd_rwd::RwdBenchmark::generate_scaled(cfg.scale, cfg.seed);
    for (r, base) in eval.relations.iter().zip(&bench.relations) {
        let insp = r
            .candidates
            .iter()
            .filter(|c| g3.score(&base.relation, &c.fd) >= 0.5)
            .count()
            // Satisfied design FDs would also pass manual inspection.
            + base.pfds.len();
        table.row([
            r.name.to_string(),
            r.n_rows.to_string(),
            r.arity.to_string(),
            r.candidates.len().to_string(),
            insp.to_string(),
            r.n_pfd.to_string(),
            r.n_afd.to_string(),
        ]);
    }
    println!(
        "\n== Table II — RWD overview (simulated, scale {}) ==",
        cfg.scale
    );
    table.print();
    let path = cfg.out_dir.join("table2.csv");
    table.write_csv(&path).expect("write csv");
    println!("[written {}]", path.display());
}

/// `fig2a`: AUC-PR heatmap — benchmark level (pooled RWD⁻) and per
/// relation. Relations without AFDs display 100 (vacuous optimum, as in
/// the paper).
pub fn fig2a(cfg: &Config, eval: &RwdEval) {
    let mut header = vec!["measure".to_string(), "RWD-".to_string()];
    header.extend(eval.relations.iter().map(|r| r.name.to_string()));
    header.push("best%".to_string());
    let mut table = TextTable::new(header);

    // Per-relation AUC matrix to find the per-relation best.
    let n_m = eval.n_measures();
    let mut rel_auc = vec![vec![1.0f64; eval.relations.len()]; n_m];
    for (ri, r) in eval.relations.iter().enumerate() {
        for (m, row) in rel_auc.iter_mut().enumerate() {
            row[ri] = if r.has_positives() {
                auc_pr(&r.labels(m, &r.common))
            } else {
                1.0
            };
        }
    }
    let best_per_rel: Vec<f64> = (0..eval.relations.len())
        .map(|ri| {
            (0..n_m)
                .map(|m| rel_auc[m][ri])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    for (m, name) in eval.measure_names.iter().enumerate() {
        let pooled = auc_pr(&eval.pooled_labels(m));
        let best = (0..eval.relations.len())
            .filter(|&ri| rel_auc[m][ri] >= best_per_rel[ri] - 1e-12)
            .count() as f64
            / eval.relations.len() as f64;
        let mut row = vec![name.to_string(), pct(pooled)];
        row.extend((0..eval.relations.len()).map(|ri| pct(rel_auc[m][ri])));
        row.push(pct(best));
        table.row(row);
    }
    println!("\n== Figure 2a / Table VI — AUC-PR on RWD- (percent) ==");
    table.print();
    let path = cfg.out_dir.join("fig2a.csv");
    table.write_csv(&path).expect("write csv");
    println!("[written {}]", path.display());
}

/// `fig2b`: rank at max recall per relation (only relations with AFDs).
pub fn fig2b(cfg: &Config, eval: &RwdEval) {
    let with_pos: Vec<usize> = (0..eval.relations.len())
        .filter(|&ri| eval.relations[ri].has_positives())
        .collect();
    let mut header = vec!["measure".to_string()];
    header.extend(
        with_pos
            .iter()
            .map(|&ri| eval.relations[ri].name.to_string()),
    );
    let mut table = TextTable::new(header);
    let mut first = vec!["AFD(R)".to_string()];
    first.extend(
        with_pos
            .iter()
            .map(|&ri| eval.relations[ri].n_afd.to_string()),
    );
    table.row(first);
    for (m, name) in eval.measure_names.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for &ri in &with_pos {
            let r = &eval.relations[ri];
            row.push(rank_at_max_recall(&r.labels(m, &r.common)).to_string());
        }
        table.row(row);
    }
    println!("\n== Figure 2b — rank at max recall ==");
    table.print();
    let path = cfg.out_dir.join("fig2b.csv");
    table.write_csv(&path).expect("write csv");
    println!("[written {}]", path.display());
}

/// `fig2c`: average LHS-uniqueness / RHS-skew of each measure's
/// mislabeled candidates on the challenging relations (dblp10k = R3,
/// gath_agent = R6), with the design-AFD and non-FD averages for
/// reference.
pub fn fig2c(cfg: &Config, eval: &RwdEval) {
    let targets: Vec<usize> = eval
        .relations
        .iter()
        .enumerate()
        .filter(|(_, r)| r.name == "dblp10k" || r.name == "gath_agent")
        .map(|(i, _)| i)
        .collect();
    let mut header = vec!["measure".to_string()];
    for &ri in &targets {
        header.push(format!("{}_uniq", eval.relations[ri].name));
        header.push(format!("{}_skew", eval.relations[ri].name));
    }
    let mut table = TextTable::new(header);
    for (m, name) in eval.measure_names.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for &ri in &targets {
            let r = &eval.relations[ri];
            match mislabeled_stats(&r.labels(m, &r.common), &r.stats(&r.common)) {
                Some((u, s)) => {
                    row.push(f3(u));
                    row.push(f3(s));
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        table.row(row);
    }
    // Reference rows.
    let mut afd_row = vec!["AFD(R)".to_string()];
    let mut rest_row = vec!["rest".to_string()];
    for &ri in &targets {
        let r = &eval.relations[ri];
        let afd_stats: Vec<_> = r
            .candidates
            .iter()
            .filter(|c| c.positive)
            .map(|c| c.stats)
            .collect();
        let rest_stats: Vec<_> = r
            .candidates
            .iter()
            .filter(|c| !c.positive)
            .map(|c| c.stats)
            .collect();
        for (row, stats) in [(&mut afd_row, afd_stats), (&mut rest_row, rest_stats)] {
            match average_stats(stats.iter()) {
                Some((u, s)) => {
                    row.push(f3(u));
                    row.push(f3(s));
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
    }
    table.row(afd_row);
    table.row(rest_row);
    println!("\n== Figure 2c — structure of mislabeled candidates ==");
    table.print();
    let path = cfg.out_dir.join("fig2c.csv");
    table.write_csv(&path).expect("write csv");
    println!("[written {}]", path.display());
}

/// `fig4`: pooled PR curves per measure (CSV: measure, recall,
/// precision; stdout shows a compact per-class summary).
pub fn fig4(cfg: &Config, eval: &RwdEval) {
    let measures = afd_core::all_measures();
    let mut table = TextTable::new(["class", "measure", "recall", "precision"]);
    for (m, name) in eval.measure_names.iter().enumerate() {
        let labels = eval.pooled_labels(m);
        for (r, p) in pr_curve(&labels) {
            table.row([
                measures[m].class().to_string(),
                name.to_string(),
                f3(r),
                f3(p),
            ]);
        }
    }
    let path = cfg.out_dir.join("fig4.csv");
    table.write_csv(&path).expect("write csv");
    println!("\n== Figure 4 — PR curves over RWD- (per measure) ==");
    // Compact stdout: the area under each curve (the last curve point's
    // precision is always #positives/#candidates and thus uninformative).
    let mut summary = TextTable::new(["measure", "class", "auc_of_curve"]);
    for (m, name) in eval.measure_names.iter().enumerate() {
        let labels = eval.pooled_labels(m);
        summary.row([
            name.to_string(),
            measures[m].class().to_string(),
            f3(auc_pr(&labels)),
        ]);
    }
    summary.print();
    println!("[written {}]", path.display());
}

/// `table5`: per-measure runtimes and candidates completed within the
/// budget across all relations. Every measure is timed alone
/// ([`afd_eval::score_with_budget`]), with no work shared between them.
pub fn table5(cfg: &Config, eval: &RwdEval) {
    let total_candidates: usize = eval.relations.iter().map(|r| r.candidates.len()).sum();
    let mut table = TextTable::new(["measure", "runtime_ms", "candidates", "of_total"]);
    for (m, name) in eval.measure_names.iter().enumerate() {
        let ms: u128 = eval
            .relations
            .iter()
            .map(|r| r.runs[m].elapsed.as_millis())
            .sum();
        let done: usize = eval.relations.iter().map(|r| r.runs[m].completed).sum();
        table.row([
            name.to_string(),
            ms.to_string(),
            done.to_string(),
            total_candidates.to_string(),
        ]);
    }
    println!(
        "\n== Table V — measure runtimes (budget {} ms per measure per relation) ==",
        cfg.budget.as_millis()
    );
    table.print();
    let path = cfg.out_dir.join("table5.csv");
    table.write_csv(&path).expect("write csv");
    println!("[written {}]", path.display());
}

/// `table7`: summary statistics of the candidates the slow measures could
/// not finish (RWD \ RWD⁻): per-measure score distributions (for measures
/// that did finish them) and structural properties.
pub fn table7(cfg: &Config, eval: &RwdEval) {
    // Pool excluded candidate indices per relation.
    let mut per_measure: Vec<Vec<f64>> = vec![Vec::new(); eval.n_measures()];
    let mut tuples: Vec<f64> = Vec::new();
    let mut uniq: Vec<f64> = Vec::new();
    let mut skew: Vec<f64> = Vec::new();
    for r in &eval.relations {
        let excluded: Vec<usize> = (0..r.candidates.len())
            .filter(|i| !r.common.contains(i))
            .collect();
        for &i in &excluded {
            tuples.push(r.n_rows as f64);
            uniq.push(r.candidates[i].stats.lhs_uniqueness);
            skew.push(r.candidates[i].stats.rhs_skew);
            for (m, run) in r.runs.iter().enumerate() {
                if let Some(s) = run.scores[i] {
                    per_measure[m].push(s);
                }
            }
        }
    }
    let mut table = TextTable::new(["row", "mean", "std", "min", "median", "max", "n"]);
    for (m, name) in eval.measure_names.iter().enumerate() {
        table.row(summary_row(name, &per_measure[m]));
    }
    table.row(summary_row("tuples", &tuples));
    table.row(summary_row("lhs_uniqueness", &uniq));
    table.row(summary_row("rhs_skew", &skew));
    println!(
        "\n== Table VII — candidates outside RWD- ({} candidates) ==",
        tuples.len()
    );
    table.print();
    let path = cfg.out_dir.join("table7.csv");
    table.write_csv(&path).expect("write csv");
    println!("[written {}]", path.display());
}

fn summary_row(name: &str, v: &[f64]) -> Vec<String> {
    if v.is_empty() {
        return vec![
            name.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "0".into(),
        ];
    }
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    vec![
        name.to_string(),
        f3(mean),
        f3(var.sqrt()),
        f3(sorted[0]),
        f3(median),
        f3(*sorted.last().expect("non-empty")),
        v.len().to_string(),
    ]
}
