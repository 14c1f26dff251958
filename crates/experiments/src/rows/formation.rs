//! Group formation on synthetic label matrices (§5): how long the four
//! algorithms take (Fig. 5) and what they buy (Fig. 6).

use std::time::Instant;

use gfl_core::cov::mean_group_cov;
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::{
    CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping, StreamGrouping,
};
use gfl_core::Group;
use gfl_data::{LabelMatrix, VirtualPopulation, VirtualSpec};
use gfl_sim::{CostModel, GroupOpKind, Task, Topology};
use gfl_tensor::init;

use crate::emit::{Cell, Key, Output, Table};
use crate::registry::{Ctx, Experiment, Verdict};
use crate::world::{skewed_labels, ExpScale, ScaleRule};

/// Fig. 5 — running time of the four grouping algorithms as the client
/// population grows (200 → 1000 clients), extended past the paper with a
/// virtual-population stream-formation sweep at 10⁴–10⁶ clients.
///
/// Expected shape (§5.4): RG ≈ free, CDG cheap, CoVG a few seconds at
/// 1000 clients, KLDG clearly slowest (its greedy loop recomputes a full
/// `ln()`-heavy KL per candidate, with no incremental shortcut). The
/// extension's shape claim (docs/SCALE.md): single-pass stream formation
/// over per-client label summaries stays near-linear, sub-second at 10⁶
/// clients — the same quantity CI gates via `bench_scale` + `gfl-trace
/// regress --max-formation-seconds`. Virtual populations lift the
/// materialization cap, so formation itself becomes the bottleneck.
///
/// The timing columns are wall-clock measurements: judged, never compared
/// against the committed file.
pub const FIG5: Experiment = Experiment {
    id: "fig5",
    title: "Fig 5: grouping runtime (seconds), and stream formation over virtual populations",
    claim: "RG <= CoVG <= KLDG in formation time at 1000 clients; stream formation is \
            sub-second at 10^6 clients",
    scale: ScaleRule::SHARED,
    outputs: &[
        Output {
            file: "fig5",
            header: "clients,RG_s,CDG_s,KLDG_s,CoVG_s",
            measured: &["RG_s", "CDG_s", "KLDG_s", "CoVG_s"],
        },
        Output {
            file: "fig5_scale",
            header: "clients,population_build_s,stream_formation_s,groups",
            measured: &["population_build_s", "stream_formation_s"],
        },
    ],
    run: fig5_run,
    shape: fig5_shape,
};

fn time_algo(algo: &dyn GroupingAlgorithm, labels: &LabelMatrix) -> Cell {
    let mut rng = init::rng(1);
    let start = Instant::now();
    let groups = algo.form_groups(labels, &mut rng);
    let secs = start.elapsed().as_secs_f64();
    assert!(!groups.is_empty());
    Cell::num(secs, 4)
}

fn fig5_run(ctx: &Ctx) -> Vec<Table> {
    let mut runtime = ctx.table(0);
    for n in [200usize, 400, 600, 800, 1000] {
        // Synthetic skewed label matrix, 10 labels (CIFAR-like cardinality).
        let labels = skewed_labels((n, 10), 42 + n as u64, 30..120, Some(0.25), 0..15);
        let cdg = CdgGrouping {
            group_size: 6,
            kmeans_iters: 10,
        };
        let covg = CovGrouping {
            min_group_size: 5,
            max_cov: 0.3,
        };
        runtime.push(vec![
            Cell::of(n),
            time_algo(&RandomGrouping { group_size: 6 }, &labels),
            time_algo(&cdg, &labels),
            time_algo(&KldGrouping { group_size: 6 }, &labels),
            time_algo(&covg, &labels),
        ]);
    }

    let mut stream = ctx.table(1);
    for n in [10_000usize, 100_000, 1_000_000] {
        let start = Instant::now();
        let pop = VirtualPopulation::new(VirtualSpec::paper_vision(n, 0.1, 42));
        let build = start.elapsed().as_secs_f64();
        let sizes: Vec<usize> = (0..n).map(|c| pop.client_size(c)).collect();
        let topology = Topology::even_split(8, sizes);
        let algo = StreamGrouping { group_size: 8 };
        let start = Instant::now();
        let groups = form_groups_per_edge(&algo, &topology, pop.label_matrix(), 42);
        let formation = start.elapsed().as_secs_f64();
        stream.push(vec![
            Cell::of(n),
            Cell::num(build, 4),
            Cell::num(formation, 4),
            Cell::of(groups.len()),
        ]);
    }
    vec![runtime, stream]
}

fn fig5_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let (runtime, stream) = (&tables[0], &tables[1]);
    let at_1000 = |col: &str| runtime.get(&[("clients", "1000")], col);
    let (rg, covg, kldg) = (at_1000("RG_s"), at_1000("CoVG_s"), at_1000("KLDG_s"));
    ensure!(
        rg <= covg,
        "RG ({rg} s) must be the cheapest (CoVG {covg} s)"
    );
    ensure!(
        kldg >= covg,
        "KLDG ({kldg} s) must be slower than CoVG ({covg} s) at 1000 clients"
    );
    for row in 0..stream.rows.len() {
        let (clients, groups) = (stream.num(row, "clients"), stream.num(row, "groups"));
        ensure!(
            groups >= clients / 16.0,
            "stream formation collapsed: {groups} groups of {clients}"
        );
    }
    let million = stream.get(&[("clients", "1000000")], "stream_formation_s");
    ensure!(
        million < 1.0,
        "stream formation took {million} s at 10^6 clients, not under a second"
    );
    Ok(String::new())
}

/// Fig. 6 — grouping quality frontier: average group CoV vs average
/// per-client group overhead, for each grouping algorithm across its knob
/// sweep.
///
/// Expected shape: at equal overhead CoVG delivers the lowest CoV (its
/// frontier dominates); random grouping is the worst at every size. The
/// predicate compares CoVG's best point at no more than 1.5× the overhead
/// of RG(gs=6) against RG(gs=6).
pub const FIG6: Experiment = Experiment {
    id: "fig6",
    title: "Fig 6: CoV vs average group overhead frontier",
    claim: "at comparable group overhead CoVG forms lower-CoV groups than random grouping",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new("fig6", "algo,knob,avg_cov,avg_overhead")],
    run: fig6_run,
    shape: fig6_shape,
};

/// Average per-client group-operation overhead across groups (normalized to
/// the 50-client group cost, matching Fig. 6's 0–1 y-axis).
fn avg_overhead(groups: &[Group], model: &CostModel) -> f64 {
    let max = model.group_op(GroupOpKind::SecureAggregation, 50);
    let per: f64 = groups
        .iter()
        .map(|g| model.group_op(GroupOpKind::SecureAggregation, g.len()))
        .sum::<f64>()
        / groups.len().max(1) as f64;
    per / max
}

fn fig6_run(ctx: &Ctx) -> Vec<Table> {
    let labels = skewed_labels((300, 10), 9, 30..100, Some(0.3), 0..10);
    let model = CostModel::for_task(Task::Vision);
    let mut table = ctx.table(0);
    let mut point = |algo: &str, knob: String, grouping: &dyn GroupingAlgorithm| {
        let groups = grouping.form_groups(&labels, &mut init::rng(11));
        table.push(vec![
            Cell::of(algo),
            Cell::of(knob),
            Cell::num(mean_group_cov(&labels, &groups), 3),
            Cell::num(avg_overhead(&groups, &model), 3),
        ]);
    };
    // Sweep each algorithm's size knob to trace its frontier.
    for group_size in [4usize, 6, 8, 12, 16, 24] {
        let cdg = CdgGrouping {
            group_size,
            kmeans_iters: 10,
        };
        point(
            "RG",
            format!("RG(gs={group_size})"),
            &RandomGrouping { group_size },
        );
        point("CDG", format!("CDG(gs={group_size})"), &cdg);
        point(
            "KLDG",
            format!("KLDG(gs={group_size})"),
            &KldGrouping { group_size },
        );
    }
    for max_cov in [0.1f32, 0.2, 0.4, 0.8, 1.2] {
        let covg = CovGrouping {
            min_group_size: 4,
            max_cov,
        };
        point("CoVG", format!("CoVG(maxcov={max_cov})"), &covg);
    }
    vec![table]
}

fn fig6_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let table = &tables[0];
    let rg6: Key = &[("knob", "RG(gs=6)")];
    let (rg_cov, rg_overhead) = (table.get(rg6, "avg_cov"), table.get(rg6, "avg_overhead"));
    let comparable = table.select(&[("algo", "CoVG")]).into_iter();
    let comparable = comparable.filter(|&row| table.num(row, "avg_overhead") <= rg_overhead * 1.5);
    let covg_best = comparable.map(|row| table.num(row, "avg_cov"));
    let covg_best = covg_best.fold(f64::NAN, f64::min);
    ensure!(
        covg_best < rg_cov,
        "CoVG CoV {covg_best} must beat RG {rg_cov} at comparable overhead"
    );
    Ok(format!(
        "CoVG's lowest CoV at no more than 1.5x the overhead of RG(gs=6): {covg_best:.3} vs {rg_cov:.3}"
    ))
}
