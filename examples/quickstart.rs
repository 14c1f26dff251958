//! Quickstart: the whole Group-FEL pipeline in ~60 lines.
//!
//! Builds a small synthetic federation, forms CoV groups on each edge
//! server, trains with ESRCoV sampling, and prints the accuracy-vs-cost
//! trajectory.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Set `GFL_TRACE_OUT=run.jsonl` to also stream a JSONL run trace through
//! `gfl-obs` (see docs/OBSERVABILITY.md); spans are flushed to disk at
//! every round barrier, and the example validates the written trace by
//! reading it back. Analyze it afterwards with `gfl-trace summarize
//! run.jsonl`. Tracing never changes results.

use gfl_core::prelude::*;
use gfl_core::sampling::AggregationWeighting;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};

fn main() {
    gfl_tensor::check_env_or_exit();
    // 1. A synthetic 10-class dataset, split train/test, partitioned across
    //    60 clients with Dirichlet(0.1) label skew — heavily non-IID.
    let data = SyntheticSpec::vision_like().generate(8_000, 1);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 60,
            alpha: 0.1,
            min_size: 20,
            max_size: 200,
            seed: 1,
        },
    );

    // 2. Two edge servers, each grouping its own clients by CoV.
    let topology = Topology::even_split(2, partition.sizes());
    let grouping = CovGrouping {
        min_group_size: 5,
        max_cov: 0.5,
    };
    let groups = form_groups_per_edge(&grouping, &topology, &partition.label_matrix, 1);
    println!(
        "formed {} groups across {} edges",
        groups.len(),
        topology.num_edges()
    );
    for (i, g) in groups.iter().take(5).enumerate() {
        let cov = gfl_core::cov::group_cov(&partition.label_matrix, g);
        println!("  group {i}: {} clients, CoV {cov:.3}", g.len());
    }

    // 3. Train with the paper's hierarchy: T×K×E rounds, ESRCoV sampling,
    //    stabilized aggregation, cost charged per Eq. 5.
    let config = GroupFelConfig {
        global_rounds: 25,
        group_rounds: 5,
        local_rounds: 2,
        sampled_groups: 4,
        batch_size: 32,
        lr: LrSchedule::Constant(0.08),
        weighting: AggregationWeighting::Stabilized,
        eval_every: 5,
        seed: 1,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    let rounds = config.global_rounds;
    let model = gfl_nn::zoo::vision_model();
    let mut trainer =
        Trainer::try_new(config, model, (train, partition), test).expect("valid configuration");
    let trace_out = std::env::var("GFL_TRACE_OUT").ok();
    let observer = trace_out.as_ref().map(|path| {
        // Streaming mode: spans hit the file at every round barrier, so
        // memory stays bounded and a crash loses at most the tail round.
        gfl_obs::TraceCollector::streaming_to(
            std::path::Path::new(path),
            gfl_parallel::default_parallelism(),
            gfl_obs::StreamConfig::default(),
        )
        .expect("open trace sink")
    });
    if let Some(obs) = &observer {
        trainer = trainer.with_observer(std::sync::Arc::clone(obs));
    }
    let history = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);

    // 4. Report.
    println!("\n round      cost  accuracy");
    for r in history.records() {
        println!("{:6} {:9.0} {:9.4}", r.round, r.cost, r.accuracy);
    }
    println!("\nbest accuracy: {:.4}", history.best_accuracy());
    assert!(
        history.best_accuracy() > 0.3,
        "quickstart should learn something"
    );

    // 5. Optional: finalize the streamed trace and validate it against the
    //    schema by reading it back (analyze it with `gfl-trace summarize`).
    if let (Some(path), Some(obs)) = (trace_out, observer) {
        obs.finish(gfl_parallel::default_parallelism());
        let back = gfl_obs::TraceReader::read(std::path::Path::new(&path))
            .expect("trace must parse against the schema");
        assert_eq!(back.rounds.len(), rounds, "one round record per round");
        assert_eq!(back.meta.schema_version, gfl_obs::SCHEMA_VERSION);
        println!(
            "wrote {path}: {} spans, {} rounds, {:.1}% phase coverage",
            back.spans.len(),
            back.rounds.len(),
            back.round_coverage() * 100.0
        );
    }
}
