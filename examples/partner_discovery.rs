//! The paper's "Client Subnetwork Observation" (§3.1): clients with
//! overlapping labels end up with *similar subnetworks* — without ever
//! sharing data or label information. Sub-FedAvg exploits exactly this to
//! find each client its "partners" in the federation.
//!
//! This example runs Sub-FedAvg (Un), then compares every client pair's
//! mask similarity (Jaccard over kept weights) against their label-set
//! similarity, and reports the mean mask similarity of label-overlapping
//! vs disjoint pairs.
//!
//! ```sh
//! cargo run --release --example partner_discovery
//! ```

use sub_fedavg::core::analysis::partner_separation;
use sub_fedavg::core::{algorithms::SubFedAvgUn, FedConfig, FederatedAlgorithm, Federation};
use sub_fedavg::data::{partition_pathological, PartitionConfig, SynthVision};
use sub_fedavg::metrics::report::Table;
use sub_fedavg::nn::models::ModelSpec;

fn main() {
    let dataset = SynthVision::mnist_like(31, 1);
    let clients = partition_pathological(
        dataset.train(),
        dataset.test(),
        &PartitionConfig { num_clients: 16, shard_size: 18, ..Default::default() },
    );
    let fed = Federation::new(
        ModelSpec::cnn5(1, 16, 16, 10),
        clients.clone(),
        FedConfig { rounds: 12, sample_frac: 0.6, eval_every: 12, ..Default::default() },
    );
    let mut algo = SubFedAvgUn::new(fed, 0.6);
    println!("running {} to grow personalized subnetworks ...", algo.name());
    let history = algo.run();
    println!(
        "done: accuracy {:.1}%, sparsity {:.0}%\n",
        100.0 * history.final_avg_acc(),
        100.0 * history.final_pruned_params()
    );

    let sep = partner_separation(&clients, &algo.final_masks(), 0.05);

    let mut table = Table::new(
        "Subnetwork similarity by label relationship",
        &["client-pair relationship", "pairs", "mean mask Jaccard"],
    );
    table.row(&[
        "labels overlap".into(),
        sep.overlap_pairs.to_string(),
        format!("{:.4}", sep.mean_overlap_similarity),
    ]);
    table.row(&[
        "labels disjoint".into(),
        sep.disjoint_pairs.to_string(),
        format!("{:.4}", sep.mean_disjoint_similarity),
    ]);
    println!("{}", table.render());
    println!(
        "observation holds: overlapping pairs {} disjoint pairs",
        if sep.observation_holds() {
            "share MORE of their subnetwork than"
        } else {
            "do NOT share more than (unexpected at this scale)"
        }
    );
}
