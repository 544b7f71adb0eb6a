//! Integration tests pinning the paper's *qualitative claims* — the shape
//! of the results the reproduction must preserve (DESIGN.md §1).

use sub_fedavg::core::analysis::partner_separation;
use sub_fedavg::core::{
    algorithms::{FedAvg, Standalone, SubFedAvgUn},
    FedConfig, FederatedAlgorithm, Federation,
};
use sub_fedavg::data::stats::{label_jaccard, mean_labels_per_client};
use sub_fedavg::data::{partition_pathological, PartitionConfig, SynthVision};
use sub_fedavg::metrics::flops::{conv_flop_reduction, dense_conv_flops};
use sub_fedavg::nn::models::ModelSpec;

use sub_fedavg::pruning::{ChannelMask, UnstructuredController};

fn federation(rounds: usize) -> Federation {
    let data = SynthVision::mnist_like(13, 1);
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig { num_clients: 10, shard_size: 20, ..Default::default() },
    );
    Federation::new(
        ModelSpec::cnn5(1, 16, 16, 10),
        clients,
        FedConfig {
            rounds,
            sample_frac: 0.6,
            local_epochs: 3,
            eval_every: rounds,
            seed: 13,
            ..Default::default()
        },
    )
}

/// Remark-2: under pathological non-IID, FedAvg underperforms Standalone,
/// and Sub-FedAvg beats FedAvg (making federation worthwhile again).
#[test]
fn remark2_fedavg_loses_subfedavg_wins() {
    let rounds = 8;
    let standalone = Standalone::new(federation(rounds)).run().final_avg_acc();
    let fedavg = FedAvg::new(federation(rounds)).run().final_avg_acc();
    let mut c = UnstructuredController::paper_defaults(0.5);
    c.acc_threshold = 0.3;
    let sub = SubFedAvgUn::with_controller(federation(rounds), c).run().final_avg_acc();
    assert!(
        fedavg < standalone,
        "FedAvg ({fedavg}) should lose to Standalone ({standalone}) under pathological non-IID"
    );
    assert!(sub > fedavg, "Sub-FedAvg ({sub}) should beat FedAvg ({fedavg})");
    assert!(
        sub + 0.02 >= standalone,
        "Sub-FedAvg ({sub}) should at least match Standalone ({standalone})"
    );
}

/// §4.1: the pathological partition leaves each client ~2 classes.
#[test]
fn partition_is_pathological() {
    let data = SynthVision::mnist_like(13, 1);
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig { num_clients: 10, shard_size: 20, ..Default::default() },
    );
    let mean = mean_labels_per_client(&clients);
    assert!((1.0..=2.5).contains(&mean), "mean labels/client = {mean}");
    // There exist both overlapping and disjoint client pairs — the
    // structure Sub-FedAvg's partner discovery relies on.
    let mut any_overlap = false;
    let mut any_disjoint = false;
    for i in 0..clients.len() {
        for j in i + 1..clients.len() {
            if label_jaccard(&clients[i], &clients[j]) > 0.0 {
                any_overlap = true;
            } else {
                any_disjoint = true;
            }
        }
    }
    assert!(any_overlap && any_disjoint);
}

/// §4.2.3 / Table 2: ~50% channels pruned gives ~2.4× conv-FLOP reduction
/// on paper-scale LeNet-5, and unstructured pruning gives parameter (not
/// FLOP) reduction.
#[test]
fn table2_flop_semantics() {
    let spec = ModelSpec::lenet5(3, 32, 32, 10);
    let half = ChannelMask::from_keep(vec![
        (0..6).map(|c| c < 3).collect(),
        (0..16).map(|c| c < 8).collect(),
    ]);
    let factor = conv_flop_reduction(&spec, &half);
    assert!((2.2..2.7).contains(&factor), "conv FLOP factor {factor}");
    assert!(dense_conv_flops(&spec) > 1_000_000);
}

/// The Client Subnetwork Observation (§3.1): after Sub-FedAvg, clients
/// with label overlap share more of their subnetwork than disjoint pairs.
#[test]
fn label_overlap_implies_mask_overlap() {
    let data = SynthVision::mnist_like(29, 1);
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig { num_clients: 10, shard_size: 20, ..Default::default() },
    );
    let fed = Federation::new(
        ModelSpec::cnn5(1, 16, 16, 10),
        clients.clone(),
        FedConfig {
            rounds: 10,
            sample_frac: 0.6,
            local_epochs: 3,
            eval_every: 10,
            seed: 29,
            ..Default::default()
        },
    );
    let mut c = UnstructuredController::paper_defaults(0.6);
    c.acc_threshold = 0.3;
    c.rate = 0.15;
    let mut algo = SubFedAvgUn::with_controller(fed, c);
    let _ = algo.run();

    let sep = partner_separation(&clients, &algo.final_masks(), 0.1);
    // Need data on both sides for the claim to be checkable.
    assert!(sep.overlap_pairs > 0 && sep.disjoint_pairs > 0);
    assert!(
        sep.observation_holds(),
        "overlapping pairs {:.4} should share more than disjoint {:.4}",
        sep.mean_overlap_similarity,
        sep.mean_disjoint_similarity
    );
}
