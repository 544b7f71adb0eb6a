//! Checkpointing a long federation: pause Sub-FedAvg mid-run, serialise
//! the server's state (round counter, global parameters, every client's
//! mask) to bytes, restore it, and continue — the resumed run reproduces
//! the uninterrupted run's training state exactly.
//!
//! ```sh
//! cargo run --release --example checkpoint_resume
//! ```

use sub_fedavg::core::checkpoint::Checkpoint;
use sub_fedavg::core::{algorithms::SubFedAvgUn, FedConfig, FederatedAlgorithm, Federation};
use sub_fedavg::data::{partition_pathological, PartitionConfig, SynthVision};
use sub_fedavg::metrics::comm::human_bytes;
use sub_fedavg::nn::models::ModelSpec;
use sub_fedavg::pruning::UnstructuredController;

fn federation(rounds: usize) -> Federation {
    let dataset = SynthVision::mnist_like(61, 1);
    let clients = partition_pathological(
        dataset.train(),
        dataset.test(),
        &PartitionConfig { num_clients: 10, shard_size: 25, ..Default::default() },
    );
    Federation::new(
        ModelSpec::cnn5(1, 16, 16, 10),
        clients,
        FedConfig { rounds, sample_frac: 0.5, eval_every: rounds, ..Default::default() },
    )
}

fn controller() -> UnstructuredController {
    let mut c = UnstructuredController::paper_defaults(0.5);
    c.rate = 0.15;
    c
}

fn main() {
    // Phase 1: run the first half and checkpoint.
    let mut first = SubFedAvgUn::with_controller(federation(5), controller());
    println!("running rounds 1..=5 ...");
    let _ = first.run();
    let ckpt = first.checkpoint();
    let bytes = ckpt.encode();
    println!(
        "checkpoint at round {}: {} ({} params, {} client masks)",
        ckpt.round,
        human_bytes(bytes.len() as u64),
        ckpt.global.len(),
        ckpt.client_masks.len(),
    );

    // The bytes could now go to disk / object storage; decode restores
    // the identical state.
    let restored = Checkpoint::decode(&bytes).expect("checkpoint decodes");

    // Phase 2: a brand-new process resumes to round 10.
    let mut second = SubFedAvgUn::with_controller(federation(10), controller());
    second.restore(&restored).expect("the checkpoint comes from this federation");
    println!("resuming rounds 6..=10 ...");
    let resumed = second.resume();

    // Reference: the same 10 rounds without interruption.
    let mut straight = SubFedAvgUn::with_controller(federation(10), controller());
    let _ = straight.run();

    let same_global = second.checkpoint().global == straight.checkpoint().global;
    let same_masks = second.checkpoint().client_masks == straight.checkpoint().client_masks;
    println!(
        "resumed == uninterrupted? global: {same_global}, masks: {same_masks} \
         (both must be true)"
    );
    println!(
        "final (resumed): accuracy {:.1}%, sparsity {:.0}%",
        100.0 * resumed.final_avg_acc(),
        100.0 * resumed.final_pruned_params(),
    );
}
