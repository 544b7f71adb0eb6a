//! Checkpointing a long federation: pause Sub-FedAvg mid-run, serialise
//! the server's state (round, global parameters, byte ledger, every
//! client's mask and model) to bytes, restore it in a fresh driver, and
//! continue. The resumed run must end on exactly the uninterrupted run's
//! checkpoint; the example exits 1 if it does not.
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
    let mut first = SubFedAvgUn::with_controller(federation(10), controller());
    println!("running rounds 1..=5 ...");
    for _ in 0..5 {
        first.step_round();
    }
    let ckpt = first.checkpoint();
    let bytes = ckpt.encode();
    println!(
        "checkpoint at round {}: {} ({} params, {} bytes sent so far)",
        ckpt.round,
        human_bytes(bytes.len() as u64),
        ckpt.global.len(),
        ckpt.cum_bytes,
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

    let (a, b) = (second.checkpoint(), straight.checkpoint());
    let same = [
        ("round", a.round == b.round),
        ("global", a.global == b.global),
        ("bytes", a.cum_bytes == b.cum_bytes),
        ("clients", a.clients == b.clients),
    ];
    let report: Vec<String> = same.iter().map(|(what, eq)| format!("{what}: {eq}")).collect();
    println!("resumed == uninterrupted? {} (all must be true)", report.join(", "));
    println!(
        "final (resumed): accuracy {:.1}%, sparsity {:.0}%",
        100.0 * resumed.final_avg_acc(),
        100.0 * resumed.final_pruned_params(),
    );
    if same.iter().any(|(_, eq)| !eq) {
        eprintln!("error: the resumed run diverged from the uninterrupted one");
        std::process::exit(1);
    }
}
