//! The round engine: client sampling, local training, parallel execution,
//! and personalized evaluation shared by every algorithm.

use crate::sampler::UniformSampler;
use crate::workspace::{PooledWorkspace, WorkspacePool};
use crate::FedConfig;
use std::sync::Arc;
use subfed_data::{ClientData, ClientProvider, Dataset, MaterializedClients};
use subfed_metrics::trace::{TraceEvent, Tracer};
use subfed_nn::loss::softmax_cross_entropy;
use subfed_nn::models::ModelSpec;
use subfed_nn::optim::Sgd;
use subfed_nn::{Mode, ModelMask, ParamMeta, Sequential};
use subfed_tensor::init::SeededRng;
use subfed_tensor::reduce::argmax_rows;
use subfed_tensor::workspace::Workspace;

/// A federation: one model architecture, a client population (materialized
/// or served on demand by a [`ClientProvider`]), and shared
/// hyper-parameters. Algorithms consume a `Federation` and drive rounds on
/// top of its helpers.
#[derive(Debug, Clone)]
pub struct Federation {
    spec: ModelSpec,
    provider: Arc<dyn ClientProvider>,
    config: FedConfig,
    tracer: Tracer,
    workspaces: WorkspacePool,
    /// `spec`'s flat parameter layout, computed once at construction.
    layout: Arc<[ParamMeta]>,
}

impl Federation {
    /// Creates a federation over a materialized client list (telemetry
    /// disabled; see [`Federation::with_tracer`]).
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty or the config fails validation.
    pub fn new(spec: ModelSpec, clients: Vec<ClientData>, config: FedConfig) -> Self {
        assert!(!clients.is_empty(), "federation needs at least one client");
        Self::from_provider(spec, Arc::new(MaterializedClients::new(clients)), config)
    }

    /// Creates a federation over any client provider — the scaling path:
    /// an on-demand provider lets the registered population exceed memory,
    /// since only the sampled cohort's shards are ever materialized (see
    /// `docs/SCALING.md`).
    ///
    /// # Panics
    ///
    /// Panics if the provider has no clients or the config fails
    /// validation.
    pub fn from_provider(
        spec: ModelSpec,
        provider: Arc<dyn ClientProvider>,
        config: FedConfig,
    ) -> Self {
        assert_eq!(config.validate(), Ok(()), "invalid federation config");
        assert!(provider.num_clients() > 0, "federation needs at least one client");
        let layout = spec.build(&mut SeededRng::new(config.seed)).metas().into();
        Self {
            spec,
            provider,
            config,
            tracer: Tracer::disabled(),
            workspaces: WorkspacePool::new(),
            layout,
        }
    }

    /// Attaches a telemetry tracer: every algorithm driving this
    /// federation emits round/phase [`TraceEvent`]s through it.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The telemetry handle (disabled unless set via
    /// [`Federation::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The model architecture.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The model's flat parameter layout ([`Sequential::metas`]): the
    /// offsets through which flat parameter snapshots and flat masks are
    /// read without building a model.
    pub(crate) fn layout(&self) -> &[ParamMeta] {
        &self.layout
    }

    /// The local data of client `i` (a vector lookup on materialized
    /// federations; an on-demand synthesis otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the registered population.
    pub fn client_data(&self, i: usize) -> Arc<ClientData> {
        self.provider.client(i)
    }

    /// The client provider behind this federation.
    pub fn provider(&self) -> &Arc<dyn ClientProvider> {
        &self.provider
    }

    /// Clones out the full client list. Only valid on materialized
    /// federations — callers that need every client at once must not run
    /// against an on-demand registry-scale provider.
    ///
    /// # Panics
    ///
    /// Panics when the provider is on-demand.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: only valid on materialized providers"
    )]
    pub fn materialized_clients(&self) -> Vec<ClientData> {
        self.provider
            .materialized()
            .expect("materialized_clients on an on-demand provider")
            .iter()
            .map(|c| (**c).clone())
            .collect()
    }

    /// The shared configuration.
    pub fn config(&self) -> &FedConfig {
        &self.config
    }

    /// Number of registered clients.
    pub fn num_clients(&self) -> usize {
        self.provider.num_clients()
    }

    /// Checks a training workspace out of the federation's shared pool.
    /// Worker closures grab one per client and pass it to
    /// [`train_client_ws`]; the scratch buffers return to the pool when the
    /// guard drops, so allocations amortise across epochs *and* rounds.
    pub fn workspace(&self) -> PooledWorkspace {
        self.workspaces.acquire()
    }

    /// Builds an uninitialised model skeleton (weights are overwritten by
    /// `load_flat` before use).
    pub fn build_model(&self) -> Sequential {
        self.spec.build(&mut SeededRng::new(self.config.seed))
    }

    /// The server's initial global parameters (θ_g, deterministic in the
    /// seed).
    pub fn init_global(&self) -> Vec<f32> {
        self.build_model().flatten()
    }

    /// Samples the participant set for `round` (1-based), deterministic in
    /// `(seed, round)` — independent of call order, so different
    /// algorithms see identical schedules. Draws through
    /// [`UniformSampler`].
    pub fn sample_round(&self, round: usize) -> Vec<usize> {
        let k = self.config.clients_per_round(self.num_clients());
        UniformSampler.sample(self.num_clients(), k, self.config.seed, round)
    }

    /// Failure injection: filters a sampled participant set down to the
    /// clients that survive the round, each dropping independently with
    /// `config.dropout_prob`. Deterministic in `(seed, round, client)`,
    /// so identical runs see identical failures. Returns the input
    /// unchanged when dropout is disabled.
    pub fn survivors(&self, round: usize, ids: &[usize]) -> Vec<usize> {
        if self.config.dropout_prob <= 0.0 {
            return ids.to_vec();
        }
        ids.iter()
            .copied()
            .filter(|&i| {
                let mut rng = SeededRng::new(
                    self.config
                        .seed
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add((round as u64) << 20)
                        .wrapping_add(i as u64),
                );
                rng.uniform_f32(0.0, 1.0) >= self.config.dropout_prob
            })
            .collect()
    }

    /// Samples the round's participants and applies failure injection in
    /// one step, emitting the round's `round_start` trace event (and one
    /// `dropout` event per lost client). Equivalent to
    /// `survivors(round, &sample_round(round))`.
    pub fn begin_round(&self, round: usize) -> Vec<usize> {
        self.open_round(round, self.sample_round(round))
    }

    /// [`Federation::begin_round`] after sampling: applies failure
    /// injection to the `sampled` cohort and emits the round's
    /// `round_start` and `dropout` events. Standalone opens its all-client
    /// rounds here.
    pub(crate) fn open_round(&self, round: usize, sampled: Vec<usize>) -> Vec<usize> {
        let survivors = self.survivors(round, &sampled);
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::RoundStart {
                round,
                sampled: sampled.clone(),
                survivors: survivors.clone(),
                registered: self.num_clients(),
                cohort_size: sampled.len(),
            });
            for &client in sampled.iter().filter(|c| !survivors.contains(c)) {
                self.tracer.emit(TraceEvent::Dropout {
                    round,
                    client,
                    reason: "crash-injected".to_string(),
                });
            }
        }
        survivors
    }

    /// A per-(round, client) RNG seed for batch shuffling.
    pub fn client_seed(&self, round: usize, client: usize) -> u64 {
        self.config
            .seed
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add((round as u64) << 32)
            .wrapping_add(client as u64)
    }

    /// Runs `f` over `indices`, in parallel when `config.threads > 1`,
    /// returning outputs aligned with `indices`. Results are deterministic
    /// regardless of thread count because each call derives its own
    /// randomness from `(round, client)`.
    ///
    /// Work is dealt out **strided**: worker `w` of `T` handles slots
    /// `w, w+T, w+2T, …`, each in ascending order. Besides balancing
    /// heterogeneous per-client cost, the strided schedule is what lets a
    /// cohort-slot turnstile ([`crate::stream_agg::OrderedAccumulator`])
    /// fold uploads in deterministic slot order without ever blocking the
    /// worker that owns the next due slot.
    ///
    /// A panic in `f` reaches the caller with the worker's own payload.
    pub fn par_map<T, F>(&self, indices: &[usize], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.config.threads.min(indices.len().max(1));
        if threads <= 1 {
            return indices.iter().map(|&i| f(i)).collect();
        }
        let mut out: Vec<Option<T>> = (0..indices.len()).map(|_| None).collect();
        let parts = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let f = &f;
                    s.spawn(move || {
                        indices
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(threads)
                            .map(|(slot, &i)| (slot, f(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // Joining every handle here hands each worker's panic to the
            // loop below instead of letting the scope raise its own.
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        });
        for part in parts {
            match part {
                Ok(pairs) => {
                    for (slot, value) in pairs {
                        out[slot] = Some(value);
                    }
                }
                // A worker panicked while training a client; re-raise the
                // original panic on this thread instead of wrapping it.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out.into_iter()
            .map(|v| match v {
                Some(t) => t,
                // The strided loops above cover every slot, and a worker
                // panic re-raises before this point.
                None => unreachable!("worker filled every slot"),
            })
            .collect()
    }

    /// Evaluates one flat parameter vector per client on that client's
    /// personalized test set, returning per-client accuracies.
    ///
    /// # Panics
    ///
    /// Panics if `flats.len()` differs from the client count.
    pub fn evaluate_clients(&self, flats: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(flats.len(), self.num_clients(), "one flat vector per client required");
        let ids: Vec<usize> = (0..self.num_clients()).collect();
        self.par_map(&ids, |i| self.evaluate_flat(&flats[i], &self.client_data(i).test))
    }

    /// Accuracy of the flat parameters `flat` on `test`, evaluated in a
    /// pooled workspace ([`Federation::workspace`]).
    pub(crate) fn evaluate_flat(&self, flat: &[f32], test: &Dataset) -> f32 {
        let mut model = self.build_model();
        model.load_flat(flat);
        evaluate_accuracy_ws(&mut model, test, 64, &mut self.workspace())
    }
}

/// Result of one client's local training.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Flat parameters at the end of the first local epoch (`θ_k^{j,fe}`).
    pub first_epoch_flat: Vec<f32>,
    /// Flat parameters after all local epochs (`θ_k^{j,le}`).
    pub final_flat: Vec<f32>,
    /// Validation accuracy of the trained model on `D_k^val` (falls back
    /// to training accuracy when the validation split is empty).
    pub val_acc: f32,
    /// Mean training loss over all local batches.
    pub mean_train_loss: f32,
}

/// Trains one client from `init_flat` for `cfg.local_epochs` epochs of
/// masked, optionally proximal SGD, and reports the two weight snapshots
/// Algorithms 1–2 derive masks from.
///
/// `prox` supplies a FedProx/MTL-style quadratic anchor as
/// `(flat_anchor, μ)`; FedProx anchors at the downloaded global (equal to
/// `init_flat`), federated MTL anchors at the participant mean.
///
/// # Panics
///
/// Panics if the client has no training data or shapes mismatch.
pub fn train_client(
    spec: &ModelSpec,
    init_flat: &[f32],
    data: &ClientData,
    cfg: &FedConfig,
    mask: Option<&ModelMask>,
    prox: Option<(&[f32], f32)>,
    seed: u64,
) -> LocalOutcome {
    train_client_ws(spec, init_flat, data, cfg, mask, prox, seed, &mut Workspace::new())
}

/// [`train_client`] with an explicit scratch [`Workspace`] — the hot path
/// the federation workers use so im2col buffers, matmul panels, and
/// gradient temporaries are allocated once per client slot and reused
/// across batches, epochs, and rounds. Bit-identical to [`train_client`]:
/// layers draw scratch with `take_scratch`, whose contents are
/// unspecified, and write every scratch element before reading it (the
/// `scratch-before-read` lint rule); `workspace_reuse_is_bit_identical`
/// and the NaN-dirtied-workspace tests in `subfed-nn` pin it.
///
/// When a mask is supplied, its compressed-row patterns are installed on
/// the model for the whole round, so pruned layers do proportionally less
/// work in forward and backward.
///
/// # Panics
///
/// Panics if the client has no training data or shapes mismatch.
#[allow(clippy::too_many_arguments)]
pub fn train_client_ws(
    spec: &ModelSpec,
    init_flat: &[f32],
    data: &ClientData,
    cfg: &FedConfig,
    mask: Option<&ModelMask>,
    prox: Option<(&[f32], f32)>,
    seed: u64,
    ws: &mut Workspace,
) -> LocalOutcome {
    assert!(!data.train.is_empty(), "client {} has no training data", data.id);
    let mut rng = SeededRng::new(seed);
    let mut model = spec.build(&mut rng);
    model.load_flat(init_flat);
    if let Some(m) = mask {
        m.apply(&mut model);
        model.install_sparsity(m);
    }
    let anchor = prox.map(|(flat, mu)| {
        let mut scratch = spec.build(&mut SeededRng::new(0));
        scratch.load_flat(flat);
        (scratch.param_values(), mu)
    });
    let mut opt = Sgd::new(cfg.lr, cfg.momentum);
    // lint: allow(hot-path-alloc) — first-epoch snapshot grows once per client-round, not per batch
    let mut first_epoch_flat = Vec::new();
    let mut loss_sum = 0.0f32;
    let mut loss_count = 0usize;
    for epoch in 0..cfg.local_epochs {
        for batch in data.train.shuffled_batches(cfg.batch_size, &mut rng) {
            let logits = model.forward_ws(&batch.images, Mode::Train, ws);
            let (loss, grad) = softmax_cross_entropy(&logits, &batch.labels);
            loss_sum += loss;
            loss_count += 1;
            model.backward_ws(&grad, ws);
            let prox_ref = anchor.as_ref().map(|(a, mu)| (a.as_slice(), *mu));
            opt.step(&mut model, mask, prox_ref);
        }
        if epoch == 0 {
            first_epoch_flat = model.flatten();
        }
    }
    let eval_set = if data.val.is_empty() { &data.train } else { &data.val };
    let val_acc = evaluate_accuracy_ws(&mut model, eval_set, 64, ws);
    LocalOutcome {
        first_epoch_flat,
        final_flat: model.flatten(),
        val_acc,
        mean_train_loss: if loss_count > 0 { loss_sum / loss_count as f32 } else { 0.0 },
    }
}

/// Classification accuracy of `model` on `dataset`, batched evaluation in
/// [`Mode::Eval`] through the training kernels, with one [`Workspace`]
/// reused across the batches. Returns `0.0` for an empty dataset.
///
/// The `&mut` is forward-pass scratch only (dropout state, activations);
/// parameters are untouched and eval timing is charged to the caller's
/// span, so no tracer is threaded through.
// lint: allow(tracer-threading)
pub fn evaluate_accuracy(model: &mut Sequential, dataset: &Dataset, batch: usize) -> f32 {
    evaluate_accuracy_ws(model, dataset, batch, &mut Workspace::new())
}

/// [`evaluate_accuracy`] in the caller's workspace: the validation pass of
/// [`train_client_ws`] and the pooled evaluations of
/// [`Federation::evaluate_flat`] reuse the buffers training already holds.
/// Bit-identical to a fresh workspace, by the same `take_scratch` contract
/// as training.
fn evaluate_accuracy_ws(
    model: &mut Sequential,
    dataset: &Dataset,
    batch: usize,
    ws: &mut Workspace,
) -> f32 {
    if dataset.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for b in dataset.batches(batch) {
        let logits = model.forward_ws(&b.images, Mode::Eval, ws);
        let preds = argmax_rows(&logits);
        correct += preds.iter().zip(b.labels.iter()).filter(|(p, l)| p == l).count();
    }
    correct as f32 / dataset.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use subfed_data::{partition_pathological, PartitionConfig, SynthVision};

    fn tiny_federation(threads: usize) -> Federation {
        let data = SynthVision::generate(subfed_data::SynthConfig {
            channels: 1,
            height: 16,
            width: 16,
            classes: 4,
            train_per_class: 20,
            test_per_class: 5,
            noise_std: 0.1,
            shift: 1,
            grid: 4,
            seed: 5,
        });
        let clients = partition_pathological(
            data.train(),
            data.test(),
            &PartitionConfig {
                num_clients: 4,
                shard_size: 10,
                shards_per_client: 2,
                val_fraction: 0.2,
                seed: 5,
            },
        );
        Federation::new(
            ModelSpec::cnn5(1, 16, 16, 4),
            clients,
            FedConfig { rounds: 2, local_epochs: 2, threads, ..Default::default() },
        )
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let fed = tiny_federation(1);
        let s1 = fed.sample_round(3);
        let s2 = fed.sample_round(3);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), fed.config().clients_per_round(4));
        assert!(s1.iter().all(|&i| i < 4));
        let s3 = fed.sample_round(4);
        assert!(s1 != s3 || fed.config().sample_frac == 1.0);
    }

    #[test]
    fn init_global_matches_model_size() {
        let fed = tiny_federation(1);
        let g = fed.init_global();
        assert_eq!(g.len(), fed.build_model().num_params());
        // Deterministic.
        assert_eq!(g, fed.init_global());
    }

    #[test]
    fn training_reduces_loss_and_changes_weights() {
        let fed = tiny_federation(1);
        let global = fed.init_global();
        let out =
            train_client(fed.spec(), &global, &fed.client_data(0), fed.config(), None, None, 7);
        assert_ne!(out.final_flat, global);
        assert_ne!(out.first_epoch_flat, out.final_flat);
        assert!(out.mean_train_loss.is_finite());
        assert!((0.0..=1.0).contains(&out.val_acc));
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let fed = tiny_federation(1);
        let global = fed.init_global();
        let a = train_client(fed.spec(), &global, &fed.client_data(1), fed.config(), None, None, 3);
        let b = train_client(fed.spec(), &global, &fed.client_data(1), fed.config(), None, None, 3);
        assert_eq!(a.final_flat, b.final_flat);
        let c = train_client(fed.spec(), &global, &fed.client_data(1), fed.config(), None, None, 4);
        assert_ne!(a.final_flat, c.final_flat);
    }

    #[test]
    fn masked_training_keeps_zeros() {
        let fed = tiny_federation(1);
        let global = fed.init_global();
        let model = fed.build_model();
        let mut mask = ModelMask::ones_for(&model);
        // Zero half of the first conv kernel.
        let n = mask.tensors()[0].len();
        for i in 0..n / 2 {
            mask.tensors_mut()[0].data_mut()[i] = 0.0;
        }
        let out = train_client(
            fed.spec(),
            &global,
            &fed.client_data(0),
            fed.config(),
            Some(&mask),
            None,
            7,
        );
        let mut trained = fed.build_model();
        trained.load_flat(&out.final_flat);
        for i in 0..n / 2 {
            assert_eq!(trained.params()[0].value.data()[i], 0.0, "masked weight {i} moved");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        use subfed_pruning::unstructured::magnitude_mask;
        use subfed_pruning::{PruneScope, Ranking};
        let fed = tiny_federation(1);
        let global = fed.init_global();
        let mut model = fed.build_model();
        model.load_flat(&global);
        let mask = magnitude_mask(
            &model,
            &ModelMask::ones_for(&model),
            0.5,
            PruneScope::AllWeights,
            Ranking::LayerWise,
        );
        let run = |ws: &mut Workspace| {
            train_client_ws(
                fed.spec(),
                &global,
                &fed.client_data(2),
                fed.config(),
                Some(&mask),
                None,
                9,
                ws,
            )
        };
        // One workspace used twice: the second run sees dirty buffers left
        // over from the first, exercising the take_scratch reuse contract.
        let mut shared = Workspace::new();
        let a = run(&mut shared);
        let b = run(&mut shared);
        let c = run(&mut Workspace::new());
        for out in [&b, &c] {
            assert_eq!(a.final_flat, out.final_flat);
            assert_eq!(a.first_epoch_flat, out.first_epoch_flat);
            assert_eq!(a.val_acc, out.val_acc);
            assert_eq!(a.mean_train_loss, out.mean_train_loss);
        }
    }

    #[test]
    fn par_map_matches_sequential() {
        let fed_seq = tiny_federation(1);
        let fed_par = tiny_federation(3);
        let ids: Vec<usize> = (0..4).collect();
        let f = |i: usize| i * i + 1;
        assert_eq!(fed_seq.par_map(&ids, f), fed_par.par_map(&ids, f));
        assert_eq!(fed_par.par_map(&ids, f), vec![1, 2, 5, 10]);
    }

    #[test]
    fn par_map_reraises_the_workers_own_panic() {
        let ids: Vec<usize> = (0..4).collect();
        for threads in [2, 3] {
            let fed = tiny_federation(threads);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fed.par_map(&ids, |i| {
                    if i == 2 {
                        panic!("client {i} diverged");
                    }
                    i
                })
            }))
            .expect_err("the worker's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("client 2 diverged"), "threads={threads}");
        }
    }

    #[test]
    fn evaluate_clients_returns_per_client_scores() {
        let fed = tiny_federation(2);
        let flats: Vec<Vec<f32>> = (0..4).map(|_| fed.init_global()).collect();
        let accs = fed.evaluate_clients(&flats);
        assert_eq!(accs.len(), 4);
        assert!(accs.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn survivors_identity_without_dropout() {
        let fed = tiny_federation(1);
        let ids = vec![0, 1, 3];
        assert_eq!(fed.survivors(5, &ids), ids);
    }

    #[test]
    fn survivors_deterministic_and_lossy_with_dropout() {
        let fed = tiny_federation(1);
        let mut cfg = *fed.config();
        cfg.dropout_prob = 0.5;
        let fed = Federation::new(*fed.spec(), fed.materialized_clients(), cfg);
        let ids: Vec<usize> = (0..4).collect();
        let s1 = fed.survivors(2, &ids);
        let s2 = fed.survivors(2, &ids);
        assert_eq!(s1, s2, "dropout must be deterministic");
        // Across many rounds, roughly half survive.
        let total: usize = (1..200).map(|r| fed.survivors(r, &ids).len()).sum();
        let frac = total as f32 / (199.0 * 4.0);
        assert!((frac - 0.5).abs() < 0.1, "survival rate {frac}");
        // Survivors are a subsequence of the input.
        assert!(s1.iter().all(|i| ids.contains(i)));
    }

    /// `train_client_ws` with its backward written out layer by layer,
    /// calling every layer's `backward_ws` — the first layer's too, whose
    /// input gradient training throws away. Roundbench's replay makes the
    /// same calls.
    fn train_every_layer_backward(
        spec: &ModelSpec,
        init_flat: &[f32],
        data: &ClientData,
        cfg: &FedConfig,
        mask: Option<&ModelMask>,
        seed: u64,
    ) -> LocalOutcome {
        let mut ws = Workspace::new();
        let mut rng = SeededRng::new(seed);
        let mut model = spec.build(&mut rng);
        model.load_flat(init_flat);
        if let Some(m) = mask {
            m.apply(&mut model);
            model.install_sparsity(m);
        }
        let mut opt = Sgd::new(cfg.lr, cfg.momentum);
        let mut first_epoch_flat = Vec::new();
        let (mut loss_sum, mut loss_count) = (0.0f32, 0usize);
        for epoch in 0..cfg.local_epochs {
            for batch in data.train.shuffled_batches(cfg.batch_size, &mut rng) {
                let logits = model.forward_ws(&batch.images, Mode::Train, &mut ws);
                let (loss, mut grad) = softmax_cross_entropy(&logits, &batch.labels);
                loss_sum += loss;
                loss_count += 1;
                for layer in model.layers_mut().iter_mut().rev() {
                    grad = layer.backward_ws(&grad, &mut ws);
                }
                opt.step(&mut model, mask, None);
            }
            if epoch == 0 {
                first_epoch_flat = model.flatten();
            }
        }
        let eval_set = if data.val.is_empty() { &data.train } else { &data.val };
        LocalOutcome {
            first_epoch_flat,
            final_flat: model.flatten(),
            val_acc: evaluate_accuracy(&mut model, eval_set, 64),
            mean_train_loss: loss_sum / loss_count as f32,
        }
    }

    #[test]
    fn skipping_the_first_layer_input_gradient_changes_no_update() {
        let data = SynthVision::generate(subfed_data::SynthConfig {
            channels: 3,
            height: 16,
            width: 16,
            classes: 4,
            train_per_class: 20,
            test_per_class: 5,
            noise_std: 0.1,
            shift: 1,
            grid: 4,
            seed: 9,
        });
        let clients = partition_pathological(
            data.train(),
            data.test(),
            &PartitionConfig {
                num_clients: 2,
                shard_size: 10,
                shards_per_client: 2,
                val_fraction: 0.2,
                seed: 9,
            },
        );
        let spec = ModelSpec::lenet5(3, 16, 16, 4);
        let cfg = FedConfig { local_epochs: 2, ..Default::default() };
        let init = spec.build(&mut SeededRng::new(1)).flatten();
        // A 90% unstructured mask over every prunable weight.
        let mut mask = ModelMask::ones_for(&spec.build(&mut SeededRng::new(1)));
        let kinds = mask.kinds().to_vec();
        let mut rng = SeededRng::new(2);
        for (t, kind) in mask.tensors_mut().iter_mut().zip(kinds) {
            if kind.is_prunable_weight() {
                for v in t.data_mut() {
                    if rng.uniform_f32(0.0, 1.0) < 0.9 {
                        *v = 0.0;
                    }
                }
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (name, m) in [("unmasked", None), ("90% mask", Some(&mask))] {
            let got =
                train_client_ws(&spec, &init, &clients[0], &cfg, m, None, 5, &mut Workspace::new());
            let want = train_every_layer_backward(&spec, &init, &clients[0], &cfg, m, 5);
            assert_eq!(bits(&got.first_epoch_flat), bits(&want.first_epoch_flat), "{name}");
            assert_eq!(bits(&got.final_flat), bits(&want.final_flat), "{name}");
            assert_eq!(got.val_acc.to_bits(), want.val_acc.to_bits(), "{name}");
            assert_eq!(got.mean_train_loss.to_bits(), want.mean_train_loss.to_bits(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_federation_rejected() {
        let fed = tiny_federation(1);
        let _ = Federation::new(*fed.spec(), vec![], *fed.config());
    }
}
