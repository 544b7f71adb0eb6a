//! Client-data providers: the abstraction that lets a federation hold
//! millions of *registered* clients while only ever materializing the data
//! of the clients actually sampled into a round's cohort.
//!
//! The seed implementation materialized every client's shard up front
//! (`Vec<ClientData>`), which caps the registered population at whatever
//! fits in memory. [`ClientProvider`] inverts that: the federation engine
//! asks for `client(id)` lazily, and each provider decides whether that is
//! a vector lookup ([`MaterializedClients`]) or an on-demand synthesis
//! ([`SynthClientProvider`]), deterministic in `(seed, id)` so repeated
//! requests for the same client see the same shard. A round that evaluates
//! nothing fetches a [`Shard`] without the test split
//! ([`ClientProvider::shard`]), which an on-demand provider then never
//! draws.
//!
//! See `docs/SCALING.md` for how this slots into the registry / cohort /
//! streaming-aggregation pipeline.

use crate::partition::ClientData;
use crate::synth::SynthVision;
use crate::Dataset;
use std::fmt;
use std::sync::Arc;
use subfed_tensor::init::SeededRng;

/// A source of per-client local datasets, addressable by client id.
///
/// Implementations must be cheap to share across worker threads and
/// deterministic: `client(id)` must return the same shard every time it is
/// called for the same provider state.
pub trait ClientProvider: Send + Sync + fmt::Debug {
    /// Number of registered clients this provider can serve (ids are
    /// `0..num_clients()`).
    fn num_clients(&self) -> usize;

    /// The local data of client `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_clients()`.
    fn client(&self, id: usize) -> Arc<ClientData>;

    /// Client `id`'s shard for one round. With `with_test` it holds every
    /// split of [`ClientProvider::client`]; without it, the same labels,
    /// training and validation splits, bit for bit, while a provider that
    /// synthesizes shards leaves the test split undrawn. The default hands
    /// out `client(id)` whole either way.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_clients()`.
    fn shard(&self, id: usize, with_test: bool) -> Shard {
        // A held shard costs nothing to hand out whole.
        let _ = with_test;
        Shard { data: self.client(id), tested: true }
    }

    /// The pre-materialized client slice, when this provider is backed by
    /// one. Callers that need *every* client at once (e.g. full-population
    /// evaluation) use this to fail loudly on on-demand providers instead
    /// of accidentally synthesizing millions of shards.
    fn materialized(&self) -> Option<&[Arc<ClientData>]> {
        None
    }
}

/// One client's shard as a round fetched it ([`ClientProvider::shard`]):
/// the labels, training and validation splits, and the test split only
/// when it was drawn.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The client's data; `test` is empty when `tested` is false.
    data: Arc<ClientData>,
    tested: bool,
}

impl Shard {
    /// The client's data, for training. Its `test` field is empty when the
    /// test split was not drawn, so evaluation reads [`Shard::test`].
    pub fn data(&self) -> &ClientData {
        &self.data
    }

    /// The test split.
    ///
    /// # Panics
    ///
    /// Panics when the shard was fetched without its test split: scoring a
    /// split that was never drawn would report an accuracy of nothing.
    pub fn test(&self) -> &Dataset {
        assert!(
            self.tested,
            "client {}'s shard was fetched without its test split; \
             an evaluating round fetches it with_test",
            self.data.id
        );
        &self.data.test
    }
}

/// The classic fully-materialized provider: every client's shard lives in
/// memory for the lifetime of the federation. This is what all paper-scale
/// experiments (≤ a few hundred clients) use.
#[derive(Debug, Clone)]
pub struct MaterializedClients {
    clients: Vec<Arc<ClientData>>,
}

impl MaterializedClients {
    /// Wraps an already-partitioned client list.
    pub fn new(clients: Vec<ClientData>) -> Self {
        Self { clients: clients.into_iter().map(Arc::new).collect() }
    }
}

impl ClientProvider for MaterializedClients {
    fn num_clients(&self) -> usize {
        self.clients.len()
    }

    fn client(&self, id: usize) -> Arc<ClientData> {
        Arc::clone(&self.clients[id])
    }

    fn materialized(&self) -> Option<&[Arc<ClientData>]> {
        Some(&self.clients)
    }
}

/// Configuration of the on-demand synthetic provider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthProviderConfig {
    /// Registered population size.
    pub num_clients: usize,
    /// Distinct labels per client (the paper's pathological split gives
    /// most clients 2 classes; this reproduces that label-skew shape).
    pub labels_per_client: usize,
    /// Training examples drawn per owned label.
    pub train_per_label: usize,
    /// Validation examples drawn per owned label (`D_k^val`).
    pub val_per_label: usize,
    /// Test examples drawn per owned label.
    pub test_per_label: usize,
    /// Seed mixed with the client id; the whole population is a pure
    /// function of `(synth prototypes, this seed)`.
    pub seed: u64,
}

impl Default for SynthProviderConfig {
    fn default() -> Self {
        Self {
            num_clients: 100,
            labels_per_client: 2,
            train_per_label: 8,
            val_per_label: 4,
            test_per_label: 4,
            seed: 0,
        }
    }
}

/// On-demand provider over a [`SynthVision`] generator: only the class
/// prototypes (a few KB) are stored, since nothing here reads the
/// generator's own train and test splits and so they are never drawn.
/// Each client's shard is synthesized when the cohort sampler picks that
/// client: its labels, then its train, validation and test draws, in that
/// order from one per-client stream, so a [`ClientProvider::shard`]
/// without the test split stops after the validation draw with the same
/// bits before it. Memory is O(prototypes), not O(population × shard),
/// which is what makes million-client registries practical.
#[derive(Debug, Clone)]
pub struct SynthClientProvider {
    synth: Arc<SynthVision>,
    config: SynthProviderConfig,
}

impl SynthClientProvider {
    /// Builds a provider over `synth` with the given population shape.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (no clients, no labels, more labels
    /// per client than classes, or an empty train draw).
    pub fn new(synth: SynthVision, config: SynthProviderConfig) -> Self {
        assert!(config.num_clients > 0, "provider needs at least one client");
        assert!(
            config.labels_per_client > 0 && config.labels_per_client <= synth.config().classes,
            "labels_per_client must be in 1..=classes"
        );
        assert!(config.train_per_label > 0, "clients need training data");
        Self { synth: Arc::new(synth), config }
    }

    /// The provider configuration.
    pub fn config(&self) -> &SynthProviderConfig {
        &self.config
    }

    /// Per-client RNG, deterministic in `(config.seed, id)`.
    fn client_rng(&self, id: usize) -> SeededRng {
        SeededRng::new(self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(id as u64))
    }

    /// Client `id`'s draws: labels, train, val, and then the test split
    /// when `with_test` (an empty one, drawing nothing, otherwise).
    fn draw(&self, id: usize, with_test: bool) -> ClientData {
        assert!(id < self.config.num_clients, "client {id} outside registered population");
        let mut rng = self.client_rng(id);
        let classes = self.synth.config().classes;
        let mut labels = rng.sample_indices(classes, self.config.labels_per_client);
        labels.sort_unstable();
        let train = self.synth.sample_labels(&labels, self.config.train_per_label, &mut rng);
        let val = self.synth.sample_labels(&labels, self.config.val_per_label, &mut rng);
        let test_per_label = if with_test { self.config.test_per_label } else { 0 };
        let test = self.synth.sample_labels(&labels, test_per_label, &mut rng);
        ClientData { id, train, val, test, labels }
    }
}

impl ClientProvider for SynthClientProvider {
    fn num_clients(&self) -> usize {
        self.config.num_clients
    }

    fn client(&self, id: usize) -> Arc<ClientData> {
        Arc::new(self.draw(id, true))
    }

    fn shard(&self, id: usize, with_test: bool) -> Shard {
        Shard { data: Arc::new(self.draw(id, with_test)), tested: with_test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_synth() -> SynthVision {
        SynthVision::mnist_like(7, 1)
    }

    #[test]
    fn materialized_roundtrip() {
        let synth = small_synth();
        let provider = SynthClientProvider::new(synth, SynthProviderConfig::default());
        let direct = provider.client(3);
        let mat = MaterializedClients::new(vec![(*provider.client(3)).clone()]);
        assert_eq!(mat.num_clients(), 1);
        assert_eq!(mat.client(0).labels, direct.labels);
        assert!(mat.materialized().is_some());
    }

    #[test]
    fn synth_provider_is_deterministic() {
        let provider = SynthClientProvider::new(small_synth(), SynthProviderConfig::default());
        let a = provider.client(42);
        let b = provider.client(42);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.train.images().data(), b.train.images().data());
        assert_eq!(a.val.len(), b.val.len());
    }

    #[test]
    fn different_clients_differ() {
        let provider = SynthClientProvider::new(small_synth(), SynthProviderConfig::default());
        let a = provider.client(0);
        let b = provider.client(1);
        // Either the label sets differ or (rarely) the drawn pixels do.
        assert!(a.labels != b.labels || a.train.images().data() != b.train.images().data());
    }

    #[test]
    fn provider_shards_have_expected_shape() {
        let cfg = SynthProviderConfig {
            num_clients: 10,
            labels_per_client: 2,
            train_per_label: 5,
            val_per_label: 3,
            test_per_label: 2,
            seed: 1,
        };
        let provider = SynthClientProvider::new(small_synth(), cfg);
        let c = provider.client(9);
        assert_eq!(c.labels.len(), 2);
        assert_eq!(c.train.len(), 10);
        assert_eq!(c.val.len(), 6);
        assert_eq!(c.test.len(), 4);
        assert!(c.train.distinct_labels().iter().all(|l| c.labels.contains(l)));
        assert!(provider.materialized().is_none());
    }

    #[test]
    fn provider_never_draws_the_generators_splits() {
        let provider = SynthClientProvider::new(small_synth(), SynthProviderConfig::default());
        for id in [0, 7, 99] {
            let _ = provider.client(id);
            let _ = provider.shard(id, false);
            let _ = provider.shard(id, true);
        }
        assert!(!provider.synth.splits_drawn(), "shards read only the prototypes");
    }

    #[test]
    #[should_panic(expected = "fetched without its test split")]
    fn untested_shard_refuses_its_test_split() {
        let provider = SynthClientProvider::new(small_synth(), SynthProviderConfig::default());
        let _ = provider.shard(3, false).test();
    }

    #[test]
    fn materialized_shards_are_the_stored_shard() {
        let provider = SynthClientProvider::new(small_synth(), SynthProviderConfig::default());
        let mat = MaterializedClients::new(vec![(*provider.client(3)).clone()]);
        let shard = mat.shard(0, false);
        assert!(shard.tested);
        assert!(Arc::ptr_eq(&shard.data, &mat.client(0)));
    }

    #[test]
    #[should_panic(expected = "outside registered population")]
    fn out_of_range_id_panics() {
        let cfg = SynthProviderConfig { num_clients: 2, ..SynthProviderConfig::default() };
        let provider = SynthClientProvider::new(small_synth(), cfg);
        let _ = provider.client(2);
    }
}
