//! Traditional FedAvg (McMahan et al. 2017) and FedProx (Li et al. 2018).
//!
//! Both learn a single dense global model; FedProx adds the proximal term
//! `μ/2‖w − w_global‖²` to each local objective. Evaluation is the paper's
//! client-level view: the *global* model is tested on every client's
//! personalized test set — which is exactly where a single model falls
//! apart under pathological non-IID.

use super::common::{run_rounds, train_step, Baseline};
use crate::{fedavg_aggregate, FederatedAlgorithm, Federation, History};
use std::borrow::Cow;
use subfed_metrics::comm::dense_transfer_bytes;
use subfed_metrics::trace::{model_hash, TraceEvent};

/// Traditional FedAvg (Table 1's "FedAvg" row).
#[derive(Debug, Clone)]
pub struct FedAvg {
    fed: Federation,
    prox_mu: Option<f32>,
    quantized: bool,
}

impl FedAvg {
    /// Creates a FedAvg run.
    pub fn new(fed: Federation) -> Self {
        Self { fed, prox_mu: None, quantized: false }
    }

    /// Enables 8-bit quantised transfers in both directions (the
    /// value-compression alternative the paper's related work cites;
    /// extension experiment). Every transferred vector really goes through
    /// `wire::encode_update_q8`/`decode_update_q8`, so the accuracy cost
    /// of the lossy encoding is measured, not assumed; communication is
    /// charged at 1 byte per parameter (+8 bytes of scale header).
    pub fn quantized(mut self) -> Self {
        self.quantized = true;
        self
    }

    pub(crate) fn with_prox(fed: Federation, mu: f32) -> Self {
        assert!(mu > 0.0, "proximal coefficient must be positive");
        Self { fed, prox_mu: Some(mu), quantized: false }
    }

    fn maybe_quantize(&self, flat: &[f32]) -> Vec<f32> {
        if self.quantized {
            let buf = crate::wire::encode_update_q8(flat);
            #[expect(
                clippy::expect_used,
                reason = "produced by `encode_update_q8` one line up; failure here is a codec \
                          bug, not a recoverable condition"
            )]
            crate::wire::decode_update_q8(&buf, flat.len()).expect("self-encoded buffer decodes")
        } else {
            flat.to_vec()
        }
    }
}

impl Baseline for FedAvg {
    /// The global model.
    type State = Vec<f32>;

    fn fed(&self) -> &Federation {
        &self.fed
    }

    fn round_body(&self, global: &mut Vec<f32>, round: usize, ids: &[usize]) -> u64 {
        let fed = &self.fed;
        // Quantised transfers degrade the *downloaded* model too.
        let download = self.maybe_quantize(global);
        let prox = self.prox_mu.map(|mu| (download.as_slice(), mu));
        let outcomes = fed.par_map(ids, |i| {
            train_step(fed, round, i, &fed.client_data(i), &download, None, prox)
        });
        let transfer = if self.quantized {
            // 1 byte per parameter + the 8-byte affine header.
            global.len() as u64 + 8
        } else {
            dense_transfer_bytes(global.len())
        };
        let updates: Vec<(Vec<f32>, usize)> = outcomes
            .into_iter()
            .zip(ids)
            .map(|(o, &i)| {
                fed.tracer().emit(TraceEvent::Download { round, client: i, bytes: transfer });
                fed.tracer().emit(TraceEvent::Upload { round, client: i, bytes: transfer });
                (self.maybe_quantize(&o.final_flat), fed.client_data(i).train.len())
            })
            .collect();
        let agg_span = fed.tracer().span();
        *global = fedavg_aggregate(&updates);
        let us = agg_span.elapsed_us();
        fed.tracer().emit(TraceEvent::Aggregate { round, us, updates: updates.len() });
        ids.len() as u64 * transfer * 2
    }

    fn models<'s>(&self, global: &'s Vec<f32>) -> (Cow<'s, [Vec<f32>]>, u64) {
        // Traditional FL: every client is served the single global model.
        (Cow::Owned(vec![global.clone(); self.fed.num_clients()]), model_hash(global))
    }
}

impl FederatedAlgorithm for FedAvg {
    fn name(&self) -> String {
        match (self.prox_mu, self.quantized) {
            (None, false) => "FedAvg".to_string(),
            (None, true) => "FedAvg (int8)".to_string(),
            (Some(mu), _) => format!("FedProx (mu={mu})"),
        }
    }

    fn run(&mut self) -> History {
        run_rounds(self, self.fed.init_global())
    }
}

/// FedProx: FedAvg with a proximal local objective (Table 1's "FedProx"
/// row).
#[derive(Debug, Clone)]
pub struct FedProx {
    inner: FedAvg,
}

impl FedProx {
    /// Creates a FedProx run with proximal coefficient `mu` (the paper's
    /// comparisons use small values; 0.01 is a common default).
    ///
    /// # Panics
    ///
    /// Panics if `mu <= 0`.
    pub fn new(fed: Federation, mu: f32) -> Self {
        Self { inner: FedAvg::with_prox(fed, mu) }
    }
}

impl FederatedAlgorithm for FedProx {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&mut self) -> History {
        self.inner.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::tiny_federation;

    #[test]
    fn fedavg_counts_dense_communication() {
        let fed = tiny_federation(3, 4);
        let num_params = fed.build_model().num_params() as u64;
        let k = fed.config().clients_per_round(4) as u64;
        let mut algo = FedAvg::new(fed);
        let h = algo.run();
        assert_eq!(h.total_bytes(), 3 * k * num_params * 4 * 2);
        assert_eq!(h.records.len(), 3);
    }

    #[test]
    fn fedavg_is_deterministic() {
        let h1 = FedAvg::new(tiny_federation(2, 4)).run();
        let h2 = FedAvg::new(tiny_federation(2, 4)).run();
        assert_eq!(h1, h2);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Per-(round, client) seeding makes results independent of worker
        // scheduling.
        let fed1 = tiny_federation(2, 4);
        let mut cfg = *fed1.config();
        cfg.threads = 3;
        let fed3 = crate::Federation::new(*fed1.spec(), fed1.materialized_clients(), cfg);
        let h1 = FedAvg::new(fed1).run();
        let h3 = FedAvg::new(fed3).run();
        assert_eq!(h1, h3);
    }

    #[test]
    fn fedavg_works_on_dirichlet_partitions() {
        use subfed_core_dirichlet_support::dirichlet_federation;
        let h = FedAvg::new(dirichlet_federation(2, 4, 0.3)).run();
        assert_eq!(h.records.len(), 2);
        assert!(h.final_avg_acc() > 0.0);
    }

    mod subfed_core_dirichlet_support {
        use crate::{FedConfig, Federation};
        use subfed_data::{partition_dirichlet, DirichletConfig, SynthConfig, SynthVision};
        use subfed_nn::models::ModelSpec;

        pub(super) fn dirichlet_federation(
            rounds: usize,
            num_clients: usize,
            alpha: f32,
        ) -> Federation {
            let data = SynthVision::generate(SynthConfig {
                channels: 1,
                height: 16,
                width: 16,
                classes: 4,
                train_per_class: 40,
                test_per_class: 6,
                noise_std: 0.1,
                shift: 1,
                grid: 4,
                seed: 23,
            });
            let clients = partition_dirichlet(
                data.train(),
                data.test(),
                &DirichletConfig {
                    num_clients,
                    alpha,
                    min_per_client: 12,
                    val_fraction: 0.15,
                    seed: 23,
                },
            );
            Federation::new(
                ModelSpec::cnn5(1, 16, 16, 4),
                clients,
                FedConfig { rounds, local_epochs: 2, seed: 23, ..Default::default() },
            )
        }
    }

    #[test]
    fn fedprox_shares_comm_schedule_but_perturbs_updates() {
        let h1 = FedAvg::new(tiny_federation(2, 4)).run();
        let h2 = FedProx::new(tiny_federation(2, 4), 0.5).run();
        // Same comm pattern (prox changes math, not messages).
        assert_eq!(h1.total_bytes(), h2.total_bytes());
        // The proximal pull changes the local update itself: verify on one
        // client directly (history accuracies can coincide at this scale).
        let fed = tiny_federation(1, 4);
        let global = fed.init_global();
        let plain = crate::train_client(
            fed.spec(),
            &global,
            &fed.client_data(0),
            fed.config(),
            None,
            None,
            3,
        );
        // A heavy proximal pull dominates the gradient signal, so the
        // distance comparison below is robust at unit-test scale.
        let prox = crate::train_client(
            fed.spec(),
            &global,
            &fed.client_data(0),
            fed.config(),
            None,
            Some((global.as_slice(), 20.0)),
            3,
        );
        assert_ne!(plain.final_flat, prox.final_flat);
        // Prox keeps the *trainable* update closer to the anchor (BN
        // running-stat buffers move with the data regardless of μ, so they
        // are excluded from the distance).
        let metas = fed.build_model().metas();
        let d = |a: &[f32]| -> f32 {
            metas
                .iter()
                .filter(|m| m.kind.is_trainable())
                .flat_map(|m| m.offset..m.offset + m.len)
                .map(|j| (a[j] - global[j]) * (a[j] - global[j]))
                .sum()
        };
        assert!(d(&prox.final_flat) < d(&plain.final_flat));
    }

    #[test]
    fn names() {
        assert_eq!(FedAvg::new(tiny_federation(1, 4)).name(), "FedAvg");
        assert_eq!(FedAvg::new(tiny_federation(1, 4)).quantized().name(), "FedAvg (int8)");
        assert_eq!(FedProx::new(tiny_federation(1, 4), 0.01).name(), "FedProx (mu=0.01)");
    }

    #[test]
    fn quantized_fedavg_is_4x_cheaper_and_still_runs() {
        let dense = FedAvg::new(tiny_federation(3, 4)).run();
        let quant = FedAvg::new(tiny_federation(3, 4)).quantized().run();
        let ratio = dense.total_bytes() as f64 / quant.total_bytes() as f64;
        assert!((3.8..4.0).contains(&ratio), "compression ratio {ratio}");
        // Lossy transfers change the trajectory but training still works.
        assert_ne!(dense, quant);
        assert!(quant.final_avg_acc() > 0.2, "accuracy {}", quant.final_avg_acc());
    }

    #[test]
    #[should_panic(expected = "proximal coefficient")]
    fn zero_mu_rejected() {
        let _ = FedProx::new(tiny_federation(1, 4), 0.0);
    }
}
