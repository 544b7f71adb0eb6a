//! Federated multi-task learning (the paper's "MTL" baseline, after Smith
//! et al. 2017).
//!
//! Each client learns its own model (one task per client); tasks are
//! coupled by a quadratic penalty pulling every participant toward the
//! participant mean — a simplified MOCHA-style relationship that keeps the
//! defining cost profile: every participant exchanges full models with the
//! cohort (upload its own, download every peer's), which is why MTL is by
//! far the most expensive row of Table 1.

use super::common::{run_rounds, train_step, Baseline};
use crate::{FederatedAlgorithm, Federation, History};
use std::borrow::Cow;
use subfed_metrics::comm::{dense_transfer_bytes, mtl_run_bytes};
use subfed_metrics::trace::TraceEvent;

/// Federated MTL (Table 1's "MTL" row).
#[derive(Debug, Clone)]
pub struct FedMtl {
    fed: Federation,
    coupling: f32,
}

impl FedMtl {
    /// Creates a federated-MTL run with task-coupling strength `coupling`
    /// (the quadratic pull toward the cohort mean).
    ///
    /// # Panics
    ///
    /// Panics if `coupling < 0`.
    pub fn new(fed: Federation, coupling: f32) -> Self {
        assert!(coupling >= 0.0, "coupling must be non-negative");
        Self { fed, coupling }
    }
}

impl Baseline for FedMtl {
    /// Every client's own model (one task per client).
    type State = Vec<Vec<f32>>;

    fn fed(&self) -> &Federation {
        &self.fed
    }

    fn round_body(&self, locals: &mut Self::State, round: usize, ids: &[usize]) -> u64 {
        let fed = &self.fed;
        let num_params = locals[0].len();
        // Cohort mean of the sampled tasks — the coupling anchor.
        let mut mean = vec![0.0f32; num_params];
        for &i in ids {
            for (m, &v) in mean.iter_mut().zip(locals[i].iter()) {
                *m += v / ids.len() as f32;
            }
        }
        let prox = (self.coupling > 0.0).then_some((mean.as_slice(), self.coupling));
        let outcomes = fed.par_map(ids, |i| {
            train_step(fed, round, i, &fed.client_data(i), &locals[i], None, prox)
        });
        let dense = dense_transfer_bytes(num_params);
        for (out, &i) in outcomes.into_iter().zip(ids) {
            // All-pairs exchange: each participant downloads every cohort
            // model and uploads its own once.
            let download = dense * ids.len() as u64;
            fed.tracer().emit(TraceEvent::Download { round, client: i, bytes: download });
            fed.tracer().emit(TraceEvent::Upload { round, client: i, bytes: dense });
            locals[i] = out.final_flat;
        }
        // One round's all-pairs exchange for this cohort size.
        mtl_run_bytes(1, ids.len() as u64, num_params)
    }

    fn models<'s>(&self, locals: &'s Self::State) -> (Cow<'s, [Vec<f32>]>, u64) {
        // MTL keeps no server model; 0 = "not recorded".
        (Cow::Borrowed(locals), 0)
    }
}

impl FederatedAlgorithm for FedMtl {
    fn name(&self) -> String {
        "MTL".to_string()
    }

    fn run(&mut self) -> History {
        run_rounds(self, vec![self.fed.init_global(); self.fed.num_clients()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::tiny_federation;

    #[test]
    fn mtl_is_most_expensive() {
        let fed = tiny_federation(3, 4);
        let num_params = fed.build_model().num_params() as u64;
        let k = fed.config().clients_per_round(4) as u64;
        let mut algo = FedMtl::new(fed, 0.1);
        let h = algo.run();
        let fedavg_cost = 3 * k * num_params * 4 * 2;
        assert_eq!(h.total_bytes(), 3 * k * (1 + k) * num_params * 4);
        assert!(h.total_bytes() > fedavg_cost);
    }

    #[test]
    fn mtl_produces_personalized_accuracies() {
        let mut algo = FedMtl::new(tiny_federation(3, 4), 0.1);
        let h = algo.run();
        assert_eq!(h.records.len(), 3);
        let last = h.records.last().unwrap();
        assert_eq!(last.per_client_acc.len(), 4);
        assert!(last.per_client_acc.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn deterministic() {
        let h1 = FedMtl::new(tiny_federation(2, 4), 0.1).run();
        let h2 = FedMtl::new(tiny_federation(2, 4), 0.1).run();
        assert_eq!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "coupling must be non-negative")]
    fn negative_coupling_rejected() {
        let _ = FedMtl::new(tiny_federation(1, 4), -1.0);
    }
}
