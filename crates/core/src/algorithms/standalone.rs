//! The Standalone benchmark: every client trains purely locally — no
//! federation, no communication. Under pathological non-IID this is a
//! surprisingly strong baseline (each client solves a 2-class problem),
//! which is exactly the paper's point about traditional FedAvg.

use super::common::{run_rounds, train_step, Baseline};
use crate::{FederatedAlgorithm, Federation, History};
use std::borrow::Cow;

/// Local-only training (Table 1's "Standalone" row).
#[derive(Debug, Clone)]
pub struct Standalone {
    fed: Federation,
}

impl Standalone {
    /// Creates the benchmark over a federation (whose sampling fraction is
    /// ignored: every client trains every round, with zero communication).
    pub fn new(fed: Federation) -> Self {
        Self { fed }
    }
}

impl Baseline for Standalone {
    /// Every client's local model.
    type State = Vec<Vec<f32>>;

    fn fed(&self) -> &Federation {
        &self.fed
    }

    fn cohort(&self, round: usize) -> Vec<usize> {
        // Every client trains every round, bypassing cohort sampling; with
        // failure injection a crashed client skips its local epochs.
        self.fed.open_round(round, (0..self.fed.num_clients()).collect())
    }

    fn round_body(&self, locals: &mut Self::State, round: usize, ids: &[usize]) -> u64 {
        let fed = &self.fed;
        let outcomes = fed.par_map(ids, |i| {
            train_step(fed, round, i, &fed.client_data(i), &locals[i], None, None)
        });
        for (out, &i) in outcomes.into_iter().zip(ids) {
            locals[i] = out.final_flat;
        }
        0
    }

    fn models<'s>(&self, locals: &'s Self::State) -> (Cow<'s, [Vec<f32>]>, u64) {
        // Standalone has no server model; 0 = "not recorded".
        (Cow::Borrowed(locals), 0)
    }
}

impl FederatedAlgorithm for Standalone {
    fn name(&self) -> String {
        "Standalone".to_string()
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
    fn standalone_learns_local_tasks_with_zero_comm() {
        let fed = tiny_federation(6, 4);
        let mut algo = Standalone::new(fed);
        let h = algo.run();
        assert_eq!(h.total_bytes(), 0);
        // Local 2-class problems are easy: accuracy should clearly beat
        // the 4-class chance level.
        assert!(h.final_avg_acc() > 0.4, "accuracy {}", h.final_avg_acc());
        assert_eq!(h.records.len(), 6);
    }

    #[test]
    fn standalone_is_deterministic() {
        let h1 = Standalone::new(tiny_federation(2, 4)).run();
        let h2 = Standalone::new(tiny_federation(2, 4)).run();
        assert_eq!(h1, h2);
    }
}
