use serde::{Deserialize, Serialize};

/// Shared federation hyper-parameters.
///
/// Defaults are the paper's (§4.1): 5 local epochs, batch size 10, SGD with
/// learning rate 0.01 and momentum 0.5, 10% of clients sampled per round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedConfig {
    /// Number of communication rounds.
    pub rounds: usize,
    /// Fraction of clients sampled each round (`K` in Algorithm 1).
    pub sample_frac: f32,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Master seed: model init, client sampling, and batch shuffling all
    /// derive from it, so runs are exactly reproducible.
    pub seed: u64,
    /// Evaluate all clients every `eval_every` rounds (the final round is
    /// always evaluated).
    pub eval_every: usize,
    /// Worker threads for parallel client training (1 = sequential).
    pub threads: usize,
    /// Failure-injection: probability that a sampled client drops out of
    /// the round before returning its update (`0.0` = reliable clients,
    /// the paper's setting). Dropout is deterministic in
    /// `(seed, round, client)`.
    pub dropout_prob: f32,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            rounds: 20,
            sample_frac: 0.5,
            local_epochs: 5,
            batch_size: 10,
            lr: 0.01,
            momentum: 0.5,
            seed: 42,
            eval_every: 1,
            threads: 1,
            dropout_prob: 0.0,
        }
    }
}

impl FedConfig {
    /// Validates ranges; called by the engine constructor.
    ///
    /// # Errors
    ///
    /// Names the first out-of-range value: zero rounds, epochs, batch,
    /// evaluation interval or threads, a sampling fraction outside
    /// `(0, 1]`, a non-positive learning rate, or a momentum or dropout
    /// probability outside `[0, 1)`.
    #[must_use = "a dropped Result lets an invalid config through"]
    pub fn validate(&self) -> Result<(), String> {
        let (frac, dropout) = (self.sample_frac, self.dropout_prob);
        ensure(self.rounds > 0, || "rounds must be positive".into())?;
        ensure(frac > 0.0 && frac <= 1.0, || format!("sample_frac must be in (0, 1], got {frac}"))?;
        ensure(self.local_epochs > 0, || "local_epochs must be positive".into())?;
        ensure(self.batch_size > 0, || "batch_size must be positive".into())?;
        ensure(self.lr > 0.0, || "lr must be positive".into())?;
        ensure((0.0..1.0).contains(&self.momentum), || "momentum must be in [0, 1)".into())?;
        ensure(self.eval_every > 0, || "eval_every must be positive".into())?;
        ensure(self.threads > 0, || "threads must be positive".into())?;
        ensure((0.0..1.0).contains(&dropout), || {
            format!("dropout_prob must be in [0, 1), got {dropout}")
        })
    }

    /// Number of clients sampled per round for a federation of size `n`
    /// (at least one).
    pub fn clients_per_round(&self, n: usize) -> usize {
        ((self.sample_frac * n as f32).round() as usize).clamp(1, n.max(1))
    }
}

/// `Ok` when `ok` holds, otherwise the message `msg` builds.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FedConfig::default();
        assert_eq!(c.local_epochs, 5);
        assert_eq!(c.batch_size, 10);
        assert_eq!(c.lr, 0.01);
        assert_eq!(c.momentum, 0.5);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn clients_per_round_rounds_and_clamps() {
        let mut c = FedConfig::default();
        c.sample_frac = 0.1;
        assert_eq!(c.clients_per_round(100), 10);
        assert_eq!(c.clients_per_round(5), 1); // 0.5 rounds to 1
        assert_eq!(c.clients_per_round(1), 1);
        c.sample_frac = 1.0;
        assert_eq!(c.clients_per_round(7), 7);
    }

    #[test]
    fn zero_sampling_rejected() {
        let mut c = FedConfig::default();
        c.sample_frac = 0.0;
        assert_eq!(c.validate(), Err("sample_frac must be in (0, 1], got 0".to_string()));
    }

    #[test]
    fn zero_rounds_rejected() {
        let mut c = FedConfig::default();
        c.rounds = 0;
        assert_eq!(c.validate(), Err("rounds must be positive".to_string()));
    }
}
