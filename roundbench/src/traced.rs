//! Reads a traced run's events — the drivers' own `train`, `prune`,
//! `encode`, `decode`, `aggregate`, `eval` and `round_end` — into round
//! phases, worker schedules and totals.

use std::collections::BTreeMap;

use subfed_metrics::trace::TraceEvent;

/// Timed events of one client in one round, in microseconds.
#[derive(Default, Clone, Copy)]
struct ClientPhases {
    train: u64,
    prune: u64,
    encode: u64,
    decode: u64,
}

#[derive(Default)]
struct RoundEvents {
    us: u64,
    survivors: Vec<usize>,
    clients: BTreeMap<usize, ClientPhases>,
    aggregate: u64,
    eval: u64,
}

/// What the trace says about the run.
#[derive(Default)]
pub struct TraceStats {
    /// `round_end` wall times, microseconds.
    pub round_us: Vec<f64>,
    /// `train` wall times, microseconds.
    pub train_us: Vec<f64>,
    /// `prune` wall times, microseconds.
    pub prune_us: Vec<f64>,
    /// `encode` wall times, microseconds.
    pub encode_us: Vec<f64>,
    /// `decode` wall times, microseconds.
    pub decode_us: Vec<f64>,
    /// Encoded update sizes, bytes.
    pub update_bytes: Vec<f64>,
    /// `aggregate` wall times, microseconds.
    pub aggregate_us: Vec<f64>,
    /// `eval` wall times, microseconds.
    pub eval_us: Vec<f64>,
    /// Updates the `aggregate` events report.
    pub aggregated: u64,
    /// Pruning gates that fired.
    pub gates_fired: u64,
    /// All gate decisions.
    pub gates: u64,
    /// Bytes charged by `upload` events.
    pub up_bytes: u64,
    /// Bytes charged by `download` events.
    pub down_bytes: u64,
    /// `model_hash` of the last `round_end`.
    pub final_model_hash: u64,
    /// `cum_bytes` of the last `round_end`.
    pub final_cum_bytes: u64,
    /// Wall time of the client phase run under `par_map`, reconstructed
    /// per round from the strided slot-to-worker schedule, summed.
    pub parallel_us: f64,
    /// Serial per-client phases (prune, encode, decode) outside `par_map`.
    pub serial_client_us: [f64; 3],
    /// In-worker per-client phases (train, prune, encode, decode), summed
    /// over workers.
    pub worker_phase_us: [f64; 4],
}

impl TraceStats {
    /// Reads `events`. `threads` is the run's worker count; when
    /// `whole_pipeline_in_worker` the prune/encode/decode of each client
    /// run inside the `par_map` closure (the registry driver), otherwise
    /// only training does and the rest is serial.
    pub fn from_events(
        events: &[TraceEvent],
        threads: usize,
        whole_pipeline_in_worker: bool,
    ) -> Self {
        let mut rounds: BTreeMap<usize, RoundEvents> = BTreeMap::new();
        let mut s = TraceStats::default();
        let mut last_round = 0;
        for e in events {
            let r = rounds.entry(e.round()).or_default();
            match e {
                TraceEvent::RoundStart { survivors, .. } => r.survivors = survivors.clone(),
                TraceEvent::ClientTrain { client, us, .. } => {
                    r.clients.entry(*client).or_default().train = *us;
                    s.train_us.push(*us as f64);
                }
                TraceEvent::ClientPrune { client, us, .. } => {
                    r.clients.entry(*client).or_default().prune = *us;
                    s.prune_us.push(*us as f64);
                }
                TraceEvent::Encode { client, us, bytes, .. } => {
                    r.clients.entry(*client).or_default().encode = *us;
                    s.encode_us.push(*us as f64);
                    s.update_bytes.push(*bytes as f64);
                }
                TraceEvent::Decode { client, us, .. } => {
                    r.clients.entry(*client).or_default().decode = *us;
                    s.decode_us.push(*us as f64);
                }
                TraceEvent::Aggregate { us, updates, .. } => {
                    r.aggregate = *us;
                    s.aggregate_us.push(*us as f64);
                    s.aggregated += *updates as u64;
                }
                TraceEvent::Eval { us, .. } => {
                    r.eval = *us;
                    s.eval_us.push(*us as f64);
                }
                TraceEvent::PruneGate { fired, .. } => {
                    s.gates += 1;
                    s.gates_fired += u64::from(*fired);
                }
                TraceEvent::Upload { bytes, .. } => s.up_bytes += bytes,
                TraceEvent::Download { bytes, .. } => s.down_bytes += bytes,
                TraceEvent::RoundEnd { round, us, cum_bytes, model_hash } => {
                    r.us = *us;
                    s.round_us.push(*us as f64);
                    if *round >= last_round {
                        last_round = *round;
                        s.final_model_hash = *model_hash;
                        s.final_cum_bytes = *cum_bytes;
                    }
                }
                _ => {}
            }
        }
        for r in rounds.values() {
            let n = r.survivors.len();
            let workers = threads.min(n).max(1);
            let cost = |c: &ClientPhases| {
                if whole_pipeline_in_worker {
                    c.train + c.prune + c.encode + c.decode
                } else {
                    c.train
                }
            };
            // `par_map` deals slot `k` to worker `k mod workers`.
            let mut busy = vec![0u64; workers];
            for (slot, id) in r.survivors.iter().enumerate() {
                let c = r.clients.get(id).copied().unwrap_or_default();
                busy[slot % workers] += cost(&c);
            }
            let phase = busy.iter().copied().max().unwrap_or(0) as f64;
            s.parallel_us += phase;
            for c in r.clients.values() {
                let phases = [c.train, c.prune, c.encode, c.decode];
                for (acc, v) in s.worker_phase_us.iter_mut().zip(phases) {
                    *acc += v as f64;
                }
                if !whole_pipeline_in_worker {
                    for (acc, v) in s.serial_client_us.iter_mut().zip([c.prune, c.encode, c.decode])
                    {
                        *acc += v as f64;
                    }
                }
            }
        }
        s
    }

    /// Σ `round_end` wall time.
    pub fn total_round_us(&self) -> f64 {
        self.round_us.iter().sum()
    }

    /// Wall time some trace event accounts for: the reconstructed
    /// `par_map` phase, the serial client phases, aggregation, evaluation.
    pub fn covered_us(&self) -> f64 {
        self.parallel_us
            + self.serial_client_us.iter().sum::<f64>()
            + self.aggregate_us.iter().sum::<f64>()
            + self.eval_us.iter().sum::<f64>()
    }

    /// Share of round wall time no event covers.
    pub fn untraced_share(&self) -> f64 {
        1.0 - self.covered_us() / self.total_round_us().max(1.0)
    }
}
