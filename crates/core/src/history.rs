/// State recorded after one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round index.
    pub round: usize,
    /// Mean personalized test accuracy over all clients, if this round was
    /// evaluated.
    pub avg_acc: Option<f32>,
    /// Per-client accuracies (empty when not evaluated).
    pub per_client_acc: Vec<f32>,
    /// Per-client pruned fraction over prunable weights (empty for
    /// non-pruning algorithms) — the x-axis of the paper's Fig. 1.
    pub per_client_pruned: Vec<f32>,
    /// Cumulative communication bytes up to and including this round.
    pub cum_bytes: u64,
    /// Mean fraction of prunable weights pruned across clients.
    pub avg_pruned_params: f32,
    /// Mean fraction of conv channels pruned across clients (hybrid only).
    pub avg_pruned_channels: f32,
}

/// Full trajectory of a federated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// One record per round, in order.
    pub records: Vec<RoundRecord>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// Total communication bytes of the run.
    pub fn total_bytes(&self) -> u64 {
        self.records.last().map_or(0, |r| r.cum_bytes)
    }

    /// Mean accuracy at the last evaluated round (0.0 if never evaluated).
    pub fn final_avg_acc(&self) -> f32 {
        self.records.iter().rev().find_map(|r| r.avg_acc).unwrap_or(0.0)
    }

    /// Best mean accuracy across evaluated rounds.
    pub fn best_avg_acc(&self) -> f32 {
        self.records.iter().filter_map(|r| r.avg_acc).fold(0.0, f32::max)
    }

    /// First round whose evaluated accuracy reaches `target`, if any — the
    /// Fig-3 "rounds to target accuracy" statistic.
    pub fn rounds_to_reach(&self, target: f32) -> Option<usize> {
        self.records.iter().find(|r| r.avg_acc.is_some_and(|a| a >= target)).map(|r| r.round)
    }

    /// `(round, accuracy)` series of evaluated rounds, for figure
    /// rendering.
    pub fn accuracy_series(&self) -> (Vec<f32>, Vec<f32>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for r in &self.records {
            if let Some(a) = r.avg_acc {
                xs.push(r.round as f32);
                ys.push(a);
            }
        }
        (xs, ys)
    }

    /// Final average pruned fraction over prunable weights.
    pub fn final_pruned_params(&self) -> f32 {
        self.records.last().map_or(0.0, |r| r.avg_pruned_params)
    }

    /// Final average pruned fraction over channels.
    pub fn final_pruned_channels(&self) -> f32 {
        self.records.last().map_or(0.0, |r| r.avg_pruned_channels)
    }

    /// Renders the history as CSV (header + one row per round), for
    /// external plotting. Unevaluated rounds leave the accuracy cell
    /// empty.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("round,avg_acc,cum_bytes,avg_pruned_params,avg_pruned_channels\n");
        for r in &self.records {
            let acc = r.avg_acc.map_or(String::new(), |a| format!("{a:.6}"));
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6}\n",
                r.round, acc, r.cum_bytes, r.avg_pruned_params, r.avg_pruned_channels
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: Option<f32>, bytes: u64) -> RoundRecord {
        RoundRecord {
            round,
            avg_acc: acc,
            per_client_acc: vec![],
            per_client_pruned: vec![],
            cum_bytes: bytes,
            avg_pruned_params: 0.1 * round as f32,
            avg_pruned_channels: 0.0,
        }
    }

    #[test]
    fn final_and_best_accuracy() {
        let mut h = History::new();
        h.push(record(1, Some(0.3), 10));
        h.push(record(2, None, 20));
        h.push(record(3, Some(0.8), 30));
        h.push(record(4, Some(0.7), 40));
        assert_eq!(h.final_avg_acc(), 0.7);
        assert_eq!(h.best_avg_acc(), 0.8);
        assert_eq!(h.total_bytes(), 40);
        assert_eq!(h.final_pruned_params(), 0.4);
    }

    #[test]
    fn rounds_to_reach_finds_first_crossing() {
        let mut h = History::new();
        h.push(record(1, Some(0.2), 0));
        h.push(record(2, Some(0.6), 0));
        h.push(record(3, Some(0.9), 0));
        assert_eq!(h.rounds_to_reach(0.5), Some(2));
        assert_eq!(h.rounds_to_reach(0.95), None);
    }

    #[test]
    fn accuracy_series_skips_unevaluated() {
        let mut h = History::new();
        h.push(record(1, Some(0.1), 0));
        h.push(record(2, None, 0));
        h.push(record(3, Some(0.3), 0));
        let (xs, ys) = h.accuracy_series();
        assert_eq!(xs, vec![1.0, 3.0]);
        assert_eq!(ys, vec![0.1, 0.3]);
    }

    #[test]
    fn csv_has_header_and_one_row_per_round() {
        let mut h = History::new();
        h.push(record(1, Some(0.5), 100));
        h.push(record(2, None, 200));
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("round,avg_acc"));
        assert!(lines[1].starts_with("1,0.500000,100,"));
        // Unevaluated round leaves the accuracy cell empty.
        assert!(lines[2].starts_with("2,,200,"));
    }

    #[test]
    fn empty_history_is_safe() {
        let h = History::new();
        assert_eq!(h.final_avg_acc(), 0.0);
        assert_eq!(h.best_avg_acc(), 0.0);
        assert_eq!(h.total_bytes(), 0);
        assert_eq!(h.rounds_to_reach(0.1), None);
    }
}
