/// Event statistics of one weighted layer's execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerStats {
    /// Input spikes integrated.
    pub input_spikes: usize,
    /// Output spikes emitted by the fire phase.
    pub output_spikes: usize,
    /// Neurons in the layer output.
    pub neurons: usize,
    /// Synaptic operations performed (one per weight touched by a spike —
    /// the "SOP" the paper's GSOP/s throughput counts).
    pub synaptic_ops: usize,
    /// Threshold-comparison iterations of the spike encoder (timesteps the
    /// encoder stepped through before all membranes were reset or the
    /// window ended).
    pub encoder_iterations: usize,
}

impl LayerStats {
    /// Output sparsity: fraction of neurons that fired.
    pub fn output_sparsity(&self) -> f32 {
        self.output_spikes as f32 / self.neurons.max(1) as f32
    }

    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: &LayerStats) {
        self.input_spikes += other.input_spikes;
        self.output_spikes += other.output_spikes;
        self.neurons += other.neurons;
        self.synaptic_ops += other.synaptic_ops;
        self.encoder_iterations += other.encoder_iterations;
    }
}

/// Event statistics of a full inference run (one batch).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Samples in the batch.
    pub batch: usize,
    /// Per-weighted-layer statistics, summed over the batch.
    pub layers: Vec<LayerStats>,
    /// End-to-end pipeline latency in timesteps (per sample).
    pub latency_timesteps: u32,
}

impl RunStats {
    /// Total spikes across all layer boundaries (including input coding).
    pub fn total_spikes(&self) -> usize {
        self.layers.iter().map(|l| l.output_spikes).sum::<usize>()
            + self.layers.first().map(|l| l.input_spikes).unwrap_or(0)
    }

    /// Total synaptic operations.
    pub fn total_synaptic_ops(&self) -> usize {
        self.layers.iter().map(|l| l.synaptic_ops).sum()
    }

    /// Merges the statistics of another (sub-)batch run over the same
    /// model — used by the runtime's worker pool to combine per-chunk
    /// stats back into one report.
    pub fn absorb(&mut self, other: &RunStats) {
        self.batch += other.batch;
        if self.layers.len() < other.layers.len() {
            self.layers
                .resize(other.layers.len(), LayerStats::default());
        }
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.absorb(theirs);
        }
        self.latency_timesteps = self.latency_timesteps.max(other.latency_timesteps);
    }

    /// Mean output sparsity over layers.
    pub fn mean_sparsity(&self) -> f32 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(|l| l.output_sparsity()).sum::<f32>() / self.layers.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_layers() {
        let stats = RunStats {
            batch: 1,
            layers: vec![
                LayerStats {
                    input_spikes: 10,
                    output_spikes: 4,
                    neurons: 8,
                    synaptic_ops: 90,
                    encoder_iterations: 6,
                },
                LayerStats {
                    input_spikes: 4,
                    output_spikes: 2,
                    neurons: 4,
                    synaptic_ops: 16,
                    encoder_iterations: 3,
                },
            ],
            latency_timesteps: 72,
        };
        assert_eq!(stats.total_spikes(), 16);
        assert_eq!(stats.total_synaptic_ops(), 106);
        assert!((stats.mean_sparsity() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_stats() {
        let stats = RunStats::default();
        assert_eq!(stats.total_spikes(), 0);
        assert_eq!(stats.mean_sparsity(), 0.0);
    }
}
