use crate::SpikeTrain;

/// The layer-pipelined execution schedule of kernel-based TTFS coding
/// (Fig. 1 of the paper, right panel): layer `l` *integrates* during global
/// window `[l·T, (l+1)·T)` and *fires* during `[(l+1)·T, (l+2)·T)`, so
/// consecutive images pipeline through the layer stack one window apart.
///
/// # Example
///
/// ```
/// use snn_sim::PipelineSchedule;
///
/// let s = PipelineSchedule::new(16, 24); // VGG-16, T = 24
/// assert_eq!(s.latency(), 408);          // Table 2
/// assert_eq!(s.fire_window(0), (24, 48));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSchedule {
    weighted_layers: u32,
    window: u32,
}

impl PipelineSchedule {
    /// Creates a schedule for `weighted_layers` spiking layers with fire
    /// window `window`.
    pub fn new(weighted_layers: u32, window: u32) -> Self {
        Self {
            weighted_layers,
            window,
        }
    }

    /// Fire window T.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Global timestep range `[start, end)` in which the *input image*
    /// is presented as spikes.
    pub fn input_window(&self) -> (u32, u32) {
        (0, self.window)
    }

    /// Global timestep range `[start, end)` of layer `l`'s integration
    /// phase (0-based weighted-layer index).
    pub fn integration_window(&self, layer: u32) -> (u32, u32) {
        (layer * self.window, (layer + 1) * self.window)
    }

    /// Global timestep range `[start, end)` of layer `l`'s fire phase.
    pub fn fire_window(&self, layer: u32) -> (u32, u32) {
        ((layer + 1) * self.window, (layer + 2) * self.window)
    }

    /// End-to-end latency in timesteps: `T × (L + 1)` (Table 2).
    pub fn latency(&self) -> u32 {
        self.window * (self.weighted_layers + 1)
    }

    /// Converts a layer-local spike time to a global pipeline timestep.
    pub fn globalize(&self, layer: u32, local_t: u32) -> u32 {
        self.fire_window(layer).0 + local_t
    }

    /// Layers whose integration phase is active at global timestep `t`
    /// (exactly one for a single image; the pipeline staircase of Fig. 1).
    pub fn active_layer_at(&self, t: u32) -> Option<u32> {
        let l = t / self.window;
        if l <= self.weighted_layers {
            Some(l)
        } else {
            None
        }
    }

    /// Renders the Fig. 1 staircase: for each layer, which global windows
    /// are integration (`I`) and fire (`F`).
    pub fn staircase(&self) -> Vec<String> {
        let total_windows = self.weighted_layers + 2;
        (0..self.weighted_layers)
            .map(|l| {
                let mut row = String::new();
                for w in 0..total_windows {
                    row.push(if w == l {
                        'I'
                    } else if w == l + 1 {
                        'F'
                    } else {
                        '.'
                    });
                }
                row
            })
            .collect()
    }

    /// Maps a layer-local spike train onto global timesteps.
    pub fn globalize_train(&self, layer: u32, train: &SpikeTrain) -> Vec<(usize, u32)> {
        train
            .spikes()
            .iter()
            .map(|s| (s.neuron, self.globalize(layer, s.t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spike;

    #[test]
    fn table2_latencies() {
        assert_eq!(PipelineSchedule::new(16, 24).latency(), 408);
        assert_eq!(PipelineSchedule::new(16, 48).latency(), 816);
        assert_eq!(PipelineSchedule::new(16, 80).latency(), 1360);
    }

    #[test]
    fn windows_abut() {
        let s = PipelineSchedule::new(4, 10);
        for l in 0..4 {
            let (is, ie) = s.integration_window(l);
            let (fs, fe) = s.fire_window(l);
            assert_eq!(ie, fs, "fire starts when integration ends");
            assert_eq!(fe - fs, 10);
            assert_eq!(ie - is, 10);
        }
        // Layer l+1 integrates exactly while layer l fires.
        assert_eq!(s.fire_window(0), s.integration_window(1));
    }

    #[test]
    fn staircase_shape() {
        let s = PipelineSchedule::new(3, 5);
        let rows = s.staircase();
        assert_eq!(rows, vec!["IF...", ".IF..", "..IF."]);
    }

    #[test]
    fn globalize_spikes() {
        let s = PipelineSchedule::new(3, 10);
        let mut train = SpikeTrain::new(vec![4], 10);
        train.push(Spike::new(2, 3));
        let global = s.globalize_train(1, &train);
        assert_eq!(global, vec![(2, 23)]); // fire window of layer 1 starts at 20
    }

    #[test]
    fn active_layer_walks_pipeline() {
        let s = PipelineSchedule::new(2, 10);
        assert_eq!(s.active_layer_at(0), Some(0));
        assert_eq!(s.active_layer_at(15), Some(1));
        assert_eq!(s.active_layer_at(25), Some(2));
        assert_eq!(s.active_layer_at(35), None);
    }
}
