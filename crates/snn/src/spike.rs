/// A spike raster over layer boundaries: for each boundary, the
/// `(neuron, global_timestep)` events (input coding first, then one entry
/// per hidden weighted layer).
pub type SpikeRaster = Vec<Vec<(usize, u32)>>;

/// A single spike event in a layer-local time window.
///
/// TTFS coding emits at most one spike per neuron; `scale` carries the
/// linear weight a preceding average-pooling stage attached to the event
/// (1.0 for ordinary spikes), so pooling stays exact in the event domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// Flat index of the emitting neuron within its layer.
    pub neuron: usize,
    /// Layer-local timestep in `[0, T]` (0 = fired immediately).
    pub t: u32,
    /// Linear scale attached by pooling (1.0 by default).
    pub scale: f32,
}

impl Spike {
    /// Creates an ordinary (scale-1) spike.
    pub fn new(neuron: usize, t: u32) -> Self {
        Self {
            neuron,
            t,
            scale: 1.0,
        }
    }
}

/// An ordered set of spikes for one layer boundary, plus the geometry of
/// the emitting neuron grid.
///
/// # Example
///
/// ```
/// use snn_sim::{Spike, SpikeTrain};
///
/// let mut train = SpikeTrain::new(vec![2, 2], 24);
/// train.push(Spike::new(3, 7));
/// train.push(Spike::new(0, 2));
/// train.sort_by_time();
/// assert_eq!(train.spikes()[0].t, 2);
/// assert!((train.sparsity() - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeTrain {
    dims: Vec<usize>,
    window: u32,
    spikes: Vec<Spike>,
}

impl SpikeTrain {
    /// Creates an empty train for a neuron grid of the given dims.
    pub fn new(dims: Vec<usize>, window: u32) -> Self {
        Self {
            dims,
            window,
            spikes: Vec::new(),
        }
    }

    /// Dimensions of the emitting neuron grid (e.g. `[C, H, W]`).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of neurons in the grid.
    pub fn neuron_count(&self) -> usize {
        self.dims.iter().product()
    }

    /// The fire window T of the emitting layer.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The spike events.
    pub fn spikes(&self) -> &[Spike] {
        &self.spikes
    }

    /// Appends a spike.
    ///
    /// # Panics
    ///
    /// Panics if the neuron index is out of range or the time exceeds the
    /// window — both indicate simulator bugs, not user errors.
    pub fn push(&mut self, spike: Spike) {
        assert!(
            spike.neuron < self.neuron_count(),
            "spike neuron {} out of range {}",
            spike.neuron,
            self.neuron_count()
        );
        assert!(
            spike.t <= self.window,
            "spike time {} beyond window {}",
            spike.t,
            self.window
        );
        self.spikes.push(spike);
    }

    /// Sorts spikes by time then neuron — the order the minfind unit of the
    /// processor feeds them to the PE array.
    pub fn sort_by_time(&mut self) {
        self.spikes
            .sort_by(|a, b| a.t.cmp(&b.t).then(a.neuron.cmp(&b.neuron)));
    }

    /// Number of spikes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.spikes.len()
    }

    /// Fraction of neurons that fired (≤ 1 under TTFS discipline).
    pub fn sparsity(&self) -> f32 {
        self.spikes.len() as f32 / self.neuron_count().max(1) as f32
    }

    /// Checks the TTFS discipline: at most one spike per neuron.
    pub fn is_ttfs(&self) -> bool {
        let mut seen = vec![false; self.neuron_count()];
        for s in &self.spikes {
            if seen[s.neuron] {
                return false;
            }
            seen[s.neuron] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_orders_by_time_then_neuron() {
        let mut t = SpikeTrain::new(vec![4], 10);
        t.push(Spike::new(3, 5));
        t.push(Spike::new(1, 5));
        t.push(Spike::new(2, 1));
        t.sort_by_time();
        let order: Vec<usize> = t.spikes().iter().map(|s| s.neuron).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn ttfs_discipline_detects_duplicates() {
        let mut t = SpikeTrain::new(vec![2], 10);
        t.push(Spike::new(0, 1));
        assert!(t.is_ttfs());
        t.push(Spike::new(0, 2));
        assert!(!t.is_ttfs());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_neuron() {
        let mut t = SpikeTrain::new(vec![2], 10);
        t.push(Spike::new(5, 1));
    }

    #[test]
    #[should_panic(expected = "beyond window")]
    fn rejects_late_spike() {
        let mut t = SpikeTrain::new(vec![2], 10);
        t.push(Spike::new(0, 11));
    }
}
