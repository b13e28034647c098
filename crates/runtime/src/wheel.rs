//! O(1) time-wheel spike queues.
//!
//! TTFS spike times live in the closed window `[0, T]`, so a spike queue
//! does not need a comparison sort: a wheel with `T + 1` slots gives O(1)
//! insertion and O(T + n) time-ordered drain (the idiom of event-driven SNN
//! frameworks such as `embed`'s `TemporalWheel`). Within a slot, insertion
//! order is preserved — callers that insert in ascending neuron order get
//! exactly the `(t, neuron)` order `SpikeTrain::sort_by_time` produces,
//! which keeps float accumulation order identical to the reference backend.
//!
//! Two wheels live here: [`TimeWheel`] is the single-sample reference
//! structure (the minimal embodiment of the invariant above, kept as the
//! public building block for custom backends), and [`BatchWheel`] is what
//! [`crate::CsrEngine`] actually executes on — the multi-lane variant
//! whose slots merge a whole chunk of samples for edge-major integration.

use snn_sim::{Spike, SpikeTrain};

/// A spike event as stored in the wheel: `(neuron, scale)` bucketed by its
/// timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WheelSpike {
    /// Flat neuron index in the emitting layer.
    pub neuron: u32,
    /// Linear scale attached by pooling (1.0 for ordinary spikes).
    pub scale: f32,
}

/// Time-indexed spike buckets for one layer boundary.
#[derive(Debug, Clone)]
pub struct TimeWheel {
    slots: Vec<Vec<WheelSpike>>,
    len: usize,
}

impl TimeWheel {
    /// Creates an empty wheel for spike times in `[0, window]`.
    pub fn new(window: u32) -> Self {
        Self {
            slots: vec![Vec::new(); window as usize + 1],
            len: 0,
        }
    }

    /// The window `T` (slot count minus one).
    pub fn window(&self) -> u32 {
        (self.slots.len() - 1) as u32
    }

    /// Number of queued spikes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no spikes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) insertion.
    ///
    /// # Panics
    ///
    /// Panics if `t` exceeds the window — that is an engine bug, not a
    /// caller error.
    pub fn push(&mut self, t: u32, neuron: u32, scale: f32) {
        self.slots[t as usize].push(WheelSpike { neuron, scale });
        self.len += 1;
    }

    /// Iterates `(t, neuron, scale)` in ascending time order (insertion
    /// order within a slot).
    pub fn iter_ordered(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .flat_map(|(t, slot)| slot.iter().map(move |s| (t as u32, s.neuron, s.scale)))
    }

    /// Converts to a time-sorted [`SpikeTrain`] over a neuron grid of
    /// `dims` (bridge to the shared event-domain pooling primitives).
    pub fn to_train(&self, dims: Vec<usize>) -> SpikeTrain {
        let mut train = SpikeTrain::new(dims, self.window());
        for (t, neuron, scale) in self.iter_ordered() {
            train.push(Spike {
                neuron: neuron as usize,
                t,
                scale,
            });
        }
        train
    }

    /// Builds a wheel from a time-sorted [`SpikeTrain`].
    pub fn from_train(train: &SpikeTrain) -> Self {
        let mut wheel = Self::new(train.window());
        for s in train.spikes() {
            wheel.push(s.t, s.neuron as u32, s.scale);
        }
        wheel
    }
}

/// A spike event in a [`BatchWheel`] slot: which lane (sample of the
/// chunk) fired which neuron, at the slot's timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSpike {
    /// Flat neuron index in the emitting layer.
    pub neuron: u32,
    /// Sample lane within the chunk.
    pub lane: u32,
    /// Linear scale attached by pooling (1.0 for ordinary spikes).
    pub scale: f32,
}

/// A time wheel over a whole chunk of samples: every lane's spikes share
/// one set of time slots, so the integration loop can walk a slot once,
/// group equal neurons across lanes, and stream each CSR row a single time
/// for the whole group (edge-major batched integration).
///
/// Correctness hinges on ordering. Each lane's spikes are pushed in the
/// canonical per-sample order (ascending neuron within a slot, duplicates
/// in emission order — exactly what [`TimeWheel`] holds for one sample);
/// [`seal`](Self::seal) then stable-sorts every slot by neuron. Stability
/// keeps each lane's duplicates in emission order, so restricting a sealed
/// slot to one lane reproduces that lane's canonical sequence — which is
/// why the merged edge-major traversal accumulates every `(lane, target)`
/// cell in exactly the reference backend's f64 order.
#[derive(Debug, Clone, Default)]
pub struct BatchWheel {
    slots: Vec<Vec<LaneSpike>>,
    lanes: usize,
    len: usize,
}

impl BatchWheel {
    /// Creates an empty wheel for `lanes` samples and spike times in
    /// `[0, window]`.
    pub fn new(window: u32, lanes: usize) -> Self {
        Self {
            slots: vec![Vec::new(); window as usize + 1],
            lanes,
            len: 0,
        }
    }

    /// Clears the wheel for reuse, keeping slot allocations (the scratch
    /// buffers survive across stages and calls).
    pub fn reset(&mut self, window: u32, lanes: usize) {
        let want = window as usize + 1;
        if self.slots.len() > want {
            self.slots.truncate(want);
        }
        for slot in &mut self.slots {
            slot.clear();
        }
        while self.slots.len() < want {
            self.slots.push(Vec::new());
        }
        self.lanes = lanes;
        self.len = 0;
    }

    /// Number of sample lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The window `T` (slot count minus one).
    pub fn window(&self) -> u32 {
        (self.slots.len() - 1) as u32
    }

    /// Total queued spikes across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no spikes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) insertion. Push lanes in their canonical per-sample order;
    /// call [`seal`](Self::seal) before reading slots.
    ///
    /// # Panics
    ///
    /// Panics if `t` exceeds the window or `lane` is out of range — engine
    /// bugs, not caller errors.
    pub fn push(&mut self, t: u32, lane: u32, neuron: u32, scale: f32) {
        debug_assert!((lane as usize) < self.lanes, "lane {lane} out of range");
        self.slots[t as usize].push(LaneSpike {
            neuron,
            lane,
            scale,
        });
        self.len += 1;
    }

    /// Stable-sorts every slot by neuron so equal neurons across lanes sit
    /// adjacent (one CSR row fetch serves the whole group) while each
    /// lane's duplicate order is preserved. Slots that are already
    /// non-descending by neuron — the engine pushes encode, fire and
    /// max-pool spikes neuron-major, so those wheels arrive pre-grouped —
    /// are skipped in one O(n) scan.
    pub fn seal(&mut self) {
        for slot in &mut self.slots {
            if slot.windows(2).all(|w| w[0].neuron <= w[1].neuron) {
                continue;
            }
            slot.sort_by_key(|s| s.neuron);
        }
    }

    /// The (sealed) spike group of time slot `t`.
    #[inline]
    pub fn slot(&self, t: u32) -> &[LaneSpike] {
        &self.slots[t as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_time_order() {
        let mut w = TimeWheel::new(10);
        w.push(7, 1, 1.0);
        w.push(2, 5, 0.5);
        w.push(7, 0, 1.0);
        w.push(0, 3, 1.0);
        let order: Vec<(u32, u32)> = w.iter_ordered().map(|(t, n, _)| (t, n)).collect();
        assert_eq!(order, vec![(0, 3), (2, 5), (7, 1), (7, 0)]);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn train_roundtrip_preserves_order_and_scale() {
        let mut train = SpikeTrain::new(vec![2, 3], 8);
        train.push(Spike {
            neuron: 4,
            t: 3,
            scale: 0.25,
        });
        train.push(Spike {
            neuron: 1,
            t: 0,
            scale: 1.0,
        });
        train.sort_by_time();
        let wheel = TimeWheel::from_train(&train);
        assert_eq!(wheel.len(), 2);
        let back = wheel.to_train(vec![2, 3]);
        assert_eq!(back.spikes(), train.spikes());
        assert_eq!(back.window(), 8);
    }

    #[test]
    fn boundary_time_is_valid() {
        let mut w = TimeWheel::new(5);
        w.push(5, 0, 1.0);
        assert_eq!(w.iter_ordered().next(), Some((5, 0, 1.0)));
    }

    #[test]
    #[should_panic]
    fn rejects_time_beyond_window() {
        let mut w = TimeWheel::new(5);
        w.push(6, 0, 1.0);
    }

    #[test]
    fn batch_seal_groups_neurons_and_keeps_lane_dup_order() {
        let mut w = BatchWheel::new(4, 3);
        // Lane 0 emits neurons 2, 7 at t=1; lane 1 emits 2 twice (avg-pool
        // style duplicates with different scales) then 9; lane 2 emits 7.
        w.push(1, 0, 2, 1.0);
        w.push(1, 0, 7, 1.0);
        w.push(1, 1, 2, 0.25);
        w.push(1, 1, 2, 0.5);
        w.push(1, 1, 9, 1.0);
        w.push(1, 2, 7, 0.75);
        w.seal();
        let slot = w.slot(1);
        let key: Vec<(u32, u32, f32)> = slot.iter().map(|s| (s.neuron, s.lane, s.scale)).collect();
        assert_eq!(
            key,
            vec![
                (2, 0, 1.0),
                (2, 1, 0.25),
                (2, 1, 0.5), // lane 1's duplicate order preserved
                (7, 0, 1.0),
                (7, 2, 0.75),
                (9, 1, 1.0),
            ]
        );
        assert_eq!(w.len(), 6);
        assert_eq!(w.lanes(), 3);
    }

    #[test]
    fn batch_reset_reuses_storage() {
        let mut w = BatchWheel::new(3, 2);
        w.push(0, 0, 1, 1.0);
        w.push(3, 1, 2, 1.0);
        w.reset(5, 4);
        assert_eq!(w.window(), 5);
        assert_eq!(w.lanes(), 4);
        assert!(w.is_empty());
        w.reset(2, 1);
        assert_eq!(w.window(), 2);
        assert!(w.slot(0).is_empty() && w.slot(2).is_empty());
    }
}
