//! Time-wheel spike queues.
//!
//! TTFS spike times live in the closed window `[0, T]`, so a spike queue
//! does not need a comparison sort: `T + 1` slots, one per time step, give
//! an O(T + n) time-ordered drain (the idiom of event-driven SNN
//! frameworks such as `embed`'s `TemporalWheel`). Within a slot, arrival
//! order is preserved — spikes that arrive in ascending neuron order come
//! out in exactly the `(t, neuron)` order `SpikeTrain::sort_by_time`
//! produces, which keeps float accumulation order identical to the
//! reference backend.
//!
//! Two wheels live here. [`TimeWheel`] is the single-sample reference
//! structure (the minimal embodiment of the invariant above, kept as the
//! public building block for custom backends): a `Vec` per slot, O(1)
//! insertion. [`BatchWheel`] is what [`crate::CsrEngine`] executes on —
//! the multi-lane variant whose slots merge a whole chunk of samples for
//! batched integration. It never inserts into a slot: its spikes sit
//! in one flat array, put there by a counting sort over the time steps —
//! over a fire phase's dense step plane (a neuron fires at most once, so
//! a layer's output *is* one step per neuron), or over the list of
//! pushes since the last [`BatchWheel::seal`].

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
/// one set of time slots, so the integration loop walks each slot once
/// for the whole chunk, spike by spike, each spike adding into its own
/// lane's membranes.
///
/// Storage is flat: one `Vec<LaneSpike>` holding slot after slot, plus
/// `window + 2` offsets (`spikes[offsets[t]..offsets[t + 1]]` is slot `t`).
/// No spike is ever inserted into a slot. Inside the engine a fire phase
/// hands the wheel a dense step plane and the wheel counting-sorts it into
/// place; [`push`](Self::push) appends to a pending list that
/// [`seal`](Self::seal) counting-sorts in the same way.
///
/// Correctness hinges on ordering. Each lane's spikes arrive in the
/// canonical per-sample order (ascending neuron within a slot, duplicates
/// in emission order — exactly what [`TimeWheel`] holds for one sample);
/// the counting sort is stable, and [`seal`](Self::seal) then stable-sorts
/// every slot by neuron. Stability keeps each lane's duplicates in emission
/// order, so restricting a sealed slot to one lane reproduces that lane's
/// canonical sequence — which is why walking the merged slots in stored
/// order accumulates every `(lane, target)` cell in exactly the reference
/// backend's f64 order.
#[derive(Debug, Clone, Default)]
pub struct BatchWheel {
    /// Sealed spikes, slot after slot, in the first `offsets[window + 1]`
    /// elements; what lies beyond is left over from earlier fills.
    spikes: Vec<LaneSpike>,
    /// `window + 2` slot boundaries into `spikes`.
    offsets: Vec<usize>,
    /// Pushes since the last seal, in push order, with their time steps.
    pending: Vec<(u32, LaneSpike)>,
    /// How many of `pending` go to each of the `window + 1` slots.
    counts: Vec<usize>,
    lanes: usize,
}

/// What a slot element holds before the counting sort writes it.
const FILLER: LaneSpike = LaneSpike {
    neuron: 0,
    lane: 0,
    scale: 0.0,
};

impl BatchWheel {
    /// Creates an empty wheel for `lanes` samples and spike times in
    /// `[0, window]`.
    pub fn new(window: u32, lanes: usize) -> Self {
        let mut wheel = Self::default();
        wheel.reset(window, lanes);
        wheel
    }

    /// Clears the wheel for reuse, keeping its allocations (the scratch
    /// buffers survive across stages and calls).
    pub fn reset(&mut self, window: u32, lanes: usize) {
        self.pending.clear();
        self.offsets.clear();
        self.offsets.resize(window as usize + 2, 0);
        self.counts.clear();
        self.counts.resize(window as usize + 1, 0);
        self.lanes = lanes;
    }

    /// Number of sample lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The window `T` (slot count minus one).
    pub fn window(&self) -> u32 {
        self.offsets.len().saturating_sub(2) as u32
    }

    /// Total queued spikes across all lanes, sealed or not.
    pub fn len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) + self.pending.len()
    }

    /// Whether the wheel holds no spikes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.counts[t as usize] += 1;
        self.pending.push((
            t,
            LaneSpike {
                neuron,
                lane,
                scale,
            },
        ));
    }

    /// Moves the pending pushes into their slots by a stable counting sort
    /// on the time step (behind whatever an earlier seal already put
    /// there), then stable-sorts every slot by neuron, so each lane's
    /// spikes in a slot ascend by neuron — its canonical order, whatever
    /// order the pushes came in — with its duplicates kept in emission
    /// order. Slots that are already non-descending by neuron — pushes
    /// made neuron-major arrive sorted — are skipped in one O(n) scan.
    pub fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let window = self.window();
        if self.len() > self.pending.len() {
            // A second seal: the sealed spikes rejoin the list, ahead of
            // the later pushes.
            let mut all = Vec::with_capacity(self.len());
            for t in 0..=window {
                self.counts[t as usize] += self.slot(t).len();
                all.extend(self.slot(t).iter().map(|&s| (t, s)));
            }
            all.append(&mut self.pending);
            self.pending = all;
        }
        for (t, count) in self.counts.iter_mut().enumerate() {
            self.offsets[t + 1] = self.offsets[t] + std::mem::take(count);
        }
        if self.spikes.len() < self.pending.len() {
            self.spikes.resize(self.pending.len(), FILLER);
        }
        // offsets[t] is slot t's write cursor and ends as its end.
        for (t, spike) in self.pending.drain(..) {
            let at = &mut self.offsets[t as usize];
            self.spikes[*at] = spike;
            *at += 1;
        }
        self.cursors_to_offsets();
        for t in 0..=window as usize {
            let slot = &mut self.spikes[self.offsets[t]..self.offsets[t + 1]];
            if !slot.windows(2).all(|w| w[0].neuron <= w[1].neuron) {
                slot.sort_by_key(|s| s.neuron);
            }
        }
    }

    /// After a placement pass `offsets[t]` holds the end of slot `t`, which
    /// is the start of slot `t + 1`: shift the table one place up.
    fn cursors_to_offsets(&mut self) {
        self.offsets.rotate_right(1);
        self.offsets[0] = 0;
    }

    /// Refills the wheel from a dense step plane: `steps[lane · n + p ·
    /// channels + c]` is the time step at which lane `lane`'s neuron `c ·
    /// plane + p` fired, or `window + 1` if it never did (`n = channels ·
    /// plane`; a dense layer is `plane = 1`), `scales` the matching pooling
    /// scales (`None`: all 1), and `hist[lane · (window + 2) + t]` counts
    /// lane `lane`'s cells at step `t`. One counting sort in `(t, neuron,
    /// lane)` order: the result is what pushing every spike neuron-major,
    /// lanes inner, and sealing would give. Non-firing cells are written to
    /// one spare element past the end instead of being branched around, so
    /// the buffer is sized by the fired count.
    #[allow(clippy::too_many_arguments)] // one flat description of a plane
    pub(crate) fn fill_from_plane(
        &mut self,
        window: u32,
        lanes: usize,
        steps: &[u16],
        scales: Option<&[f32]>,
        hist: &[u32],
        channels: usize,
        plane: usize,
    ) {
        self.reset(window, lanes);
        let slots = window as usize + 2;
        for t in 0..=window as usize {
            let fired: usize = (0..lanes).map(|l| hist[l * slots + t] as usize).sum();
            self.offsets[t + 1] = self.offsets[t] + fired;
        }
        // offsets[window + 1] — the "never" cursor — is the spare element.
        if self.spikes.len() <= self.offsets[slots - 1] {
            self.spikes.resize(self.offsets[slots - 1] + 1, FILLER);
        }
        let n = channels * plane;
        for c in 0..channels {
            for p in 0..plane {
                let cell = p * channels + c;
                for lane in 0..lanes {
                    let i = lane * n + cell;
                    let t = steps[i] as usize;
                    let at = self.offsets[t];
                    self.spikes[at] = LaneSpike {
                        neuron: (c * plane + p) as u32,
                        lane: lane as u32,
                        scale: scales.map_or(1.0, |s| s[i]),
                    };
                    self.offsets[t] = at + usize::from(t < slots - 1);
                }
            }
        }
        self.cursors_to_offsets();
    }

    /// The (sealed) spike group of time slot `t`.
    #[inline]
    pub fn slot(&self, t: u32) -> &[LaneSpike] {
        &self.spikes[self.offsets[t as usize]..self.offsets[t as usize + 1]]
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

    fn keys(w: &BatchWheel, t: u32) -> Vec<(u32, u32, f32)> {
        w.slot(t)
            .iter()
            .map(|s| (s.neuron, s.lane, s.scale))
            .collect()
    }

    #[test]
    fn batch_pushes_after_a_seal_land_behind_the_sealed_spikes() {
        let mut w = BatchWheel::new(3, 2);
        w.push(2, 0, 5, 1.0);
        w.push(0, 1, 9, 1.0);
        w.push(2, 1, 5, 0.5);
        w.seal();
        assert_eq!(keys(&w, 2), vec![(5, 0, 1.0), (5, 1, 0.5)]);
        let sealed: Vec<_> = (0..=3).map(|t| keys(&w, t)).collect();
        w.seal(); // nothing pending: a no-op
        assert_eq!((0..=3).map(|t| keys(&w, t)).collect::<Vec<_>>(), sealed);
        // Later pushes: an earlier neuron, a duplicate of a sealed spike's
        // (neuron, lane), and a slot that was empty.
        w.push(2, 0, 3, 1.0);
        w.push(2, 1, 5, 0.25);
        w.push(3, 0, 1, 1.0);
        assert_eq!(w.len(), 6);
        w.seal();
        assert_eq!(keys(&w, 0), vec![(9, 1, 1.0)]);
        assert!(w.slot(1).is_empty());
        assert_eq!(
            keys(&w, 2),
            vec![(3, 0, 1.0), (5, 0, 1.0), (5, 1, 0.5), (5, 1, 0.25)]
        );
        assert_eq!(keys(&w, 3), vec![(1, 0, 1.0)]);
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn batch_reset_forgets_spikes_across_window_and_lane_changes() {
        let mut w = BatchWheel::new(6, 4);
        for i in 0..40u32 {
            w.push(i % 7, i % 4, i, 1.0);
        }
        w.seal();
        assert_eq!(w.len(), 40);
        // Narrower window, fewer lanes: nothing of the old fill shows.
        w.reset(2, 1);
        assert_eq!((w.window(), w.lanes(), w.len()), (2, 1, 0));
        assert!((0..=2).all(|t| w.slot(t).is_empty()));
        w.push(2, 0, 7, 0.5);
        w.push(1, 0, 8, 1.0);
        w.seal();
        assert_eq!(keys(&w, 1), vec![(8, 0, 1.0)]);
        assert_eq!(keys(&w, 2), vec![(7, 0, 0.5)]);
        assert!(w.slot(0).is_empty());
        assert_eq!(w.len(), 2);
        // Wider again, and a reset with pushes still pending drops them.
        w.push(0, 0, 1, 1.0);
        w.reset(9, 3);
        assert_eq!((w.window(), w.lanes(), w.len()), (9, 3, 0));
        w.push(9, 2, 4, 1.0);
        w.seal();
        assert_eq!(keys(&w, 9), vec![(4, 2, 1.0)]);
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic]
    fn batch_rejects_time_beyond_window() {
        let mut w = BatchWheel::new(5, 1);
        w.push(6, 0, 0, 1.0);
    }

    /// The counting sort over a step plane is, spike for spike, what
    /// pushing the plane neuron-major with lanes inner and sealing gives —
    /// for a channel-last conv plane and a dense one, scaled or not, and
    /// on a wheel that held something else before.
    #[test]
    fn batch_fill_from_plane_equals_push_and_seal() {
        let (window, lanes) = (4u32, 3usize);
        let never = window as u16 + 1;
        let mut filled = BatchWheel::new(9, 7);
        for i in 0..50 {
            filled.push(i % 10, i % 7, i, 1.0);
        }
        filled.seal();
        for (channels, plane, scaled) in [(3usize, 4usize, false), (5, 1, true), (2, 6, true)] {
            let n = channels * plane;
            // A fixed scramble of steps 0..=never.
            let steps: Vec<u16> = (0..lanes * n)
                .map(|i| (i * 7 + i / 5) as u16 % (never + 1))
                .collect();
            let scales: Vec<f32> = (0..lanes * n).map(|i| 1.0 / (1 + i % 4) as f32).collect();
            let mut hist = vec![0u32; lanes * (never as usize + 1)];
            for (i, &t) in steps.iter().enumerate() {
                hist[i / n * (never as usize + 1) + t as usize] += 1;
            }
            let mut pushed = BatchWheel::new(window, lanes);
            for neuron in 0..n {
                let cell = neuron % plane * channels + neuron / plane;
                for lane in 0..lanes {
                    let i = lane * n + cell;
                    if steps[i] != never {
                        let scale = if scaled { scales[i] } else { 1.0 };
                        pushed.push(steps[i].into(), lane as u32, neuron as u32, scale);
                    }
                }
            }
            pushed.seal();
            filled.fill_from_plane(
                window,
                lanes,
                &steps,
                scaled.then_some(&scales[..]),
                &hist,
                channels,
                plane,
            );
            assert_eq!((filled.window(), filled.lanes()), (window, lanes));
            assert_eq!(filled.len(), pushed.len());
            for t in 0..=window {
                assert_eq!(
                    filled.slot(t),
                    pushed.slot(t),
                    "slot {t}, {channels}x{plane}"
                );
            }
        }
    }
}
