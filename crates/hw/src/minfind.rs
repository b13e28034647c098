/// Functional model of the input generator's **minfind unit**: merge-sorts
/// the spike streams of the input buffer so the PE array receives events in
/// nondecreasing time order (the SpinalFlow dataflow requirement).
///
/// The unit is a `ways`-ary min-tree: each cycle it pops the globally
/// earliest head among the source streams, so sorting `n` spikes costs `n`
/// pop cycles (plus `⌈log₂ ways⌉` pipeline fill), with
/// `n·⌈log₂ ways⌉` comparisons of energy.
///
/// # Example
///
/// ```
/// use snn_hw::MinFindUnit;
///
/// let unit = MinFindUnit::new(8);
/// let streams = vec![vec![(0usize, 3u32), (1, 7)], vec![(2, 1)], vec![(3, 5)]];
/// let (sorted, cycles) = unit.merge(&streams);
/// assert_eq!(sorted.iter().map(|s| s.1).collect::<Vec<_>>(), vec![1, 3, 5, 7]);
/// assert_eq!(cycles, 4 + 3); // 4 pops + log2(8) fill
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinFindUnit {
    ways: usize,
}

impl MinFindUnit {
    /// Creates a `ways`-ary minfind tree.
    ///
    /// # Panics
    ///
    /// Panics if `ways < 2`.
    pub fn new(ways: usize) -> Self {
        assert!(ways >= 2, "minfind needs at least two ways");
        Self { ways }
    }

    /// Tree arity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Pipeline fill latency, cycles.
    pub fn fill_cycles(&self) -> u64 {
        (usize::BITS - (self.ways - 1).leading_zeros()) as u64
    }

    /// Merges per-source streams of `(neuron, time)` events — each stream
    /// must already be time-sorted — and returns the merged stream plus the
    /// cycle count.
    pub fn merge(&self, streams: &[Vec<(usize, u32)>]) -> (Vec<(usize, u32)>, u64) {
        let total: usize = streams.iter().map(|s| s.len()).sum();
        let mut heads: Vec<usize> = vec![0; streams.len()];
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            let mut best: Option<(usize, (usize, u32))> = None;
            for (si, stream) in streams.iter().enumerate() {
                if let Some(&ev) = stream.get(heads[si]) {
                    let better = match best {
                        None => true,
                        Some((_, b)) => ev.1 < b.1 || (ev.1 == b.1 && ev.0 < b.0),
                    };
                    if better {
                        best = Some((si, ev));
                    }
                }
            }
            let (si, ev) = best.expect("total count guarantees a head exists");
            heads[si] += 1;
            out.push(ev);
        }
        (out, total as u64 + self.fill_cycles())
    }

    /// Cycle cost of sorting `n` spikes without materializing them.
    pub fn cycles_for(&self, n: usize) -> u64 {
        n as u64 + self.fill_cycles()
    }

    /// Comparator operations for `n` spikes (energy accounting).
    pub fn comparisons_for(&self, n: usize) -> u64 {
        n as u64 * self.fill_cycles().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_sorted_and_stable_by_neuron() {
        let unit = MinFindUnit::new(4);
        let streams = vec![
            vec![(5usize, 2u32), (6, 2)],
            vec![(1, 2)],
            vec![(9, 0), (2, 9)],
        ];
        let (sorted, _) = unit.merge(&streams);
        let times: Vec<u32> = sorted.iter().map(|s| s.1).collect();
        assert_eq!(times, vec![0, 2, 2, 2, 9]);
        // Equal times come out in neuron order.
        assert_eq!(sorted[1].0, 1);
        assert_eq!(sorted[2].0, 5);
    }

    #[test]
    fn cycles_scale_linearly() {
        let unit = MinFindUnit::new(16);
        assert_eq!(unit.cycles_for(1000), 1000 + 4);
        assert_eq!(unit.comparisons_for(10), 40);
    }

    #[test]
    fn empty_streams() {
        let unit = MinFindUnit::new(2);
        let (sorted, cycles) = unit.merge(&[vec![], vec![]]);
        assert!(sorted.is_empty());
        assert_eq!(cycles, unit.fill_cycles());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_degenerate_arity() {
        let _ = MinFindUnit::new(1);
    }
}
