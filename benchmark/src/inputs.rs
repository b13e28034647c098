//! Everything `--seed` decides: image pools, request order, arrival
//! jitter, deadlines and priorities, model routing. Model weights are not
//! here — they are fixed (seed 7), part of the workload like a checkpoint.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use snn_tensor::Tensor;

/// Images per model pool.
pub const POOL: usize = 256;

/// An independent stream for one purpose: `seed` mixed with a fixed tag
/// (splitmix64 finaliser), so streams never overlap by accident.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `n` images of per-sample `dims`, pixels uniform in `[0, 1)`.
pub fn image_pool(seed: u64, tag: u64, dims: &[usize], n: usize) -> Vec<Tensor> {
    let mut rng = stream(seed, tag);
    (0..n)
        .map(|_| snn_tensor::uniform(dims, 0.0, 1.0, &mut rng))
        .collect()
}

/// A seeded permutation of `0..n`: the order one cycle visits its items.
pub fn permutation(seed: u64, tag: u64, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut stream(seed, tag));
    order
}

/// Scheduling fields one paced request carries on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Urgency {
    /// `deadline_ms` (1 or 4), when the request carries one.
    pub deadline_ms: Option<u8>,
    /// `priority` (0 or 1).
    pub priority: u8,
}

/// One tick of the paced schedule: both generators fire, the second
/// `jitter_us` after the first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Offset of the second generator's request in this tick, µs, in
    /// `[0, 3000]` — inside or outside the first one's 2 ms batching
    /// window.
    pub jitter_us: u32,
    /// Scheduling fields of the two requests.
    pub urgency: [Urgency; 2],
}

/// The arrival schedule of the paced workload: a seeded half of the
/// requests carry a deadline in {1, 4} ms and a priority in {0, 1}.
pub fn paced_schedule(seed: u64, ticks: usize) -> Vec<Tick> {
    let mut rng = stream(seed, 0x7AC3);
    (0..ticks)
        .map(|_| {
            let jitter_us = rng.gen_range(0..=3000u32);
            let mut urgent = || {
                if rng.gen_bool(0.5) {
                    Urgency {
                        deadline_ms: Some(if rng.gen_bool(0.5) { 1 } else { 4 }),
                        priority: u8::from(rng.gen_bool(0.5)),
                    }
                } else {
                    Urgency {
                        deadline_ms: None,
                        priority: 0,
                    }
                }
            };
            Tick {
                jitter_us,
                urgency: [urgent(), urgent()],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs_and_different_seeds_differ() {
        let dims = [3usize, 4, 4];
        let a = image_pool(11, 1, &dims, 8);
        let b = image_pool(11, 1, &dims, 8);
        let c = image_pool(12, 1, &dims, 8);
        let other_tag = image_pool(11, 2, &dims, 8);
        let bits = |p: &[Tensor]| -> Vec<u32> {
            p.iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
        assert_ne!(bits(&a), bits(&other_tag));
        assert!(a.iter().all(|t| t.dims() == dims));
        assert!(bits(&a)
            .iter()
            .all(|b| (0.0..1.0).contains(&f32::from_bits(*b))));
    }

    #[test]
    fn routing_order_is_a_seeded_permutation() {
        let a = permutation(5, 9, 2048);
        assert_eq!(a, permutation(5, 9, 2048));
        assert_ne!(a, permutation(6, 9, 2048));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2048).collect::<Vec<u32>>());
    }

    #[test]
    fn arrival_schedule_repeats_per_seed_and_covers_both_kinds() {
        let a = paced_schedule(3, 1000);
        assert_eq!(a, paced_schedule(3, 1000));
        assert_ne!(a, paced_schedule(4, 1000));
        assert!(a.iter().all(|t| t.jitter_us <= 3000));
        let inside = a.iter().filter(|t| t.jitter_us < 2000).count();
        assert!(
            inside > 500 && inside < 800,
            "jitter straddles the 2 ms window: {inside}"
        );
        let all: Vec<Urgency> = a.iter().flat_map(|t| t.urgency).collect();
        let with_deadline = all.iter().filter(|u| u.deadline_ms.is_some()).count();
        assert!(
            (800..1200).contains(&with_deadline),
            "about half carry a deadline"
        );
        assert!(all
            .iter()
            .all(|u| matches!(u.deadline_ms, None | Some(1) | Some(4))));
        assert!(all.iter().any(|u| u.priority == 1) && all.iter().all(|u| u.priority <= 1));
        assert!(all
            .iter()
            .all(|u| u.deadline_ms.is_some() || u.priority == 0));
    }
}
