//! The correctness rule: an answer is right only if every logit has the
//! reference's exact bit pattern.

/// Bit-for-bit equality of two logit vectors (so `-0.0 != 0.0` and a NaN
/// equals only the same NaN — stricter than `==`, which is the point).
pub fn logits_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Index of the largest value (first one on ties), as `Tensor::argmax`.
pub fn top1(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in logits.iter().enumerate() {
        if *v > logits[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_ulp_is_a_mismatch() {
        let want = [0.25f32, -1.5, 3.0e-7, 0.0];
        assert!(logits_match(&want, &want));
        for i in 0..want.len() {
            let mut got = want;
            got[i] = f32::from_bits(want[i].to_bits() + 1);
            assert!(
                !logits_match(&got, &want),
                "one ulp at {i} must be rejected"
            );
        }
        assert!(!logits_match(&[0.0], &[-0.0]));
        assert!(!logits_match(&want[..3], &want));
    }

    #[test]
    fn top1_takes_the_first_maximum() {
        assert_eq!(top1(&[0.1, 0.9, 0.9, -1.0]), 1);
        assert_eq!(top1(&[-3.0]), 0);
    }
}
