/// A monotonically decreasing TTFS threshold/dendrite kernel.
///
/// Encoding maps a membrane voltage to the first timestep at which it
/// crosses the falling threshold; decoding maps that timestep back to a
/// value. `decode(encode(u))` quantizes `u` onto the kernel's grid — the
/// data-representation change whose error CAT minimizes.
pub trait TtfsKernel {
    /// Kernel value at (possibly fractional) timestep `t`.
    fn value(&self, t: f32) -> f32;

    /// Base threshold θ₀ (kernel value the encoder starts from).
    fn theta0(&self) -> f32;

    /// First integer timestep `k ∈ [0, window]` with `u ≥ value(k)`, or
    /// `None` if the neuron never fires within the window (u too small or
    /// non-positive).
    fn encode(&self, u: f32, window: u32) -> Option<u32>;

    /// Value represented by a spike at timestep `k`.
    fn decode(&self, k: u32) -> f32;
}

/// The paper's base-2 TTFS kernel (eq. 9): `κ(t) = θ₀ · 2^(−t/τ)`.
///
/// A single `(τ, θ₀)` pair is shared by *all* layers — that is what lets the
/// processor replace per-layer kernel SRAMs with one LUT (Fig. 6, step I) —
/// and `τ` is constrained to a power of two (eq. 18) so spike times satisfy
/// the log-domain multiply condition (eq. 16).
///
/// # Example
///
/// ```
/// use ttfs_core::{Base2Kernel, TtfsKernel};
///
/// let k = Base2Kernel::paper_default(); // τ = 4, θ₀ = 1
/// assert_eq!(k.encode(1.0, 24), Some(0));
/// let t = k.encode(0.5, 24).unwrap();
/// assert_eq!(t, 4); // 2^(−4/4) = 0.5
/// assert!((k.decode(t) - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Base2Kernel {
    tau: f32,
    theta0: f32,
}

impl Base2Kernel {
    /// Creates a base-2 kernel.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `theta0` is not strictly positive.
    pub fn new(tau: f32, theta0: f32) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        assert!(theta0 > 0.0, "theta0 must be positive");
        Self { tau, theta0 }
    }

    /// The hardware configuration chosen by the paper: `τ = 4`, `θ₀ = 1`
    /// (used with window `T = 24`).
    pub fn paper_default() -> Self {
        Self::new(4.0, 1.0)
    }

    /// Time constant τ.
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// Whether τ satisfies the log-domain constraint of eq. 18
    /// (`log₂ τ = 2^z` for integer `z` — i.e. τ ∈ {2, 4, 16, 256, …}, and
    /// also τ = 1 for z → −∞ degenerate integer-time coding).
    pub fn satisfies_log_constraint(&self) -> bool {
        let l = self.tau.log2();
        if l <= 0.0 {
            return self.tau == 1.0;
        }
        // l must itself be a power of two (1, 2, 4, ...) per eq. 18.
        let z = l.log2();
        (z - z.round()).abs() < 1e-6 && z.round() >= 0.0
    }
}

impl TtfsKernel for Base2Kernel {
    fn value(&self, t: f32) -> f32 {
        self.theta0 * (-t / self.tau).exp2()
    }

    fn theta0(&self) -> f32 {
        self.theta0
    }

    fn encode(&self, u: f32, window: u32) -> Option<u32> {
        if u <= 0.0 {
            return None;
        }
        if u >= self.theta0 {
            return Some(0);
        }
        // The 1e-4 slack keeps values that sit exactly on the kernel grid
        // (decode outputs) from being pushed one timestep late by f32 log
        // rounding — hardware compares exact fixed-point values instead.
        let k = (-self.tau * (u / self.theta0).log2() - 1e-4).ceil();
        if k <= window as f32 {
            Some(k.max(0.0) as u32)
        } else {
            None
        }
    }

    fn decode(&self, k: u32) -> f32 {
        self.value(k as f32)
    }
}

/// The T2FSNN baseline kernel (eq. 5): `ε(t) = θ₀ · e^(−(t−t_d)/τ)` with
/// per-layer delay `t_d` and time constant `τ` — the reconfigurability that
/// costs hardware (per-layer kernel SRAM) and that CAT removes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpKernel {
    tau: f32,
    t_d: f32,
    theta0: f32,
}

impl ExpKernel {
    /// Creates a base-e kernel.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `theta0` is not strictly positive.
    pub fn new(tau: f32, t_d: f32, theta0: f32) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        assert!(theta0 > 0.0, "theta0 must be positive");
        Self { tau, t_d, theta0 }
    }

    /// The T2FSNN configuration from Table 2: `τ = 20`, `t_d = 0`, `θ₀ = 1`
    /// (used with window `T = 80`).
    pub fn t2fsnn_default() -> Self {
        Self::new(20.0, 0.0, 1.0)
    }

    /// Time constant τ.
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// Delay time t_d.
    pub fn t_d(&self) -> f32 {
        self.t_d
    }

    /// Returns a copy with different `(τ, t_d)` — the knobs T2FSNN's
    /// post-conversion optimization tunes per layer.
    pub fn with_params(&self, tau: f32, t_d: f32) -> Self {
        Self::new(tau, t_d, self.theta0)
    }
}

impl TtfsKernel for ExpKernel {
    fn value(&self, t: f32) -> f32 {
        self.theta0 * (-(t - self.t_d) / self.tau).exp()
    }

    fn theta0(&self) -> f32 {
        self.theta0
    }

    fn encode(&self, u: f32, window: u32) -> Option<u32> {
        if u <= 0.0 {
            return None;
        }
        // First integer k >= 0 with u >= theta0 * exp(-(k - t_d)/tau):
        // k >= t_d - tau * ln(u/theta0).
        // Same grid-rounding slack as the base-2 kernel.
        let k = (self.t_d - self.tau * (u / self.theta0).ln() - 1e-4)
            .ceil()
            .max(0.0);
        if k <= window as f32 {
            Some(k as u32)
        } else {
            None
        }
    }

    fn decode(&self, k: u32) -> f32 {
        self.value(k as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base2_value_halves_every_tau() {
        let k = Base2Kernel::new(4.0, 1.0);
        assert!((k.value(0.0) - 1.0).abs() < 1e-6);
        assert!((k.value(4.0) - 0.5).abs() < 1e-6);
        assert!((k.value(8.0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn base2_encode_decode_roundtrip_on_grid() {
        let k = Base2Kernel::paper_default();
        for t in 0..=24u32 {
            let v = k.decode(t);
            assert_eq!(k.encode(v, 24), Some(t), "grid point {t}");
        }
    }

    #[test]
    fn base2_encode_is_monotone() {
        let k = Base2Kernel::paper_default();
        let mut last = u32::MAX;
        for i in 1..100 {
            let u = i as f32 / 100.0;
            if let Some(t) = k.encode(u, 24) {
                assert!(t <= last, "larger u must fire no later");
                last = t;
            }
        }
    }

    #[test]
    fn base2_out_of_range() {
        let k = Base2Kernel::paper_default();
        assert_eq!(k.encode(0.0, 24), None);
        assert_eq!(k.encode(-1.0, 24), None);
        // Below kappa(24) = 2^-6 ~ 0.0156
        assert_eq!(k.encode(0.01, 24), None);
        assert_eq!(k.encode(2.0, 24), Some(0)); // saturates at theta0
    }

    #[test]
    fn base2_decode_never_exceeds_input() {
        // decode(encode(u)) <= u: the threshold crossing happens at or below u.
        let k = Base2Kernel::paper_default();
        for i in 2..100 {
            let u = i as f32 / 100.0;
            if let Some(t) = k.encode(u, 24) {
                assert!(k.decode(t) <= u + 1e-6, "u={u}");
            }
        }
    }

    #[test]
    fn log_constraint_per_eq18() {
        assert!(Base2Kernel::new(2.0, 1.0).satisfies_log_constraint()); // log2=1=2^0
        assert!(Base2Kernel::new(4.0, 1.0).satisfies_log_constraint()); // log2=2=2^1
        assert!(Base2Kernel::new(16.0, 1.0).satisfies_log_constraint()); // log2=4=2^2
        assert!(!Base2Kernel::new(8.0, 1.0).satisfies_log_constraint()); // log2=3
        assert!(!Base2Kernel::new(3.0, 1.0).satisfies_log_constraint());
    }

    #[test]
    fn exp_kernel_delay_shifts_threshold() {
        let k = ExpKernel::new(20.0, 5.0, 1.0);
        assert!((k.value(5.0) - 1.0).abs() < 1e-6);
        assert!(k.value(0.0) > 1.0); // before the delay the threshold is higher
    }

    #[test]
    fn exp_encode_decode_roundtrip_on_grid() {
        let k = ExpKernel::t2fsnn_default();
        for t in 0..=80u32 {
            let v = k.decode(t);
            let enc = k.encode(v, 80).unwrap();
            assert_eq!(enc, t, "grid point {t}");
        }
    }

    #[test]
    fn exp_encode_respects_window() {
        let k = ExpKernel::t2fsnn_default();
        assert_eq!(k.encode(1e-9, 80), None);
        assert_eq!(k.encode(1.0, 80), Some(0));
    }

    #[test]
    fn base2_and_exp_agree_when_bases_match() {
        // kappa with tau=4 equals epsilon with tau = 4/ln2, t_d = 0.
        let b2 = Base2Kernel::new(4.0, 1.0);
        let ex = ExpKernel::new(4.0 / std::f32::consts::LN_2, 0.0, 1.0);
        for t in 0..=24 {
            assert!((b2.value(t as f32) - ex.value(t as f32)).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn rejects_nonpositive_tau() {
        let _ = Base2Kernel::new(0.0, 1.0);
    }
}
