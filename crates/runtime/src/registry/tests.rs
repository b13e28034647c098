//! Unit tests for the per-key circuit breaker, stepped with hand-advanced
//! `Instant`s: no sleeps, so every window and remaining time is exact.

use super::*;

const MS: Duration = Duration::from_millis(1);

/// Base backoff 100 ms, capped at 350 ms: the second doubling clamps.
fn config(threshold: u32) -> RegistryConfig {
    RegistryConfig {
        breaker_threshold: threshold,
        breaker_backoff: 100 * MS,
        breaker_backoff_max: 350 * MS,
        ..RegistryConfig::default()
    }
}

/// A breaker that `threshold` failures at `t0` have just opened at
/// the base backoff.
fn opened(config: &RegistryConfig, t0: Instant) -> Breaker {
    let mut breaker = Breaker::default();
    open(&mut breaker, config, t0);
    breaker
}

/// Fails `breaker` until it opens, checking it stays closed until the
/// threshold-th failure and then opens at the base backoff.
fn open(breaker: &mut Breaker, config: &RegistryConfig, t0: Instant) {
    for _ in 1..config.breaker_threshold {
        assert_eq!(breaker.fail(t0, config), None);
        assert_eq!(breaker.admit(t0), Ok(()), "closed below the threshold");
    }
    assert_eq!(breaker.fail(t0, config), Some(100 * MS));
}

#[test]
fn threshold_failures_open_the_breaker() {
    let (config, t0) = (config(3), Instant::now());
    assert!(opened(&config, t0).admit(t0).is_err());
}

#[test]
fn a_rejection_carries_the_exact_remaining_window() {
    let (config, t0) = (config(2), Instant::now());
    let breaker = opened(&config, t0);
    assert_eq!(breaker.admit(t0), Err(100 * MS));
    assert_eq!(breaker.admit(t0 + 30 * MS), Err(70 * MS));
    assert_eq!(
        breaker.admit(t0 + 100 * MS - Duration::from_nanos(1)),
        Err(Duration::from_nanos(1))
    );
}

#[test]
fn expiry_admits_one_probe_whose_failure_reopens_at_once() {
    let (config, t0) = (config(3), Instant::now());
    let mut breaker = opened(&config, t0);
    let expiry = t0 + 100 * MS;
    assert_eq!(breaker.admit(expiry), Ok(()), "the half-open probe");
    // One failed probe re-opens; it does not need `threshold` more.
    assert_eq!(breaker.fail(expiry, &config), Some(200 * MS));
    assert_eq!(breaker.admit(expiry), Err(200 * MS));
}

#[test]
fn failed_probes_double_the_window_up_to_the_cap() {
    let (config, t0) = (config(1), Instant::now());
    let mut breaker = opened(&config, t0);
    let mut now = t0;
    for expected in [200, 350, 350, 350] {
        now += breaker.admit(now).unwrap_err();
        assert_eq!(breaker.admit(now), Ok(()));
        assert_eq!(breaker.fail(now, &config), Some(expected * MS));
    }
}

#[test]
fn success_resets_the_next_open_to_the_base_backoff() {
    let (config, t0) = (config(2), Instant::now());
    let mut breaker = opened(&config, t0);
    let probe = t0 + 100 * MS;
    assert_eq!(breaker.fail(probe, &config), Some(200 * MS));
    assert!(breaker.succeed(), "a healthy probe closes an open breaker");
    assert!(
        !breaker.succeed(),
        "closing a closed breaker recovers nothing"
    );
    assert_eq!(breaker.admit(probe), Ok(()));
    // Back to a full threshold of failures, then the base window.
    open(&mut breaker, &config, probe);
}

#[test]
fn threshold_zero_never_opens() {
    let (config, t0) = (config(0), Instant::now());
    let mut breaker = Breaker::default();
    for _ in 0..1000 {
        assert_eq!(breaker.fail(t0, &config), None);
    }
    assert_eq!(breaker.admit(t0), Ok(()));
}
