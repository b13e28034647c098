//! Unit tests for the per-key circuit breaker, stepped with hand-advanced
//! `Instant`s: no sleeps, so every window and remaining time is exact —
//! and for the guard that completes a load whose loader panicked.

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

#[test]
fn a_dropped_load_guard_fails_the_waiters_and_leaves_the_slot_cold() {
    let dir = std::env::temp_dir().join(format!("snn_load_guard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let registry = ModelRegistry::open(&dir, config(1)).unwrap();
    let cell = Arc::new(LoadCell::new());
    registry.state.lock().unwrap().entries.insert(
        "m@1".into(),
        Entry {
            catalog: CatalogEntry::Unreadable {
                error: ArtifactError::Malformed("never read".into()),
            },
            slot: Slot::Loading(Arc::clone(&cell)),
            breaker: Breaker::default(),
            last_used: 0,
        },
    );
    let guard = LoadGuard {
        registry: &registry,
        key: "m@1",
        cell: &cell,
    };
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| registry.get_or_load("m@1"));
        // The waiter counts itself coalesced under the lock, then waits
        // on the cell; only the guard can complete it.
        while registry.state.lock().unwrap().counters.coalesced_loads == 0 {
            std::thread::yield_now();
        }
        drop(guard);
        assert_eq!(
            waiter.join().unwrap().unwrap_err(),
            RegistryError::LoadPanicked("m@1".into())
        );
    });
    let state = registry.state.lock().unwrap();
    let entry = &state.entries["m@1"];
    assert!(matches!(entry.slot, Slot::Cold), "the slot is cold again");
    assert_eq!(state.counters.load_errors, 1);
    assert!(
        entry.breaker.admit(Instant::now()).is_err(),
        "threshold 1 opened"
    );
    drop(state);
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
