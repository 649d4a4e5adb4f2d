//! Runtime invariant checkers for the conformance oracle (DESIGN.md §12).
//!
//! The fabric simulators maintain redundant book-keeping (flit counters,
//! staging maps, slot-ownership vectors) whose *consistency* is an
//! algebraic invariant of a correct simulation: flits are conserved,
//! buffers respect their configured depth, staged rows are strictly
//! partial, every corrupted word is attributed to a CP. The
//! [`invariant!`](crate::invariant) macro asserts such identities at the
//! hot sites that maintain them —
//! but only when checking is compiled in:
//!
//! * **debug builds** (`debug_assertions`): always on, so every `cargo
//!   test` run checks every invariant;
//! * **release builds**: off by default, on with the `check-invariants`
//!   cargo feature (forwarded by `emesh`, `pscan`, `psync` and `bench`).
//!
//! When off, [`ENABLED`] is a compile-time `false` and the whole check —
//! condition evaluation included — is removed by the optimizer, so the
//! deterministic release goldens are byte-identical with and without the
//! feature (the `conformance` CI job asserts exactly that).
//!
//! The macro deliberately mirrors `assert!` rather than `debug_assert!`:
//! a violated invariant is a simulator bug, never a recoverable condition,
//! and the release-mode feature gate is what lets the full-scale nightly
//! sweeps run checked without taxing the PR-blocking perf gate.

/// Whether invariant checking is compiled into this build.
///
/// `true` in debug builds and in release builds with the
/// `check-invariants` feature; `false` (a compile-time constant the
/// optimizer eliminates branches on) otherwise.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "check-invariants"));

/// Assert a simulator invariant, compiled out unless
/// [`invariants::ENABLED`](crate::invariants::ENABLED).
///
/// Usage is identical to `assert!`:
///
/// ```
/// use sim_core::invariant;
/// let in_flight = 3u64;
/// let occupancy = 3u64;
/// invariant!(in_flight == occupancy, "flit conservation: {in_flight} vs {occupancy}");
/// ```
#[macro_export]
macro_rules! invariant {
    ($cond:expr $(, $($arg:tt)+)?) => {
        if $crate::invariants::ENABLED {
            assert!($cond $(, $($arg)+)?);
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_in_test_builds() {
        // Checking is on exactly in debug builds (so every plain `cargo
        // test` run checks every invariant) and under `check-invariants`.
        assert_eq!(
            super::ENABLED,
            cfg!(any(debug_assertions, feature = "check-invariants"))
        );
    }

    #[test]
    fn passing_invariant_is_silent() {
        invariant!(1 + 1 == 2);
        invariant!(true, "with a message");
        let x = 41;
        invariant!(x + 1 == 42, "formatted {x}");
    }

    #[test]
    fn failing_invariant_panics_when_enabled() {
        // Panics exactly when checking is compiled in; a release build
        // without `check-invariants` compiles the check out entirely.
        let broken = std::panic::catch_unwind(|| {
            invariant!(1 + 1 == 3, "broken invariant");
        });
        assert_eq!(broken.is_err(), super::ENABLED);
    }
}
