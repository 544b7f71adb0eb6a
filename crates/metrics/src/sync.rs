//! Poison-consistent lock helpers shared across the workspace.
//!
//! Every `Mutex` in this codebase guards *restartable* state — retained
//! scratch buffers, trace-event buffers, running aggregation sums — whose
//! bytes stay valid even if the thread holding the guard panicked: the
//! critical sections are pure stores with no multi-step invariant that a
//! mid-section unwind could tear. A poisoned lock therefore carries no
//! extra information (the worker panic itself is re-raised by the scoped
//! join that observes it), and bare `.lock().unwrap()` would only convert
//! one panic into a second, less informative one on an innocent thread.
//!
//! The workspace-wide rule — enforced statically by clippy's
//! `unwrap_used`/`expect_used`, denied in every library crate that
//! `subfed-lint check` scans — is that lock results never meet a bare
//! `.unwrap()`/`.expect(…)`: they go through these
//! helpers (or an explicit `match` on [`PoisonError`]), so the poisoning
//! policy is written down in exactly one place.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquires `m`, recovering the guard from a poisoned lock.
///
/// Use this instead of `.lock().unwrap()` wherever the guarded state is
/// valid regardless of panics (see the module docs for why that is every
/// mutex in this workspace).
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        // A sibling thread panicking mid-section poisons the mutex; the
        // guarded bytes are still valid, and the original panic is
        // re-raised by whoever joins that thread.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Blocks on `cv`, recovering the reacquired guard from a poisoned lock.
///
/// The condition-variable counterpart of [`lock_unpoisoned`]: waiting
/// releases the mutex and reacquires it on wakeup, and that reacquisition
/// can observe poison exactly like a fresh `lock()` — the same policy
/// applies. Callers must re-check their condition in a loop (spurious
/// wakeups are allowed), which every `Condvar` user does anyway.
pub fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        // Same reasoning as `lock_unpoisoned`: the guarded bytes are
        // still valid, and the panic re-raises at the worker's join.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Consumes `m` and returns the guarded value, ignoring poison.
///
/// The by-value counterpart of [`lock_unpoisoned`], for tearing a lock
/// down after all sharing ends (e.g. collapsing per-shard accumulators
/// once the round's workers have joined).
pub fn into_inner_unpoisoned<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_into_inner_round_trip() {
        let m = Mutex::new(7u32);
        *lock_unpoisoned(&m) += 1;
        assert_eq!(into_inner_unpoisoned(m), 8);
    }

    #[test]
    fn wait_wakes_on_notify() {
        use std::sync::Condvar;
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let shared2 = Arc::clone(&shared);
        let waker = std::thread::spawn(move || {
            let (m, cv) = &*shared2;
            *lock_unpoisoned(m) = true;
            cv.notify_all();
        });
        let (m, cv) = &*shared;
        let mut ready = lock_unpoisoned(m);
        while !*ready {
            ready = wait_unpoisoned(cv, ready);
        }
        drop(ready);
        waker.join().expect("waker thread");
    }

    #[test]
    fn poisoned_lock_still_yields_the_value() {
        let m = Arc::new(Mutex::new(41u32));
        let m2 = Arc::clone(&m);
        let worker = std::thread::spawn(move || {
            let _guard = m2.lock().expect("first acquisition cannot be poisoned");
            panic!("poison the lock");
        });
        assert!(worker.join().is_err());
        assert!(m.is_poisoned());
        *lock_unpoisoned(&m) += 1;
        let m = Arc::into_inner(m).expect("worker has been joined");
        assert_eq!(into_inner_unpoisoned(m), 42);
    }
}
