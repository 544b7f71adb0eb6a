//! Seeded violation: bare `.unwrap()`/`.expect(…)` on lock results —
//! poison bombs that clippy's denied `unwrap_used`/`expect_used` catch
//! (CI checks lines 18, 26 and 32). One panicking worker poisons the
//! mutex; every later `.unwrap()` then takes the whole process down
//! instead of recovering the still-valid state. The disciplined twin
//! routes the result through a poison-tolerant helper and stays clean.

use std::sync::{Mutex, MutexGuard, RwLock};

pub struct Board {
    tiles: Mutex<Vec<u32>>,
    scores: RwLock<Vec<u32>>,
}

impl Board {
    /// Violation: panics the whole worker if a sibling panicked first.
    pub fn bump(&self, i: usize) {
        let mut tiles = self.tiles.lock().unwrap();
        if let Some(t) = tiles.get_mut(i) {
            *t += 1;
        }
    }

    /// Violation: `.expect(…)` is the same bomb with a nicer label.
    pub fn top(&self) -> u32 {
        let scores = self.scores.read().expect("scores poisoned");
        scores.first().copied().unwrap_or(0)
    }

    /// Violation: consuming the mutex hits the same poison flag.
    pub fn into_tiles(self) -> Vec<u32> {
        self.tiles.into_inner().unwrap()
    }

    /// The disciplined twin: poison-tolerant, no finding.
    pub fn bump_tolerant(&self, i: usize) {
        let mut tiles = lock_tolerant(&self.tiles);
        if let Some(t) = tiles.get_mut(i) {
            *t += 1;
        }
    }
}

fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
