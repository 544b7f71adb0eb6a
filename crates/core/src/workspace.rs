//! Cross-thread pooling of training workspaces.
//!
//! [`subfed_tensor::workspace::Workspace`] is single-threaded by design;
//! a [`WorkspacePool`] shares the retained buffers across the federation's
//! worker threads so each *client slot* — not each client training call —
//! pays the allocation cost once. Workers check a workspace out for the
//! duration of one client's local training and return it on drop, so a
//! `threads = T` federation stabilises at `T` live workspaces regardless
//! of how many clients or rounds run.
//!
//! Reuse never changes results. Layers draw their temporaries with
//! `Workspace::take_scratch`, whose contents are unspecified, and write
//! every scratch element before reading it: the `scratch-before-read`
//! lint rule checks that statically, and `workspace_reuse_is_bit_identical`
//! (`engine.rs`) and the NaN-dirtied-workspace tests in `subfed-nn` check
//! it at run time.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};
use subfed_metrics::sync::lock_unpoisoned;
use subfed_tensor::workspace::Workspace;

/// A shared pool of [`Workspace`]s, cloneable across threads (clones share
/// the same underlying pool).
#[derive(Debug, Clone, Default)]
pub struct WorkspacePool {
    inner: Arc<Mutex<Vec<Workspace>>>,
}

fn lock_pool(inner: &Mutex<Vec<Workspace>>) -> MutexGuard<'_, Vec<Workspace>> {
    // A worker panicking mid-round poisons the mutex; the pool holds
    // only scratch buffers, so the state is still valid to reuse — the
    // workspace-wide poisoning policy (subfed_metrics::sync).
    lock_unpoisoned(inner)
}

impl WorkspacePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a workspace out of the pool (allocating an empty one if none
    /// is free). The guard returns it on drop.
    pub fn acquire(&self) -> PooledWorkspace {
        let ws = lock_pool(&self.inner).pop().unwrap_or_default();
        PooledWorkspace { pool: Arc::clone(&self.inner), ws: Some(ws) }
    }

    /// Number of workspaces currently checked in (test/diagnostic aid).
    pub fn idle(&self) -> usize {
        lock_pool(&self.inner).len()
    }
}

/// RAII guard around a checked-out [`Workspace`]; derefs to the workspace
/// and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace {
    pool: Arc<Mutex<Vec<Workspace>>>,
    ws: Option<Workspace>,
}

impl Deref for PooledWorkspace {
    type Target = Workspace;

    fn deref(&self) -> &Workspace {
        match &self.ws {
            Some(ws) => ws,
            // `ws` is only `None` after `drop` has run.
            None => unreachable!("workspace accessed after drop"),
        }
    }
}

impl DerefMut for PooledWorkspace {
    fn deref_mut(&mut self) -> &mut Workspace {
        match &mut self.ws {
            Some(ws) => ws,
            // `ws` is only `None` after `drop` has run.
            None => unreachable!("workspace accessed after drop"),
        }
    }
}

impl Drop for PooledWorkspace {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            lock_pool(&self.pool).push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_and_drop_round_trips() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut guard = pool.acquire();
            let buf = guard.take(128);
            guard.put(buf);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 1);
        // The retained buffer survives the round trip.
        let guard = pool.acquire();
        assert_eq!(guard.retained(), 1);
    }

    #[test]
    fn clones_share_the_pool() {
        let pool = WorkspacePool::new();
        let clone = pool.clone();
        drop(clone.acquire());
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn concurrent_acquire_yields_distinct_workspaces() {
        let pool = WorkspacePool::new();
        let a = pool.acquire();
        let b = pool.acquire();
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
    }
}
