//! Poison-tolerant lock acquisition.
//!
//! The server's shared state sits behind `RwLock`/`Mutex`. A panic in
//! one connection handler while a guard is held poisons the lock; the
//! old `.expect(...)` acquisitions then turned *every* subsequent
//! handler's acquisition into a panic, cascading one bad request into
//! every connection's threads dying. Recovery is sound here because
//! every protected structure is kept consistent at each write: store
//! and hub writes are sink-call-shaped (append a completed row set,
//! push a completed frame) with no multi-step invariants spanning the
//! guard, a connection's outbox grows by whole frames, and reads never
//! mutate. So we take the data out of a poisoned guard and keep
//! serving.

use std::sync::{LockResult, MutexGuard, RwLockReadGuard};

/// Unwraps a lock acquisition, recovering the guard on poison.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

// Concrete aliases keep call sites honest about what they acquire.
pub(crate) fn read_recover<T>(r: LockResult<RwLockReadGuard<'_, T>>) -> RwLockReadGuard<'_, T> {
    recover(r)
}

pub(crate) fn mutex_recover<T>(r: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    recover(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn poisoned_locks_still_yield_guards() {
        let m = Arc::new(Mutex::new(7u32));
        let rw = Arc::new(RwLock::new(vec![1u8]));
        {
            let m = Arc::clone(&m);
            let rw = Arc::clone(&rw);
            let _ = std::thread::spawn(move || {
                let _g1 = m.lock().unwrap();
                let _g2 = rw.write().unwrap();
                panic!("poison both");
            })
            .join();
        }
        assert!(m.is_poisoned());
        assert!(rw.is_poisoned());
        assert_eq!(*mutex_recover(m.lock()), 7);
        assert_eq!(read_recover(rw.read()).as_slice(), &[1]);
        recover(rw.write()).push(2);
        assert_eq!(read_recover(rw.read()).as_slice(), &[1, 2]);
    }
}
