//! A map whose values are built once per key, outside the map's lock.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// A memo that fills each key once, outside the map's lock: the first
/// caller for a key builds its value in the key's slot while later
/// callers for that key wait on the slot, and callers for other keys
/// wait on nothing. Entries are never evicted, so it suits key sets
/// that stay small for the process's lifetime.
#[derive(Debug)]
pub struct OnceMemo<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K, V> Default for OnceMemo<K, V> {
    fn default() -> Self {
        OnceMemo(Mutex::new(HashMap::new()))
    }
}

impl<K: Hash + Eq, V: Clone> OnceMemo<K, V> {
    /// The value for `key`, built by `build` if no caller has built it.
    ///
    /// # Panics
    ///
    /// Panics if the map's lock is poisoned.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let slot = Arc::clone(self.0.lock().expect("memo lock").entry(key).or_default());
        slot.get_or_init(build).clone()
    }

    /// The value for `key` if its slot is filled. Never builds, and
    /// gives up (`None`) rather than wait for the map's lock or a slot.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.try_lock().ok()?.get(key)?.get().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn concurrent_first_calls_build_once_in_the_slot() {
        let memo = OnceMemo::<String, Arc<u64>>::default();
        let builds = AtomicUsize::new(0);
        assert_eq!(memo.get("k"), None, "an empty memo holds nothing");
        let barrier = Barrier::new(8);
        let values: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.get_or_build("k".to_string(), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widens the window in which the other callers
                            // find the build in flight; one build holds
                            // either way.
                            std::thread::sleep(Duration::from_millis(50));
                            Arc::new(7)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller"))
                .collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per key");
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        assert!(memo.get("k").is_some_and(|v| Arc::ptr_eq(&v, &values[0])));
        assert_eq!(memo.get("other"), None);
    }
}
