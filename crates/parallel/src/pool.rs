use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// A mutex-guarded free list of `T`s: the one pool type. Per-worker
/// scratch and per-round buffers are checked out of one and handed back,
/// so after the first round a run reuses warm capacity.
#[derive(Debug)]
pub struct Pool<T>(Mutex<Vec<T>>);

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self(Mutex::default())
    }
}

impl<T> Pool<T> {
    /// Pops a pooled value, or builds one with `make` when the pool is dry.
    /// The value is as its last user left it. Panics if a panicking holder
    /// poisoned the lock.
    pub fn take(&self, make: impl FnOnce() -> T) -> T {
        let pooled = self.0.lock().expect("pool poisoned").pop();
        pooled.unwrap_or_else(make)
    }

    /// Returns a value to the pool, or drops it when a panicking holder
    /// poisoned the lock: panicking again, maybe in a `Drop`, is worse.
    pub fn put(&self, value: T) {
        if let Ok(mut free) = self.0.lock() {
            free.push(value);
        }
    }

    /// [`Pool::take`] behind a guard that puts the value back on drop.
    pub fn checkout(&self, make: impl FnOnce() -> T) -> Checkout<'_, T> {
        Checkout(self, Some(self.take(make)))
    }
}

impl<T> Pool<Vec<T>> {
    /// An empty buffer that keeps the capacity it grew before.
    pub fn take_empty(&self) -> Vec<T> {
        let mut buf = self.take(Vec::new);
        buf.clear();
        buf
    }
}

/// A value checked out of a [`Pool`] (held until drop, then put back).
#[derive(Debug)]
pub struct Checkout<'a, T>(&'a Pool<T>, Option<T>);

impl<T> Deref for Checkout<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.1.as_ref().expect("held until drop")
    }
}

impl<T> DerefMut for Checkout<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.1.as_mut().expect("held until drop")
    }
}

impl<T> Drop for Checkout<'_, T> {
    fn drop(&mut self) {
        if let Some(value) = self.1.take() {
            self.0.put(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_checkout_returns_its_value_on_drop() {
        let pool = Pool::default();
        {
            let mut held = pool.checkout(|| vec![1u8]);
            held.push(2);
            assert_eq!(pool.0.lock().unwrap().len(), 0, "held, not pooled");
        }
        assert_eq!(pool.0.lock().unwrap().len(), 1);
        // The next checkout gets the value back as it was left, not `make`'s.
        let again = pool.checkout(|| unreachable!("the pool is not dry"));
        assert_eq!(*again, vec![1, 2]);
    }

    #[test]
    fn take_hands_back_the_capacity_put_stored() {
        let pool: Pool<Vec<u64>> = Pool::default();
        let mut buf = Vec::with_capacity(100);
        buf.extend(0..10);
        let ptr = buf.as_ptr();
        pool.put(buf);
        let empty = pool.take_empty();
        assert!(empty.is_empty());
        assert!(empty.capacity() >= 100);
        assert_eq!(empty.as_ptr(), ptr, "the same allocation");
        pool.put(empty);
        let kept = pool.take(Vec::new);
        assert_eq!(kept.as_ptr(), ptr);
        // A dry pool builds with `make`.
        assert_eq!(pool.take(|| vec![7]), vec![7]);
    }

    #[test]
    fn put_after_a_panicking_holder_poisoned_the_lock_drops_the_value() {
        let pool = Arc::new(Pool::default());
        let holder = Arc::clone(&pool);
        let panicked = std::thread::spawn(move || {
            let _free = holder.0.lock().unwrap();
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(pool.0.is_poisoned());
        let value = Arc::new(());
        pool.put(Arc::clone(&value));
        assert_eq!(Arc::strong_count(&value), 1, "the put value was dropped");
    }
}
