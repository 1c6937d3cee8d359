//! Countdown latch used to wait for stack-borrowed jobs to finish.

use parking_lot::{Condvar, Mutex};

/// A counter that threads decrement as they finish; `wait` blocks until it
/// reaches zero.
///
/// Used to guarantee that every job referencing stack data has completed
/// before the frame owning that data returns — and the latch itself lives
/// in that frame. So the count is only ever read or written under the
/// lock: the waiter can observe zero only after the last `count_down` has
/// released the mutex, which is that helper's final touch of `self`. (A
/// lock-free decrement would let `wait` return, and the frame die, while
/// the helper was still on its way to notify.)
pub(crate) struct CountLatch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl CountLatch {
    pub(crate) fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            cv: Condvar::new(),
        }
    }

    /// Decrements the counter, waking waiters when it hits zero.
    pub(crate) fn count_down(&self) {
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            // Notify before the guard drops: once the lock is released a
            // waiter may return and free the latch.
            self.cv.notify_all();
        }
    }

    /// Blocks until the counter reaches zero.
    pub(crate) fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining != 0 {
            self.cv.wait(&mut remaining);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_count_returns_immediately() {
        CountLatch::new(0).wait();
    }

    #[test]
    fn wait_blocks_until_all_count_down() {
        let latch = Arc::new(CountLatch::new(3));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let l = Arc::clone(&latch);
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                l.count_down();
            }));
        }
        latch.wait();
        for h in handles {
            h.join().unwrap();
        }
    }
}
