//! Parallel iteration over disjoint mutable chunks of slices.
//!
//! These helpers express the ubiquitous throughput-computing pattern "each
//! thread owns a contiguous tile of the output array" without requiring
//! callers to write unsafe code.

use crate::ThreadPool;

/// A raw pointer that may cross thread boundaries.
///
/// Safety rests on the chunk arithmetic below handing each thread a
/// disjoint region.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced through disjoint [lo, hi) chunk
// windows computed below, so concurrent access never aliases.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor method (rather than field access) so closures capture the
    /// whole `SendPtr` — edition-2021 disjoint capture would otherwise grab
    /// the raw pointer field, which is not `Sync`.
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Calls `body(chunk_index, chunk)` for every `chunk_len`-sized chunk of
/// `data`, in parallel. The final chunk may be shorter.
///
/// Chunks are disjoint, so each invocation gets exclusive access to its
/// piece — the safe equivalent of OpenMP's canonical
/// `parallel for` over an output array.
///
/// ```
/// use ninja_parallel::{par_chunks_mut, ThreadPool};
///
/// let pool = ThreadPool::with_threads(2);
/// let mut data = vec![0usize; 100];
/// par_chunks_mut(&pool, &mut data, 16, |idx, chunk| {
///     for x in chunk.iter_mut() {
///         *x = idx;
///     }
/// });
/// assert_eq!(data[0], 0);
/// assert_eq!(data[99], 6);
/// ```
pub fn par_chunks_mut<T, F>(pool: &ThreadPool, data: &mut [T], chunk_len: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    pool.parallel_for(0..n_chunks, 1, move |r| {
        for i in r {
            let lo = i * chunk_len;
            let hi = (lo + chunk_len).min(len);
            // SAFETY: [lo, hi) ranges for distinct i are disjoint and within
            // `data`, which outlives this call (parallel_for blocks).
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            body(i, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_whole_slice() {
        let pool = ThreadPool::with_threads(4);
        let mut data = vec![0u32; 1003];
        par_chunks_mut(&pool, &mut data, 64, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let pool = ThreadPool::with_threads(3);
        let mut data = vec![usize::MAX; 100];
        par_chunks_mut(&pool, &mut data, 9, |idx, chunk| {
            for x in chunk.iter_mut() {
                *x = idx;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 9);
        }
    }

    #[test]
    fn empty_slice_is_noop() {
        let pool = ThreadPool::with_threads(2);
        let mut data: Vec<u8> = Vec::new();
        par_chunks_mut(&pool, &mut data, 8, |_, _| panic!("must not run"));
    }

    #[test]
    fn last_chunk_may_be_short() {
        let pool = ThreadPool::with_threads(2);
        let mut data = vec![0usize; 10];
        par_chunks_mut(&pool, &mut data, 4, |idx, chunk| {
            if idx == 2 {
                assert_eq!(chunk.len(), 2);
            } else {
                assert_eq!(chunk.len(), 4);
            }
        });
    }
}
