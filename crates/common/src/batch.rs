//! A reusable batch buffer for vectorized operator execution.
//!
//! The executor's pull interface moves tuples between operators in chunks
//! instead of one at a time, amortizing per-call dispatch (virtual calls,
//! metric updates, budget accounting) over many tuples.  The
//! chunks travel in a [`Batch`]: a thin wrapper over `Vec<T>` whose point is
//! to be *reused* — the driver clears it between pulls, so after warm-up no
//! per-batch allocation happens on the hot path.

use std::ops::{Deref, DerefMut};

/// The default number of tuples per batch.
///
/// Large enough that per-batch overheads (one virtual dispatch, one metrics
/// update, one budget charge) vanish against per-tuple work; small enough
/// that a batch of joined tuples stays cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A reusable buffer of items flowing between batched operators.
///
/// Dereferences to `Vec<T>`, so all the usual vector operations apply.  The
/// one behavioural promise on top of `Vec` is reuse: [`Batch::clear`] keeps
/// the allocation, so a driver looping `clear` → `next_batch` allocates only
/// on the first iteration (and on capacity growth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch<T> {
    items: Vec<T>,
}

impl<T> Batch<T> {
    /// An empty batch with no capacity reserved yet.
    pub fn new() -> Self {
        Batch { items: Vec::new() }
    }

    /// An empty batch with room for `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        Batch {
            items: Vec::with_capacity(capacity),
        }
    }

    /// Removes all items, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Consumes the batch, returning the underlying vector.
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }
}

impl<T> Default for Batch<T> {
    fn default() -> Self {
        Batch::new()
    }
}

impl<T> Deref for Batch<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.items
    }
}

impl<T> DerefMut for Batch<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.items
    }
}

impl<T> From<Vec<T>> for Batch<T> {
    fn from(items: Vec<T>) -> Self {
        Batch { items }
    }
}

impl<T> IntoIterator for Batch<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Batch<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_reuses_its_allocation() {
        let mut b: Batch<u64> = Batch::with_capacity(8);
        b.extend(0..8);
        assert_eq!(b.len(), 8);
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "clear must keep the allocation");
        b.push(42);
        assert_eq!(b[0], 42);
    }

    #[test]
    fn batch_converts_to_and_from_vec() {
        let b: Batch<i32> = vec![1, 2, 3].into();
        assert_eq!(b.iter().sum::<i32>(), 6);
        let v = b.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        let collected: Vec<i32> = Batch::from(v).into_iter().collect();
        assert_eq!(collected, vec![1, 2, 3]);
    }
}
