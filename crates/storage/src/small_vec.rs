//! A small-vector for `Copy` types: the first `N` elements live inline (no
//! heap allocation), later elements spill into a `Vec`.
//!
//! The lock manager's hot path stores lock holders and per-transaction key
//! indexes in these so the uncontended acquire/release cycle of a typical
//! transaction (a handful of keys, a single holder per record) never touches
//! the allocator. The implementation is fully safe Rust: the inline region is
//! an array of `Option<T>` rather than `MaybeUninit`, trading a few bytes of
//! padding for not having any `unsafe` in the storage crate.

/// A vector of `Copy` elements whose first `N` entries are stored inline.
#[derive(Debug, Clone)]
pub struct SmallVec<T: Copy, const N: usize> {
    inline: [Option<T>; N],
    spill: Vec<T>,
    len: usize,
}

impl<T: Copy, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> SmallVec<T, N> {
    /// An empty vector (allocation-free).
    pub fn new() -> Self {
        Self {
            inline: [None; N],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> T {
        assert!(
            index < self.len,
            "SmallVec index {index} out of bounds {}",
            self.len
        );
        if index < N {
            self.inline[index].expect("inline slot populated below len")
        } else {
            self.spill[index - N]
        }
    }

    /// Overwrite the element at `index`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `index >= len`.
    pub fn set(&mut self, index: usize, value: T) {
        debug_assert!(index < self.len);
        if index < N {
            self.inline[index] = Some(value);
        } else {
            self.spill[index - N] = value;
        }
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = Some(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Remove and return the element at `index`, shifting later elements left
    /// (preserves order; O(len), which is fine for the small lengths this is
    /// used at).
    pub fn remove(&mut self, index: usize) -> T {
        let removed = self.get(index);
        for i in index..self.len - 1 {
            let next = self.get(i + 1);
            self.set(i, next);
        }
        if self.len > N {
            self.spill.pop();
        } else {
            self.inline[self.len - 1] = None;
        }
        self.len -= 1;
        removed
    }

    /// Remove the first element equal to `value`; returns whether one was
    /// found.
    pub fn remove_first(&mut self, value: T) -> bool
    where
        T: PartialEq,
    {
        let pos = self.iter().position(|v| v == value);
        match pos {
            Some(idx) => {
                self.remove(idx);
                true
            }
            None => false,
        }
    }

    /// Whether the vector contains `value`.
    pub fn contains(&self, value: T) -> bool
    where
        T: PartialEq,
    {
        self.iter().any(|v| v == value)
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.inline = [None; N];
        self.spill.clear();
        self.len = 0;
    }

    /// Iterate over the elements by value.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Copy, const N: usize> SmallVec<T, N> {
        /// Whether any element spilled to the heap.
        fn spilled(&self) -> bool {
            self.len > N
        }
    }

    #[test]
    fn push_get_within_inline_capacity() {
        let mut v: SmallVec<u64, 4> = SmallVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spills_past_inline_capacity() {
        let mut v: SmallVec<u64, 2> = SmallVec::new();
        for i in 0..100 {
            v.push(i);
        }
        assert_eq!(v.len(), 100);
        assert!(v.spilled());
        assert_eq!(v.iter().collect::<Vec<_>>(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn remove_shifts_across_the_spill_boundary() {
        let mut v: SmallVec<u64, 2> = SmallVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.remove(0), 0);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(v.remove(3), 4);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(v.spilled(), "len 3 > inline capacity 2");
        assert!(v.remove_first(2));
        assert!(!v.remove_first(2));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!(!v.spilled());
    }

    #[test]
    fn contains_and_clear() {
        let mut v: SmallVec<u8, 3> = SmallVec::new();
        v.push(7);
        v.push(9);
        assert!(v.contains(7));
        assert!(!v.contains(8));
        v.clear();
        assert!(v.is_empty());
        assert!(!v.contains(7));
        // Reusable after clear.
        v.push(1);
        assert_eq!(v.get(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v: SmallVec<u8, 2> = SmallVec::new();
        v.get(0);
    }
}
