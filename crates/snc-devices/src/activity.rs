//! Bit-packed binary activity vectors.
//!
//! The hot loop of every circuit reads the device pool's binary state
//! vector once per time step. Packing the states into `u64` words (one bit
//! per device) lets consumers skip inactive devices with
//! `trailing_zeros` word scans instead of branching per device, and keeps
//! the per-step readout a handful of word stores instead of `d` bool
//! stores. [`ActivityWords`] is that packed representation; it is what
//! [`DevicePool::step`](crate::DevicePool::step) returns and what the
//! synaptic kernels in `snc-neuro` consume.
//!
//! Unused high bits of the last word are always zero, so whole-word
//! operations (`words()`, equality, popcount) need no masking on the read
//! side.

/// A fixed-length bit vector packed into `u64` words, one bit per device.
///
/// Bit `i` lives in word `i / 64` at position `i % 64`. The container is
/// cheap to clone, compare, and scan; it is the packed replacement for the
/// `&[bool]` state vectors the device pool used to emit.
///
/// # Examples
///
/// ```
/// use snc_devices::ActivityWords;
///
/// let mut a = ActivityWords::zeros(70);
/// a.set(0, true);
/// a.set(69, true);
/// assert!(a.get(0) && a.get(69) && !a.get(35));
/// // Word scan: indices of the active bits, in ascending order.
/// assert_eq!(a.iter_active().collect::<Vec<_>>(), vec![0, 69]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ActivityWords {
    words: Vec<u64>,
    len: usize,
}

impl ActivityWords {
    /// An all-zero activity vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Packs a boolean slice (index `i` of the slice becomes bit `i`).
    ///
    /// # Examples
    ///
    /// ```
    /// use snc_devices::ActivityWords;
    ///
    /// let a = ActivityWords::from_bools(&[true, false, true]);
    /// assert_eq!(a.words(), &[0b101]);
    /// assert_eq!(a.to_bools(), vec![true, false, true]);
    /// ```
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut out = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                out.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, low bit = device 0. Unused high bits of the last
    /// word are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `on`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, on: bool) {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        let mask = 1u64 << (i % 64);
        if on {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Overwrites whole word `w` (used by producers that assemble a word in
    /// a register before storing it). High bits beyond `len()` are masked
    /// off so the zero-padding invariant holds.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[inline]
    pub fn set_word(&mut self, w: usize, value: u64) {
        let bits_before = w * 64;
        let valid = self.len.saturating_sub(bits_before).min(64);
        let mask = if valid == 64 {
            u64::MAX
        } else {
            (1u64 << valid) - 1
        };
        self.words[w] = value & mask;
    }

    /// Copies another vector's bits without reallocating (the hot-path
    /// alternative to `clone_from`, which would allocate a fresh word
    /// buffer).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn copy_from(&mut self, other: &ActivityWords) {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates the indices of set bits in ascending order via
    /// `trailing_zeros` word scans — the packed kernel's column walk.
    pub fn iter_active(&self) -> ActiveBits<'_> {
        ActiveBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Unpacks to a boolean vector (diagnostics and tests; not a hot path).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Iterator over the indices of set bits (ascending), produced by
/// [`ActivityWords::iter_active`].
#[derive(Clone, Debug)]
pub struct ActiveBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for ActiveBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bools() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let packed = ActivityWords::from_bools(&bits);
            assert_eq!(packed.len(), len);
            assert_eq!(packed.to_bools(), bits);
        }
    }

    #[test]
    fn set_get_clear() {
        let mut a = ActivityWords::zeros(100);
        assert!(!a.is_empty());
        assert!(ActivityWords::zeros(0).is_empty());
        a.set(99, true);
        a.set(0, true);
        assert!(a.get(99) && a.get(0) && !a.get(50));
        assert_eq!(a.iter_active().count(), 2);
        a.set(99, false);
        assert_eq!(a.iter_active().count(), 1);
    }

    #[test]
    fn iter_active_matches_bools() {
        let bits: Vec<bool> = (0..200).map(|i| (i * 7) % 11 < 4).collect();
        let packed = ActivityWords::from_bools(&bits);
        let expected: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(packed.iter_active().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn set_word_masks_tail() {
        let mut a = ActivityWords::zeros(70);
        a.set_word(1, u64::MAX);
        // Only bits 64..70 are valid in word 1.
        assert_eq!(a.words()[1], (1u64 << 6) - 1);
        assert_eq!(a.iter_active().count(), 6);
        a.set_word(0, u64::MAX);
        assert_eq!(a.iter_active().count(), 70);
    }

    #[test]
    fn equality_is_content_based() {
        let a = ActivityWords::from_bools(&[true, false, true]);
        let mut b = ActivityWords::zeros(3);
        b.set(0, true);
        b.set(2, true);
        assert_eq!(a, b);
        b.set(1, true);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let a = ActivityWords::zeros(10);
        let _ = a.get(10);
    }
}
