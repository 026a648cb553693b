//! Data layouts (§4.3): how multi-dimensional inputs and outputs are packed
//! into ciphertext slot vectors.
//!
//! The paper's image kernels pack a 2-D image row-major with a ring of zero
//! padding ([`PaddedImage`]); reduction kernels pack a vector into the low
//! slots and read the result from slot 0 ([`ReductionLayout`]).

/// A row-major 2-D image with `pad` rings of zero padding on every side.
///
/// # Examples
///
/// ```
/// use porcupine::layout::PaddedImage;
///
/// let img = PaddedImage::new(3, 3, 1); // 3×3 interior, 5×5 packed
/// assert_eq!(img.slots(), 25);
/// assert_eq!(img.stride(), 5);
/// assert_eq!(img.index(0, 0), 6); // first interior pixel
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddedImage {
    /// Interior rows.
    pub rows: usize,
    /// Interior columns.
    pub cols: usize,
    /// Padding rings.
    pub pad: usize,
}

impl PaddedImage {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if the interior is empty.
    pub fn new(rows: usize, cols: usize, pad: usize) -> Self {
        assert!(rows > 0 && cols > 0, "image must be non-empty");
        PaddedImage { rows, cols, pad }
    }

    /// Total packed slots `(rows + 2·pad) · (cols + 2·pad)`.
    pub fn slots(&self) -> usize {
        (self.rows + 2 * self.pad) * (self.cols + 2 * self.pad)
    }

    /// Row stride of the packed vector.
    pub fn stride(&self) -> usize {
        self.cols + 2 * self.pad
    }

    /// Slot of interior pixel `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of the interior.
    pub fn index(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols, "pixel out of interior");
        (r + self.pad) * self.stride() + (c + self.pad)
    }

    /// Packs interior pixel values (row-major, length `rows·cols`) into a
    /// zero-padded slot vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn pack(&self, pixels: &[u64]) -> Vec<u64> {
        assert_eq!(pixels.len(), self.rows * self.cols, "pixel count");
        let mut slots = vec![0u64; self.slots()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                slots[self.index(r, c)] = pixels[r * self.cols + c];
            }
        }
        slots
    }

    /// Extracts the interior pixels from a slot vector.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is shorter than the layout.
    pub fn unpack(&self, slots: &[u64]) -> Vec<u64> {
        assert!(slots.len() >= self.slots(), "slot vector too short");
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(slots[self.index(r, c)]);
            }
        }
        out
    }
}

/// A packed vector of `len` elements whose kernel reduces into slot 0,
/// padded with zeros to `slots` total (so wrap-around reads stay zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionLayout {
    /// Number of data elements.
    pub len: usize,
    /// Total model slots (≥ 2·len so tree rotations never wrap into data).
    pub slots: usize,
}

impl ReductionLayout {
    /// A layout with the customary 2× zero tail.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0);
        ReductionLayout {
            len,
            slots: 2 * len,
        }
    }

    /// Packs the data elements (zero tail appended).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn pack(&self, data: &[u64]) -> Vec<u64> {
        assert_eq!(data.len(), self.len);
        let mut slots = vec![0u64; self.slots];
        slots[..self.len].copy_from_slice(data);
        slots
    }

    /// Mask selecting only slot 0 (the reduction result).
    pub fn result_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.slots];
        mask[0] = true;
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let l = PaddedImage::new(2, 3, 1);
        let pixels: Vec<u64> = (1..=6).collect();
        let slots = l.pack(&pixels);
        assert_eq!(slots.len(), 4 * 5);
        assert_eq!(l.unpack(&slots), pixels);
        // border slots are zero
        assert_eq!(slots[0], 0);
        assert_eq!(slots[4], 0);
        assert_eq!(slots[19], 0);
    }

    #[test]
    fn reduction_layout_masks_slot_zero() {
        let l = ReductionLayout::new(4);
        assert_eq!(l.slots, 8);
        let packed = l.pack(&[5, 6, 7, 8]);
        assert_eq!(packed, vec![5, 6, 7, 8, 0, 0, 0, 0]);
        let mask = l.result_mask();
        assert!(mask[0]);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 1);
    }
}
