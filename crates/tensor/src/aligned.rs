//! Cache-line-aligned `f64` buffers.
//!
//! The volume tensors and scratch of the optimized kernels are aligned to
//! the SIMD register size so that every padded slice starts on an aligned
//! address (paper, Sec. III-A). We align to 64 bytes, which covers AVX-512
//! registers and the cache-line size used throughout the performance model.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment (bytes) of every [`AlignedVec`] allocation: one cache line /
/// one AVX-512 register.
pub const ALIGNMENT: usize = 64;

/// A fixed-size, 64-byte-aligned, heap-allocated `f64` buffer.
///
/// Unlike `Vec<f64>`, the allocation is guaranteed to start on a 64-byte
/// boundary, and the buffer cannot grow — kernel plans size their
/// temporaries once. The buffer is zero-initialized, which doubles as the
/// zero-padding guarantee for padded tensor layouts.
pub struct AlignedVec {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively; `f64` is Send + Sync.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Allocates a zero-filled buffer of `len` doubles.
    ///
    /// A zero-length buffer performs no allocation.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: NonNull::<f64>::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f64>()) else {
            handle_alloc_error(layout);
        };
        Self { ptr, len }
    }

    /// Allocates an aligned copy of `src`.
    pub fn from_slice(src: &[f64]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.as_mut_slice().copy_from_slice(src);
        v
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<f64>(), ALIGNMENT)
            // PANIC-OK: a buffer bigger than isize::MAX bytes is already
            // an unrecoverable programming error.
            .expect("AlignedVec layout overflow")
    }

    /// Number of doubles in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: ptr is valid for len reads (owned allocation).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: ptr is valid for len reads/writes and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Resets every element to zero (restores the padding invariant).
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Base address of the allocation, for alignment checks and the cache
    /// simulator's address traces.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.ptr.as_ptr() as usize
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: allocated in `zeroed` with the same layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
        }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl Deref for AlignedVec {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedVec")
            .field("len", &self.len)
            .field("data", &self.as_slice())
            .finish()
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<f64>> for AlignedVec {
    fn from(v: Vec<f64>) -> Self {
        Self::from_slice(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let v = AlignedVec::zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.base_addr() % ALIGNMENT, 0);
    }

    #[test]
    fn empty_buffer() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f64]);
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn from_slice_roundtrip() {
        let data: Vec<f64> = (0..257).map(|i| i as f64 * 0.5).collect();
        let v = AlignedVec::from_slice(&data);
        assert_eq!(v.as_slice(), data.as_slice());
        assert_eq!(v.base_addr() % ALIGNMENT, 0);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedVec::from_slice(&[1.0, 2.0, 3.0]);
        let b = a.clone();
        a[0] = 99.0;
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a[0], 99.0);
    }

    #[test]
    fn mutation_through_deref() {
        let mut v = AlignedVec::zeroed(8);
        for (i, x) in v.iter_mut().enumerate() {
            *x = i as f64;
        }
        assert_eq!(v[7], 7.0);
        v.fill_zero();
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn odd_sizes_stay_aligned() {
        for len in [1, 3, 7, 9, 63, 65, 127] {
            let v = AlignedVec::zeroed(len);
            assert_eq!(v.base_addr() % ALIGNMENT, 0, "len={len}");
            assert_eq!(v.len(), len);
        }
    }
}
