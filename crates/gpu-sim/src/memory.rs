//! Device memory: global, shared, local, and constant spaces.
//!
//! Global memory uses a bump allocator with a reserved null page, so that
//! fault-corrupted pointers near zero fault instead of silently aliasing the
//! first allocation — mirroring how corrupted addresses on real GPUs usually
//! produce "illegal address" errors.

use crate::trap::TrapKind;
use gpu_isa::{MemWidth, Space};
use std::fmt;
use std::sync::Arc;

/// A device pointer into global memory (32-bit address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevPtr(pub u32);

impl DevPtr {
    /// The byte address as `u32` (what kernels receive as a parameter).
    #[inline]
    pub fn addr(self) -> u32 {
        self.0
    }

    /// Pointer displaced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u32) -> DevPtr {
        DevPtr(self.0 + bytes)
    }
}

impl fmt::Display for DevPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{:#x}", self.0)
    }
}

/// Errors from host-side memory operations (allocation, copies).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// The allocation would exceed device capacity.
    OutOfMemory {
        /// Requested size in bytes.
        requested: u32,
        /// Bytes remaining.
        available: u32,
    },
    /// A host copy touched unallocated memory.
    BadCopy {
        /// Faulting byte address.
        addr: u32,
        /// Length of the attempted copy.
        len: u32,
    },
    /// The allocation would push total live allocations past the resource
    /// governor's cap ([`crate::ResourceLimits::max_global_bytes`]) — fired
    /// before the device itself runs out, so a fault-corrupted allocation
    /// size becomes a sandbox kill rather than a host OOM.
    LimitExceeded {
        /// Bytes requested by this allocation.
        requested: u32,
        /// The configured cap in bytes.
        limit: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { requested, available } => {
                write!(
                    f,
                    "device out of memory: requested {requested} bytes, {available} available"
                )
            }
            MemError::BadCopy { addr, len } => {
                write!(f, "host copy of {len} bytes at {addr:#x} touches unallocated memory")
            }
            MemError::LimitExceeded { requested, limit } => {
                write!(
                    f,
                    "allocation of {requested} bytes exceeds the resource governor's \
                     {limit}-byte global-memory cap"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

const NULL_PAGE: u32 = 4096;

/// Page granularity of global memory (one null page's worth).
pub const PAGE_SIZE: u32 = 4096;

type Page = [u8; PAGE_SIZE as usize];

/// A zero page is represented as `None` — untouched memory costs nothing.
type PageSlot = Option<Arc<Page>>;

/// An O(allocated-pages) copy-on-write snapshot of [`GlobalMem`].
///
/// Taking one clones only the page table (one `Arc` pointer per resident
/// page, `None` per untouched page, up to the allocation break), never page
/// contents. Restoring copies the page table back in; pages are shared
/// until the next write dirties them. Snapshots are `Send + Sync`, so
/// checkpoint stores can hand the same snapshot to many injection workers.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    pages: Vec<PageSlot>,
    brk: u32,
    capacity: u32,
}

impl MemSnapshot {
    /// Number of resident (non-zero, materialized) pages captured.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Allocation break captured by the snapshot.
    pub fn brk(&self) -> u32 {
        self.brk
    }
}

/// Device global memory: a bump-allocated, bounds-checked address space
/// backed by copy-on-write pages.
///
/// The page table covers only the allocated range `[0, brk)` and grows with
/// [`GlobalMem::alloc`]; `capacity` bounds it. Pages start as `None`
/// (implicitly all-zero), so allocating costs one pointer-sized slot per
/// page rather than zeroed bytes. Writes materialize pages;
/// [`GlobalMem::snapshot`] and [`GlobalMem::restore`] share them by
/// reference count.
#[derive(Debug, Clone)]
pub struct GlobalMem {
    /// `⌈brk / PAGE_SIZE⌉` slots: every access is checked against `brk`
    /// first, so no in-bounds address indexes past the table.
    pages: Vec<PageSlot>,
    capacity: u32,
    brk: u32,
    alloc_limit: Option<u32>,
}

impl GlobalMem {
    /// Create a device memory of `capacity` bytes (plus the null page).
    pub fn new(capacity: u32) -> GlobalMem {
        let total = NULL_PAGE as u64 + capacity as u64;
        GlobalMem {
            pages: vec![None; page_slots(NULL_PAGE)],
            capacity: total as u32,
            brk: NULL_PAGE,
            alloc_limit: None,
        }
    }

    /// Arm (or disarm) the resource governor's allocation cap. While set,
    /// [`GlobalMem::alloc`] fails with [`MemError::LimitExceeded`] once
    /// total allocated bytes would pass `limit` — before the device itself
    /// runs out of capacity.
    pub fn set_alloc_limit(&mut self, limit: Option<u32>) {
        self.alloc_limit = limit;
    }

    /// Allocate `size` bytes aligned to 256 (like `cudaMalloc`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LimitExceeded`] when a governor cap is armed and
    /// breached, or [`MemError::OutOfMemory`] when capacity is exhausted.
    pub fn alloc(&mut self, size: u32) -> Result<DevPtr, MemError> {
        let aligned = self.brk.next_multiple_of(256);
        let end = aligned as u64 + size as u64;
        if let Some(limit) = self.alloc_limit {
            if end - NULL_PAGE as u64 > limit as u64 {
                return Err(MemError::LimitExceeded { requested: size, limit });
            }
        }
        if end > self.capacity as u64 {
            return Err(MemError::OutOfMemory {
                requested: size,
                available: (self.capacity as u64).saturating_sub(aligned as u64) as u32,
            });
        }
        self.brk = end as u32;
        self.pages.resize(page_slots(self.brk), None);
        Ok(DevPtr(aligned))
    }

    /// Bytes currently allocated (excluding the null page).
    pub fn allocated(&self) -> u32 {
        self.brk - NULL_PAGE
    }

    /// Number of materialized (written-to) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Capture a copy-on-write snapshot of the current contents.
    ///
    /// Cost is one slot per allocated page and one refcount bump per
    /// resident page — independent of capacity and of how many bytes the
    /// pages hold.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot { pages: self.pages.clone(), brk: self.brk, capacity: self.capacity }
    }

    /// Like [`GlobalMem::snapshot`], but first every resident page whose
    /// bytes equal the page in the same slot of `prev` takes `prev`'s copy,
    /// here and in the new snapshot. A page that a launch rewrote with
    /// unchanged bytes is then stored once across consecutive snapshots.
    /// Contents are unchanged.
    pub fn snapshot_sharing(&mut self, prev: &MemSnapshot) -> MemSnapshot {
        for (slot, old) in self.pages.iter_mut().zip(&prev.pages) {
            let equal = matches!(
                (&*slot, old),
                (Some(page), Some(old)) if !Arc::ptr_eq(page, old) && page[..] == old[..]
            );
            if equal {
                slot.clone_from(old);
            }
        }
        self.snapshot()
    }

    /// Restore contents and allocation state from a snapshot.
    ///
    /// The snapshot's pages are shared, not copied; subsequent writes to
    /// either side dirty only the touched page. The page table is copied
    /// into the existing allocation, and slots past the snapshot's `brk`
    /// are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a device of a different capacity.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        assert_eq!(
            self.capacity, snap.capacity,
            "snapshot restored onto a device of different capacity"
        );
        self.pages.clone_from(&snap.pages);
        self.brk = snap.brk;
    }

    /// `true` if the contents and allocation break equal the snapshot's —
    /// the test for a run being back in sync with a golden checkpoint.
    ///
    /// Pages still shared with the snapshot compare by pointer; only pages
    /// written since are compared byte for byte, and a `None` page equals
    /// a resident page of zeros.
    pub fn matches(&self, snap: &MemSnapshot) -> bool {
        self.brk == snap.brk
            && self.pages.iter().zip(&snap.pages).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a[..] == b[..],
                (None, None) => true,
                (Some(p), None) | (None, Some(p)) => p.iter().all(|&x| x == 0),
            })
    }

    /// Mutable access to the page containing `addr`, materializing or
    /// un-sharing it as needed (the copy-on-write fault path).
    #[inline]
    fn page_mut(&mut self, addr: usize) -> &mut Page {
        let slot = &mut self.pages[addr / PAGE_SIZE as usize];
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize])))
    }

    /// Copy `dst.len()` bytes out, spanning pages as needed (range already
    /// bounds-checked).
    fn read_bytes(&self, addr: u32, dst: &mut [u8]) {
        let mut off = addr as usize;
        let mut done = 0;
        while done < dst.len() {
            let in_page = off % PAGE_SIZE as usize;
            let run = (PAGE_SIZE as usize - in_page).min(dst.len() - done);
            match &self.pages[off / PAGE_SIZE as usize] {
                Some(page) => dst[done..done + run].copy_from_slice(&page[in_page..in_page + run]),
                None => dst[done..done + run].fill(0),
            }
            off += run;
            done += run;
        }
    }

    /// Copy `src` in, spanning pages as needed (range already
    /// bounds-checked).
    fn write_bytes(&mut self, addr: u32, src: &[u8]) {
        let mut off = addr as usize;
        let mut done = 0;
        while done < src.len() {
            let in_page = off % PAGE_SIZE as usize;
            let run = (PAGE_SIZE as usize - in_page).min(src.len() - done);
            let page = self.page_mut(off);
            page[in_page..in_page + run].copy_from_slice(&src[done..done + run]);
            off += run;
            done += run;
        }
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        let end = addr as u64 + len as u64;
        if addr < NULL_PAGE || end > self.brk as u64 {
            Err(MemError::BadCopy { addr, len })
        } else {
            Ok(addr as usize)
        }
    }

    /// Host-side copy into device memory (`cudaMemcpy` host→device).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn copy_from_host(&mut self, dst: DevPtr, src: &[u8]) -> Result<(), MemError> {
        self.check(dst.0, src.len() as u32)?;
        self.write_bytes(dst.0, src);
        Ok(())
    }

    /// Host-side copy out of device memory (`cudaMemcpy` device→host).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn copy_to_host(&self, src: DevPtr, dst: &mut [u8]) -> Result<(), MemError> {
        self.check(src.0, dst.len() as u32)?;
        self.read_bytes(src.0, dst);
        Ok(())
    }

    /// Host-side typed write of an `f32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn write_f32s(&mut self, dst: DevPtr, values: &[f32]) -> Result<(), MemError> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_from_host(dst, &bytes)
    }

    /// Host-side typed read of an `f32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn read_f32s(&self, src: DevPtr, count: usize) -> Result<Vec<f32>, MemError> {
        let mut bytes = vec![0u8; count * 4];
        self.copy_to_host(src, &mut bytes)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Host-side typed write of a `u32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn write_u32s(&mut self, dst: DevPtr, values: &[u32]) -> Result<(), MemError> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_from_host(dst, &bytes)
    }

    /// Host-side typed read of a `u32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn read_u32s(&self, src: DevPtr, count: usize) -> Result<Vec<u32>, MemError> {
        let mut bytes = vec![0u8; count * 4];
        self.copy_to_host(src, &mut bytes)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Host-side typed write of an `f64` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn write_f64s(&mut self, dst: DevPtr, values: &[f64]) -> Result<(), MemError> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.copy_from_host(dst, &bytes)
    }

    /// Host-side typed read of an `f64` slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadCopy`] if the range is not fully allocated.
    pub fn read_f64s(&self, src: DevPtr, count: usize) -> Result<Vec<f64>, MemError> {
        let mut bytes = vec![0u8; count * 8];
        self.copy_to_host(src, &mut bytes)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Device-side load (bounds- and alignment-checked).
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn load(&self, addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
        let w = width.bytes();
        device_check(Space::Global, addr, w, NULL_PAGE, self.brk)?;
        // Aligned accesses of ≤ 8 bytes never straddle a page boundary.
        match &self.pages[addr as usize / PAGE_SIZE as usize] {
            Some(page) => Ok(load_le(&page[..], addr as usize % PAGE_SIZE as usize, w)),
            None => Ok(0),
        }
    }

    /// Device-side store (bounds- and alignment-checked).
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn store(&mut self, addr: u32, width: MemWidth, value: u64) -> Result<(), TrapKind> {
        let w = width.bytes();
        device_check(Space::Global, addr, w, NULL_PAGE, self.brk)?;
        // Aligned accesses of ≤ 8 bytes never straddle a page boundary.
        let page = self.page_mut(addr as usize);
        store_le(&mut page[..], addr as usize % PAGE_SIZE as usize, w, value);
        Ok(())
    }
}

/// Per-block shared memory (scratchpad).
#[derive(Debug, Clone)]
pub struct SharedMem {
    data: Vec<u8>,
}

impl SharedMem {
    /// Create a shared memory of `size` bytes, zero-initialized.
    pub fn new(size: u32) -> SharedMem {
        SharedMem { data: vec![0; size as usize] }
    }

    /// Size in bytes.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// `true` if the block declared no shared memory.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device-side load.
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn load(&self, addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
        let w = width.bytes();
        device_check(Space::Shared, addr, w, 0, self.data.len() as u32)?;
        Ok(load_le(&self.data, addr as usize, w))
    }

    /// Device-side store.
    ///
    /// # Errors
    ///
    /// Returns the [`TrapKind`] a faulting access raises on device.
    #[inline]
    pub fn store(&mut self, addr: u32, width: MemWidth, value: u64) -> Result<(), TrapKind> {
        let w = width.bytes();
        device_check(Space::Shared, addr, w, 0, self.data.len() as u32)?;
        store_le(&mut self.data, addr as usize, w, value);
        Ok(())
    }
}

/// Page-table slots covering `[0, brk)`.
#[inline]
fn page_slots(brk: u32) -> usize {
    brk.div_ceil(PAGE_SIZE) as usize
}

/// Bounds + alignment check shared by all spaces.
#[inline]
fn device_check(space: Space, addr: u32, width: u32, lo: u32, hi: u32) -> Result<(), TrapKind> {
    if !addr.is_multiple_of(width) {
        return Err(TrapKind::Misaligned { space, addr, align: width });
    }
    let end = addr as u64 + width as u64;
    if addr < lo || end > hi as u64 {
        return Err(TrapKind::OutOfBounds { space, addr, width });
    }
    Ok(())
}

/// The `N` bytes at `off`.
#[inline]
fn bytes_at<const N: usize>(data: &[u8], off: usize) -> [u8; N] {
    data[off..off + N].try_into().expect("slice of length N")
}

/// Little-endian load of `width` bytes (width ∈ {1,2,4,8}).
#[inline]
fn load_le(data: &[u8], off: usize, width: u32) -> u64 {
    match width {
        1 => data[off] as u64,
        2 => u16::from_le_bytes(bytes_at(data, off)) as u64,
        4 => u32::from_le_bytes(bytes_at(data, off)) as u64,
        _ => u64::from_le_bytes(bytes_at(data, off)),
    }
}

/// Little-endian store of `width` bytes (width ∈ {1,2,4,8}).
#[inline]
fn store_le(data: &mut [u8], off: usize, width: u32, value: u64) {
    match width {
        1 => data[off] = value as u8,
        2 => data[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
        4 => data[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
        _ => data[off..off + 8].copy_from_slice(&value.to_le_bytes()),
    }
}

/// Device-side load from per-thread local memory.
///
/// # Errors
///
/// Returns the [`TrapKind`] a faulting access raises on device.
#[inline]
pub fn local_load(local: &[u8], addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
    let w = width.bytes();
    device_check(Space::Local, addr, w, 0, local.len() as u32)?;
    Ok(load_le(local, addr as usize, w))
}

/// Device-side store to per-thread local memory.
///
/// # Errors
///
/// Returns the [`TrapKind`] a faulting access raises on device.
#[inline]
pub fn local_store(
    local: &mut [u8],
    addr: u32,
    width: MemWidth,
    value: u64,
) -> Result<(), TrapKind> {
    let w = width.bytes();
    device_check(Space::Local, addr, w, 0, local.len() as u32)?;
    store_le(local, addr as usize, w, value);
    Ok(())
}

/// Device-side load from constant memory (kernel parameters).
///
/// # Errors
///
/// Returns the [`TrapKind`] a faulting access raises on device.
#[inline]
pub fn const_load(cmem: &[u8], addr: u32, width: MemWidth) -> Result<u64, TrapKind> {
    let w = width.bytes();
    device_check(Space::Const, addr, w, 0, cmem.len() as u32)?;
    Ok(load_le(cmem, addr as usize, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time load: the oracle for `load_le`.
    fn load_le_bytewise(data: &[u8], off: usize, width: u32) -> u64 {
        let mut v = 0u64;
        for i in 0..width as usize {
            v |= (data[off + i] as u64) << (8 * i);
        }
        v
    }

    /// Byte-at-a-time store: the oracle for `store_le`.
    fn store_le_bytewise(data: &mut [u8], off: usize, width: u32, value: u64) {
        for i in 0..width as usize {
            data[off + i] = (value >> (8 * i)) as u8;
        }
    }

    proptest! {
        #[test]
        fn word_loads_and_stores_match_the_byte_loops(
            seed in any::<u64>(),
            value in any::<u64>(),
            width_ix in 0usize..4,
            slot in 0usize..4,
        ) {
            let width = MemWidth::ALL[width_ix].bytes();
            let off = slot * width as usize;
            let data: Vec<u8> = (0..32u64)
                .map(|i| (seed.rotate_left(i as u32 * 8) ^ i.wrapping_mul(0x9E37)) as u8)
                .collect();
            prop_assert_eq!(load_le(&data, off, width), load_le_bytewise(&data, off, width));
            let (mut got, mut want) = (data.clone(), data);
            store_le(&mut got, off, width, value);
            store_le_bytewise(&mut want, off, width, value);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn alloc_is_aligned_and_nonnull() {
        let mut m = GlobalMem::new(1 << 16);
        let p = m.alloc(100).expect("alloc");
        assert_eq!(p.0 % 256, 0);
        assert!(p.0 >= NULL_PAGE);
        let q = m.alloc(4).expect("alloc");
        assert!(q.0 >= p.0 + 100);
    }

    #[test]
    fn alloc_exhaustion() {
        let mut m = GlobalMem::new(1024);
        assert!(m.alloc(512).is_ok());
        assert!(matches!(m.alloc(10_000), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn alloc_limit_fires_before_capacity() {
        let mut m = GlobalMem::new(1 << 20);
        m.set_alloc_limit(Some(1024));
        assert!(m.alloc(512).is_ok());
        // Within capacity but past the governor cap.
        let err = m.alloc(1024).unwrap_err();
        assert!(matches!(err, MemError::LimitExceeded { requested: 1024, limit: 1024 }), "{err}");
        // Disarming restores plain capacity behavior.
        m.set_alloc_limit(None);
        assert!(m.alloc(1024).is_ok());
    }

    #[test]
    fn host_roundtrip_f32() {
        let mut m = GlobalMem::new(4096);
        let p = m.alloc(16).expect("alloc");
        m.write_f32s(p, &[1.0, 2.5, -3.0, 0.0]).expect("write");
        assert_eq!(m.read_f32s(p, 4).expect("read"), vec![1.0, 2.5, -3.0, 0.0]);
    }

    #[test]
    fn host_roundtrip_f64_u32() {
        let mut m = GlobalMem::new(4096);
        let p = m.alloc(32).expect("alloc");
        m.write_f64s(p, &[1.25, -9.5]).expect("write");
        assert_eq!(m.read_f64s(p, 2).expect("read"), vec![1.25, -9.5]);
        let q = m.alloc(8).expect("alloc");
        m.write_u32s(q, &[7, 8]).expect("write");
        assert_eq!(m.read_u32s(q, 2).expect("read"), vec![7, 8]);
    }

    #[test]
    fn host_copy_out_of_range_fails() {
        let mut m = GlobalMem::new(4096);
        let p = m.alloc(8).expect("alloc");
        assert!(m.write_u32s(p.offset(8), &[1]).is_err());
        assert!(m.read_u32s(DevPtr(0), 1).is_err(), "null page is not readable by host");
    }

    #[test]
    fn device_null_deref_traps() {
        let m = GlobalMem::new(4096);
        assert!(matches!(
            m.load(0, MemWidth::B32),
            Err(TrapKind::OutOfBounds { space: Space::Global, .. })
        ));
    }

    #[test]
    fn device_misaligned_traps() {
        let mut m = GlobalMem::new(4096);
        let p = m.alloc(64).expect("alloc");
        assert!(matches!(m.load(p.0 + 2, MemWidth::B32), Err(TrapKind::Misaligned { .. })));
        assert!(matches!(m.load(p.0 + 4, MemWidth::B64), Err(TrapKind::Misaligned { .. })));
    }

    #[test]
    fn device_load_store_roundtrip_all_widths() {
        let mut m = GlobalMem::new(4096);
        let p = m.alloc(64).expect("alloc");
        for (w, v) in [
            (MemWidth::B8, 0xABu64),
            (MemWidth::B16, 0xBEEF),
            (MemWidth::B32, 0xDEAD_BEEF),
            (MemWidth::B64, 0x0123_4567_89AB_CDEF),
        ] {
            m.store(p.0, w, v).expect("store");
            assert_eq!(m.load(p.0, w).expect("load"), v);
        }
    }

    #[test]
    fn device_store_beyond_brk_traps() {
        let mut m = GlobalMem::new(4096);
        let p = m.alloc(8).expect("alloc");
        assert!(m.store(p.0 + 256, MemWidth::B32, 1).is_err());
    }

    #[test]
    fn shared_mem_bounds() {
        let mut s = SharedMem::new(64);
        s.store(60, MemWidth::B32, 5).expect("store");
        assert_eq!(s.load(60, MemWidth::B32).expect("load"), 5);
        assert!(s.store(64, MemWidth::B32, 5).is_err());
        assert!(s.load(61, MemWidth::B32).is_err(), "misaligned");
    }

    #[test]
    fn untouched_memory_reads_zero_without_materializing() {
        let mut m = GlobalMem::new(1 << 20);
        let p = m.alloc(64 * 1024).expect("alloc");
        assert_eq!(m.resident_pages(), 0, "allocation alone must not materialize pages");
        assert_eq!(m.load(p.0, MemWidth::B64).expect("load"), 0);
        assert_eq!(m.read_u32s(p, 4).expect("read"), vec![0; 4]);
        assert_eq!(m.resident_pages(), 0, "reads must not materialize pages");
        m.store(p.0, MemWidth::B8, 1).expect("store");
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn host_copy_spans_page_boundary() {
        let mut m = GlobalMem::new(1 << 20);
        let p = m.alloc(4 * PAGE_SIZE).expect("alloc");
        // 256-aligned base, offset so the copy straddles two page edges.
        let data: Vec<u8> = (0..(2 * PAGE_SIZE + 100) as usize).map(|i| (i % 251) as u8).collect();
        let dst = p.offset(PAGE_SIZE - 50);
        m.copy_from_host(dst, &data).expect("write");
        let mut back = vec![0u8; data.len()];
        m.copy_to_host(dst, &mut back).expect("read");
        assert_eq!(back, data);
    }

    #[test]
    fn snapshot_sharing_stores_rewritten_pages_once() {
        let mut m = GlobalMem::new(1 << 20);
        let a = m.alloc(PAGE_SIZE).expect("alloc");
        let b = m.alloc(PAGE_SIZE).expect("alloc");
        m.write_u32s(a, &[1, 2]).expect("write");
        m.write_u32s(b, &[3]).expect("write");
        let first = m.snapshot();
        // Page a is rewritten with the same bytes, page b with new ones.
        m.write_u32s(a, &[1, 2]).expect("rewrite");
        m.write_u32s(b, &[4]).expect("overwrite");
        let second = m.snapshot_sharing(&first);
        let slot = |s: &MemSnapshot, p: DevPtr| s.pages[p.0 as usize / PAGE_SIZE as usize].clone();
        let (a1, a2) = (slot(&first, a).expect("a"), slot(&second, a).expect("a"));
        assert!(Arc::ptr_eq(&a1, &a2), "unchanged page shared");
        let (b1, b2) = (slot(&first, b).expect("b"), slot(&second, b).expect("b"));
        assert!(!Arc::ptr_eq(&b1, &b2), "changed page kept");
        assert_eq!(m.read_u32s(a, 2).expect("read"), vec![1, 2]);
        assert_eq!(m.read_u32s(b, 1).expect("read"), vec![4]);
        assert!(m.matches(&second));
        // The live copy is shared too: a later write copies it again and
        // leaves both snapshots intact.
        m.write_u32s(a, &[9]).expect("write");
        m.restore(&first);
        assert_eq!(m.read_u32s(a, 2).expect("read"), vec![1, 2]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = GlobalMem::new(1 << 20);
        let p = m.alloc(4096).expect("alloc");
        m.write_u32s(p, &[1, 2, 3, 4]).expect("write");
        let snap = m.snapshot();
        assert_eq!(snap.resident_pages(), 1);

        m.write_u32s(p, &[9, 9, 9, 9]).expect("overwrite");
        let q = m.alloc(4096).expect("alloc after snapshot");
        m.write_u32s(q, &[7]).expect("write");

        m.restore(&snap);
        assert_eq!(m.read_u32s(p, 4).expect("read"), vec![1, 2, 3, 4]);
        assert_eq!(m.allocated(), snap.brk() - NULL_PAGE, "brk restored");
        assert!(m.read_u32s(q, 1).is_err(), "post-snapshot allocation rolled back");
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut m = GlobalMem::new(1 << 20);
        let p = m.alloc(64).expect("alloc");
        m.write_u32s(p, &[42]).expect("write");
        let snap = m.snapshot();
        m.write_u32s(p, &[77]).expect("write");

        let mut other = GlobalMem::new(1 << 20);
        other.restore(&snap);
        assert_eq!(other.read_u32s(p, 1).expect("read"), vec![42], "snapshot kept old value");
        assert_eq!(m.read_u32s(p, 1).expect("read"), vec![77], "live memory kept new value");

        // Writing through the restored copy must not leak into the snapshot.
        other.write_u32s(p, &[5]).expect("write");
        let mut third = GlobalMem::new(1 << 20);
        third.restore(&snap);
        assert_eq!(third.read_u32s(p, 1).expect("read"), vec![42]);
    }

    #[test]
    fn page_table_is_sized_by_brk_not_capacity() {
        let mut m = GlobalMem::new(64 << 20);
        m.alloc(4096).expect("alloc");
        let snap = m.snapshot();
        assert!(snap.pages.len() <= 2, "{} slots for one 4 KiB allocation", snap.pages.len());
        assert_eq!(m.pages.len(), page_slots(m.brk));
    }

    #[test]
    fn restoring_a_smaller_brk_drops_later_pages() {
        let mut m = GlobalMem::new(64 << 20);
        let p = m.alloc(64).expect("alloc");
        m.write_u32s(p, &[1]).expect("write");
        let small = m.snapshot();
        let q = m.alloc(8 * PAGE_SIZE).expect("alloc");
        m.store(q.0 + 7 * PAGE_SIZE, MemWidth::B32, 2).expect("store");
        assert_eq!(m.resident_pages(), 2);

        m.restore(&small);
        assert_eq!(m.pages.len(), small.pages.len(), "slots past the restored brk dropped");
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(
            m.store(q.0 + 7 * PAGE_SIZE, MemWidth::B32, 3),
            Err(TrapKind::OutOfBounds {
                space: Space::Global,
                addr: q.0 + 7 * PAGE_SIZE,
                width: 4
            }),
        );
        assert_eq!(m.read_u32s(p, 1).expect("read"), vec![1]);

        // Allocating again grows the table back; the re-allocated range
        // reads as fresh zero memory.
        let r = m.alloc(8 * PAGE_SIZE).expect("alloc after restore");
        assert_eq!(r, q, "bump allocator resumes from the restored brk");
        assert_eq!(m.pages.len(), page_slots(m.brk));
        assert_eq!(m.load(r.0 + 7 * PAGE_SIZE, MemWidth::B32).expect("load"), 0);
        m.store(r.0 + 7 * PAGE_SIZE, MemWidth::B32, 4).expect("store after regrow");
    }

    #[test]
    fn snapshots_share_pages_until_written() {
        let mut m = GlobalMem::new(64 << 20);
        let p = m.alloc(2 * PAGE_SIZE).expect("alloc");
        m.write_u32s(p, &[1]).expect("write");
        m.write_u32s(p.offset(PAGE_SIZE), &[2]).expect("write");
        let a = m.snapshot();
        let b = m.snapshot();
        let page = |s: &MemSnapshot, addr: u32| {
            s.pages[(addr / PAGE_SIZE) as usize].clone().expect("resident")
        };
        assert!(Arc::ptr_eq(&page(&a, p.0), &page(&b, p.0)));

        m.restore(&a);
        m.write_u32s(p, &[9]).expect("write");
        let c = m.snapshot();
        assert!(!Arc::ptr_eq(&page(&a, p.0), &page(&c, p.0)), "the written page was copied");
        let q = p.0 + PAGE_SIZE;
        assert!(Arc::ptr_eq(&page(&a, q), &page(&c, q)), "the untouched page is still shared");
        assert_eq!(page(&a, p.0)[(p.0 % PAGE_SIZE) as usize], 1, "snapshot kept its value");
    }

    #[test]
    fn matches_treats_a_zero_page_as_untouched() {
        let mut m = GlobalMem::new(1 << 20);
        let p = m.alloc(2 * PAGE_SIZE).expect("alloc");
        let untouched = m.snapshot();
        m.write_u32s(p, &[0, 0]).expect("write zeros");
        assert_eq!(m.resident_pages(), 1, "the zero write materialized a page");
        assert!(m.matches(&untouched), "resident zeros equal a None page");
        let zeros = m.snapshot();
        m.restore(&untouched);
        assert!(m.matches(&zeros), "a None page equals resident zeros");
        m.write_u32s(p.offset(4), &[1]).expect("write");
        assert!(!m.matches(&untouched));
        assert!(!m.matches(&zeros));
    }

    #[test]
    fn matches_compares_bytes_of_distinct_pages() {
        let mut m = GlobalMem::new(1 << 20);
        let p = m.alloc(2 * PAGE_SIZE).expect("alloc");
        m.write_u32s(p, &[1, 2, 3]).expect("write");
        m.write_u32s(p.offset(PAGE_SIZE), &[4]).expect("write");
        let golden = m.snapshot();
        assert!(m.matches(&golden), "shared pages match by pointer");

        // Rewriting the same value un-shares the page but keeps its bytes.
        m.write_u32s(p.offset(4), &[2]).expect("rewrite");
        let page = |s: &MemSnapshot| s.pages[(p.0 / PAGE_SIZE) as usize].clone().expect("page");
        assert!(!Arc::ptr_eq(&page(&golden), &page(&m.snapshot())), "distinct Arcs");
        assert!(m.matches(&golden), "equal bytes in distinct pages match");

        m.write_u32s(p.offset(PAGE_SIZE + 8), &[5]).expect("diverge");
        assert!(!m.matches(&golden), "one differing byte is a mismatch");
    }

    #[test]
    fn matches_requires_the_same_brk() {
        let mut m = GlobalMem::new(1 << 20);
        m.alloc(64).expect("alloc");
        let before = m.snapshot();
        m.alloc(64).expect("alloc within the same page");
        assert_eq!(m.pages.len(), before.pages.len(), "same page table length");
        assert!(!m.matches(&before), "a larger brk is a mismatch");
        let after = m.snapshot();
        m.restore(&before);
        assert!(!m.matches(&after), "a smaller brk is a mismatch");
        assert!(m.matches(&before));
    }

    #[test]
    #[should_panic(expected = "different capacity")]
    fn restore_rejects_capacity_mismatch() {
        let m = GlobalMem::new(1 << 20);
        let snap = m.snapshot();
        let mut other = GlobalMem::new(1 << 16);
        other.restore(&snap);
    }

    #[test]
    fn local_and_const_helpers() {
        let mut local = vec![0u8; 32];
        local_store(&mut local, 8, MemWidth::B64, 42).expect("store");
        assert_eq!(local_load(&local, 8, MemWidth::B64).expect("load"), 42);
        assert!(local_load(&local, 32, MemWidth::B8).is_err());

        let cmem = [1u8, 0, 0, 0, 2, 0, 0, 0];
        assert_eq!(const_load(&cmem, 0, MemWidth::B32).expect("load"), 1);
        assert_eq!(const_load(&cmem, 4, MemWidth::B32).expect("load"), 2);
        assert!(const_load(&cmem, 8, MemWidth::B32).is_err());
    }
}
