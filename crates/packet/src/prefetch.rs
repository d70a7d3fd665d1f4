//! Best-effort software prefetch hints for the batched hot path.
//!
//! The batched encode/accumulate loops know the DRAM addresses packet
//! `i + K` will touch while they are still finishing packet `i` (the hash
//! determines the RCC counter word and the first WSAF probe slot). Issuing
//! a prefetch hint for those addresses overlaps the DRAM latency of the
//! next packets with the arithmetic of the current one.
//!
//! Prefetching is purely a hint: it never changes observable behaviour, so
//! the scalar and batched paths stay bit-identical with or without it. On
//! targets without a stable prefetch intrinsic the functions compile to
//! nothing ([`prefetch_enabled`] reports which case was built).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default for how many packets ahead the batched loops prefetch.
///
/// Large enough to cover one DRAM round trip (~80 ns) at the per-packet
/// arithmetic cost of the RCC encode (~10 ns of position-draw mixing);
/// small enough that the prefetched lines are still resident in L1/L2 when
/// their packet is processed and that ragged batch tails waste little work.
/// The live value is [`prefetch_distance`], tunable per process; the
/// `hot_path` bench sweeps it to pick the winner for a machine.
pub const PREFETCH_DISTANCE: usize = 8;

/// Distances outside `1..=MAX_PREFETCH_DISTANCE` are clamped: 0 would
/// prefetch the line the loop is already touching, and anything past one
/// full batch-tail's worth of lines just evicts useful data.
pub const MAX_PREFETCH_DISTANCE: usize = 64;

static DISTANCE: AtomicUsize = AtomicUsize::new(PREFETCH_DISTANCE);

/// How many packets ahead the batched loops prefetch right now:
/// [`PREFETCH_DISTANCE`] unless [`set_prefetch_distance`] overrode it.
/// Purely a tuning knob — the batched paths stay bit-identical to scalar
/// at every distance.
#[inline]
#[must_use]
pub fn prefetch_distance() -> usize {
    DISTANCE.load(Ordering::Relaxed)
}

/// Overrides the prefetch distance for this process (clamped to
/// `1..=`[`MAX_PREFETCH_DISTANCE`]); the bench matrix uses this to sweep
/// distances without respawning.
pub fn set_prefetch_distance(distance: usize) {
    DISTANCE.store(distance.clamp(1, MAX_PREFETCH_DISTANCE), Ordering::Relaxed);
}

/// Whether prefetch hints compile to real instructions on this target.
///
/// Surfaced as the `hotpath.prefetch_enabled` telemetry gauge so a metrics
/// scrape shows which hot path a deployment is actually running.
#[must_use]
pub const fn prefetch_enabled() -> bool {
    cfg!(target_arch = "x86_64")
}

/// Issues a read prefetch hint for `slice[idx]`.
///
/// Out-of-range indices are ignored, so ragged tails need no bounds
/// arithmetic at the call site. On non-x86_64 targets this is a no-op.
#[inline]
pub fn prefetch_read_index<T>(slice: &[T], idx: usize) {
    if let Some(r) = slice.get(idx) {
        prefetch_read(r);
    }
}

/// Issues a read prefetch hint for the cache line holding `r`.
///
/// On non-x86_64 targets this is a no-op.
#[inline]
pub fn prefetch_read<T>(r: &T) {
    // Gated out under Miri like the mmap FFI: the hint lowers to an LLVM
    // intrinsic the interpreter has no reason to model.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: `_mm_prefetch` is an architectural hint with no observable
    // effect on memory or registers; the pointer comes from a live
    // reference, so it is valid to hint on.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(core::ptr::from_ref(r).cast::<i8>());
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_side_effect_free() {
        let data = vec![7u64; 1024];
        prefetch_read(&data[0]);
        prefetch_read_index(&data, 512);
        assert!(data.iter().all(|&x| x == 7));
    }

    #[test]
    fn out_of_range_index_is_ignored() {
        let data = [1u8, 2, 3];
        prefetch_read_index(&data, 3);
        prefetch_read_index(&data, usize::MAX);
        let empty: [u64; 0] = [];
        prefetch_read_index(&empty, 0);
    }

    #[test]
    fn enabled_matches_target() {
        assert_eq!(prefetch_enabled(), cfg!(target_arch = "x86_64"));
    }

    #[test]
    fn distance_is_sane() {
        // The batched loops rely on the distance being small relative to
        // any realistic batch and nonzero (0 would prefetch the line the
        // loop is already touching).
        let k = PREFETCH_DISTANCE;
        assert!((1..=MAX_PREFETCH_DISTANCE).contains(&k));
    }

    #[test]
    fn runtime_distance_clamps_and_overrides() {
        let initial = prefetch_distance();
        assert!((1..=MAX_PREFETCH_DISTANCE).contains(&initial));
        set_prefetch_distance(16);
        assert_eq!(prefetch_distance(), 16);
        set_prefetch_distance(0);
        assert_eq!(prefetch_distance(), 1);
        set_prefetch_distance(usize::MAX);
        assert_eq!(prefetch_distance(), MAX_PREFETCH_DISTANCE);
        set_prefetch_distance(initial);
    }
}
