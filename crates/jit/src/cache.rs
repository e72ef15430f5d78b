//! The compiled-kernel cache.
//!
//! Paper §V: *"Especially when compiled operators are cached for future
//! use, we do not see the additional compile time as a deciding
//! bottleneck."* The cache maps a signature to its compiled kernel and
//! tracks hit/miss statistics plus the total time spent compiling, so
//! the `ablation_jit` benchmark can report exactly that amortization.
//! One signature type keys every kernel: a [`ScanSig`] whose predicates
//! read plain or bit-packed columns compiles to one [`CompiledKernel`].
//!
//! Concurrency: the hot path (a hit) takes only a *read* lock plus a few
//! relaxed atomic bumps, so a server's worth of concurrent scans can look
//! up kernels without serializing on each other; a miss takes the write
//! lock only to insert. Compilation happens outside any lock, so two
//! threads may race to compile the same signature. The first insert wins;
//! the loser adopts the winner's kernel and is charged a *hit* — its
//! wasted compile work is not a cache miss and must not inflate
//! `misses`/`compile_time` (each signature contributes at most one miss,
//! checked again under the write lock before inserting).
//!
//! Capacity: the cache holds at most [`KernelCache::capacity`] kernels;
//! inserting past the bound evicts the least-recently-used entry (mapped
//! code pages are freed when the last `Arc` drops, so in-flight scans
//! keep working).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use crate::ir::{JitError, ScanSig};
use crate::kernel::{CompiledKernel, JitBackend};

/// Default capacity: generous for any realistic query mix, small enough
/// to bound executable memory.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (including compile races lost to
    /// another thread — the signature was cached by the time we looked
    /// again).
    pub hits: u64,
    /// Lookups whose compile result entered the cache.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Total code-generation + mapping time across all misses.
    pub compile_time: Duration,
}

struct Entry {
    kernel: Arc<CompiledKernel>,
    /// Logical timestamp of the last lookup, for LRU eviction. Atomic so
    /// hits can refresh it under the *read* lock.
    last_used: AtomicU64,
}

/// A signature-keyed cache of compiled kernels for one backend.
///
/// Hits take a read lock and bump relaxed atomics, so concurrent lookups
/// of cached kernels never serialize; misses re-check under the write
/// lock so each signature is charged exactly one miss no matter how many
/// threads race to compile it.
pub struct KernelCache {
    backend: JitBackend,
    capacity: usize,
    map: RwLock<HashMap<ScanSig, Entry>>,
    /// Logical LRU clock.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Nanoseconds spent compiling charged misses.
    compile_ns: AtomicU64,
}

impl KernelCache {
    /// Empty cache for the given backend with [`DEFAULT_CACHE_CAPACITY`].
    pub fn new(backend: JitBackend) -> KernelCache {
        KernelCache::with_capacity(backend, DEFAULT_CACHE_CAPACITY)
    }

    /// Empty cache holding at most `capacity` kernels (min 1).
    pub fn with_capacity(backend: JitBackend, capacity: usize) -> KernelCache {
        KernelCache {
            backend,
            capacity: capacity.max(1),
            map: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compile_ns: AtomicU64::new(0),
        }
    }

    // A panic while holding either lock leaves plain counters/maps, not
    // an invariant violation — keep serving.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<ScanSig, Entry>> {
        self.map
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<ScanSig, Entry>> {
        self.map
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Fetch the kernel for `sig`, compiling it on first use.
    pub fn get_or_compile(&self, sig: &ScanSig) -> Result<Arc<CompiledKernel>, JitError> {
        {
            let map = self.read();
            if let Some(entry) = map.get(sig) {
                entry.last_used.store(
                    self.tick.fetch_add(1, Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.kernel));
            }
        }
        // Compile outside any lock; a racing thread may compile the same
        // signature — the first insert wins, both results are valid.
        let kernel = Arc::new(CompiledKernel::compile(sig.clone(), self.backend)?);
        let mut map = self.write();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(entry) = map.get(sig) {
            // Lost the race: the signature is already cached, so this
            // lookup is a hit; drop our duplicate kernel uncounted.
            entry.last_used.store(tick, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&entry.kernel));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compile_ns
            .fetch_add(kernel.compile_time().as_nanos() as u64, Ordering::Relaxed);
        if map.len() >= self.capacity {
            if let Some(lru) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(sig, _)| sig.clone())
            {
                map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(
            sig.clone(),
            Entry {
                kernel: Arc::clone(&kernel),
                last_used: AtomicU64::new(tick),
            },
        );
        Ok(kernel)
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of kernels kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compile_time: Duration::from_nanos(self.compile_ns.load(Ordering::Relaxed)),
        }
    }

    /// The backend this cache compiles with.
    pub fn backend(&self) -> JitBackend {
        self.backend
    }
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "KernelCache({:?}, {}/{} kernels, {} hits / {} misses / {} evictions, {:?} compiling)",
            self.backend,
            self.len(),
            self.capacity,
            s.hits,
            s.misses,
            s.evictions,
            s.compile_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_storage::CmpOp;

    #[test]
    fn caches_by_signature() {
        let cache = KernelCache::new(JitBackend::Scalar);
        let s1 = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5)], false);
        let s2 = ScanSig::chain::<u32>(&[(CmpOp::Eq, 6)], false);

        let k1a = cache.get_or_compile(&s1).unwrap();
        let k1b = cache.get_or_compile(&s1).unwrap();
        let k2 = cache.get_or_compile(&s2).unwrap();
        assert!(
            Arc::ptr_eq(&k1a, &k1b),
            "same signature must reuse the kernel"
        );
        assert!(!Arc::ptr_eq(&k1a, &k2));
        assert_eq!(cache.len(), 2);

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert!(stats.compile_time > Duration::ZERO);
    }

    #[test]
    fn cached_kernel_still_runs() {
        let cache = KernelCache::new(JitBackend::Scalar);
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Gt, 2)], false);
        let a = [1u32, 5, 3, 0, 9];
        for _ in 0..3 {
            let k = cache.get_or_compile(&sig).unwrap();
            assert_eq!(k.run(&[&a[..]]).unwrap().count(), 3);
        }
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(KernelCache::new(JitBackend::Scalar));
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 1)], false);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let sig = sig.clone();
                std::thread::spawn(move || {
                    let a = [1u32, 2, 1];
                    let k = cache.get_or_compile(&sig).unwrap();
                    assert_eq!(k.run(&[&a[..]]).unwrap().count(), 2);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        // One signature ⇒ exactly one miss, no matter how the threads
        // raced; every other lookup is a hit (racing losers included).
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.misses, 8);
    }

    #[test]
    fn racing_compiles_charge_one_miss() {
        // Force the race deterministically: many threads, a barrier so
        // they all pass the initial not-found check before any insert.
        let cache = Arc::new(KernelCache::new(JitBackend::Scalar));
        let sig = ScanSig::chain::<u32>(&[(CmpOp::Le, 7)], false);
        let barrier = Arc::new(std::sync::Barrier::new(6));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let sig = sig.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compile(&sig).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "racing losers must not double-count misses");
        assert_eq!(s.hits, 5);
        // compile_time reflects the single charged compile, not the sum
        // of all racers' wasted work.
        let single = cache.get_or_compile(&sig).unwrap().compile_time();
        assert!(
            s.compile_time <= single * 3,
            "{:?} vs {:?}",
            s.compile_time,
            single
        );
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let cache = KernelCache::with_capacity(JitBackend::Scalar, 2);
        let sigs: Vec<ScanSig> = (0..4)
            .map(|i| ScanSig::chain::<u32>(&[(CmpOp::Eq, i)], false))
            .collect();
        cache.get_or_compile(&sigs[0]).unwrap();
        cache.get_or_compile(&sigs[1]).unwrap();
        // Touch 0 so 1 is the LRU when 2 arrives.
        cache.get_or_compile(&sigs[0]).unwrap();
        cache.get_or_compile(&sigs[2]).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // 0 survived (recently used), 1 was evicted and recompiles.
        let before = cache.stats().misses;
        cache.get_or_compile(&sigs[0]).unwrap();
        assert_eq!(cache.stats().misses, before);
        cache.get_or_compile(&sigs[1]).unwrap();
        assert_eq!(cache.stats().misses, before + 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn evicted_kernel_keeps_running() {
        let cache = KernelCache::with_capacity(JitBackend::Scalar, 1);
        let s1 = ScanSig::chain::<u32>(&[(CmpOp::Eq, 1)], false);
        let s2 = ScanSig::chain::<u32>(&[(CmpOp::Eq, 2)], false);
        let k1 = cache.get_or_compile(&s1).unwrap();
        cache.get_or_compile(&s2).unwrap();
        assert_eq!(cache.len(), 1);
        // k1's Arc keeps its code pages mapped after eviction.
        let a = [1u32, 2, 1];
        assert_eq!(k1.run(&[&a[..]]).unwrap().count(), 2);
    }

    #[test]
    fn packed_signatures_share_the_bound_and_stats() {
        if !fts_simd::has_avx512() || !std::arch::is_x86_feature_detected!("avx512vbmi2") {
            eprintln!("skipping: no AVX-512 VBMI2");
            return;
        }
        use crate::ir::{JitElem, JitPred};
        let cache = KernelCache::with_capacity(JitBackend::Avx512, 2);
        let sig = |needle| ScanSig {
            elem: JitElem::U32,
            preds: vec![JitPred::packed(8, CmpOp::Lt, needle)],
            emit_positions: false,
        };
        for needle in 0..4 {
            cache.get_or_compile(&sig(needle)).unwrap();
        }
        cache.get_or_compile(&sig(3)).unwrap();
        assert_eq!(cache.len(), 2, "LRU bound holds for packed kernels");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 2));
        assert!(s.compile_time > Duration::ZERO);
    }

    #[test]
    fn propagates_compile_errors() {
        let cache = KernelCache::new(JitBackend::Scalar);
        let bad = ScanSig::chain::<u32>(&[], false);
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn scalar_cache_rejects_packed_signatures() {
        // The scalar backend reads plain words; a packed column must be
        // refused, not scanned as if each packed word were one value.
        use crate::ir::{JitElem, JitPred};
        let cache = KernelCache::new(JitBackend::Scalar);
        let sig = ScanSig {
            elem: JitElem::U32,
            preds: vec![
                JitPred::plain(CmpOp::Eq, 1),
                JitPred::packed(8, CmpOp::Lt, 3),
            ],
            emit_positions: false,
        };
        assert!(matches!(
            cache.get_or_compile(&sig),
            Err(JitError::BadPredicate { index: 1, .. })
        ));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn contention_hammer_counts_are_exact() {
        // Many threads hammering a working set that fits in the cache:
        // each signature must be charged exactly one miss, every other
        // lookup is a hit, regardless of interleaving.
        const THREADS: usize = 8;
        const SIGS: usize = 6;
        const ITERS: usize = 40;
        let cache = Arc::new(KernelCache::with_capacity(JitBackend::Scalar, SIGS));
        let sigs: Arc<Vec<ScanSig>> = Arc::new(
            (0..SIGS as u32)
                .map(|i| ScanSig::chain::<u32>(&[(CmpOp::Gt, i)], false))
                .collect(),
        );
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let sigs = Arc::clone(&sigs);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..ITERS {
                        // Each thread walks the signatures in a different
                        // order so reads and compiles interleave.
                        let sig = &sigs[(i + t) % SIGS];
                        let k = cache.get_or_compile(sig).unwrap();
                        let a = [0u32, 7, 3];
                        k.run(&[&a[..]]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        let total = (THREADS * ITERS) as u64;
        assert_eq!(s.misses, SIGS as u64, "exactly one charged miss per sig");
        assert_eq!(s.hits, total - SIGS as u64);
        assert_eq!(s.evictions, 0);
        assert_eq!(cache.len(), SIGS);
    }

    #[test]
    fn contention_under_eviction_pressure_never_loses_lookups() {
        // Working set larger than capacity: hit/miss split is timing
        // dependent, but every lookup must be accounted exactly once and
        // the capacity bound must hold at all times.
        const THREADS: usize = 8;
        const SIGS: usize = 8;
        const ITERS: usize = 25;
        let cache = Arc::new(KernelCache::with_capacity(JitBackend::Scalar, 3));
        let sigs: Arc<Vec<ScanSig>> = Arc::new(
            (0..SIGS as u32)
                .map(|i| ScanSig::chain::<u32>(&[(CmpOp::Le, i)], false))
                .collect(),
        );
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let sigs = Arc::clone(&sigs);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..ITERS {
                        let sig = &sigs[(i * (t + 1)) % SIGS];
                        cache.get_or_compile(sig).unwrap();
                        assert!(cache.len() <= cache.capacity());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, (THREADS * ITERS) as u64);
        assert!(s.misses >= SIGS as u64, "cold start plus eviction refills");
        assert!(cache.len() <= cache.capacity());
    }
}
