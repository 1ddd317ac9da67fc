//! The one byte-budgeted LRU behind both geometry caches (see
//! [`ByteLru`]).

use esca_telemetry::Registry;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// One cached value plus the bookkeeping the byte budget needs.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Value heap bytes at insert time (cached values are immutable).
    bytes: usize,
    /// Logical timestamp of the last hit/insert; atomic so hits can touch
    /// it under the read lock.
    last_used: AtomicU64,
}

/// The lock-guarded part of the cache: the entry map plus the running
/// byte total of every entry.
#[derive(Debug)]
struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    bytes: usize,
}

/// A thread-safe, optionally byte-budgeted LRU map with hit/miss/eviction
/// counters: the one cache type behind [`crate::engine::RulebookCache`]
/// (per-op artifacts keyed by [`crate::engine::GeometryKey`]) and
/// [`crate::plan::PlanCache`] (whole-network plans keyed by
/// [`crate::plan::PlanKey`]).
///
/// Values are cheap-to-clone handles (`Arc`s or enums of them) shared
/// read-only with every caller. Counters are atomic, so rates can be read
/// concurrently with use. By default the cache is unbounded;
/// [`ByteLru::with_capacity_bytes`] bounds the total bytes it retains,
/// evicting least-recently-used entries past the budget. Eviction only
/// changes *when* an entry must be rebuilt, never what it contains, so
/// every output is byte-identical under any budget.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    inner: RwLock<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Logical clock behind `Entry::last_used`; `fetch_add` makes every
    /// timestamp unique, so the LRU victim is always unambiguous.
    tick: AtomicU64,
    /// `None` = unbounded (the default).
    cap_bytes: Option<usize>,
}

impl<K, V> Default for ByteLru<K, V> {
    fn default() -> Self {
        ByteLru {
            inner: RwLock::new(Inner {
                map: HashMap::new(),
                bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            cap_bytes: None,
        }
    }
}

impl<K: Copy + Eq + Hash, V: Clone> ByteLru<K, V> {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        ByteLru::default()
    }

    /// Creates an empty cache that retains at most `cap` bytes, evicting
    /// least-recently-used entries when an insert exceeds the budget. The
    /// entry being inserted is never evicted, so a single oversized entry
    /// still works — the cache then simply holds that one entry over
    /// budget until the next insert.
    pub fn with_capacity_bytes(cap: usize) -> Self {
        ByteLru {
            cap_bytes: Some(cap),
            ..ByteLru::default()
        }
    }

    /// Looks the key up, counting a hit (and refreshing the entry's
    /// recency) or a miss. A miss is expected to be followed by a build
    /// and an insert.
    pub fn get(&self, key: &K) -> Option<V> {
        if let Some(entry) = self.inner.read().expect("cache lock").map.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            entry
                .last_used
                .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            return Some(entry.value.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Whether `key` is resident, **without** counting a hit or miss or
    /// touching its recency.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.read().expect("cache lock").map.contains_key(key)
    }

    /// Inserts a freshly built `value` weighing `bytes` and returns the
    /// resident value. Two concurrent first builds may race; the first
    /// insert wins, the second caller gets the resident value back (builds
    /// are pure functions of the key, so both are structurally equal).
    pub(crate) fn insert_weighed(&self, key: K, value: V, bytes: usize) -> V {
        let mut inner = self.inner.write().expect("cache lock");
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        match inner.map.entry(key) {
            MapEntry::Occupied(e) => {
                e.get().last_used.store(tick, Ordering::Relaxed);
                e.get().value.clone()
            }
            MapEntry::Vacant(v) => {
                let value = v
                    .insert(Entry {
                        value,
                        bytes,
                        last_used: AtomicU64::new(tick),
                    })
                    .value
                    .clone();
                inner.bytes += bytes;
                if let Some(cap) = self.cap_bytes {
                    self.evict_to_cap(&mut inner, cap, &key);
                }
                value
            }
        }
    }

    /// Evicts least-recently-used entries (never `keep`, the entry just
    /// inserted) until the byte budget is met or only `keep` remains.
    /// Victim choice is deterministic: `last_used` timestamps are unique,
    /// so the minimum is unambiguous regardless of map iteration order.
    fn evict_to_cap(&self, inner: &mut Inner<K, V>, cap: usize, keep: &K) {
        while inner.bytes > cap && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted by the byte budget so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over total lookups, in [0, 1]; zero before any lookup
    /// (division-safe — never NaN).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.read().expect("cache lock").map.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry bytes currently retained.
    pub fn bytes(&self) -> usize {
        self.inner.read().expect("cache lock").bytes
    }

    /// The byte budget, or `None` for the unbounded default.
    pub fn capacity_bytes(&self) -> Option<usize> {
        self.cap_bytes
    }

    /// Emits the cache's point-in-time totals as `{prefix}_*` series:
    /// hit/miss/eviction counters plus resident-byte and entry gauges, and
    /// the budget gauge when one is set.
    ///
    /// Counters carry the lifetime totals, so record into a *fresh*
    /// registry (or one that has not seen this cache before). The hit/miss
    /// split can race when workers contend on a cold key (both may build),
    /// so these series belong in a **host-domain** registry — they are
    /// host scheduling facts, never simulated cycles. Counter merges are
    /// plain sums, so recording is commutative across caches.
    pub(crate) fn record_series(&self, reg: &mut Registry, prefix: &str) {
        let name = |series: &str| format!("{prefix}_{series}");
        reg.counter_add(&name("hits_total"), &[], self.hits());
        reg.counter_add(&name("misses_total"), &[], self.misses());
        reg.counter_add(&name("evictions_total"), &[], self.evictions());
        reg.gauge_max(&name("resident_bytes"), &[], self.bytes() as u64);
        reg.gauge_max(&name("entries"), &[], self.len() as u64);
        if let Some(cap) = self.capacity_bytes() {
            reg.gauge_max(&name("capacity_bytes"), &[], cap as u64);
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.write().expect("cache lock");
        inner.map.clear();
        inner.bytes = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}
