//! The compile-once/run-many kernel cache ([`Runtime`]) and the
//! [`exec_func`] convenience over the process-wide instance.

use super::{BufferPool, CompiledKernel, ExecError, NestCounts};
use crate::eval::TensorData;
use crate::func::PrimFunc;
use crate::printer::print_func;
use std::any::{Any, TypeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Display;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of stripes in the [`Runtime`] kernel cache. Keys land in a
/// stripe by hash bits, so concurrent compilations of *unrelated*
/// functions (the serving engine's steady state) almost never touch the
/// same lock.
const CACHE_SHARDS: usize = 16;

/// Most entries one stripe keeps (so a runtime keeps at most
/// `CACHE_SHARDS × SHARD_CAPACITY` = 512 kernels): a new key past it
/// evicts the stripe's least recently used settled entry. A served kernel
/// takes `nnz` as a launch parameter, so a graph update compiles nothing
/// (`stbench serve_shared_dynamic`: ≈ 1.3 compilations per 1 000
/// requests); but it bakes `rows / cols` and the request shape, so every
/// graph of a new shape — a cold probe, a spare tenant — and every `hyb`
/// bucket list adds kernels (≈ 30 KB each) that would pile up with the
/// graphs seen. A working set — 48 tenants × 2 ops in `serve_multitenant`
/// — stays far below the bound.
const SHARD_CAPACITY: usize = 32;

/// A cache key of any hashable type, held whole and compared whole: what
/// lets one map file the text fingerprints of [`Runtime::compile`] beside
/// the callers' own keys of [`Runtime::compile_keyed`]. The key's type is
/// part of its hash and of its equality, so keys of different types never
/// meet — a caller's key can never equal a fingerprint.
trait Key: Any + Send + Sync {
    fn eq_key(&self, other: &dyn Key) -> bool;
    fn hash_key(&self, state: &mut dyn Hasher);
}

impl<K: Hash + Eq + Send + Sync + 'static> Key for K {
    fn eq_key(&self, other: &dyn Key) -> bool {
        (other as &dyn Any).downcast_ref::<K>() == Some(self)
    }

    fn hash_key(&self, mut state: &mut dyn Hasher) {
        TypeId::of::<K>().hash(&mut state);
        self.hash(&mut state);
    }
}

impl PartialEq for dyn Key {
    fn eq(&self, other: &dyn Key) -> bool {
        self.eq_key(other)
    }
}

impl Eq for dyn Key {}

impl Hash for dyn Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_key(state);
    }
}

/// The key [`Runtime::compile`] files a function under: its
/// [`Runtime::fingerprint`].
#[derive(Clone, Hash, PartialEq, Eq)]
struct TextKey(u64);

/// Why a cache entry holds no kernel.
#[derive(Clone)]
enum Failure {
    /// [`CompiledKernel::compile`] refused the function.
    Compile(ExecError),
    /// The `build` of [`Runtime::compile_keyed`] returned this error text.
    Build(String),
}

/// What a cache cell settles to.
struct Entry {
    kernel: Result<Arc<CompiledKernel>, Failure>,
    /// Debug builds, keyed entries: the fingerprint of the function `build`
    /// returned, which every later `build` under the key must reproduce.
    built: Option<u64>,
}

/// One cache entry: a single-flight cell. The first thread to claim a key
/// inserts the cell under the stripe lock (cheap) and compiles *outside*
/// it; racing threads for the same key block on [`OnceLock::get_or_init`]
/// and receive the one shared kernel, so a compile storm on one hot
/// function costs exactly one compilation. Errors are cached too —
/// compilation is deterministic in the printed IR and a keyed `build` in
/// its key, so a failing entry fails identically forever.
type CacheCell = Arc<OnceLock<Entry>>;

/// One lock's share of the cache: every key's cell with the tick of its
/// last lookup, and the stripe's lookup clock — what "least recently used"
/// orders by.
#[derive(Default)]
struct Stripe {
    cells: HashMap<Box<dyn Key>, (CacheCell, u64)>,
    tick: u64,
}

/// Compile-once/run-many cache of [`CompiledKernel`]s keyed by function
/// identity — name + printed IR ([`Runtime::compile`]) or the caller's
/// description of what generates the function
/// ([`Runtime::compile_keyed`]). The map is striped across `CACHE_SHARDS`
/// locks with per-key single-flight compilation (see `CacheCell`), and
/// bounded: each stripe keeps its `SHARD_CAPACITY` most recently used
/// entries. [`Runtime::cached`] and [`Runtime::compilations`] are exact
/// across shards and count both kinds of entry.
pub struct Runtime {
    shards: Vec<Mutex<Stripe>>,
    compilations: AtomicUsize,
    keyed_lookups: AtomicUsize,
    keyed_hits: AtomicUsize,
    /// Shared by every kernel compiled through this runtime.
    pool: Arc<BufferPool>,
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            compilations: AtomicUsize::new(0),
            keyed_lookups: AtomicUsize::new(0),
            keyed_hits: AtomicUsize::new(0),
            pool: Arc::new(BufferPool::new()),
        }
    }
}

impl Runtime {
    /// Empty runtime.
    #[must_use]
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// The size-classed scratch pool shared by every kernel this runtime
    /// compiles (hit/miss counters feed `EngineStats`).
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The process-wide shared runtime (what [`exec_func`] uses).
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(Runtime::new)
    }

    /// Fingerprint [`Runtime::compile`] keys on: name plus printed IR, which
    /// the printer renders canonically (slots, extents, bindings).
    #[must_use]
    pub fn fingerprint(func: &PrimFunc) -> u64 {
        let mut h = DefaultHasher::new();
        func.name.hash(&mut h);
        print_func(func).hash(&mut h);
        h.finish()
    }

    /// The cell `key` is filed under, inserted empty on first sight — in a
    /// full stripe in place of its least recently used settled entry. The
    /// key is cloned only then: a lookup that finds it allocates nothing.
    /// An evicted kernel still held by a caller (a launch in flight) lives
    /// on in its `Arc`; its key compiles afresh when it is next looked up.
    fn cell<K: Key + Clone>(&self, key: &K) -> CacheCell {
        let erased: &dyn Key = key;
        let mut h = DefaultHasher::new();
        erased.hash(&mut h);
        let stripe = &self.shards[(h.finish() % CACHE_SHARDS as u64) as usize];
        let mut stripe = stripe.lock().expect("nothing panics under a stripe lock");
        stripe.tick += 1;
        let (tick, cells) = (stripe.tick, &mut stripe.cells);
        if let Some((cell, used)) = cells.get_mut(erased) {
            *used = tick;
            return Arc::clone(cell);
        }
        if cells.len() >= SHARD_CAPACITY {
            // In-flight cells are never the victim: their claimants are
            // still compiling into them.
            let settled = cells.values().filter(|(cell, _)| cell.get().is_some());
            if let Some(oldest) = settled.map(|(_, used)| *used).min() {
                cells.retain(|_, (_, used)| *used != oldest);
            }
        }
        let (cell, _) =
            cells.entry(Box::new(key.clone())).or_insert_with(|| (CacheCell::default(), tick));
        Arc::clone(cell)
    }

    /// One counted compilation. Kernels compiled through a runtime draw
    /// scratch from its shared pool rather than a private one.
    fn compile_now(&self, func: &PrimFunc) -> Result<Arc<CompiledKernel>, Failure> {
        let mut kernel = CompiledKernel::compile(func).map_err(Failure::Compile)?;
        kernel.pool = Arc::clone(&self.pool);
        self.compilations.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(kernel))
    }

    /// Compile `func` ([`CompiledKernel::compile`]: lane fusion on), or
    /// return the cached kernel compiled earlier for an identical
    /// function. Concurrent callers racing on one function are
    /// single-flighted: exactly one thread compiles, the rest block and
    /// share the result; every actual compilation is counted by
    /// [`Runtime::compilations`].
    ///
    /// # Errors
    /// Propagates [`CompiledKernel::compile`] errors.
    pub fn compile(&self, func: &PrimFunc) -> Result<Arc<CompiledKernel>, ExecError> {
        let cell = self.cell(&TextKey(Self::fingerprint(func)));
        // Outside the stripe lock: a slow compilation never blocks lookups
        // of other keys in the same stripe, only co-claimants of this key.
        let entry = cell.get_or_init(|| Entry { kernel: self.compile_now(func), built: None });
        entry.kernel.clone().map_err(|failure| match failure {
            Failure::Compile(e) => e,
            // Not under a `TextKey`: only `compile_keyed` runs a `build`.
            Failure::Build(text) => ExecError::new(text),
        })
    }

    /// [`Runtime::compile`] for a caller that can name what generates its
    /// function: the kernel is filed under `key` itself, and `build` — the
    /// function's generator — runs only when the key is new. A hit returns
    /// the shared kernel without building, printing or hashing any IR,
    /// which is what makes a warm launch cheap when the key is a few
    /// words. Same single-flight cell, same [`Runtime::compilations`] /
    /// [`Runtime::cached`] accounting as the text-keyed entries, in the
    /// same map; a function compiled once through each entry point is
    /// filed (and compiled) twice, the two kinds of key never being equal.
    ///
    /// **`build` must be a pure function of `key`.** The cache cannot see
    /// an input the key leaves out: two callers differing only there would
    /// share whichever kernel was compiled first. Debug builds check it on
    /// every hit — `build` is re-run and must print to the fingerprint
    /// recorded when the key was compiled, or the call panics — so a test
    /// suite run proves the keys it exercises complete; release builds
    /// never call `build` on a hit.
    ///
    /// # Errors
    /// A `build` error (cached as its text, like a compile error: the same
    /// key fails the same way for every later caller) converted through
    /// `E: From<String>`, so it displays as `build` worded it; and
    /// [`CompiledKernel::compile`] errors.
    pub fn compile_keyed<K, B, E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<PrimFunc, B>,
    ) -> Result<Arc<CompiledKernel>, E>
    where
        K: Hash + Eq + Clone + Send + Sync + 'static,
        B: Display,
        E: From<ExecError> + From<String>,
    {
        self.keyed_lookups.fetch_add(1, Ordering::Relaxed);
        let cell = self.cell(key);
        let mut build = Some(build);
        let entry = cell.get_or_init(|| {
            let build = build.take().expect("a cell initialises once");
            match build() {
                Ok(func) => Entry {
                    kernel: self.compile_now(&func),
                    built: cfg!(debug_assertions).then(|| Self::fingerprint(&func)),
                },
                Err(e) => Entry { kernel: Err(Failure::Build(e.to_string())), built: None },
            }
        });
        if let Some(build) = build {
            self.keyed_hits.fetch_add(1, Ordering::Relaxed);
            if cfg!(debug_assertions) {
                let rebuilt = build().ok().map(|func| Self::fingerprint(&func));
                assert_eq!(
                    rebuilt,
                    entry.built,
                    "compile_keyed: `build` under an already-compiled {} produced a different \
                     function — the key leaves out something `build` reads",
                    std::any::type_name::<K>()
                );
            }
        }
        entry.kernel.clone().map_err(|failure| match failure {
            Failure::Compile(e) => e.into(),
            Failure::Build(text) => text.into(),
        })
    }

    /// Number of cached kernels (successful compilations present in the
    /// cache; in-flight and failed entries are not counted). Exact across
    /// shards.
    #[must_use]
    pub fn cached(&self) -> usize {
        let settled = |(cell, _): &(CacheCell, u64)| cell.get().is_some_and(|e| e.kernel.is_ok());
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("nothing panics under a stripe lock")
                    .cells
                    .values()
                    .filter(|c| settled(c))
                    .count()
            })
            .sum()
    }

    /// What the row nests of every cached kernel did over their runs,
    /// summed ([`CompiledKernel::nest_counts`] over the map): how the
    /// launches of an entry point that compiles through a key of its own
    /// ran, read from outside it.
    #[must_use]
    pub fn nest_counts(&self) -> NestCounts {
        let mut sum = NestCounts::default();
        for stripe in &self.shards {
            let stripe = stripe.lock().expect("nothing panics under a stripe lock");
            for (cell, _) in stripe.cells.values() {
                if let Some(Entry { kernel: Ok(kernel), .. }) = cell.get() {
                    sum.add(kernel.nest_counts());
                }
            }
        }
        sum
    }

    /// Monotonic count of actual compilations performed (cache misses).
    /// Unlike [`Runtime::cached`] this never decreases, so it cleanly
    /// asserts "no new compilation happened" across an operation.
    #[must_use]
    pub fn compilations(&self) -> usize {
        self.compilations.load(Ordering::Relaxed)
    }

    /// Monotonic count of [`Runtime::compile_keyed`] calls.
    #[must_use]
    pub fn keyed_lookups(&self) -> usize {
        self.keyed_lookups.load(Ordering::Relaxed)
    }

    /// How many of [`Runtime::keyed_lookups`] found their key claimed and
    /// did not run `build` to fill it (a caller that waited out another
    /// thread's compilation of the key included).
    #[must_use]
    pub fn keyed_hits(&self) -> usize {
        self.keyed_hits.load(Ordering::Relaxed)
    }
}

/// Drop-in replacement for [`crate::eval::eval_func`] backed by the global
/// kernel cache: compiles on first sight of a function, then reuses the
/// slot-compiled program for every subsequent call.
///
/// # Errors
/// Returns [`ExecError`] under the interpreter's error conditions.
pub fn exec_func(
    func: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &mut HashMap<String, TensorData>,
) -> Result<(), ExecError> {
    Runtime::global().compile(func)?.run(scalars, tensors)
}
