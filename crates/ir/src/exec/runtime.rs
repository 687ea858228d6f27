//! The compile-once/run-many kernel cache ([`Runtime`]) and the
//! [`exec_func`] convenience over the process-wide instance.

use super::{BufferPool, CompiledKernel, ExecError};
use crate::eval::TensorData;
use crate::func::PrimFunc;
use crate::printer::print_func;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of stripes in the [`Runtime`] kernel cache. Keys land in a
/// stripe by fingerprint bits, so concurrent compilations of *unrelated*
/// functions (the serving engine's steady state) almost never touch the
/// same lock.
const CACHE_SHARDS: usize = 16;

/// One cache entry: a single-flight cell. The first thread to claim a key
/// inserts the cell under the stripe lock (cheap) and compiles *outside*
/// it; racing threads for the same key block on [`OnceLock::get_or_init`]
/// and receive the one shared kernel, so a compile storm on one hot
/// function costs exactly one compilation. Compile errors are cached too —
/// compilation is deterministic in the printed IR, so a failing function
/// fails identically forever.
type CacheCell = Arc<OnceLock<Result<Arc<CompiledKernel>, ExecError>>>;

/// Cache key: the function fingerprint ([`Runtime::fingerprint`]).
type CacheKey = u64;

/// Compile-once/run-many cache of [`CompiledKernel`]s keyed by function
/// identity (name + printed IR). The map is striped across
/// `CACHE_SHARDS` locks with per-key single-flight compilation (see
/// `CacheCell`); [`Runtime::cached`] and [`Runtime::compilations`] are
/// exact across shards.
pub struct Runtime {
    shards: Vec<Mutex<HashMap<CacheKey, CacheCell>>>,
    compilations: AtomicUsize,
    /// Shared by every kernel compiled through this runtime.
    pool: Arc<BufferPool>,
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            compilations: AtomicUsize::new(0),
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

    /// Fingerprint used as the cache key: name plus printed IR, which the
    /// printer renders canonically (slots, extents, bindings).
    #[must_use]
    pub fn fingerprint(func: &PrimFunc) -> u64 {
        let mut h = DefaultHasher::new();
        func.name.hash(&mut h);
        print_func(func).hash(&mut h);
        h.finish()
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
        let key = Self::fingerprint(func);
        let cell: CacheCell = {
            // The fingerprint is already a hash: its low bits pick the stripe.
            let mut shard = self.shards[(key % CACHE_SHARDS as u64) as usize].lock().unwrap();
            Arc::clone(shard.entry(key).or_default())
        };
        // Outside the stripe lock: a slow compilation never blocks lookups
        // of other keys in the same stripe, only co-claimants of this key.
        cell.get_or_init(|| {
            let mut kernel = CompiledKernel::compile(func)?;
            // Kernels compiled through a runtime draw scratch from its
            // shared pool rather than a private one.
            kernel.pool = Arc::clone(&self.pool);
            self.compilations.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(kernel))
        })
        .clone()
    }

    /// Number of cached kernels (successful compilations present in the
    /// cache; in-flight and failed entries are not counted). Exact across
    /// shards.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().values().filter(|c| matches!(c.get(), Some(Ok(_)))).count())
            .sum()
    }

    /// Monotonic count of actual compilations performed (cache misses).
    /// Unlike [`Runtime::cached`] this never decreases, so it cleanly
    /// asserts "no new compilation happened" across an operation.
    #[must_use]
    pub fn compilations(&self) -> usize {
        self.compilations.load(Ordering::Relaxed)
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
