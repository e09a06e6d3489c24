//! An LRU cache of built [`Engine`]s, keyed by everything that changes
//! the bytes an engine produces.
//!
//! Parsing a specification is cheap but not free, and a service
//! fielding thousands of small jobs for the same handful of specs should
//! pay it once. An [`Engine`] is stateless across calls: each
//! compress/decompress starts from zeroed predictor tables, which live
//! with the calling thread rather than the engine (each daemon job
//! worker keeps the set its last job used and resets it for the next),
//! so one cached instance can serve any number of concurrent jobs
//! through an [`Arc`].
//!
//! The key is the *source text* of the spec plus the option fields that
//! are recorded in or affect the container: backend profile, thread
//! count, block size, and checkpoint interval. Two requests that differ
//! in any of these get distinct engines; two that agree share one, and
//! byte-identity of the engine's output across thread counts means a
//! cache hit can never change a result.

use std::sync::{Arc, Mutex};

use tcgen_engine::{Backend, Engine, EngineOptions, Recorder};

/// Everything that distinguishes one cached engine from another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineKey {
    /// The spec source text, verbatim (not canonicalised: canonical
    /// equivalence would also be correct, but verbatim is cheaper and
    /// merely costs a duplicate entry when clients format differently).
    pub spec: String,
    /// [`Backend::id`] of the post-compression profile.
    pub profile: u8,
    /// Block-segment worker threads (0 = engine default).
    pub threads: u32,
    /// Records per block (0 = engine default).
    pub block_records: u32,
    /// Checkpoint interval in blocks (0 = none).
    pub checkpoint_blocks: u32,
}

impl EngineKey {
    /// Builds the [`EngineOptions`] this key describes, starting from
    /// the TCgen defaults exactly as the CLI does. A zero field keeps
    /// the engine default (the protocol's "0 = engine default"), so a
    /// flagless served compress is byte-identical to a flagless CLI
    /// one — notably `block_records`, whose engine default is nonzero.
    pub fn options(&self) -> Result<EngineOptions, String> {
        let mut options = EngineOptions::tcgen();
        options.backend = Backend::from_id(self.profile)
            .ok_or_else(|| format!("unknown profile id {}", self.profile))?;
        if self.threads != 0 {
            options.threads = self.threads as usize;
        }
        if self.block_records != 0 {
            options.block_records = self.block_records as usize;
        }
        if self.checkpoint_blocks != 0 {
            options.checkpoint_blocks = self.checkpoint_blocks as usize;
        }
        Ok(options)
    }
}

/// The cache. Most-recently-used entries live at the front of a small
/// vector — with a handful of tenants a linear scan beats any map.
pub struct EngineCache {
    max: usize,
    entries: Mutex<Vec<(EngineKey, Arc<Engine>)>>,
}

impl EngineCache {
    /// A cache holding at most `max` engines. `max == 0` disables
    /// caching entirely (every lookup builds and discards).
    pub fn new(max: usize) -> Self {
        EngineCache { max, entries: Mutex::new(Vec::new()) }
    }

    /// Returns the engine for `key`, building (and caching) it on a
    /// miss. The boolean is `true` on a hit. `recorder` is attached to
    /// newly built engines so their pool telemetry lands in the
    /// daemon's stats report.
    pub fn get(
        &self,
        key: &EngineKey,
        recorder: Option<&Recorder>,
    ) -> Result<(Arc<Engine>, bool), String> {
        {
            let mut entries = self.entries.lock().unwrap();
            if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
                let entry = entries.remove(pos);
                let engine = Arc::clone(&entry.1);
                entries.insert(0, entry);
                return Ok((engine, true));
            }
        }
        // Build outside the lock: spec parsing should not serialise
        // unrelated lookups. A racing miss on the same key builds twice
        // and the loser's engine is dropped — wasteful, never wrong.
        let spec = tcgen_spec::parse(&key.spec).map_err(|e| e.to_string())?;
        let mut engine = Engine::new(spec, key.options()?);
        if let Some(rec) = recorder {
            engine = engine.with_telemetry(rec.clone());
        }
        let engine = Arc::new(engine);
        if self.max > 0 {
            let mut entries = self.entries.lock().unwrap();
            if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
                // Lost the race: keep the incumbent so both callers
                // share one instance from here on.
                let entry = entries.remove(pos);
                let incumbent = Arc::clone(&entry.1);
                entries.insert(0, entry);
                return Ok((incumbent, false));
            }
            entries.insert(0, (key.clone(), Arc::clone(&engine)));
            entries.truncate(self.max);
        }
        Ok((engine, false))
    }

    /// How many engines are currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC_A: &str =
        "TCgen Trace Specification;\n32-Bit Field 1 = {L1 = 1, L2 = 16: FCM1[2]};\nPC = Field 1;";
    const SPEC_B: &str =
        "TCgen Trace Specification;\n32-Bit Field 1 = {L1 = 1, L2 = 32: FCM1[2]};\nPC = Field 1;";
    const SPEC_C: &str =
        "TCgen Trace Specification;\n32-Bit Field 1 = {L1 = 1, L2 = 16: LV[2]};\nPC = Field 1;";

    fn key(spec: &str) -> EngineKey {
        EngineKey {
            spec: spec.into(),
            profile: 0,
            threads: 1,
            block_records: 0,
            checkpoint_blocks: 0,
        }
    }

    #[test]
    fn zero_fields_keep_the_engine_defaults() {
        let zeroed = EngineKey {
            spec: SPEC_A.into(),
            profile: 0,
            threads: 0,
            block_records: 0,
            checkpoint_blocks: 0,
        };
        let options = zeroed.options().unwrap();
        let defaults = EngineOptions::tcgen();
        assert_eq!(options.threads, defaults.threads);
        assert_eq!(options.block_records, defaults.block_records);
        assert_eq!(options.checkpoint_blocks, defaults.checkpoint_blocks);
        assert_ne!(
            options.block_records, 0,
            "flagless requests must not mean whole-trace blocks"
        );
    }

    #[test]
    fn hits_share_one_engine_and_misses_build() {
        let cache = EngineCache::new(4);
        let (first, hit) = cache.get(&key(SPEC_A), None).unwrap();
        assert!(!hit, "first lookup is a miss");
        let (second, hit) = cache.get(&key(SPEC_A), None).unwrap();
        assert!(hit, "same key hits");
        assert!(Arc::ptr_eq(&first, &second), "a hit returns the same instance");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_options_are_distinct_tenants() {
        let cache = EngineCache::new(4);
        cache.get(&key(SPEC_A), None).unwrap();
        let mut threaded = key(SPEC_A);
        threaded.threads = 3;
        let (_, hit) = cache.get(&threaded, None).unwrap();
        assert!(!hit, "different threads => different engine");
        let mut profiled = key(SPEC_A);
        profiled.profile = 2;
        let (_, hit) = cache.get(&profiled, None).unwrap();
        assert!(!hit, "different profile => different engine");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let cache = EngineCache::new(2);
        cache.get(&key(SPEC_A), None).unwrap();
        cache.get(&key(SPEC_B), None).unwrap();
        // Touch A so B is the least recently used, then insert C.
        let (_, hit) = cache.get(&key(SPEC_A), None).unwrap();
        assert!(hit);
        cache.get(&key(SPEC_C), None).unwrap();
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache.get(&key(SPEC_A), None).unwrap();
        assert!(hit, "recently used entry survived");
        let (_, hit) = cache.get(&key(SPEC_B), None).unwrap();
        assert!(!hit, "least recently used entry was evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = EngineCache::new(0);
        let (_, hit) = cache.get(&key(SPEC_A), None).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get(&key(SPEC_A), None).unwrap();
        assert!(!hit);
        assert!(cache.is_empty());
    }

    #[test]
    fn bad_specs_and_profiles_are_errors_not_entries() {
        let cache = EngineCache::new(2);
        assert!(cache.get(&key("not a spec"), None).is_err());
        let mut bad = key(SPEC_A);
        // Profile 1 named the retired balanced backend.
        for profile in [1, 9] {
            bad.profile = profile;
            assert!(cache.get(&bad, None).is_err(), "profile {profile}");
        }
        assert!(cache.is_empty());
    }
}
