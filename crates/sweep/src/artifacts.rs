//! The sweep's on-disk artifact caches: workload traces (`.retrace`) and
//! Stage A render logs (`.relog`), living side by side in one directory.
//!
//! Two artifact kinds, one pattern — capture/render once, persist
//! atomically, replay everywhere:
//!
//! * **Traces** ([`TraceCache`]). Scene generators are `Box<dyn Scene>`
//!   and deliberately not `Send` — they were never designed for threading.
//!   The sweep sidesteps that entirely: each workload is captured **once**
//!   into a [`re_trace::Trace`] (a plain `Send + Sync` value), optionally
//!   cached on disk as a `.retrace` file, and every worker replays it
//!   through its own lightweight [`re_trace::TraceScene`] that shares the
//!   trace via `Arc` instead of cloning frames wholesale. Replay is
//!   bit-exact (see `re_trace`'s roundtrip tests), so a sweep over a trace
//!   measures exactly what a serial run over the live generator would.
//!
//! * **Render logs** ([`RenderLogCache`]). Stage A's output — the
//!   [`re_core::RenderLog`] per render key — is the sweep's dominant cost.
//!   Caching it as a `.relog` file (format: [`re_core::relog`]) means a
//!   resumed, killed, or re-merged shard run can skip rasterization
//!   entirely for covered keys: the plan marks those render jobs satisfied
//!   ([`crate::SweepPlan::attach_cached_logs`]) and the executor streams
//!   the log from disk instead. Lookup reads only the artifact's header
//!   (magic, identity fingerprint, name, config, frame count) and treats a
//!   mismatch as a miss, so stale or foreign files fall back to
//!   re-rendering. Frame checksums are checked once, when the executor
//!   decodes the log; a corrupt frame sends that key back to Stage A,
//!   which overwrites the artifact.
//!
//! Both caches commit via write-to-temp-then-rename, so a killed sweep
//! never leaves a torn artifact a later run would trust.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use re_core::relog;
use re_core::render::RenderLog;
use re_gpu::GpuConfig;
use re_trace::Trace;

use crate::grid::{binning_name, RenderKey};

/// Artifact-file-safe form of a scene alias: imported traces contain a
/// `:` (`trace:foo`), which is not portable in file names.
pub fn sanitize_alias(alias: &str) -> String {
    alias.replace(':', "+")
}

/// Captures workloads once and hands out shared traces, with an optional
/// on-disk `.retrace` cache keyed by scene, frame count and capture screen.
#[derive(Debug)]
pub struct TraceCache {
    dir: Option<PathBuf>,
    loaded: HashMap<String, Arc<Trace>>,
}

impl TraceCache {
    /// A cache writing `.retrace` files under `dir` (`None` = memory only).
    pub fn new(dir: Option<PathBuf>) -> Self {
        TraceCache {
            dir,
            loaded: HashMap::new(),
        }
    }

    fn file_key(alias: &str, frames: usize, cfg: GpuConfig) -> String {
        format!(
            "{}-{frames}f-{}x{}.retrace",
            sanitize_alias(alias),
            cfg.width,
            cfg.height
        )
    }

    /// The trace of workload `alias` over `frames` frames: from memory, else
    /// from the disk cache, else captured live (and then cached).
    ///
    /// # Errors
    /// I/O errors from the disk cache, or an unknown alias (reported as
    /// [`io::ErrorKind::NotFound`]).
    pub fn get(&mut self, alias: &str, frames: usize, cfg: GpuConfig) -> io::Result<Arc<Trace>> {
        let key = Self::file_key(alias, frames, cfg);
        if let Some(t) = self.loaded.get(&key) {
            re_obs::metrics::counter(re_obs::names::TRACE_HITS).incr();
            return Ok(Arc::clone(t));
        }
        if let Some(dir) = &self.dir {
            let path = dir.join(&key);
            if path.exists() {
                let t = Arc::new(Trace::load(&path)?);
                re_obs::metrics::counter(re_obs::names::TRACE_HITS).incr();
                re_obs::metrics::counter(re_obs::names::ARTIFACT_BYTES_READ)
                    .add(std::fs::metadata(&path).map_or(0, |m| m.len()));
                self.loaded.insert(key, Arc::clone(&t));
                return Ok(t);
            }
        }
        re_obs::metrics::counter(re_obs::names::TRACE_MISSES).incr();
        let t = Arc::new(capture_alias(alias, frames, cfg)?);
        if let Some(dir) = &self.dir {
            std::fs::create_dir_all(dir)?;
            // Write-then-rename so a killed sweep never leaves a torn
            // `.retrace` that a resumed run would trust.
            let tmp = dir.join(format!("{key}.tmp"));
            t.save(&tmp)?;
            let path = dir.join(&key);
            std::fs::rename(&tmp, &path)?;
            re_obs::metrics::counter(re_obs::names::ARTIFACT_BYTES_WRITTEN)
                .add(std::fs::metadata(&path).map_or(0, |m| m.len()));
        }
        self.loaded.insert(key, Arc::clone(&t));
        Ok(t)
    }
}

/// On-disk cache of Stage A artifacts: one `.relog` per [`RenderKey`],
/// next to the `.retrace` files when the caches share a directory.
///
/// Unlike [`TraceCache`] there is no in-memory layer — the executor
/// already shares a hot log across its cells via `Arc`, and the point of
/// the disk artifact is exactly the runs that *don't* have the log in
/// memory (resume after a kill, a re-executed shard, a daemon's next
/// submission). `None` as the directory disables the cache.
#[derive(Debug, Clone)]
pub struct RenderLogCache {
    dir: Option<PathBuf>,
    compression: relog::Compression,
}

impl RenderLogCache {
    /// A cache writing `.relog` files with every frame stored plain under
    /// `dir` (`None` = disabled).
    pub fn new(dir: Option<PathBuf>) -> Self {
        RenderLogCache {
            dir,
            compression: relog::Compression::None,
        }
    }

    /// The same cache writing artifacts with `compression`
    /// ([`relog::Compression::Lzss`] = smaller files, same contents).
    /// Reads are unaffected — both settings write the one `.relog`
    /// framing, so mixed directories and flag flips between runs are fine.
    pub fn with_compression(mut self, compression: relog::Compression) -> Self {
        self.compression = compression;
        self
    }

    /// The compression newly stored artifacts are written with.
    pub fn compression(&self) -> relog::Compression {
        self.compression
    }

    /// Whether a directory is configured.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The cache file name of `key` — every identity input (scene, frame
    /// count, screen, tile size, binning) is in the name, so distinct keys
    /// never collide.
    pub fn file_key(key: &RenderKey) -> String {
        let cfg = key.gpu_config();
        format!(
            "{}-{}f-{}x{}-ts{}-{}.relog",
            sanitize_alias(key.scene()),
            key.frames(),
            cfg.width,
            cfg.height,
            cfg.tile_size,
            binning_name(cfg.binning),
        )
    }

    /// Opens the artifact at `path` as a log of `key`: its header must
    /// carry the current magic and `key`'s fingerprint
    /// ([`relog::log_fingerprint`]), scene name, config and frame count.
    /// No frame is read here; the returned reader checks each frame's CRC
    /// as it decodes it.
    ///
    /// # Errors
    /// I/O and format errors, and [`io::ErrorKind::InvalidData`] for an
    /// artifact of another key (stale or foreign).
    pub fn open(
        key: &RenderKey,
        path: &Path,
    ) -> io::Result<relog::RelogReader<io::BufReader<std::fs::File>>> {
        let reader = relog::RelogReader::open(path)?;
        let header = reader.header();
        if header.fingerprint != relog::log_fingerprint(key.scene(), key.gpu_config(), key.frames())
            || header.name != key.scene()
            || header.config != key.gpu_config()
            || header.frame_count as usize != key.frames()
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a log of {}", path.display(), key.scene()),
            ));
        }
        Ok(reader)
    }

    /// The path of a cached log for `key`, or `None` when the cache is
    /// disabled, the file is absent, or its header does not identify
    /// `key`'s log (see [`open`](Self::open)). Such artifacts are deleted
    /// so the slot is clean for the re-render that follows. Frame
    /// checksums are left to the decode that replays the artifact.
    pub fn lookup(&self, key: &RenderKey) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let path = dir.join(Self::file_key(key));
        if !path.is_file() {
            return None;
        }
        if Self::open(key, &path).is_ok() {
            Some(path)
        } else {
            let _ = std::fs::remove_file(&path);
            None
        }
    }

    /// Persists a freshly rendered log for `key` (atomic: temp + rename)
    /// and returns its path; `Ok(None)` when the cache is disabled.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn store(&self, key: &RenderKey, log: &RenderLog) -> io::Result<Option<PathBuf>> {
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let name = Self::file_key(key);
        let tmp = dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, relog::encode_with(log, self.compression))?;
        let path = dir.join(name);
        std::fs::rename(&tmp, &path)?;
        Ok(Some(path))
    }
}

/// Captures `frames` frames of the workload `alias` under `cfg`.
///
/// Builtin aliases (the suite and the vector family) capture their live
/// generator. Imported `trace:<alias>` scenes re-read their registered
/// `.retrace` file through the hardened import layer — re-validating on
/// every capture guards against on-disk tampering between registration and
/// use — and then re-capture its replay under the requested config and
/// frame count (wrapping when more frames are requested than captured).
///
/// # Errors
/// [`io::ErrorKind::NotFound`] for unknown aliases,
/// [`io::ErrorKind::InvalidData`] for imports that fail re-validation.
pub fn capture_alias(alias: &str, frames: usize, cfg: GpuConfig) -> io::Result<Trace> {
    if let Some(path) = re_workloads::source::trace_path(alias) {
        let bytes = std::fs::read(&path)?;
        let imported =
            re_trace::import::import_bytes(&bytes, &re_trace::import::ImportLimits::default())
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{alias} ({}): {e}", path.display()),
                    )
                })?;
        let mut replay = re_trace::TraceScene::with_name(imported, alias);
        return Ok(re_trace::capture(&mut replay, cfg, frames));
    }
    let mut scene = re_workloads::source::builtin_scene(alias).ok_or_else(|| {
        let suggestion = re_workloads::source::suggest(alias)
            .map(|near| format!(" (did you mean `{near}`?)"))
            .unwrap_or_default();
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("unknown workload alias `{alias}`{suggestion}"),
        )
    })?;
    Ok(re_trace::capture(scene.as_mut(), cfg, frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_core::{SimOptions, Simulator};

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 128,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    #[test]
    fn shared_replay_matches_live_run() {
        let trace = Arc::new(capture_alias("ccs", 4, cfg()).expect("capture"));
        let mut replay = re_trace::TraceScene::with_name(Arc::clone(&trace), "ccs");
        let mut live = re_workloads::by_alias("ccs").unwrap();

        let opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let a = Simulator::new(opts).run(&mut replay, 4);
        let b = Simulator::new(opts).run(live.scene.as_mut(), 4);
        assert_eq!(a.baseline.total_cycles(), b.baseline.total_cycles());
        assert_eq!(a.re.tiles_skipped, b.re.tiles_skipped);
        assert_eq!(a.false_positives, b.false_positives);
        assert_eq!(a.name, "ccs");
    }

    #[test]
    fn disk_cache_round_trips_and_is_reused() {
        let dir = std::env::temp_dir().join(format!("re_sweep_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = TraceCache::new(Some(dir.clone()));
        let first = cache.get("tib", 3, cfg()).expect("capture");
        assert!(dir.join("tib-3f-128x64.retrace").exists());

        // A fresh cache object must hit the file, not re-capture.
        let mut cache2 = TraceCache::new(Some(dir.clone()));
        let second = cache2.get("tib", 3, cfg()).expect("load");
        assert_eq!(*first, *second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_alias_is_not_found() {
        let mut cache = TraceCache::new(None);
        let err = cache.get("nope", 2, cfg()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// A render key of the given frame count over the `ccs` workload.
    fn key_of(frames: usize) -> crate::grid::RenderKey {
        let mut g = crate::grid::ExperimentGrid::default().with_scenes(&["ccs"]);
        g.frames = frames;
        g.width = 128;
        g.height = 64;
        g.cells()[0].render_key()
    }

    fn log_for(key: &crate::grid::RenderKey) -> RenderLog {
        let trace = Arc::new(capture_alias(key.scene(), key.frames(), cfg()).expect("capture"));
        crate::engine::render_key_log_parallel(&trace, key, 1).log
    }

    fn decode_file(path: &Path) -> RenderLog {
        relog::RelogReader::open(path)
            .and_then(relog::RelogReader::into_log)
            .expect("decode")
    }

    #[test]
    fn render_log_cache_stores_and_validates() {
        let dir = std::env::temp_dir().join(format!("re_relog_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RenderLogCache::new(Some(dir.clone()));
        let key = key_of(3);
        assert_eq!(cache.lookup(&key), None, "cold cache misses");

        let log = log_for(&key);
        let path = cache.store(&key, &log).expect("store").expect("enabled");
        assert_eq!(path.file_name().unwrap(), "ccs-3f-128x64-ts16-bbox.relog");
        assert_eq!(cache.lookup(&key), Some(path.clone()));
        assert_eq!(decode_file(&path), log, "artifact is exact");

        // A disabled cache neither hits nor writes.
        let off = RenderLogCache::new(None);
        assert!(!off.enabled());
        assert_eq!(off.lookup(&key), None);
        assert_eq!(off.store(&key, &log).expect("noop"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_artifacts_validate_and_replay_identically() {
        let dir = std::env::temp_dir().join(format!("re_relog_lz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of(3);
        let log = log_for(&key);

        let plain = RenderLogCache::new(Some(dir.clone()));
        let path = plain.store(&key, &log).expect("store").expect("enabled");
        let plain_bytes = std::fs::metadata(&path).unwrap().len();

        let packed =
            RenderLogCache::new(Some(dir.clone())).with_compression(relog::Compression::Lzss);
        let path = packed.store(&key, &log).expect("store").expect("enabled");
        let packed_bytes = std::fs::metadata(&path).unwrap().len();
        assert!(
            packed_bytes < plain_bytes,
            "compressed artifact must be smaller ({packed_bytes} vs {plain_bytes})"
        );
        // Either cache object validates the compressed artifact, and the
        // decoded contents are exact.
        assert_eq!(plain.lookup(&key), Some(path.clone()));
        assert_eq!(packed.lookup(&key), Some(path.clone()));
        assert_eq!(decode_file(&path), log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_stale_artifacts_are_misses_and_removed() {
        let dir = std::env::temp_dir().join(format!("re_relog_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RenderLogCache::new(Some(dir.clone()));
        let key3 = key_of(3);
        let path = cache
            .store(&key3, &log_for(&key3))
            .expect("store")
            .expect("enabled");

        // Retired format revision: the same artifact under the old
        // `RELOG001` magic is a miss. (A frame-corrupt artifact still hits
        // here; its decode fails and the key re-renders, see
        // `tests/render_once.rs`.)
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[7] = b'1';
        std::fs::write(&path, &bytes).expect("write");
        assert_eq!(cache.lookup(&key3), None, "old-revision artifact is a miss");
        assert!(!path.exists(), "invalid artifact is cleaned up");

        // Stale: a valid artifact for another key parked under this key's
        // file name (e.g. hand-copied between cache dirs) fails the
        // fingerprint.
        let key4 = key_of(4);
        let other = cache
            .store(&key4, &log_for(&key4))
            .expect("store")
            .expect("enabled");
        std::fs::rename(&other, &path).expect("rename");
        assert_eq!(cache.lookup(&key3), None, "stale artifact is a miss");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
