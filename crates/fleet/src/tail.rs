//! Incremental `events.jsonl` tailing for shard liveness and progress.
//!
//! Each local shard worker appends to `<shard_dir>/events.jsonl` (with a
//! heartbeat `progress` line every second by default), so the supervisor
//! never needs a side channel: a growing log is a live worker, a quiet
//! one is dead or wedged, and the latest `store_resume`/`cell_done`
//! payloads are the shard's exact cell count. [`ShardTail`] reads the
//! file incrementally — it remembers a byte offset, consumes only
//! complete (`\n`-terminated) lines, and buffers a torn tail until the
//! writer finishes it — so polling is O(new bytes), not O(file).
//!
//! The tail anchors at the **current end of file** when constructed:
//! history from earlier fleet runs (prior segments, their `run_end`
//! raster counts) is deliberately out of scope, because the supervisor
//! reports what *this* run did. Cells completed by earlier runs still
//! count — the worker's own `store_resume` line in the new segment
//! carries them.

use std::io::{self, Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};

use re_sweep::json::Json;
use re_sweep::{EventRecord, SweepEvent};

/// An incremental reader of one shard's `events.jsonl`.
#[derive(Debug)]
pub struct ShardTail {
    path: PathBuf,
    offset: u64,
    partial: String,
    resumed: u64,
    done: u64,
    total: Option<u64>,
    rasters: u64,
    ended: Option<String>,
}

impl ShardTail {
    /// Starts a tail anchored at the current end of `path` (offset 0 when
    /// the file does not exist yet — the worker has not started).
    pub fn new(path: impl Into<PathBuf>) -> ShardTail {
        let path = path.into();
        let offset = std::fs::metadata(&path).map_or(0, |m| m.len());
        ShardTail {
            path,
            offset,
            partial: String::new(),
            resumed: 0,
            done: 0,
            total: None,
            rasters: 0,
            ended: None,
        }
    }

    /// Reads everything appended since the last poll and folds it into
    /// the accounting. Returns `true` when new bytes arrived — the
    /// liveness signal (a heartbeating worker grows its log even when no
    /// cell finishes).
    ///
    /// # Errors
    /// Read errors other than the file not existing yet.
    pub fn poll(&mut self) -> io::Result<bool> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        file.seek(SeekFrom::Start(self.offset))?;
        let mut fresh = String::new();
        let read = file.read_to_string(&mut fresh)?;
        if read == 0 {
            return Ok(false);
        }
        self.offset += read as u64;
        self.partial.push_str(&fresh);
        // Consume only complete lines; a torn tail stays buffered until
        // the writer's next append completes it.
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            self.fold(line.trim());
        }
        Ok(true)
    }

    fn fold(&mut self, line: &str) {
        if line.is_empty() {
            return;
        }
        // A line that does not parse is another writer's torn artifact or
        // a future format — either way it must not kill supervision.
        let Ok(record) = Json::parse(line).and_then(|v| EventRecord::from_json(&v)) else {
            return;
        };
        match record {
            EventRecord::RunStart { .. } => {
                // A relaunched worker opens a new segment: its counters
                // restart, and its own store_resume re-establishes the base.
                self.resumed = 0;
                self.done = 0;
                self.ended = None;
            }
            EventRecord::RunEnd {
                reason, rasters, ..
            } => {
                self.ended = Some(reason);
                self.rasters += rasters.unwrap_or(0);
            }
            EventRecord::Event { event, .. } => match event {
                SweepEvent::StoreResume { resumed, .. } => self.resumed = resumed as u64,
                SweepEvent::CellDone { done, total, .. }
                | SweepEvent::Progress { done, total, .. } => {
                    self.done = done as u64;
                    self.total = Some(total as u64);
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// Cells complete in the shard store: the segment's resumed base plus
    /// cells finished in the segment so far.
    pub fn cells_done(&self) -> u64 {
        self.resumed + self.done
    }

    /// Raster invocations summed over every `run_end` trailer seen since
    /// the anchor — the shard's contribution to the fleet-wide total.
    pub fn rasters(&self) -> u64 {
        self.rasters
    }

    /// The current segment's `run_end` reason, once it lands (`None`
    /// while the segment is mid-run — or was killed without a trailer).
    pub fn ended(&self) -> Option<&str> {
        self.ended.as_deref()
    }

    /// The file being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("re_fleet_tail_{}_{name}.jsonl", std::process::id()))
    }

    fn append(path: &Path, text: &str) {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open");
        f.write_all(text.as_bytes()).expect("write");
    }

    #[test]
    fn tail_counts_resume_base_progress_and_rasters() {
        let path = tmp("accounting");
        let _ = std::fs::remove_file(&path);
        let mut tail = ShardTail::new(&path);
        assert!(!tail.poll().expect("missing file is quiet"));

        append(
            &path,
            "{\"type\":\"run_start\",\"v\":1,\"t_ms\":0,\"epoch_ms\":1}\n\
             {\"type\":\"store_resume\",\"t_ms\":1,\"resumed\":3,\"pending\":5}\n\
             {\"type\":\"progress\",\"t_ms\":2,\"done\":2,\"total\":5,\
              \"elapsed_ns\":9,\"cells_per_sec\":1.0}\n",
        );
        assert!(tail.poll().expect("poll"));
        assert_eq!(tail.cells_done(), 5, "resumed 3 + done 2");
        assert_eq!(tail.ended(), None);

        // Quiet file: no growth, accounting unchanged.
        assert!(!tail.poll().expect("poll"));
        assert_eq!(tail.cells_done(), 5);

        append(
            &path,
            "{\"type\":\"run_end\",\"t_ms\":9,\"reason\":\"complete\",\"rasters\":4}\n",
        );
        assert!(tail.poll().expect("poll"));
        assert_eq!(tail.ended(), Some("complete"));
        assert_eq!(tail.rasters(), 4);

        // A relaunch opens a new segment: counters restart, rasters sum.
        append(
            &path,
            "{\"type\":\"run_start\",\"v\":1,\"t_ms\":0,\"epoch_ms\":2}\n\
             {\"type\":\"store_resume\",\"t_ms\":1,\"resumed\":5,\"pending\":3}\n\
             {\"type\":\"run_end\",\"t_ms\":4,\"reason\":\"complete\",\"rasters\":1}\n",
        );
        assert!(tail.poll().expect("poll"));
        assert_eq!(tail.cells_done(), 5, "new segment base, no cells yet");
        assert_eq!(tail.rasters(), 5, "4 + 1 across segments");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_lines_are_buffered_until_completed() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut tail = ShardTail::new(&path);
        append(&path, "{\"type\":\"progress\",\"t_ms\":1,\"done\":4,");
        assert!(tail.poll().expect("poll"), "bytes arrived");
        assert_eq!(tail.cells_done(), 0, "half a line is not progress");
        append(
            &path,
            "\"total\":8,\"elapsed_ns\":1,\"cells_per_sec\":2.0}\n",
        );
        assert!(tail.poll().expect("poll"));
        assert_eq!(tail.cells_done(), 4, "completed line folds in");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tail_anchors_at_eof_ignoring_history() {
        let path = tmp("anchor");
        let _ = std::fs::remove_file(&path);
        append(
            &path,
            "{\"type\":\"run_start\",\"v\":1,\"t_ms\":0,\"epoch_ms\":1}\n\
             {\"type\":\"run_end\",\"t_ms\":9,\"reason\":\"complete\",\"rasters\":99}\n",
        );
        let mut tail = ShardTail::new(&path);
        assert!(!tail.poll().expect("poll"), "history is behind the anchor");
        assert_eq!(tail.rasters(), 0, "old segments' rasters don't count");
        let _ = std::fs::remove_file(&path);
    }
}
