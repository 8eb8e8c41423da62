//! Durable state: per-project append-only journal segments, periodic
//! snapshots that seal them, and the process-wide registry that
//! serializes access to both.
//!
//! # Layout
//!
//! ```text
//! <data-dir>/
//!   projects/<name>/
//!     project.json             registration record (written once)
//!     testset.<era>.json       per-era server-side testset blob (predictions mode)
//!     snapshot.json            compacted state + journal watermark
//!     journal.<first op>.log   the live journal segment: one JSON op per
//!                              line, append-only, ops from <first op> on
//! ```
//!
//! A project has at most one segment: the one the first op past its
//! last snapshot created, named after that snapshot's watermark. A
//! project with no op since its registration or its last snapshot has
//! none. An older data dir's bare `journal.log` reads as the segment
//! that starts at op 0.
//!
//! Boot reads only `projects/`. Other files in the data dir, such as the
//! `bounds_cache.v1`/`plan_cache.v1` estimator-cache dumps older versions
//! wrote there, are ignored: the estimator caches live in memory only.
//!
//! # Durability model
//!
//! Every accepted mutation is appended to the owning project's journal
//! *before* the response is sent, under the project lock. *When* the
//! appended bytes are forced to stable storage — and when the client is
//! told — is governed by [`Durability`]: `group` (the default) batches
//! many ops into one fsync per journal per group-commit round and
//! defers the ack until the fsync covers the op, while `relaxed` acks
//! immediately and leaves the journal to the snapshot cadence's inline
//! sync (see [`group`]). A round runs on the thread that staged its
//! syncs: the event loop runs one after each readiness sweep, any other
//! thread before its store call returns. Journal *bytes* are written
//! inline in every mode, so the byte stream is identical across modes.
//! A registration fsyncs and renames its own `project.json` and fsyncs
//! its directory before it answers, in both modes, and stages no sync.
//! Restart recovery loads `snapshot.json` (if present), then replays the
//! journal segment past the snapshot's watermark through the same gate
//! code that served the original requests; each replayed op's recorded outcome
//! (`passed`, `step`, `era`) is cross-checked and any mismatch rejects
//! the directory as corrupt rather than silently diverging. The
//! snapshot is decoded in one pull pass over its text (`json::Reader`),
//! straight into the gate's history, the dedup keys and a lazy pool's
//! spent labels, with no JSON tree built and dropped in between; it
//! accepts exactly the documents a tree walk accepts, with the same
//! reasons for the ones it refuses. So is every other record boot reads
//! (`project.json`, the era blobs, each journal line), by the decoders
//! of the `record` module: a journal line is read by the decoder that
//! read the request body it records, so the live route and the boot
//! replay cannot read a commit's counts differently. Boot lists each
//! project directory once and checks the segment names against the
//! watermark before it reads any: they must chain, each starting where
//! the one before it ends, and a segment the snapshot covers whole is
//! unlinked unread or unreplayed. After a graceful stop boot reads no journal byte, and
//! `/metrics` counts what it read
//! (`easeml_boot_snapshot_bytes_total`, `easeml_boot_journal_bytes_total`).
//! Predictions-mode ops additionally store the submitted vectors and the
//! counts the server derived from them: replay re-*measures* the vectors
//! against the era's testset blob (whose digest is anchored in
//! `project.json`, the `fresh_testset` journal op, or the snapshot) and
//! cross-checks the derived counts, so tampering with a prediction blob,
//! a testset blob, or a recorded outcome all fail the boot.
//!
//! # Compaction
//!
//! Every snapshot — cadence, explicit, `/admin/persist` or shutdown —
//! seals the journal: it fsyncs the live segment, writes the snapshot
//! atomically (temp file, fsync, rename), fsyncs the project directory
//! so the rename is durable, and only then unlinks the segments it
//! covers (see [`ProjectStore::write_snapshot`]). The journal is
//! therefore no audit log: once sealed, an op lives on only in the
//! snapshot, which keeps its counts, outcome and dedup digest, but not
//! a predictions op's vectors. A new file's directory entry is made
//! durable before anything depends on it: a segment's before the first
//! op lands in it, a registration's directory and record before the
//! registration is acknowledged, and an era's testset blob before the
//! journal op that activates it.
//!
//! # Snapshot cadence
//!
//! A snapshot holds the project's whole history, so writing one every
//! fixed number of ops would cost each op O(history). Instead a cadence
//! snapshot is written once at least [`SNAPSHOT_EVERY`] ops *and* at
//! least as many journal bytes as the last snapshot holds have been
//! appended since it. Snapshot bytes written then stay within the
//! journal bytes appended plus the [`SNAPSHOT_EVERY`]-op floor, a
//! constant cost per op; the first snapshot still lands at op
//! [`SNAPSHOT_EVERY`]; and crash recovery replays a suffix of at most
//! `SNAPSHOT_EVERY - 1` ops or at most one snapshot's worth of journal
//! bytes. A failed cadence snapshot is retried [`SNAPSHOT_EVERY`] ops
//! later, and an explicit snapshot (shutdown, `/admin/persist`) restarts
//! the count. Under [`Durability::Relaxed`] the journal is still synced
//! inline every [`SNAPSHOT_EVERY`] ops when no snapshot is due, so its
//! power-cut window stays at most `SNAPSHOT_EVERY - 1` ops.
//!
//! Neither failure fails the request: a failed cadence snapshot loses
//! only compaction (the journal holds the op), and a failed inline sync
//! is retried by the next one. Both are counted in [`StoreFailures`],
//! which `/metrics` exports as `easeml_snapshot_failures_total` and
//! `easeml_journal_sync_failures_total`.
//!
//! # Determinism contract
//!
//! Ops from concurrent connections serialize under the project lock, and
//! each project owns its own journal segments, so the journal bytes of a
//! project depend only on the order its *own* clients submitted — never
//! on the server's thread count or on traffic to other projects. The
//! integration tests assert byte-identical journals for the same client
//! schedule at different pool widths.

pub mod group;

use crate::error::ServeError;
use crate::json::{decode_u32_vec, encode_u32_vec, JsonError, JsonWriter, Kind, Reader};
use crate::obs::trace::{self, Stage};
use crate::obs::OutcomeCounters;
use crate::record::{
    commit_members, decode_document, decode_project, decode_testset, read_digest, read_ints,
    read_u64, walk_object, Ints, ESTIMATES, PER_CLASS_VECTORS,
};
use crate::registry::{
    CommitSubmission, EntryKey, EvalCounts, Feed, MeasuredTestset, PackedPredictions,
    PredictionsSubmission, Project, Savepoint, TestsetSpec, WireVector,
};
use crate::vfs::{write_atomic, RealVfs, Vfs};
use easeml_ci_core::{
    CommitEstimates, CommitHistory, CommitReceipt, HistoryEntry, PerClassCounts,
    SampleSizeEstimator, Tribool,
};
use group::SharedJournal;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

pub use group::{Durability, GroupCommit, GroupMetrics, Waiter};

/// The least number of journalled ops between two cadence snapshots,
/// and the op at which a project's first one lands. A later one also
/// waits until the journal bytes appended since the last snapshot reach
/// that snapshot's size (see the module docs). Under
/// [`Durability::Relaxed`] it is also the journal's inline sync period.
pub const SNAPSHOT_EVERY: u64 = 64;

fn corrupt(path: &Path, reason: impl Into<String>) -> ServeError {
    ServeError::Corrupt {
        path: path.to_owned(),
        reason: reason.into(),
    }
}

pub(crate) fn tribool_str(t: Tribool) -> &'static str {
    match t {
        Tribool::True => "True",
        Tribool::False => "False",
        Tribool::Unknown => "Unknown",
    }
}

fn tribool_parse(s: &str) -> Option<Tribool> {
    match s {
        "True" => Some(Tribool::True),
        "False" => Some(Tribool::False),
        "Unknown" => Some(Tribool::Unknown),
        _ => None,
    }
}

/// File name of the durable testset blob for one era.
fn testset_blob_name(era: u32) -> String {
    format!("testset.{era}.json")
}

/// File name of the journal segment whose first op is op `first_op`
/// (counting from 0): the ops before it are in earlier segments or in
/// the snapshot.
fn segment_name(first_op: u64) -> String {
    format!("journal.{first_op}.log")
}

/// The first op of the journal segment a file name denotes. The bare
/// `journal.log` older versions wrote is the segment that starts at op
/// 0. `None` for a file that is no segment; the reason for a
/// `journal.*.log` name that denotes none.
pub(crate) fn segment_start(name: &str) -> Option<Result<u64, &'static str>> {
    if name == "journal.log" {
        return Some(Ok(0));
    }
    let digits = name.strip_prefix("journal.")?.strip_suffix(".log")?;
    Some(
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            Err("journal segment name is not `journal.<first op>.log`")
        } else if digits.len() > 1 && digits.starts_with('0') {
            Err("journal segment name has leading zeros")
        } else {
            digits
                .parse()
                .map_err(|_| "journal segment's first op is past u64::MAX")
        },
    )
}

/// Render a testset digest as its canonical wire form.
fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// The durable blob of era `era`'s testset, its labels packed once.
fn testset_blob(era: u32, truth: &[u32], classes: u32, lazy: bool) -> String {
    let labels = encode_u32_vec(truth);
    let mut w = JsonWriter::pretty(128 + labels.len());
    w.begin_object();
    w.key("version").u64(1);
    w.key("era").u64(era.into());
    w.key("labeling").string(if lazy { "lazy" } else { "full" });
    w.key("classes").u64(classes.into());
    w.key("labels").string(&labels);
    w.end_object();
    w.finish()
}

/// Write era `era`'s testset blob into `dir` (atomic), from the truth
/// `m` holds.
fn write_testset_blob(vfs: &dyn Vfs, dir: &Path, era: u32, m: &MeasuredTestset) -> io::Result<()> {
    let blob = testset_blob(era, m.truth(), m.classes(), m.lazy());
    write_atomic(vfs, &dir.join(testset_blob_name(era)), blob.as_bytes())
}

/// Load the testset blob of one era, checked
/// ([`MeasuredTestset::from_spec`]), and refuse it unless its digest is
/// the one `anchor` recorded.
fn read_testset_blob(
    vfs: &dyn Vfs,
    dir: &Path,
    era: u32,
    (recorded, anchor): (u64, &str),
) -> Result<MeasuredTestset, ServeError> {
    let path = dir.join(testset_blob_name(era));
    let text = vfs
        .read_to_string(&path)
        .map_err(|e| corrupt(&path, format!("missing testset blob: {e}")))?;
    let measured = testset_from_blob(&path, era, &text)?;
    if measured.digest() != recorded {
        return Err(corrupt(
            &path,
            format!("testset blob does not match {anchor}"),
        ));
    }
    Ok(measured)
}

/// The testset the text of era `era`'s blob holds, checked in a fixed
/// order: syntax, `version`, `era`, `labeling`, `classes`, `labels`,
/// then the testset itself ([`MeasuredTestset::from_spec`]).
fn testset_from_blob(path: &Path, era: u32, text: &str) -> Result<MeasuredTestset, ServeError> {
    let blob = decode_document(text, decode_testset).map_err(|e| corrupt(path, e.to_string()))?;
    if blob.version != Some(1) {
        return Err(corrupt(path, "unsupported testset blob version"));
    }
    if blob.era != Some(u64::from(era)) {
        return Err(corrupt(path, "blob era does not match file name"));
    }
    let lazy = match blob.labeling.as_deref() {
        Some("lazy") => true,
        Some("full") => false,
        _ => return Err(corrupt(path, "missing or unknown `labeling`")),
    };
    let classes = blob
        .classes
        .flatten()
        .ok_or_else(|| corrupt(path, "missing or bad `classes`"))?;
    let truth = match blob.labels {
        Some(WireVector::Text(text)) => decode_u32_vec(&text).map_err(|e| corrupt(path, e))?,
        _ => return Err(corrupt(path, "missing `labels`")),
    };
    MeasuredTestset::from_spec(TestsetSpec {
        truth,
        classes,
        lazy,
    })
    .map_err(|e| corrupt(path, format!("invalid testset: {e}")))
}

/// The registration record `project.json` of `project`. A server-side
/// testset is named by its labeling, class count and the digest that
/// anchors the era-0 blob.
fn registration_record(project: &Project) -> String {
    let mut w = JsonWriter::pretty(256 + project.script_text().len());
    w.begin_object();
    w.key("version").u64(1);
    w.key("name").string(project.name());
    w.key("script").string(project.script_text());
    if let Some(measured) = project.measured() {
        w.key("testset").begin_object();
        w.key("labeling")
            .string(if measured.lazy() { "lazy" } else { "full" });
        w.key("classes").u64(measured.classes().into());
        w.key("digest").string(&digest_hex(measured.digest()));
        w.end_object();
    }
    w.end_object();
    w.finish()
}

/// A registration record as boot reads it: name, script and, when the
/// project holds a server-side testset, the recorded testset digest.
type Registration<'a> = (Cow<'a, str>, Cow<'a, str>, Option<u64>);

/// The name, script and (when the project holds a server-side testset)
/// recorded testset digest of a registration record's text, checked in
/// that order after its syntax.
fn read_registration<'a>(path: &Path, text: &'a str) -> Result<Registration<'a>, ServeError> {
    let record = decode_document(text, decode_project).map_err(|e| corrupt(path, e.to_string()))?;
    let name = record.name.ok_or_else(|| corrupt(path, "missing `name`"))?;
    let script = record
        .script
        .ok_or_else(|| corrupt(path, "missing `script`"))?;
    let digest = record
        .testset
        .map(|ts| {
            ts.digest
                .ok_or_else(|| corrupt(path, "missing or bad testset `digest`"))
        })
        .transpose()?;
    Ok((name, script, digest))
}

/// When the next cadence snapshot is due (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
struct Cadence {
    /// Journal ops at the last snapshot attempt. A failed attempt moves
    /// it too, so the snapshot is retried [`SNAPSHOT_EVERY`] ops later.
    snapshot_ops: u64,
    /// Size of the last snapshot written.
    snapshot_bytes: u64,
    /// Journal bytes appended since the last snapshot written.
    bytes_since: u64,
}

impl Cadence {
    fn due(self, ops_written: u64) -> bool {
        ops_written - self.snapshot_ops >= SNAPSHOT_EVERY && self.bytes_since >= self.snapshot_bytes
    }
}

/// Commit-path I/O failures a [`Registry`]'s stores survive, counted
/// for `/metrics` (see the module docs).
#[derive(Debug, Default)]
pub struct StoreFailures {
    /// Cadence snapshots that failed to land.
    pub snapshots: AtomicU64,
    /// `relaxed` inline journal syncs that failed.
    pub journal_syncs: AtomicU64,
}

/// The persistence arm of one project: its directory, the open journal
/// handle, and the counters driving snapshot cadence. All file I/O
/// goes through the injected [`Vfs`] (see [`crate::vfs`]), which is how
/// the crash-consistency matrix drives scripted faults through the same
/// code paths production runs.
#[derive(Debug)]
pub struct ProjectStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    journal: Arc<SharedJournal>,
    durability: Durability,
    group: Arc<GroupCommit>,
    failures: Arc<StoreFailures>,
    ops_written: u64,
    /// Ops the last snapshot written holds.
    sealed_ops: Cell<u64>,
    /// Reset by every snapshot written, the explicit ones through
    /// `&self` included.
    cadence: Cell<Cadence>,
    /// Test seam: make the next append fail without touching the disk,
    /// so the rollback path is exercisable.
    #[cfg(test)]
    fail_next_append: bool,
}

impl ProjectStore {
    /// Create the on-disk representation of a freshly registered project.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] if the project is already registered on
    /// disk, I/O failures otherwise.
    ///
    /// Registration existence is keyed on `project.json`, not on the
    /// directory: a crash between directory creation and the record
    /// write leaves an empty husk that a retry simply claims (and that
    /// [`Registry::open`] skips rather than refusing to boot over).
    ///
    /// The registration record is written, fsynced and renamed into
    /// place on the calling thread, and the project directory fsynced
    /// after it: that sync is the registration's commit point and its
    /// last I/O op, so the project is durable when this returns (the
    /// new directory's own entry in `projects/` was synced first). A
    /// failure to install the record is [`ServeError::Unavailable`]. No
    /// journal segment exists until the first op is appended.
    pub fn create(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        project: &Project,
        durability: Durability,
        group: &Arc<GroupCommit>,
        failures: &Arc<StoreFailures>,
    ) -> Result<ProjectStore, ServeError> {
        let record = dir.join("project.json");
        if vfs.exists(&record) {
            return Err(ServeError::Conflict(format!(
                "project `{}` already exists",
                project.name()
            )));
        }
        vfs.create_dir_all(dir)?;
        if let Some(projects) = dir.parent() {
            vfs.sync_dir(projects)?;
        }
        // Claiming a crash husk: drop any stray state files so the new
        // project starts from a genuinely empty journal.
        if let Ok(entries) = vfs.list_dir(dir) {
            for path in entries {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name == "snapshot.json"
                    || name.starts_with("testset.")
                    || segment_start(name).is_some()
                {
                    let _ = vfs.remove_file(&path);
                }
            }
        }
        // A server-side testset is persisted as the era-0 blob *before*
        // the registration record, whose digest field then anchors the
        // blob's integrity (a tampered blob fails the next boot).
        if let Some(measured) = project.measured() {
            write_testset_blob(vfs.as_ref(), dir, 0, measured)?;
        }
        // The testset blob above was fsynced inline, and the directory
        // sync below covers its rename along with the record's, so the
        // digest the record anchors always points at durable bytes. A
        // record whose directory sync failed is taken back, so a retry
        // is not refused as a duplicate.
        write_atomic(
            vfs.as_ref(),
            &record,
            registration_record(project).as_bytes(),
        )
        .and_then(|()| {
            vfs.sync_dir(dir).inspect_err(|_| {
                let _ = vfs.remove_file(&record);
            })
        })
        .map_err(|e| ServeError::Unavailable(format!("registration install failed: {e}")))?;
        Ok(ProjectStore {
            vfs: Arc::clone(vfs),
            dir: dir.to_owned(),
            journal: Arc::new(SharedJournal::new()),
            durability,
            group: Arc::clone(group),
            failures: Arc::clone(failures),
            ops_written: 0,
            sealed_ops: Cell::new(0),
            cadence: Cell::new(Cadence::default()),
            #[cfg(test)]
            fail_next_append: false,
        })
    }

    /// Load a project directory, whose `entries` the caller listed:
    /// registration record, snapshot, and the journal segments at or
    /// past its watermark, adding what was read and replayed to `boot`.
    ///
    /// Segments are checked by name before any is read: they must
    /// chain, each starting where the one before it ends, from the last
    /// one that starts at or before the snapshot's watermark. The ones
    /// before it, and that one too if the snapshot covers all its ops,
    /// are left over from a seal cut short between the snapshot's
    /// directory fsync and their unlink: they are unlinked, not
    /// replayed. A segment name that is malformed, starts past the
    /// watermark, leaves a gap or overlaps is [`ServeError::Corrupt`].
    ///
    /// A *torn* final journal line — one missing its terminating newline
    /// that also fails to parse/replay — is the signature of a power cut
    /// mid-append. The op never completed, so it was never acked:
    /// recovery truncates it away with a warning instead of bricking.
    /// A newline-*terminated* line that fails validation is genuine
    /// tamper (a complete append was acked) and stays a hard
    /// [`ServeError::Corrupt`], as does a torn line in any segment but
    /// the last.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when any file fails validation, I/O
    /// errors otherwise.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        entries: &[PathBuf],
        estimator: &SampleSizeEstimator,
        durability: Durability,
        group: &Arc<GroupCommit>,
        failures: &Arc<StoreFailures>,
        boot: &mut BootReplay,
    ) -> Result<(Project, ProjectStore), ServeError> {
        let record_path = dir.join("project.json");
        let text = vfs.read_to_string(&record_path)?;
        let (name, script, recorded) = read_registration(&record_path, &text)?;
        // A testset record means the era-0 blob must exist and match the
        // digest the (fsynced) registration record anchored.
        let anchor = "the registration record's digest";
        let testset = recorded
            .map(|recorded| read_testset_blob(vfs.as_ref(), dir, 0, (recorded, anchor)))
            .transpose()?;
        let mut project = Project::register_with_testset(&name, &script, estimator, testset)
            .map_err(|e| corrupt(&record_path, format!("registration replay failed: {e}")))?;

        let snapshot_path = dir.join("snapshot.json");
        let mut segments: Vec<(u64, &PathBuf)> = Vec::new();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            match segment_start(name) {
                Some(Ok(start)) => segments.push((start, path)),
                Some(Err(reason)) => return Err(corrupt(path, reason)),
                None => {}
            }
        }
        segments.sort_unstable();
        if let Some(pair) = segments.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(corrupt(
                pair[1].1,
                format!(
                    "overlaps {}: both start at op {}",
                    pair[0].1.display(),
                    pair[0].0
                ),
            ));
        }

        // Snapshot, if any: restore state up to its watermark.
        let mut cadence = Cadence::default();
        if entries.contains(&snapshot_path) {
            let text = vfs.read_to_string(&snapshot_path)?;
            cadence.snapshot_ops =
                load_snapshot(vfs.as_ref(), dir, &snapshot_path, &text, &mut project)?;
            cadence.snapshot_bytes = text.len() as u64;
            boot.snapshot_bytes += text.len() as u64;
        }
        let watermark = cadence.snapshot_ops;

        // Journal suffix: replay through the live gate.
        let first = segments
            .iter()
            .rposition(|&(start, _)| start <= watermark)
            .unwrap_or(0);
        let mut covered: Vec<PathBuf> = segments[..first]
            .iter()
            .map(|(_, path)| path.to_path_buf())
            .collect();
        let mut live = None;
        let mut ops = watermark;
        for (i, &(start, path)) in segments.iter().enumerate().skip(first) {
            if start > ops {
                return Err(corrupt(
                    path,
                    format!("segment starts at op {start}, but the ops before it end at op {ops}"),
                ));
            }
            if start < ops && i > first {
                return Err(corrupt(
                    path,
                    format!(
                        "segment starts at op {start}, inside the one before it (ends at op {ops})"
                    ),
                ));
            }
            let last = i + 1 == segments.len();
            let text = vfs.read_to_string(path)?;
            boot.journal_bytes += text.len() as u64;
            let skip = watermark.saturating_sub(start);
            let (count, torn_at) = replay_segment(
                vfs.as_ref(),
                dir,
                path,
                &text,
                skip,
                &mut cadence,
                &mut project,
            )?;
            if let Some(at) = torn_at {
                if !last {
                    return Err(corrupt(
                        path,
                        "torn final line in a segment a later one follows",
                    ));
                }
                // The append never finished, so its response was never
                // sent — dropping it loses nothing a client was told.
                eprintln!(
                    "warning: dropping torn final journal line of {} ({} bytes past offset {at})",
                    path.display(),
                    text.len() as u64 - at,
                );
            }
            if count < skip {
                return Err(corrupt(
                    path,
                    format!(
                        "snapshot covers {watermark} ops but the segment ends at op {}",
                        start + count
                    ),
                ));
            }
            ops = start
                .checked_add(count)
                .ok_or_else(|| corrupt(path, "segment ends past op u64::MAX"))?;
            if ops == watermark {
                covered.push(path.to_path_buf());
            } else if last {
                live = Some((path, torn_at));
            }
        }
        boot.ops += ops - watermark;
        if !covered.is_empty() {
            // The snapshot that covers them must be durable before they go.
            vfs.sync_dir(dir)?;
            unlink_segments(vfs.as_ref(), covered);
        }
        let journal = SharedJournal::new();
        if let Some((path, torn_at)) = live {
            journal.open(vfs.open_append(path)?)?;
            if let Some(len) = torn_at {
                journal.set_len(len)?;
            }
        }
        Ok((
            project,
            ProjectStore {
                vfs: Arc::clone(vfs),
                dir: dir.to_owned(),
                journal: Arc::new(journal),
                durability,
                group: Arc::clone(group),
                failures: Arc::clone(failures),
                ops_written: ops,
                sealed_ops: Cell::new(watermark),
                cadence: Cell::new(cadence),
                #[cfg(test)]
                fail_next_append: false,
            },
        ))
    }

    /// Start the live segment `journal.<ops so far>.log`, its directory
    /// entry durable before any op lands in it.
    fn open_segment(&self) -> Result<(), ServeError> {
        let file = self
            .vfs
            .open_append(&self.dir.join(segment_name(self.ops_written)))?;
        self.vfs.sync_dir(&self.dir)?;
        self.journal.open(file)
    }

    /// Whether ops were journalled since the last snapshot written.
    fn has_unsealed_ops(&self) -> bool {
        self.ops_written > self.sealed_ops.get()
    }

    /// Journal one accepted op, under the project lock: `line` is its
    /// JSON, newline included (see [`commit_line`] and
    /// [`fresh_testset_line`]).
    ///
    /// # Errors
    ///
    /// I/O failures (the response must not be sent if journalling fails).
    fn append(&mut self, line: String, project: &Project) -> Result<(), ServeError> {
        let line = line.into_bytes();
        #[cfg(test)]
        if self.fail_next_append {
            self.fail_next_append = false;
            return Err(ServeError::Io(std::io::Error::other(
                "injected journal failure",
            )));
        }
        // A failed append must leave the journal exactly as it was: a
        // half-written line would corrupt the op that lands after it
        // (the shared journal truncates back on error; the caller rolls
        // the in-memory mutation back either way). Group mode stages a
        // deferred sync and parks the waiter for the route layer to pick
        // up, and `settle` below retires it unless an event loop runs
        // this thread's round after its sweep; relaxed mode acks with the
        // bytes still unsynced.
        trace::time(Stage::JournalAppend, || {
            if !self.journal.is_open() {
                self.open_segment()?;
            }
            self.journal.append(&line)
        })?;
        if self.durability == Durability::Group {
            group::set_pending(self.group.stage(Arc::clone(&self.journal)));
        }
        self.ops_written += 1;
        self.cadence.get_mut().bytes_since += line.len() as u64;
        if self.cadence.get().due(self.ops_written) {
            // The journal is the source of truth and it has the op; a
            // failed snapshot is only lost compaction, never lost state,
            // and must NOT fail the request (the caller would roll back
            // an op the journal already holds).
            if let Err(e) = trace::time(Stage::Snapshot, || self.write_snapshot(project)) {
                self.cadence.get_mut().snapshot_ops = self.ops_written;
                self.failures.snapshots.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: snapshot of {} failed (journal intact): {e}",
                    self.dir.display()
                );
            }
        } else if self.durability == Durability::Relaxed
            && self.ops_written.is_multiple_of(SNAPSHOT_EVERY)
        {
            if let Err(e) = self.journal.sync_inline() {
                self.failures.journal_syncs.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: journal sync of {} failed: {e}",
                    self.dir.display()
                );
            }
        }
        // After the cadence snapshot: a seal makes the round's sync a
        // no-op.
        self.group.settle();
        Ok(())
    }

    /// Write `snapshot.json` for the current state and seal the journal
    /// segments it covers.
    ///
    /// The order is what makes unlinking safe. The live segment is
    /// fsynced first: the snapshot's watermark claims the journal holds
    /// `ops_written` ops, and a power loss that persisted the snapshot
    /// but not the segment's tail would otherwise make restart recovery
    /// reject the directory. This inline sync runs in every durability
    /// mode — under `group` it makes the next round's covering sync a
    /// no-op, and under `relaxed` it joins the every-[`SNAPSHOT_EVERY`]-ops
    /// inline sync. Then the snapshot is written atomically (temp file,
    /// fsync, rename) and the project directory fsynced, so the rename
    /// is durable. Only then is the live segment closed and every
    /// segment unlinked: all their ops are in the snapshot. The next
    /// append starts `journal.<watermark>.log`. A written snapshot
    /// restarts the cadence count.
    ///
    /// # Errors
    ///
    /// I/O failures up to the directory fsync; the segments then stay.
    pub fn write_snapshot(&self, project: &Project) -> Result<(), ServeError> {
        self.journal.sync_inline()?;
        let snapshot = render_snapshot(self.ops_written, project);
        write_atomic(
            self.vfs.as_ref(),
            &self.dir.join("snapshot.json"),
            snapshot.as_bytes(),
        )?;
        self.vfs.sync_dir(&self.dir)?;
        self.cadence.set(Cadence {
            snapshot_ops: self.ops_written,
            snapshot_bytes: snapshot.len() as u64,
            bytes_since: 0,
        });
        self.sealed_ops.set(self.ops_written);
        self.journal.seal();
        match self.vfs.list_dir(&self.dir) {
            Ok(entries) => unlink_segments(
                self.vfs.as_ref(),
                entries.into_iter().filter(|path| {
                    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    segment_start(name).is_some()
                }),
            ),
            Err(e) => eprintln!(
                "warning: could not list {} to unlink its sealed journal: {e}",
                self.dir.display()
            ),
        }
        Ok(())
    }
}

/// The journal line of an accepted commit, newline included: a `commit`
/// op for client counts, a `commit_predictions` op for a `packed` pair
/// of vectors (replay re-measures them), then the counts and the outcome
/// (both cross-checked at replay, so a tampered prediction or testset
/// blob fails the boot). The vectors arrive packed: the bytes the
/// request's dedup digest was computed over, as the client sent them
/// when they came `#`-packed. The line is written into one buffer sized
/// for it up front, so they are copied once.
fn commit_line(
    commit_id: &str,
    packed: Option<&PackedPredictions<'_>>,
    counts: &EvalCounts,
    receipt: &CommitReceipt,
) -> String {
    // The fixed keys and the widest integers take under 300 bytes, a
    // `per_class` object at most 21 bytes per integer plus its keys.
    let per_class = counts
        .per_class
        .as_ref()
        .map_or(0, |pc| 96 + 5 * 21 * pc.classes as usize);
    let vectors = packed.map_or(0, |p| p.old_wire().len() + p.new_wire().len());
    let mut w = JsonWriter::compact_with_capacity(288 + commit_id.len() + vectors + per_class);
    w.begin_object();
    let op = if packed.is_some() {
        "commit_predictions"
    } else {
        "commit"
    };
    w.key("op").string(op);
    w.key("id").string(commit_id);
    if let Some(packed) = packed {
        w.key("old").string(packed.old_wire());
        w.key("new").string(packed.new_wire());
    }
    write_outcome_fields(&mut w, counts, receipt);
    w.end_object();
    w.finish_line()
}

/// The journal line of a fresh-testset installation, newline included.
/// `testset_digest` is present exactly when the new era handed over a
/// server-side testset; it anchors the era's blob integrity at replay.
fn fresh_testset_line(era: u32, testset_digest: Option<u64>) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("op").string("fresh_testset");
    w.key("era").u64(era.into());
    if let Some(digest) = testset_digest {
        w.key("testset_digest").string(&digest_hex(digest));
    }
    w.end_object();
    w.finish_line()
}

/// Bytes reserved per history entry of a snapshot; a counts entry
/// renders to about 260. The header takes under 256 bytes and each
/// indented `labeled` index under 12.
const SNAPSHOT_ENTRY_BYTES: usize = 320;

/// Render `snapshot.json` in one pass: header, the spent-label record
/// of a lazy pool, and every history entry with its dedup digest and
/// per-class counts.
fn render_snapshot(journal_ops: u64, project: &Project) -> String {
    let entries = project.history().entries();
    let labeled = project
        .measured()
        .filter(|m| m.lazy())
        .map(MeasuredTestset::labeled_indices);
    let labeled_len = labeled.as_ref().map_or(0, Vec::len);
    let mut w = JsonWriter::pretty(256 + 12 * labeled_len + SNAPSHOT_ENTRY_BYTES * entries.len());
    w.begin_object();
    w.key("version").u64(1);
    w.key("journal_ops").u64(journal_ops);
    w.key("steps_used").u64(project.steps_used().into());
    w.key("era").u64(project.era().into());
    w.key("retired").bool(project.is_retired());
    if let Some(measured) = project.measured() {
        w.key("testset_digest")
            .string(&digest_hex(measured.digest()));
    }
    // Which labels a lazy pool has spent so far: restart recovery
    // rebuilds the pool to exactly this state before replaying the
    // journal suffix, so replayed measurements spend the same labels the
    // originals did. A fully-labelled pool never changes, and listing
    // its complete 0..n index range would bloat every snapshot.
    if let Some(labeled) = labeled {
        w.key("labeled").begin_array();
        for i in labeled {
            w.u64(i as u64);
        }
        w.end_array();
    }
    w.key("history").begin_array();
    for (i, e) in entries.iter().enumerate() {
        w.begin_object();
        write_history_entry_fields(&mut w, e);
        // The predictions-redelivery dedup key and the per-class counts
        // behind an F1/top-k verdict must survive the snapshot: entries
        // it covers are never replayed.
        match project.pred_digest(i) {
            Some(digest) => w.key("pred_digest").string(&digest_hex(digest)),
            None => w.key("pred_digest").null(),
        }
        if let Some(pc) = project.per_class_at(i) {
            w.key("per_class");
            write_per_class(&mut w, pc);
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The fields of one history entry — the shared shape of
/// `snapshot.json` (which appends its own fields) and the
/// `/projects/{name}/history` endpoint.
pub(crate) fn write_history_entry_fields(w: &mut JsonWriter, e: &HistoryEntry) {
    let estimate = |w: &mut JsonWriter, key: &str, value: Option<f64>| match value {
        Some(x) => w.key(key).number(x),
        None => w.key(key).null(),
    };
    w.key("id").string(&e.commit_id);
    w.key("step").u64(e.step.into());
    w.key("era").u64(e.era.into());
    w.key("outcome").string(tribool_str(e.outcome));
    w.key("passed").bool(e.passed);
    w.key("accepted").bool(e.accepted);
    estimate(w, "d", e.estimates.d);
    estimate(w, "n", e.estimates.n);
    estimate(w, "o", e.estimates.o);
    estimate(w, "diff", e.estimates.diff);
    w.key("labels").u64(e.estimates.labels_requested);
}

/// The counts and outcome fields every journalled commit ends with,
/// shared by the `commit` and `commit_predictions` ops.
fn write_outcome_fields(w: &mut JsonWriter, counts: &EvalCounts, receipt: &CommitReceipt) {
    w.key("samples").u64(counts.samples);
    w.key("new_correct").u64(counts.new_correct);
    w.key("old_correct").u64(counts.old_correct);
    w.key("changed").u64(counts.changed);
    w.key("labels").u64(counts.labels);
    w.key("passed").bool(receipt.passed);
    w.key("step").u64(receipt.step.into());
    w.key("era").u64(receipt.era.into());
    if let Some(pc) = &counts.per_class {
        w.key("per_class");
        write_per_class(w, pc);
    }
}

/// Per-class confusion counts — the shared shape of the journal's
/// `commit`/`commit_predictions` ops and the snapshot's history entries
/// for F1/top-k conditions.
pub(crate) fn write_per_class(w: &mut JsonWriter, pc: &PerClassCounts) {
    w.begin_object();
    w.key("classes").u64(pc.classes.into());
    let vectors = [
        &pc.support,
        &pc.new_tp,
        &pc.old_tp,
        &pc.new_pred,
        &pc.old_pred,
    ];
    for (key, values) in PER_CLASS_VECTORS.into_iter().zip(vectors) {
        w.key(key).begin_array();
        for &x in values {
            w.u64(x);
        }
        w.end_array();
    }
    w.end_object();
}

/// Restore project state from the text of `snapshot.json`; returns the
/// journal watermark (ops already reflected in the snapshot).
///
/// The document is decoded in one pull pass, with no JSON tree: history
/// entries go straight into a [`CommitHistory`] and their dedup keys,
/// and a lazy pool's spent labels into one index list. It accepts what a
/// tree walk accepts: keys in any order, unknown keys ignored (their
/// values still parsed, under the depth cap), the first of duplicate
/// keys winning, trailing garbage rejected. A syntax error anywhere wins
/// over a missing or malformed field, and the checks then run in a fixed
/// order, so a document fails with the same reason whatever order its
/// keys come in.
fn load_snapshot(
    vfs: &dyn Vfs,
    dir: &Path,
    path: &Path,
    text: &str,
    project: &mut Project,
) -> Result<u64, ServeError> {
    // A scalar is `None` when absent or malformed: the reason is the same.
    let [mut version, mut journal_ops, mut steps_used, mut era] = [None; 4];
    let (mut retired, mut testset_digest, mut labeled, mut history) = (None, None, None, None);
    decode_document(text, |r| {
        walk_object(r, |r, key, seen| {
            match key {
                "version" if seen.first(0) => version = read_u64(r)?,
                "journal_ops" if seen.first(1) => journal_ops = read_u64(r)?,
                "steps_used" if seen.first(2) => steps_used = read_u64(r)?,
                "era" if seen.first(3) => era = read_u64(r)?,
                "retired" if seen.first(4) => retired = r.try_bool()?,
                "testset_digest" if seen.first(5) => testset_digest = read_digest(r)?,
                "labeled" if seen.first(6) => labeled = Some(read_ints(r)?),
                "history" if seen.first(7) => history = Some(decode_history(r, text.len())?),
                _ => return Ok(false),
            }
            Ok(true)
        })
    })
    .map_err(|e| corrupt(path, e.to_string()))?;
    let field_u64 = |value: Option<u64>, key: &str| -> Result<u64, ServeError> {
        value.ok_or_else(|| corrupt(path, format!("missing or non-integer `{key}`")))
    };
    if field_u64(version, "version")? != 1 {
        return Err(corrupt(path, "unsupported snapshot version"));
    }
    let journal_ops = field_u64(journal_ops, "journal_ops")?;
    let steps_used = u32::try_from(field_u64(steps_used, "steps_used")?)
        .map_err(|_| corrupt(path, "steps_used out of range"))?;
    let era =
        u32::try_from(field_u64(era, "era")?).map_err(|_| corrupt(path, "era out of range"))?;
    let retired = retired.ok_or_else(|| corrupt(path, "missing `retired`"))?;
    // Predictions-mode projects: swap in the blob of the snapshot's era
    // (digest-anchored by the snapshot) and rebuild the spent-label
    // state, so post-snapshot journal replay measures against exactly
    // the pool the original requests saw.
    if project.measured().is_some() {
        let recorded =
            testset_digest.ok_or_else(|| corrupt(path, "missing or bad `testset_digest`"))?;
        // Era 0's pool is the one registration just built from the same
        // blob, still unlabelled: reuse it instead of reading it again.
        if era != 0 {
            let anchor = (recorded, "the snapshot's digest");
            project.set_measured(Some(read_testset_blob(vfs, dir, era, anchor)?));
        } else if project.testset_digest() != Some(recorded) {
            return Err(corrupt(
                &dir.join(testset_blob_name(0)),
                "testset blob does not match the snapshot's digest",
            ));
        }
        let lazy = project.measured().is_some_and(MeasuredTestset::lazy);
        // Fully-labelled pools are complete from construction; only lazy
        // pools carry (and require) the spent-label record.
        if lazy {
            let indices = match labeled {
                Some(Ints::Read(indices)) => indices,
                None | Some(Ints::Missing) => return Err(corrupt(path, "missing `labeled`")),
                Some(Ints::NonInteger) => return Err(corrupt(path, "bad `labeled` index")),
            };
            project
                .measured_mut()
                .expect("set above")
                .restore_labels(&indices)
                .map_err(|e| corrupt(path, format!("bad `labeled` state: {e}")))?;
        }
    }
    let (history, entry_keys) = history
        .unwrap_or_else(|| Err("missing `history`".to_owned()))
        .map_err(|e| corrupt(path, e))?;
    project
        .restore(steps_used, era, retired, history, entry_keys)
        .map_err(|e| corrupt(path, e))?;
    Ok(journal_ops)
}

/// The `history` array. Entries decode straight into the history; the
/// first bad one ends decoding (the rest is only skipped) with its
/// reason.
fn decode_history(
    r: &mut Reader<'_>,
    text_len: usize,
) -> Result<Result<(CommitHistory, Vec<EntryKey>), String>, JsonError> {
    if r.peek()? != Kind::Array {
        r.skip()?;
        return Ok(Err("missing `history`".to_owned()));
    }
    let mut history = CommitHistory::new();
    let mut entry_keys = Vec::with_capacity(text_len / SNAPSHOT_ENTRY_BYTES);
    let mut bad = None;
    r.array(|r| {
        if bad.is_some() {
            return r.skip();
        }
        match decode_entry(r)? {
            Ok((entry, key)) => {
                history.push(entry);
                entry_keys.push(key);
            }
            Err(what) => bad = Some(format!("history[{}]: {what}", entry_keys.len())),
        }
        Ok(())
    })?;
    Ok(bad.map_or(Ok((history, entry_keys)), Err))
}

/// One history entry and its dedup key, or why it is bad: an entry is
/// read as a commit record, and its checks run in the order its fields
/// are written.
fn decode_entry(r: &mut Reader<'_>) -> Result<Result<(HistoryEntry, EntryKey), String>, JsonError> {
    let e = commit_members(r, "id")?;
    let bad = |key: &str| format!("bad `{key}`");
    let u32_of = |value: Option<u64>, key| {
        value
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| bad(key))
    };
    Ok((|| {
        let commit_id = e.id.ok_or_else(|| "missing `id`".to_owned())?.into_owned();
        let outcome = e
            .outcome
            .as_deref()
            .and_then(tribool_parse)
            .ok_or_else(|| bad("outcome"))?;
        let digest = e
            .pred_digest
            .map(|d| d.ok_or_else(|| bad("pred_digest")))
            .transpose()?;
        let per_class = e.per_class.transpose()?;
        let (step, era) = (u32_of(e.step, "step")?, u32_of(e.era, "era")?);
        let mut values = [None; 4];
        for ((value, estimate), key) in values.iter_mut().zip(e.estimates).zip(ESTIMATES) {
            *value = estimate.map(|e| e.ok_or_else(|| bad(key))).transpose()?;
        }
        let [d, n, o, diff] = values;
        let labels_requested = e.labels.flatten().ok_or_else(|| bad("labels"))?;
        let entry = HistoryEntry {
            commit_id,
            step,
            era,
            estimates: CommitEstimates {
                d,
                n,
                o,
                diff,
                labels_requested,
            },
            outcome,
            passed: e.passed.ok_or_else(|| bad("passed"))?,
            accepted: e.accepted.ok_or_else(|| bad("accepted"))?,
        };
        Ok((entry, (digest, per_class)))
    })())
}

/// Unlink journal segments a durable snapshot covers whole. One that
/// fails to go costs only disk: the next seal or boot unlinks it.
fn unlink_segments(vfs: &dyn Vfs, paths: impl IntoIterator<Item = PathBuf>) {
    for path in paths {
        if let Err(e) = vfs.remove_file(&path) {
            eprintln!(
                "warning: could not unlink covered journal segment {}: {e}",
                path.display()
            );
        }
    }
}

/// Replay the ops of one journal segment past its first `skip`, which
/// the snapshot holds, adding the bytes replayed to `cadence`. Returns
/// the segment's op count and, if its final line is unterminated (an
/// append torn by a power cut), the offset that line starts at.
fn replay_segment(
    vfs: &dyn Vfs,
    dir: &Path,
    path: &Path,
    text: &str,
    skip: u64,
    cadence: &mut Cadence,
    project: &mut Project,
) -> Result<(u64, Option<u64>), ServeError> {
    let (mut count, mut offset) = (0u64, 0u64);
    for (index, piece) in text.split_inclusive('\n').enumerate() {
        let Some(line) = piece.strip_suffix('\n') else {
            return Ok((count, Some(offset)));
        };
        offset += piece.len() as u64;
        if line.is_empty() {
            continue;
        }
        count += 1;
        if count <= skip {
            continue;
        }
        cadence.bytes_since += piece.len() as u64;
        replay_op(vfs, dir, path, index + 1, line, project)?;
    }
    Ok((count, None))
}

/// Replay one journal line through the gate step of its op
/// ([`Project::commit`], [`Project::fresh_era`]) — the step the live
/// route ran — cross-checking the recorded outcome. The line is read by
/// the decoder the commit routes read their bodies with
/// ([`commit_members`]). `commit_predictions` ops are re-*measured* from
/// the stored vectors against the era's testset blob, so tampering with
/// either (vectors, derived counts, outcome, or the blob itself)
/// diverges and rejects the directory.
fn replay_op<'a>(
    vfs: &dyn Vfs,
    dir: &Path,
    path: &Path,
    line_no: usize,
    line: &'a str,
    project: &mut Project,
) -> Result<(), ServeError> {
    let bad = |what: String| corrupt(path, format!("line {line_no}: {what}"));
    let op = decode_document(line, |r| commit_members(r, "id")).map_err(|e| bad(e.to_string()))?;
    let field_u64 = |value: Option<u64>, key: &str| -> Result<u64, ServeError> {
        value.ok_or_else(|| bad(format!("missing or non-integer `{key}`")))
    };
    let recorded_counts = || -> Result<EvalCounts, ServeError> {
        Ok(EvalCounts {
            samples: field_u64(op.samples, "samples")?,
            new_correct: field_u64(op.new_correct, "new_correct")?,
            old_correct: field_u64(op.old_correct, "old_correct")?,
            changed: field_u64(op.changed, "changed")?,
            labels: field_u64(op.labels.flatten(), "labels")?,
            per_class: op.per_class.transpose().map_err(bad)?,
        })
    };
    let packed = match op.op.as_deref() {
        Some("commit") => None,
        Some("commit_predictions") => {
            // The journal holds each vector as its wire string.
            let vector = |wire: Option<WireVector<'a>>, key: &str| match wire {
                Some(wire @ WireVector::Text(_)) => wire,
                _ => WireVector::Invalid(format!("missing `{key}`")),
            };
            Some(
                PackedPredictions::decode(vector(op.old, "old"), vector(op.new, "new"))
                    .map_err(bad)?,
            )
        }
        Some("fresh_testset") => {
            let recorded = field_u64(op.era, "era")?;
            let testset = match op.testset_digest {
                None => None,
                Some(Some(recorded_digest)) => {
                    let era =
                        u32::try_from(recorded).map_err(|_| bad("era out of range".into()))?;
                    let anchor = (recorded_digest, "the journalled digest");
                    Some(read_testset_blob(vfs, dir, era, anchor)?)
                }
                Some(None) => return Err(bad("bad `testset_digest`".into())),
            };
            let new_era = project
                .fresh_era(testset, &mut project.savepoint())
                .map_err(|e| bad(format!("testset replay failed: {e}")))?;
            if u64::from(new_era) != recorded {
                return Err(bad(format!(
                    "replay diverged: recorded era {recorded} vs recomputed {new_era}"
                )));
            }
            return Ok(());
        }
        _ => return Err(bad("unknown op".into())),
    };
    // A `commit` line is checked for its id before its counts, a
    // `commit_predictions` line after them.
    let commit_id = || op.id.as_deref().ok_or_else(|| bad("missing `id`".into()));
    let (commit_id, recorded) = match packed {
        None => (commit_id()?, recorded_counts()?),
        Some(_) => {
            let recorded = recorded_counts()?;
            (commit_id()?, recorded)
        }
    };
    let feed = match &packed {
        None => Feed::Counts(&recorded),
        Some((packed, old, new)) => Feed::Vectors(packed, old, new),
    };
    let (receipt, counts) = project
        .commit(commit_id, feed, &mut project.savepoint())
        .map_err(|e| bad(format!("gate rejected replayed op: {e}")))?;
    if *counts != recorded {
        return Err(bad(format!(
            "measurement replay diverged: recorded {recorded:?} vs remeasured {counts:?} \
             (prediction or testset blob tampered?)"
        )));
    }
    let recorded_passed = op.passed.ok_or_else(|| bad("missing `passed`".into()))?;
    let recorded_step = field_u64(op.step, "step")?;
    let recorded_era = field_u64(op.era, "era")?;
    if receipt.passed != recorded_passed
        || u64::from(receipt.step) != recorded_step
        || u64::from(receipt.era) != recorded_era
    {
        return Err(bad(format!(
            "replay diverged: recorded (passed={recorded_passed}, step={recorded_step}, \
             era={recorded_era}) vs recomputed (passed={}, step={}, era={})",
            receipt.passed, receipt.step, receipt.era
        )));
    }
    Ok(())
}

/// One project behind its lock: gate state plus its persistence arm.
#[derive(Debug)]
pub struct ProjectSlot {
    /// The live gate state.
    pub project: Project,
    store: ProjectStore,
    /// The project's gate-outcome counters, resolved on first use.
    pub(crate) outcomes: OutcomeCounters,
}

impl ProjectSlot {
    /// Gate a counts submission and journal it (`ProjectSlot::commit`).
    ///
    /// # Errors
    ///
    /// As `ProjectSlot::commit`.
    pub fn submit(&mut self, submission: &CommitSubmission) -> Result<CommitReceipt, ServeError> {
        let feed = Feed::Counts(&submission.counts);
        let (receipt, _) = self.commit(&submission.commit_id, feed)?;
        Ok(receipt)
    }

    /// Gate a predictions submission and journal it
    /// (`ProjectSlot::commit`); returns the receipt and the counts the
    /// server derived.
    ///
    /// # Errors
    ///
    /// As `ProjectSlot::commit`.
    pub fn submit_predictions(
        &mut self,
        submission: &PredictionsSubmission,
    ) -> Result<(CommitReceipt, EvalCounts), ServeError> {
        let packed = submission.packed();
        let feed = Feed::Vectors(&packed, &submission.old, &submission.new);
        let (receipt, counts) = self.commit(&submission.commit_id, feed)?;
        Ok((receipt, counts.into_owned()))
    }

    /// The durable step of a `commit` or `commit_predictions` op: run
    /// the gate step ([`Project::commit`]) and journal the op — the
    /// counts, or the vectors as `feed` packed them (each is encoded
    /// once: the packed bytes feed both the dedup digest and the journal
    /// line), then the counts and the outcome.
    ///
    /// A redelivery of an evaluation already recorded in the era returns
    /// its receipt without spending a budget step, labels or journal
    /// bytes ([`Project::duplicate`]) — clients may safely retry a commit
    /// whose response was lost.
    ///
    /// # Errors
    ///
    /// Gate rejections, validation failures, and journal I/O failures.
    pub(crate) fn commit<'a>(
        &mut self,
        commit_id: &str,
        feed: Feed<'a>,
    ) -> Result<(CommitReceipt, Cow<'a, EvalCounts>), ServeError> {
        // An op the opening checks refuse matches no recorded entry, so
        // refusing it before the redelivery lookup keeps every refusal.
        let op = self.project.admit(commit_id, feed)?;
        if let Some(hit) = self.project.duplicate(op) {
            return Ok(hit);
        }
        self.journalled(|project, savepoint, _| {
            let (receipt, counts) = project.step(op, savepoint)?;
            let line = commit_line(commit_id, feed.packed(), &counts, &receipt);
            Ok(((receipt, counts), line))
        })
    }

    /// The durable step of a `fresh_testset` op: run the gate step
    /// (`Project::fresh_era`) with an already checked testset, persist a
    /// new server-side testset as the era's blob (atomic, before the
    /// journal op that activates it), and journal the era bump with the
    /// blob's digest.
    ///
    /// # Errors
    ///
    /// As `Project::fresh_era`, and I/O failures.
    pub fn fresh_testset(&mut self, testset: Option<MeasuredTestset>) -> Result<u32, ServeError> {
        self.journalled(|project, savepoint, store| {
            let era = project.fresh_era(testset, savepoint)?;
            // The blob lands, its directory entry synced, before the
            // journal op that activates the era. An orphaned blob from a
            // crash past here is harmless: the journal never references
            // it, and a retry overwrites it.
            if let Some(measured) = project.measured() {
                write_testset_blob(store.vfs.as_ref(), &store.dir, era, measured)?;
                store.vfs.sync_dir(&store.dir)?;
            }
            Ok((era, fresh_testset_line(era, project.testset_digest())))
        })
    }

    /// Run one op's gate `step` and journal the line it returns. The
    /// step mutates in memory first, the journal append comes second; if
    /// either fails, the mutation is rolled back ([`Project::rollback`]):
    /// the gate state, the labels a measurement pulled, the testset an
    /// era replaced. An op that lived in memory but not in the journal
    /// would make every *later* journalled step number diverge from what
    /// a restart recomputes, bricking recovery for the whole project.
    fn journalled<T>(
        &mut self,
        step: impl FnOnce(
            &mut Project,
            &mut Savepoint,
            &ProjectStore,
        ) -> Result<(T, String), ServeError>,
    ) -> Result<T, ServeError> {
        let mut savepoint = self.project.savepoint();
        let result = step(&mut self.project, &mut savepoint, &self.store)
            .and_then(|(value, line)| self.store.append(line, &self.project).map(|()| value));
        if result.is_err() {
            self.project.rollback(savepoint);
        }
        result
    }

    /// Test seam: force the next journal append to fail.
    #[cfg(test)]
    pub(crate) fn fail_next_append(&mut self) {
        self.store.fail_next_append = true;
    }

    /// Force a snapshot of the current state.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn snapshot(&self) -> Result<(), ServeError> {
        self.store.write_snapshot(&self.project)
    }
}

/// What boot recovery did when a [`Registry`] opened.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct BootReplay {
    /// Journal ops replayed past snapshot watermarks, over all projects.
    pub ops: u64,
    /// Bytes of `snapshot.json` read, over all projects.
    pub snapshot_bytes: u64,
    /// Bytes of journal segments read, over all projects: the segments
    /// at or past each snapshot's watermark, which only a seal cut short
    /// leaves holding ops the snapshot covers.
    pub journal_bytes: u64,
    /// Wall time of loading every project: registration records,
    /// snapshots and journal suffixes.
    pub seconds: f64,
}

/// The process-wide project registry backed by a data directory.
#[derive(Debug)]
pub struct Registry {
    vfs: Arc<dyn Vfs>,
    projects_dir: PathBuf,
    estimator: SampleSizeEstimator,
    durability: Durability,
    boot_replay: BootReplay,
    failures: Arc<StoreFailures>,
    /// The group-commit discipline every store stages its journal
    /// syncs through, and the metrics its rounds record into.
    group: Arc<GroupCommit>,
    projects: RwLock<HashMap<String, Arc<Mutex<ProjectSlot>>>>,
    /// Names with a registration in flight: reserved before the durable
    /// store is created so the fsync happens outside the `projects` lock.
    registering: Mutex<std::collections::HashSet<String>>,
}

/// Idempotency arm of [`Registry::register`]: same script *and* same
/// testset (by digest) → the existing project; anything else → conflict.
fn existing_or_conflict(
    existing: &Arc<Mutex<ProjectSlot>>,
    name: &str,
    script_text: &str,
    testset_digest: Option<u64>,
) -> Result<Arc<Mutex<ProjectSlot>>, ServeError> {
    let slot = existing.lock().expect("project poisoned");
    if slot.project.script_text() != script_text {
        return Err(ServeError::Conflict(format!(
            "project `{name}` already exists with a different script"
        )));
    }
    if slot.project.testset_digest() != testset_digest {
        return Err(ServeError::Conflict(format!(
            "project `{name}` already exists with a different testset"
        )));
    }
    drop(slot);
    Ok(Arc::clone(existing))
}

impl Registry {
    /// Open (or initialize) a data directory, loading every project
    /// found under `projects/`.
    ///
    /// A directory without a `project.json` (the husk of a registration
    /// that died between `mkdir` and the record write) is skipped with a
    /// warning rather than refusing to boot — there is no gate state to
    /// lose in it, and the name remains claimable. A directory *with* a
    /// record that fails validation is a hard error: gate state exists
    /// and must not silently diverge.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt project directories.
    pub fn open(data_dir: &Path, estimator: SampleSizeEstimator) -> Result<Registry, ServeError> {
        Registry::open_with(data_dir, estimator, Arc::new(RealVfs))
    }

    /// [`Registry::open`] with an injected filesystem — the seam the
    /// fault-injection harness and degraded-mode tests drive. Opens in
    /// [`Durability::Group`].
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt project directories.
    pub fn open_with(
        data_dir: &Path,
        estimator: SampleSizeEstimator,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Registry, ServeError> {
        Registry::open_with_durability(data_dir, estimator, vfs, Durability::Group, None)
    }

    /// [`Registry::open_with`] with an explicit durability mode. The
    /// group-commit rounds record into `metrics` when given.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt project directories.
    pub fn open_with_durability(
        data_dir: &Path,
        estimator: SampleSizeEstimator,
        vfs: Arc<dyn Vfs>,
        durability: Durability,
        metrics: Option<GroupMetrics>,
    ) -> Result<Registry, ServeError> {
        let started = Instant::now();
        let group = Arc::new(GroupCommit::new(metrics));
        let failures = Arc::new(StoreFailures::default());
        let projects_dir = data_dir.join("projects");
        let fresh = !vfs.exists(data_dir);
        vfs.create_dir_all(&projects_dir)?;
        // `projects/` must be reachable after a power cut before any
        // project in it is, and so must a data dir made just now. Its
        // parent is not ours and may not be readable: syncing it is
        // best effort.
        vfs.sync_dir(data_dir)?;
        if let Some(parent) = data_dir
            .parent()
            .filter(|p| fresh && !p.as_os_str().is_empty())
        {
            if let Err(e) = vfs.sync_dir(parent) {
                eprintln!("warning: could not sync {}: {e}", parent.display());
            }
        }
        let mut projects = HashMap::new();
        let mut boot_replay = BootReplay::default();
        for path in vfs.list_dir(&projects_dir)? {
            if !vfs.is_dir(&path) {
                continue;
            }
            let entries = vfs.list_dir(&path)?;
            if !entries.contains(&path.join("project.json")) {
                eprintln!(
                    "warning: skipping {} (no project.json — incomplete registration)",
                    path.display()
                );
                continue;
            }
            let (project, store) = ProjectStore::open(
                &vfs,
                &path,
                &entries,
                &estimator,
                durability,
                &group,
                &failures,
                &mut boot_replay,
            )?;
            projects.insert(
                project.name().to_owned(),
                Arc::new(Mutex::new(ProjectSlot {
                    project,
                    store,
                    outcomes: OutcomeCounters::default(),
                })),
            );
        }
        Ok(Registry {
            vfs,
            projects_dir,
            estimator,
            durability,
            boot_replay: BootReplay {
                seconds: started.elapsed().as_secs_f64(),
                ..boot_replay
            },
            failures,
            group,
            projects: RwLock::new(projects),
            registering: Mutex::new(std::collections::HashSet::new()),
        })
    }

    /// The durability mode this registry was opened with.
    #[must_use]
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Until the guard drops, leave the journal syncs this thread's
    /// store calls stage to [`Registry::round`], which the caller — an
    /// event loop — runs after each readiness sweep.
    pub(crate) fn defer_rounds(&self) -> group::DeferredRounds<'_> {
        self.group.defer_rounds()
    }

    /// Run one group-commit round: retire every journal sync this thread
    /// staged.
    pub(crate) fn round(&self) {
        self.group.round();
    }

    /// What boot recovery did when this registry opened.
    #[must_use]
    pub(crate) fn boot_replay(&self) -> BootReplay {
        self.boot_replay
    }

    /// Commit-path I/O failures this registry's stores survived.
    pub(crate) fn store_failures(&self) -> &Arc<StoreFailures> {
        &self.failures
    }

    /// The filesystem facade this registry persists through.
    #[must_use]
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Register a new project and create its durable state.
    ///
    /// Registration is *idempotent*: re-registering an existing name
    /// with byte-identical script text (and the same testset, when one
    /// is attached) returns the existing project (so an at-least-once
    /// client retry of a lost response converges), while the same name
    /// with a different script or testset is a conflict.
    ///
    /// The name is reserved under a short-lived lock and the durable
    /// store (which fsyncs) is created outside every lock other requests
    /// touch, so a registration never stalls traffic to other projects.
    ///
    /// # Errors
    ///
    /// An invalid testset ([`MeasuredTestset::from_spec`], 400),
    /// [`ServeError::Conflict`] on duplicate names with differing
    /// scripts (or a registration still in flight), validation and I/O
    /// failures otherwise.
    pub fn register(
        &self,
        name: &str,
        script_text: &str,
        testset: Option<TestsetSpec>,
    ) -> Result<Arc<Mutex<ProjectSlot>>, ServeError> {
        let testset = testset.map(MeasuredTestset::from_spec).transpose()?;
        self.register_measured(name, script_text, testset)
    }

    /// [`Registry::register`] with a checked testset (the register route).
    pub(crate) fn register_measured(
        &self,
        name: &str,
        script_text: &str,
        testset: Option<MeasuredTestset>,
    ) -> Result<Arc<Mutex<ProjectSlot>>, ServeError> {
        let project = Project::register_with_testset(name, script_text, &self.estimator, testset)?;
        let testset_digest = project.testset_digest();
        // Reserve the name. The `registering` set covers the window in
        // which the store is created on disk; the map is the long-term
        // record. Only the map lookup happens under the reservation lock
        // — never a project slot lock, whose holder may be mid-fsync.
        let existing = {
            let mut registering = self.registering.lock().expect("registry poisoned");
            let existing = self.get(name);
            if existing.is_none() && !registering.insert(name.to_owned()) {
                return Err(ServeError::Conflict(format!(
                    "project `{name}` registration already in progress"
                )));
            }
            existing
        };
        if let Some(existing) = existing {
            return existing_or_conflict(&existing, name, script_text, testset_digest);
        }
        // `create` returns once the record's rename landed, so the
        // project becomes visible only when durable: no commit is ever
        // journalled (or acked) against a registration a crash could
        // undo.
        let out = ProjectStore::create(
            &self.vfs,
            &self.projects_dir.join(name),
            &project,
            self.durability,
            &self.group,
            &self.failures,
        )
        .map(|store| {
            let slot = Arc::new(Mutex::new(ProjectSlot {
                project,
                store,
                outcomes: OutcomeCounters::default(),
            }));
            self.projects
                .write()
                .expect("registry poisoned")
                .insert(name.to_owned(), Arc::clone(&slot));
            slot
        });
        self.registering
            .lock()
            .expect("registry poisoned")
            .remove(name);
        out
    }

    /// The project slot for `name`, if registered.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<ProjectSlot>>> {
        self.projects
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
    }

    /// Registered project names, sorted (deterministic listings).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .projects
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered projects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.projects.read().expect("registry poisoned").len()
    }

    /// Whether no project is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every project with ops past its last snapshot (the
    /// graceful-shutdown and `/admin/persist` hook). One never committed
    /// to, or unchanged since its last seal, has nothing to add. Projects
    /// go in name order, and a failed snapshot does not stop the pass:
    /// every other project is still snapshotted.
    ///
    /// # Errors
    ///
    /// The first failure, once every project was tried.
    pub fn snapshot_all(&self) -> Result<(), ServeError> {
        let mut slots: Vec<(String, Arc<Mutex<ProjectSlot>>)> = self
            .projects
            .read()
            .expect("registry poisoned")
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        slots.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // One project's failure must not skip the others' snapshots.
        let mut result = Ok(());
        for (_, slot) in slots {
            let slot = slot.lock().expect("project poisoned");
            if slot.store.has_unsealed_ops() {
                result = result.and(slot.snapshot());
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::record::hostile::{container_paths, edited, edits, members_at, value_at, Edit};
    use crate::record::{parse_digest_hex, per_class_counts};
    use crate::registry::serving_estimator;
    use crate::vfs::{Fault, FaultKind, FaultPlan, FaultVfs, MemVfs, OpRecord};
    use proptest::prelude::*;

    const SCRIPT: &str = "ml:\n\
        \x20 - condition  : n > 0.6 +/- 0.2\n\
        \x20 - reliability: 0.99\n\
        \x20 - mode       : fp-free\n\
        \x20 - adaptivity : full\n\
        \x20 - steps      : 3\n";

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("easeml-serve-store-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submission(id: &str, new_correct: u64) -> CommitSubmission {
        CommitSubmission {
            commit_id: id.into(),
            counts: EvalCounts {
                samples: 100,
                new_correct,
                old_correct: 50,
                changed: 30,
                labels: 100,
                per_class: None,
            },
        }
    }

    /// A counts commit validates its counts once on the durable step —
    /// the redelivery lookup and the gate step share the opening checks —
    /// and a redelivery validates once as well.
    #[test]
    fn a_counts_commit_validates_its_counts_once() {
        use crate::registry::tests::counting_validations;
        let dir = temp_dir("validate-once");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.register("proj", SCRIPT, None).unwrap();
        let mut slot = slot.lock().unwrap();
        let (fresh, validations) = counting_validations(|| slot.submit(&submission("c1", 90)));
        assert_eq!(validations, 1);
        let (again, validations) = counting_validations(|| slot.submit(&submission("c1", 90)));
        assert_eq!(validations, 1);
        assert_eq!(fresh.unwrap(), again.unwrap());
        assert_eq!(slot.project.steps_used(), 1);
    }

    #[test]
    fn fresh_testset_survives_restart() {
        let dir = temp_dir("era");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.register("proj", SCRIPT, None).unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit(&submission("c1", 90)).unwrap();
            assert_eq!(slot.fresh_testset(None).unwrap(), 1);
            slot.submit(&submission("c2", 90)).unwrap();
        }
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let slot = slot.lock().unwrap();
        assert_eq!(slot.project.era(), 1);
        assert_eq!(slot.project.steps_used(), 1);
        assert_eq!(slot.project.history().len(), 2);
        assert_eq!(slot.project.history().entries()[1].era, 1);
    }

    /// Append `line` to the project's journal segment `segment`, boot,
    /// and return the boot error, which must name that segment.
    fn boot_error_after_journal_line(dir: &Path, segment: &str, line: &str) -> String {
        let path = dir.join("projects/proj").join(segment);
        let mut text = std::fs::read_to_string(&path).unwrap_or_default();
        text.push_str(line);
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        match Registry::open(dir, serving_estimator()) {
            Err(ServeError::Corrupt { path: bad, reason }) => {
                assert_eq!(bad, path, "{reason}");
                reason
            }
            Err(e) => panic!("expected a corrupt journal, got {e}"),
            Ok(_) => panic!("boot accepted `{line}`"),
        }
    }

    /// A predictions project's era needs a testset: the live route
    /// refuses a bodyless fresh era, and so must boot replay.
    #[test]
    fn digestless_fresh_testset_on_a_predictions_project_fails_boot() {
        let dir = temp_dir("digestless-era");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry
                .register("proj", SCRIPT, Some(lazy_spec(100)))
                .unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            let err = slot.fresh_testset(None).unwrap_err();
            assert!(matches!(err, ServeError::Conflict(_)), "{err}");
        }
        let line = r#"{"op":"fresh_testset","era":1}"#;
        let reason = boot_error_after_journal_line(&dir, "journal.0.log", line);
        assert!(
            reason.starts_with("line 2: testset replay failed: project holds a server-side"),
            "{reason}"
        );
    }

    /// The era counter never wraps: at era `u32::MAX` the live route
    /// answers 400 and journals nothing, and boot refuses a journalled
    /// era past it.
    #[test]
    fn era_counter_overflow_is_refused_live_and_at_boot() {
        let dir = temp_dir("era-overflow");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.register("proj", SCRIPT, None).unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit(&submission("c1", 90)).unwrap();
            slot.snapshot().unwrap();
        }
        let snapshot = dir.join("projects/proj/snapshot.json");
        let text = std::fs::read_to_string(&snapshot).unwrap();
        let at_max = text.replacen("\"era\": 0,", "\"era\": 4294967295,", 1);
        assert_ne!(at_max, text);
        std::fs::write(&snapshot, at_max).unwrap();
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.get("proj").unwrap();
            let mut slot = slot.lock().unwrap();
            assert_eq!(slot.project.era(), u32::MAX);
            let err = slot.fresh_testset(None).unwrap_err();
            assert_eq!(
                (err.status(), err.to_string()),
                (400, "era counter overflow".into())
            );
            assert_eq!(slot.project.era(), u32::MAX);
            assert!(
                !slot.store.has_unsealed_ops(),
                "a refused era journals nothing"
            );
        }
        let line = r#"{"op":"fresh_testset","era":0}"#;
        let reason = boot_error_after_journal_line(&dir, "journal.1.log", line);
        assert_eq!(
            reason,
            "line 1: testset replay failed: era counter overflow"
        );
    }

    #[test]
    fn restart_restores_identical_state() {
        let dir = temp_dir("restart");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.register("proj", SCRIPT, None).unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit(&submission("c1", 90)).unwrap();
            slot.submit(&submission("c2", 30)).unwrap();
            slot.submit(&submission("c3", 65)).unwrap(); // Unknown → fail, budget exhausted
        } // drop = process death (no snapshot written: 3 < SNAPSHOT_EVERY)

        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").expect("project survives restart");
        let slot = slot.lock().unwrap();
        assert_eq!(slot.project.steps_used(), 3);
        assert!(slot.project.is_retired());
        assert_eq!(slot.project.era(), 0);
        let entries = slot.project.history().entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].commit_id, "c1");
        assert!(entries[0].passed);
        assert!(!entries[2].passed);
        assert_eq!(entries[2].outcome, Tribool::Unknown);
    }

    #[test]
    fn snapshot_plus_journal_suffix_restores() {
        let dir = temp_dir("snapshot");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.register("proj", SCRIPT, None).unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit(&submission("c1", 90)).unwrap();
            slot.snapshot().unwrap(); // snapshot at watermark 1
            slot.submit(&submission("c2", 30)).unwrap(); // journal suffix
        }
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let slot = slot.lock().unwrap();
        assert_eq!(slot.project.steps_used(), 2);
        assert_eq!(slot.project.history().len(), 2);
        assert_eq!(slot.project.history().entries()[1].commit_id, "c2");
    }

    #[test]
    fn tampered_journal_is_rejected() {
        let dir = temp_dir("tamper");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.register("proj", SCRIPT, None).unwrap();
            slot.lock().unwrap().submit(&submission("c1", 90)).unwrap();
        }
        let journal = dir.join("projects/proj/journal.0.log");
        let text = std::fs::read_to_string(&journal).unwrap();
        // Flip the recorded outcome: replay recomputes `passed` and must
        // notice the divergence.
        std::fs::write(
            &journal,
            text.replace("\"passed\":true", "\"passed\":false"),
        )
        .unwrap();
        let err = Registry::open(&dir, serving_estimator()).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");

        // Garbage line: rejected too.
        std::fs::write(&journal, "not json\n").unwrap();
        assert!(Registry::open(&dir, serving_estimator()).is_err());
    }

    /// Snapshot one counts commit of an H = 3 project, apply `edit` to
    /// `snapshot.json`, and return the boot error, which must name that
    /// file.
    fn boot_error_after_snapshot_edit(name: &str, edit: impl Fn(&str) -> String) -> String {
        let dir = temp_dir(name);
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.register("proj", SCRIPT, None).unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit(&submission("c1", 90)).unwrap();
            slot.snapshot().unwrap();
        }
        let path = dir.join("projects/proj/snapshot.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let edited = edit(&text);
        assert_ne!(edited, text, "the edit must change the snapshot");
        std::fs::write(&path, edited).unwrap();
        match Registry::open(&dir, serving_estimator()) {
            Err(ServeError::Corrupt { path: bad, reason }) => {
                assert!(bad.ends_with("snapshot.json"), "{}", bad.display());
                reason
            }
            Err(e) => panic!("expected a corrupt snapshot, got {e}"),
            Ok(_) => panic!("boot accepted a snapshot outside the step budget"),
        }
    }

    #[test]
    fn snapshot_steps_used_beyond_budget_fails_boot() {
        let reason = boot_error_after_snapshot_edit("steps-over", |t| {
            t.replace("\"steps_used\": 1,", "\"steps_used\": 7,")
        });
        assert!(reason.contains("steps_used 7"), "{reason}");
    }

    #[test]
    fn snapshot_entry_step_outside_budget_fails_boot() {
        let reason = boot_error_after_snapshot_edit("step-range", |t| {
            t.replace("\"step\": 1,", "\"step\": 4,")
        });
        assert!(reason.contains("step 4"), "{reason}");
        let reason = boot_error_after_snapshot_edit("step-zero", |t| {
            t.replace("\"step\": 1,", "\"step\": 0,")
        });
        assert!(reason.contains("step 0"), "{reason}");
    }

    #[test]
    fn snapshot_entry_from_a_later_era_fails_boot() {
        let reason = boot_error_after_snapshot_edit("era-ahead", |t| {
            t.replace("      \"era\": 0,", "      \"era\": 1,")
        });
        assert!(reason.contains("era 1"), "{reason}");
    }

    #[test]
    fn registration_is_idempotent_but_conflicts_on_different_script() {
        let dir = temp_dir("dup");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let first = registry.register("proj", SCRIPT, None).unwrap();
        // Same name + same script: the retry of a lost response converges
        // on the same project.
        let again = registry.register("proj", SCRIPT, None).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // Same name + different script: conflict.
        let other = SCRIPT.replace("0.99", "0.95");
        assert!(matches!(
            registry.register("proj", &other, None),
            Err(ServeError::Conflict(_))
        ));
        assert_eq!(registry.names(), vec!["proj".to_owned()]);
    }

    #[test]
    fn duplicate_commit_redelivery_consumes_no_budget() {
        let dir = temp_dir("redeliver");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.register("proj", SCRIPT, None).unwrap();
        let mut slot = slot.lock().unwrap();
        let first = slot.submit(&submission("c1", 90)).unwrap();
        let journal_after_first = std::fs::read(dir.join("projects/proj/journal.0.log")).unwrap();
        // Redelivery: identical receipt, no budget spent, no journal growth.
        let again = slot.submit(&submission("c1", 90)).unwrap();
        assert_eq!(again, first);
        assert_eq!(slot.project.steps_used(), 1);
        assert_eq!(slot.project.history().len(), 1);
        assert_eq!(
            std::fs::read(dir.join("projects/proj/journal.0.log")).unwrap(),
            journal_after_first
        );
        // A *different* submission under the same id is evaluated afresh.
        let third = slot.submit(&submission("c1", 30)).unwrap();
        assert_eq!(third.step, 2);
        assert_eq!(slot.project.steps_used(), 2);
    }

    #[test]
    fn duplicate_redelivery_of_final_step_reconstructs_alarm() {
        let dir = temp_dir("redeliver-final");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.register("proj", SCRIPT, None).unwrap();
        let mut slot = slot.lock().unwrap();
        for i in 0..3 {
            slot.submit(&submission(&format!("c{i}"), 90)).unwrap();
        }
        assert!(slot.project.is_retired());
        // The final step's redelivery returns its receipt (with the
        // budget-exhausted alarm) instead of the Gone error a *new*
        // commit would get.
        let again = slot.submit(&submission("c2", 90)).unwrap();
        assert_eq!(again.step, 3);
        assert_eq!(
            again.alarm,
            Some(easeml_ci_core::AlarmReason::BudgetExhausted)
        );
        assert!(matches!(
            slot.submit(&submission("c3", 90)),
            Err(ServeError::Gone(_))
        ));
    }

    #[test]
    fn redelivery_matches_original_receipt_even_with_interleaved_commits() {
        let dir = temp_dir("interleave");
        let script = SCRIPT.replace("steps      : 3", "steps      : 10");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.register("proj", &script, None).unwrap();
        let mut slot = slot.lock().unwrap();
        // Client A's commit lands, the response is lost, client B's
        // commit lands in between — A's retry must still converge on the
        // original receipt, not burn a fresh step.
        let original = slot.submit(&submission("from-a", 90)).unwrap();
        slot.submit(&submission("from-b", 30)).unwrap();
        let retried = slot.submit(&submission("from-a", 90)).unwrap();
        assert_eq!(retried, original);
        assert_eq!(slot.project.steps_used(), 2);
    }

    #[test]
    fn redelivery_of_hybrid_retiring_pass_matches_original() {
        let dir = temp_dir("hybrid-redeliver");
        let script = SCRIPT.replace("full", "firstChange");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.register("proj", &script, None).unwrap();
        let mut slot = slot.lock().unwrap();
        slot.submit(&submission("c1", 30)).unwrap();
        // A pass mid-budget retires the era (firstChange): the receipt
        // reported steps_remaining = 1 at the moment it was issued, and
        // its redelivery must reproduce exactly that, alarm included.
        let original = slot.submit(&submission("c2", 90)).unwrap();
        assert_eq!(
            original.alarm,
            Some(easeml_ci_core::AlarmReason::PassedInHybrid)
        );
        assert_eq!(original.steps_remaining, 1);
        let retried = slot.submit(&submission("c2", 90)).unwrap();
        assert_eq!(retried, original);
    }

    /// Off an event loop every store call runs its own round: 10,000
    /// commits whose waiters nobody takes leave the thread's group
    /// queue empty, and the journal bytes are durable when a call
    /// returns (checked every 100 ops: the check copies the segment).
    #[test]
    fn off_loop_submits_never_leave_a_sync_staged() {
        let disk = MemVfs::new();
        let root = Path::new("/off-loop");
        let registry =
            Registry::open_with(root, serving_estimator(), Arc::new(disk.clone())).unwrap();
        let script = SCRIPT.replace("steps      : 3", "steps      : 10000");
        let slot = registry.register("proj", &script, None).unwrap();
        let mut slot = slot.lock().unwrap();
        let dir = root.join("projects/proj");
        for op in 1..=10_000u64 {
            slot.submit(&submission(&format!("c{op}"), (op * 37 + 11) % 101))
                .unwrap();
            assert_eq!(group::staged_len(), 0, "op {op}");
            if op % 100 != 0 {
                continue;
            }
            for name in segment_files(&disk, &dir) {
                let path = dir.join(name);
                assert_eq!(
                    disk.synced_len(&path),
                    disk.file_bytes(&path).map(|bytes| bytes.len()),
                    "op {op}"
                );
            }
        }
        assert_eq!(slot.project.steps_used(), 10_000);
    }

    #[test]
    fn failed_journal_append_rolls_the_gate_back() {
        let dir = temp_dir("rollback");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.register("proj", SCRIPT, None).unwrap();
        let mut slot = slot.lock().unwrap();
        slot.submit(&submission("c1", 90)).unwrap();

        // Journal failure: the request errors AND the in-memory gate is
        // unchanged — otherwise every later journaled step would diverge
        // from what restart recovery recomputes.
        slot.fail_next_append();
        assert!(matches!(
            slot.submit(&submission("c2", 30)),
            Err(ServeError::Io(_))
        ));
        assert_eq!(slot.project.steps_used(), 1);
        assert_eq!(slot.project.history().len(), 1);

        slot.fail_next_append();
        assert!(matches!(slot.fresh_testset(None), Err(ServeError::Io(_))));
        assert_eq!(slot.project.era(), 0);

        // The next successful submission gets the step the failed one
        // would have had, and a restart replays to the identical state.
        let receipt = slot.submit(&submission("c2", 30)).unwrap();
        assert_eq!(receipt.step, 2);
        drop(slot);
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let slot = slot.lock().unwrap();
        assert_eq!(slot.project.steps_used(), 2);
        assert_eq!(slot.project.history().len(), 2);
    }

    #[test]
    fn orphan_project_dir_is_skipped_and_reclaimable() {
        let dir = temp_dir("orphan");
        // A registration that died between mkdir and the project.json
        // write leaves a husk; boot must skip it, not refuse to start.
        std::fs::create_dir_all(dir.join("projects/husk")).unwrap();
        std::fs::write(dir.join("projects/husk/journal.log"), "stale\n").unwrap();
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        assert!(registry.is_empty());
        // And the name is claimable: the retry wins and starts clean.
        let slot = registry.register("husk", SCRIPT, None).unwrap();
        slot.lock().unwrap().submit(&submission("c1", 90)).unwrap();
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        assert_eq!(
            registry
                .get("husk")
                .unwrap()
                .lock()
                .unwrap()
                .project
                .history()
                .len(),
            1,
            "stale journal must not leak into the reclaimed project"
        );
    }

    /// A registration is acknowledged only once `project.json` is in
    /// place, in every mode: the process image taken the moment
    /// `register` returns boots with the project, relaxed durability
    /// included.
    #[test]
    fn acked_registration_survives_a_kill_in_every_mode() {
        let root = Path::new("/easeml-store-kill");
        for durability in [Durability::Group, Durability::Relaxed] {
            let disk = MemVfs::new();
            let registry = Registry::open_with_durability(
                root,
                serving_estimator(),
                Arc::new(disk.clone()),
                durability,
                None,
            )
            .unwrap();
            registry.register("alpha", SCRIPT, None).unwrap();
            let rebooted =
                Registry::open_with(root, serving_estimator(), Arc::new(disk.kill_view())).unwrap();
            assert!(
                rebooted.get("alpha").is_some(),
                "{durability}: acked registration lost to a kill"
            );
        }
    }

    /// The power-cut twin: a registration, its testset blob included,
    /// survives a power cut the moment `register` returns, because the
    /// new directory's entry and then the record's rename are synced.
    #[test]
    fn acked_registration_survives_a_power_cut() {
        let root = Path::new("/easeml-store-cut");
        let disk = MemVfs::new();
        let registry =
            Registry::open_with(root, serving_estimator(), Arc::new(disk.clone())).unwrap();
        registry.register("alpha", SCRIPT, None).unwrap();
        registry
            .register("beta", SCRIPT, Some(lazy_spec(100)))
            .unwrap();
        let rebooted =
            Registry::open_with(root, serving_estimator(), Arc::new(disk.power_cut_view()))
                .unwrap();
        assert_eq!(rebooted.names(), ["alpha", "beta"]);
    }

    /// A registration writes its own record on the registering thread:
    /// its last I/O ops are the `project.tmp → project.json` rename and
    /// the fsync of the project directory that makes it durable, after
    /// the directory's own entry in `projects/` was synced. It creates
    /// no journal segment. A failed record fsync or directory fsync
    /// answers the 503 `registration install failed`, leaves no project
    /// visible (live or after a reboot), and a retry under the name
    /// succeeds.
    #[test]
    fn registration_renames_its_own_record_last() {
        let root = Path::new("/easeml-store-install");
        let vfs = FaultVfs::new(root, FaultPlan::new());
        let registry =
            Registry::open_with(root, serving_estimator(), Arc::new(vfs.clone())).unwrap();
        vfs.start_recording();
        registry.register("alpha", SCRIPT, None).unwrap();
        let log = vfs.take_oplog();
        let dir = root.join("projects/alpha");
        let position = |kind: &str, path: &Path| {
            log.iter()
                .position(|op| op.kind == kind && op.path == path)
                .unwrap_or_else(|| panic!("no {kind} of {}: {log:?}", path.display()))
        };
        let dir_sync = log.len() - 1;
        assert_eq!(position("sync_dir", &dir), dir_sync);
        assert_eq!(position("rename", &dir.join("project.tmp")), dir_sync - 1);
        let record_sync = position("sync", &dir.join("project.tmp"));
        assert!(position("create_dir", &dir) < position("sync_dir", &root.join("projects")));
        assert!(position("sync_dir", &root.join("projects")) < record_sync);
        assert!(vfs.disk().exists(&dir.join("project.json")));
        assert!(
            log.iter().all(|op| !op.path.ends_with("journal.0.log")),
            "{log:?}"
        );

        // The same op sequence under a fresh name, one of its fsyncs
        // failing.
        for (name, failing) in [("beta", record_sync), ("gamma", dir_sync)] {
            let plan = FaultPlan::new().at(name, log[failing].index, Fault::Fail(FaultKind::Eio));
            let vfs = FaultVfs::new(root, plan);
            let registry =
                Registry::open_with(root, serving_estimator(), Arc::new(vfs.clone())).unwrap();
            let err = registry.register(name, SCRIPT, None).unwrap_err();
            assert_eq!(err.status(), 503);
            assert!(
                err.to_string().starts_with("registration install failed: "),
                "{err}"
            );
            assert!(registry.get(name).is_none());
            let rebooted =
                Registry::open_with(root, serving_estimator(), Arc::new(vfs.disk().kill_view()))
                    .unwrap();
            assert!(rebooted.get(name).is_none());
            registry.register(name, SCRIPT, None).unwrap();
            let rebooted =
                Registry::open_with(root, serving_estimator(), Arc::new(vfs.disk().kill_view()))
                    .unwrap();
            assert!(rebooted.get(name).is_some());
        }
    }

    /// Deterministic prediction vectors over an all-zeros truth: `new`
    /// is correct on the first `correct` items, wrong (class 1) after.
    fn preds(size: usize, correct: usize) -> Vec<u32> {
        (0..size).map(|i| u32::from(i >= correct)).collect()
    }

    fn lazy_spec(size: usize) -> TestsetSpec {
        TestsetSpec {
            truth: vec![0u32; size],
            classes: 2,
            lazy: true,
        }
    }

    fn pred_submission(id: &str, size: usize, old_c: usize, new_c: usize) -> PredictionsSubmission {
        PredictionsSubmission {
            commit_id: id.into(),
            old: preds(size, old_c),
            new: preds(size, new_c),
        }
    }

    #[test]
    fn predictions_restart_replays_stored_vectors_to_identical_state() {
        let dir = temp_dir("pred-restart");
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
        let (receipt, counts) = {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry
                .register("proj", &script, Some(lazy_spec(100)))
                .unwrap();
            let mut slot = slot.lock().unwrap();
            let out = slot
                .submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            slot.submit_predictions(&pred_submission("c2", 100, 50, 40))
                .unwrap();
            out
        }; // process death; 2 ops < SNAPSHOT_EVERY, no snapshot
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let mut slot = slot.lock().unwrap();
        assert_eq!(slot.project.steps_used(), 2);
        assert_eq!(slot.project.history().len(), 2);
        // Replay rebuilt the lazily-spent label state: c1 disagrees on
        // 50..90 (40 labels), c2 adds 40..50 (10 more).
        assert_eq!(slot.project.measured().unwrap().labeled_count(), 50);
        // …and redelivery dedup still works across the restart (the
        // digests were rebuilt from the journal's stored vectors).
        let (again, counts_again) = slot
            .submit_predictions(&pred_submission("c1", 100, 50, 90))
            .unwrap();
        assert_eq!(again, receipt);
        assert_eq!(counts_again, counts);
        assert_eq!(slot.project.steps_used(), 2, "redelivery spends nothing");
    }

    /// The status, `/history` and `/budget` bodies of every project.
    fn bodies(registry: &Registry) -> Vec<Vec<u8>> {
        let body = |resp: Result<crate::http::Response, ServeError>| resp.unwrap().body;
        let mut out = Vec::new();
        for name in registry.names() {
            out.push(body(crate::server::project_status(registry, &name)));
            out.push(body(crate::server::project_history(registry, &name)));
            out.push(body(crate::server::project_budget(registry, &name)));
        }
        out
    }

    /// Boot never depends on cache warmth: a directory written through
    /// the shared estimator caches reopens under an estimator that
    /// bypasses every cache and serves byte-identical status, history
    /// and budget bodies. The mix covers a baseline and an optimized
    /// plan, counts commits, and lazy and full predictions testsets.
    #[test]
    fn reopening_with_cold_caches_serves_identical_state() {
        use easeml_ci_core::{CachePolicy, EstimatorConfig, SampleSizeEstimator};
        let dir = temp_dir("cold-reopen");
        let difference = SCRIPT.replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
        let hierarchical = SCRIPT
            .replace(
                "n > 0.6 +/- 0.2",
                "d < 0.1 +/- 0.05 /\\ n - o > 0.02 +/- 0.05",
            )
            .replace("adaptivity : full", "adaptivity : none");
        let before = {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.register("baseline", SCRIPT, None).unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit(&submission("c1", 90)).unwrap();
            slot.submit(&submission("c2", 30)).unwrap();
            drop(slot);
            let slot = registry.register("optimized", &hierarchical, None).unwrap();
            let mut slot = slot.lock().unwrap();
            assert!(matches!(
                slot.project.estimate().provenance,
                easeml_ci_core::EstimateProvenance::Optimized(_)
            ));
            slot.submit(&submission("c1", 60)).unwrap();
            drop(slot);
            let slot = registry
                .register("lazy", &difference, Some(lazy_spec(100)))
                .unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            drop(slot);
            let full = TestsetSpec {
                lazy: false,
                ..lazy_spec(100)
            };
            let slot = registry.register("full", &difference, Some(full)).unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit_predictions(&pred_submission("c1", 100, 40, 70))
                .unwrap();
            drop(slot);
            bodies(&registry)
        };
        assert_eq!(before.len(), 12);
        let bypass = SampleSizeEstimator::with_config(EstimatorConfig {
            cache: CachePolicy::Bypass,
            ..*serving_estimator().config()
        });
        let registry = Registry::open(&dir, bypass).unwrap();
        let after = bodies(&registry);
        for (before, after) in before.iter().zip(&after) {
            assert_eq!(
                std::str::from_utf8(after).unwrap(),
                std::str::from_utf8(before).unwrap()
            );
        }
        assert_eq!(after.len(), before.len());
    }

    #[test]
    fn tampered_prediction_blobs_fail_boot() {
        let dir = temp_dir("pred-tamper");
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry
                .register("proj", &script, Some(lazy_spec(100)))
                .unwrap();
            slot.lock()
                .unwrap()
                .submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
        }
        let journal = dir.join("projects/proj/journal.0.log");
        let pristine = std::fs::read_to_string(&journal).unwrap();
        // Tamper with the stored `new` vector: item 0 flips 0 → 1 (the
        // packed form of `preds(100, 90)` starts with 90 zeros). The
        // re-measured counts diverge from the recorded ones.
        let tampered = pristine.replace("\"new\":\"#0", "\"new\":\"#1");
        assert_ne!(tampered, pristine, "tamper must hit");
        std::fs::write(&journal, &tampered).unwrap();
        let err = Registry::open(&dir, serving_estimator()).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        std::fs::write(&journal, &pristine).unwrap();

        // Tampering with the *testset blob* (a label flip) also diverges.
        let blob_path = dir.join("projects/proj/testset.0.json");
        let blob = std::fs::read_to_string(&blob_path).unwrap();
        let evil = blob.replace("\"labels\": \"#0", "\"labels\": \"#1");
        assert_ne!(evil, blob);
        std::fs::write(&blob_path, evil).unwrap();
        let err = Registry::open(&dir, serving_estimator()).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        std::fs::write(&blob_path, blob).unwrap();
        assert!(Registry::open(&dir, serving_estimator()).is_ok());
    }

    /// Boot reads a predictions project's era-0 blob once: the pool
    /// registration builds from it is the one the era-0 snapshot
    /// restores its labels into. A snapshot whose testset digest no
    /// longer matches still fails with the snapshot's reason.
    #[test]
    fn boot_reads_the_era_zero_testset_once() {
        let root = Path::new("/era-zero-blob");
        let dir = root.join("projects/proj");
        let blob = dir.join(testset_blob_name(0));
        let script = SCRIPT
            .replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2")
            .replace("steps      : 3", "steps      : 10");
        let fvfs = FaultVfs::new(root, FaultPlan::new());
        {
            let registry =
                Registry::open_with(root, serving_estimator(), Arc::new(fvfs.clone())).unwrap();
            let slot = registry
                .register("proj", &script, Some(lazy_spec(100)))
                .unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            slot.snapshot().unwrap();
            slot.submit_predictions(&pred_submission("c2", 100, 50, 70))
                .unwrap();
        }
        let boot = |disk: MemVfs| {
            let fvfs = FaultVfs::with_disk(root, disk, FaultPlan::new());
            fvfs.start_recording();
            let opened = Registry::open_with(root, serving_estimator(), Arc::new(fvfs.clone()));
            let reads = fvfs
                .take_oplog()
                .iter()
                .filter(|op| op.kind == "read" && op.path == blob)
                .count();
            (opened, reads)
        };
        let (registry, reads) = boot(fvfs.disk());
        assert_eq!(reads, 1, "one read of the blob per boot");
        let slot = registry.unwrap().get("proj").unwrap();
        let slot = slot.lock().unwrap();
        assert_eq!(slot.project.era(), 0);
        assert_eq!(slot.project.measured().unwrap().labeled_count(), 40);

        let disk = fvfs.disk();
        let snapshot = dir.join("snapshot.json");
        let text = disk.read_to_string(&snapshot).unwrap();
        let recorded = digest_hex(lazy_spec(100).digest());
        assert!(text.contains(&recorded), "{text}");
        let tampered = text.replace(&recorded, &digest_hex(lazy_spec(99).digest()));
        write_atomic(&disk, &snapshot, tampered.as_bytes()).unwrap();
        let (opened, reads) = boot(disk);
        assert_eq!(reads, 1);
        let Err(err) = opened else {
            panic!("a foreign digest fails boot");
        };
        let err = err.to_string();
        assert!(
            err.contains("testset.0.json") && err.contains("does not match the snapshot's digest"),
            "{err}"
        );
    }

    #[test]
    fn predictions_snapshot_restores_label_state_and_dedup_keys() {
        let dir = temp_dir("pred-snapshot");
        let script = SCRIPT
            .replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2")
            .replace("steps      : 3", "steps      : 10");
        let first;
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry
                .register("proj", &script, Some(lazy_spec(100)))
                .unwrap();
            let mut slot = slot.lock().unwrap();
            first = slot
                .submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            slot.snapshot().unwrap(); // watermark 1, labeled state + digest
            slot.submit_predictions(&pred_submission("c2", 100, 50, 70))
                .unwrap(); // journal suffix, measured against restored labels
        }
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let mut slot = slot.lock().unwrap();
        assert_eq!(slot.project.history().len(), 2);
        // c1 disagrees on 50..90; c2's disagreements (50..70) were
        // already labelled — 40 labels total, rebuilt across snapshot
        // restore + suffix replay.
        assert_eq!(slot.project.measured().unwrap().labeled_count(), 40);
        // Dedup key for the snapshot-covered entry survived.
        let (again, _) = slot
            .submit_predictions(&pred_submission("c1", 100, 50, 90))
            .unwrap();
        assert_eq!(again, first.0);
        assert_eq!(slot.project.steps_used(), 2);
    }

    #[test]
    fn f1_predictions_restart_rebuilds_per_class_byte_identically() {
        let dir = temp_dir("f1-restart");
        let script = SCRIPT
            .replace("n > 0.6 +/- 0.2", "f1(n) - f1(o) > -0.5 +/- 0.2")
            .replace("steps      : 3", "steps      : 10");
        let spec = TestsetSpec {
            truth: (0..100).map(|i| i % 2).collect(),
            classes: 2,
            lazy: false,
        };
        let (first, first_counts, pc0, pc1);
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry
                .register("proj", &script, Some(spec.clone()))
                .unwrap();
            let mut slot = slot.lock().unwrap();
            (first, first_counts) = slot
                .submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            slot.submit_predictions(&pred_submission("c2", 100, 50, 40))
                .unwrap();
            pc0 = slot.project.per_class_at(0).cloned();
            pc1 = slot.project.per_class_at(1).cloned();
        } // process death; journal only
        assert!(first_counts.per_class.is_some());
        assert_eq!(first_counts.per_class, pc0);
        assert!(pc1.is_some());
        {
            // Journal replay re-measures from the stored vectors; the
            // replay cross-check compares against the recorded
            // per-class shape, so reopening at all proves re-measured
            // == journaled. The dedup path must then hand back the
            // same confusion counts.
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry.get("proj").unwrap();
            let mut slot = slot.lock().unwrap();
            assert_eq!(slot.project.per_class_at(0), pc0.as_ref());
            assert_eq!(slot.project.per_class_at(1), pc1.as_ref());
            let (again, counts_again) = slot
                .submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            assert_eq!(again, first);
            assert_eq!(counts_again, first_counts);
            assert_eq!(slot.project.steps_used(), 2, "redelivery is free");
            // Snapshot, then a journal-suffix commit: the snapshot's
            // per-entry per_class objects must round-trip too.
            slot.snapshot().unwrap();
            slot.submit_predictions(&pred_submission("c3", 100, 50, 80))
                .unwrap();
        }
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let mut slot = slot.lock().unwrap();
        assert_eq!(slot.project.history().len(), 3);
        assert_eq!(slot.project.per_class_at(0), pc0.as_ref());
        assert_eq!(slot.project.per_class_at(1), pc1.as_ref());
        assert!(slot.project.per_class_at(2).is_some());
        let (again, counts_again) = slot
            .submit_predictions(&pred_submission("c1", 100, 50, 90))
            .unwrap();
        assert_eq!(again, first);
        assert_eq!(counts_again, first_counts);
    }

    #[test]
    fn predictions_install_testset_persists_blob_per_era() {
        let dir = temp_dir("pred-era");
        {
            let registry = Registry::open(&dir, serving_estimator()).unwrap();
            let slot = registry
                .register("proj", SCRIPT, Some(lazy_spec(100)))
                .unwrap();
            let mut slot = slot.lock().unwrap();
            slot.submit_predictions(&pred_submission("c1", 100, 50, 90))
                .unwrap();
            // A predictions project cannot start an era without data…
            assert!(matches!(
                slot.fresh_testset(None),
                Err(ServeError::Conflict(_))
            ));
            // …and installs a differently-sized pool with one.
            let bigger = MeasuredTestset::from_spec(lazy_spec(150)).unwrap();
            assert_eq!(slot.fresh_testset(Some(bigger)).unwrap(), 1);
            slot.submit_predictions(&pred_submission("c2", 150, 80, 140))
                .unwrap();
        }
        assert!(dir.join("projects/proj/testset.0.json").exists());
        assert!(dir.join("projects/proj/testset.1.json").exists());
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let slot = slot.lock().unwrap();
        assert_eq!(slot.project.era(), 1);
        assert_eq!(slot.project.measured().unwrap().len(), 150);
        assert_eq!(slot.project.history().len(), 2);

        // A counts project refuses a testset hand-over.
        let counts_slot = registry.register("plain", SCRIPT, None).unwrap();
        assert!(matches!(
            counts_slot
                .lock()
                .unwrap()
                .fresh_testset(MeasuredTestset::from_spec(lazy_spec(10)).ok()),
            Err(ServeError::Conflict(_))
        ));
    }

    #[test]
    fn failed_predictions_append_rolls_back_labels_too() {
        let dir = temp_dir("pred-rollback");
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry
            .register("proj", &script, Some(lazy_spec(100)))
            .unwrap();
        let mut slot = slot.lock().unwrap();
        // A first commit labels the disagreements 50..70, so the failed
        // op lands on a partly filled pool whose labels must survive.
        slot.submit_predictions(&pred_submission("c0", 100, 50, 70))
            .unwrap();
        let measured = slot.project.measured().unwrap();
        let (pool_before, spend_before) = (measured.pool().clone(), measured.oracle_spend());
        assert_eq!(pool_before.labeled_count(), 20);

        // c1 disagrees on 50..90: 20 of those 40 labels are fresh.
        let failing = pred_submission("c1", 100, 50, 90);
        slot.fail_next_append();
        assert!(matches!(
            slot.submit_predictions(&failing),
            Err(ServeError::Io(_))
        ));
        assert_eq!(slot.project.steps_used(), 1);
        let measured = slot.project.measured().unwrap();
        // Labels, known mask and labeled_count: exactly the pool before.
        // Replay would otherwise spend a different amount than the
        // journal records.
        assert_eq!(measured.pool(), &pool_before);
        // The oracle did serve the failed op's 20 fresh labels; that
        // spend is real and stays on its ledger.
        assert_eq!(measured.oracle_spend(), spend_before + 20);

        // The retry pulls exactly those 20 again and replays cleanly
        // after a restart.
        let (receipt, _) = slot.submit_predictions(&failing).unwrap();
        assert_eq!(receipt.estimates.labels_requested, 20);
        let live_pool = slot.project.measured().unwrap().pool().clone();
        assert_eq!(live_pool.labeled_count(), 40);
        drop(slot);
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let slot = registry.get("proj").unwrap();
        let slot = slot.lock().unwrap();
        assert_eq!(slot.project.steps_used(), 2);
        assert_eq!(slot.project.measured().unwrap().pool(), &live_pool);
    }

    #[test]
    fn registration_testset_idempotency() {
        let dir = temp_dir("pred-idem");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        let first = registry
            .register("proj", SCRIPT, Some(lazy_spec(100)))
            .unwrap();
        // Identical script + identical testset converges.
        let again = registry
            .register("proj", SCRIPT, Some(lazy_spec(100)))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // Same script, different testset (or none at all): conflict.
        assert!(matches!(
            registry.register("proj", SCRIPT, Some(lazy_spec(101))),
            Err(ServeError::Conflict(_))
        ));
        assert!(matches!(
            registry.register("proj", SCRIPT, None),
            Err(ServeError::Conflict(_))
        ));
    }

    /// The exact journal line and testset blob of two fixed one-commit
    /// projects — one whose vectors take the packed `#` form, one wide
    /// enough (70 classes) to fall back to decimal CSV. Restart replay
    /// reads these bytes back, so they must never move. The commit id
    /// carries every kind of byte the escaper treats specially.
    #[test]
    fn commit_predictions_journal_bytes_are_pinned() {
        let dir = temp_dir("pred-golden");
        let script = SCRIPT.replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
        let registry = Registry::open(&dir, serving_estimator()).unwrap();
        for (name, classes) in [("packed", 4u32), ("csv", 70)] {
            let truth: Vec<u32> = (0..64u32).map(|i| (i * 5) % classes).collect();
            let flip = |every: u32| -> Vec<u32> {
                (0..64u32)
                    .zip(&truth)
                    .map(|(i, &t)| if i % every == 0 { (t + 1) % classes } else { t })
                    .collect()
            };
            let spec = TestsetSpec {
                truth: truth.clone(),
                classes,
                lazy: true,
            };
            let slot = registry.register(name, &script, Some(spec)).unwrap();
            slot.lock()
                .unwrap()
                .submit_predictions(&PredictionsSubmission {
                    commit_id: "kat \"1\"\\\t\u{1}\u{1f}\u{e9}/\u{1F600}".into(),
                    old: flip(3),
                    new: flip(5),
                })
                .unwrap();
            let project_dir = dir.join("projects").join(name);
            let journal = std::fs::read_to_string(project_dir.join("journal.0.log")).unwrap();
            let blob = std::fs::read_to_string(project_dir.join("testset.0.json")).unwrap();
            let (want_journal, want_blob) = if name == "packed" {
                (GOLDEN_PACKED_JOURNAL, GOLDEN_PACKED_BLOB)
            } else {
                (GOLDEN_CSV_JOURNAL, GOLDEN_CSV_BLOB)
            };
            assert_eq!(journal, want_journal, "{name} journal line moved");
            assert_eq!(blob, want_blob, "{name} testset blob moved");
        }
    }

    const GOLDEN_PACKED_JOURNAL: &str = concat!(
        r##"{"op":"commit_predictions","id":"kat \"1\"\\\t\u0001\u001fé/😀","##,
        r##""old":"#1120013302231120013302231120013302231120013302231120013302231120","##,
        r##""new":"#1123022301330120012311230223013301200123112302230133012001231123","##,
        r##""samples":64,"new_correct":56,"old_correct":47,"changed":25,"labels":25,"##,
        r##""passed":false,"step":1,"era":0}"##,
        "\n"
    );
    const GOLDEN_PACKED_BLOB: &str = r##"{
  "version": 1,
  "era": 0,
  "labeling": "lazy",
  "classes": 4,
  "labels": "#0123012301230123012301230123012301230123012301230123012301230123"
}
"##;
    const GOLDEN_CSV_JOURNAL: &str = concat!(
        r##"{"op":"commit_predictions","id":"kat \"1\"\\\t\u0001\u001fé/😀","##,
        r##""old":"1,5,10,16,20,25,31,35,40,46,50,55,61,65,0,6,10,15,21,25,30,36,40,45,51,55,"##,
        r##"60,66,0,5,11,15,20,26,30,35,41,45,50,56,60,65,1,5,10,16,20,25,31,35,40,46,50,55,"##,
        r##"61,65,0,6,10,15,21,25,30,36","##,
        r##""new":"1,5,10,15,20,26,30,35,40,45,51,55,60,65,0,6,10,15,20,25,31,35,40,45,50,56,"##,
        r##"60,65,0,5,11,15,20,25,30,36,40,45,50,55,61,65,0,5,10,16,20,25,30,35,41,45,50,55,"##,
        r##"60,66,0,5,10,15,21,25,30,35","##,
        r##""samples":64,"new_correct":56,"old_correct":47,"changed":25,"labels":25,"##,
        r##""passed":false,"step":1,"era":0}"##,
        "\n"
    );
    const GOLDEN_CSV_BLOB: &str = r##"{
  "version": 1,
  "era": 0,
  "labeling": "lazy",
  "classes": 70,
  "labels": "0,5,10,15,20,25,30,35,40,45,50,55,60,65,0,5,10,15,20,25,30,35,40,45,50,55,60,65,0,5,10,15,20,25,30,35,40,45,50,55,60,65,0,5,10,15,20,25,30,35,40,45,50,55,60,65,0,5,10,15,20,25,30,35"
}
"##;

    /// Reference loader: the tree walk that restored snapshots before
    /// [`load_snapshot`] decoded them in one pull pass. The hostile
    /// snapshot proptest holds the two to the same verdicts.
    fn load_snapshot_reference(
        vfs: &dyn Vfs,
        dir: &Path,
        path: &Path,
        snap: &Value,
        project: &mut Project,
    ) -> Result<u64, ServeError> {
        let field_u64 = |key: &str| -> Result<u64, ServeError> {
            snap.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| corrupt(path, format!("missing or non-integer `{key}`")))
        };
        if field_u64("version")? != 1 {
            return Err(corrupt(path, "unsupported snapshot version"));
        }
        let journal_ops = field_u64("journal_ops")?;
        let steps_used = u32::try_from(field_u64("steps_used")?)
            .map_err(|_| corrupt(path, "steps_used out of range"))?;
        let era =
            u32::try_from(field_u64("era")?).map_err(|_| corrupt(path, "era out of range"))?;
        let retired = snap
            .get("retired")
            .and_then(Value::as_bool)
            .ok_or_else(|| corrupt(path, "missing `retired`"))?;
        // Predictions-mode projects: swap in the blob of the snapshot's era
        // (digest-anchored by the snapshot) and rebuild the spent-label
        // state, so post-snapshot journal replay measures against exactly
        // the pool the original requests saw.
        if project.measured().is_some() {
            let recorded = snap
                .get("testset_digest")
                .and_then(Value::as_str)
                .and_then(parse_digest_hex)
                .ok_or_else(|| corrupt(path, "missing or bad `testset_digest`"))?;
            let anchor = (recorded, "the snapshot's digest");
            let measured = read_testset_blob(vfs, dir, era, anchor)?;
            let lazy = measured.lazy();
            project.set_measured(Some(measured));
            // Fully-labelled pools are complete from construction; only lazy
            // pools carry (and require) the spent-label record.
            if lazy {
                let labeled = snap
                    .get("labeled")
                    .and_then(Value::as_array)
                    .ok_or_else(|| corrupt(path, "missing `labeled`"))?;
                let indices: Vec<usize> = labeled
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|i| usize::try_from(i).ok())
                            .ok_or_else(|| corrupt(path, "bad `labeled` index"))
                    })
                    .collect::<Result<_, _>>()?;
                project
                    .measured_mut()
                    .expect("set above")
                    .restore_labels(&indices)
                    .map_err(|e| corrupt(path, format!("bad `labeled` state: {e}")))?;
            }
        }
        let entries = snap
            .get("history")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt(path, "missing `history`"))?;
        let mut history = CommitHistory::new();
        let mut entry_keys = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let bad = |what: &str| corrupt(path, format!("history[{i}]: {what}"));
            let commit_id = entry
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("missing `id`"))?
                .to_owned();
            let num_u32 = |key: &str| -> Result<u32, ServeError> {
                entry
                    .get(key)
                    .and_then(Value::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| bad(&format!("bad `{key}`")))
            };
            let flag = |key: &str| -> Result<bool, ServeError> {
                entry
                    .get(key)
                    .and_then(Value::as_bool)
                    .ok_or_else(|| bad(&format!("bad `{key}`")))
            };
            let opt_f64 = |key: &str| -> Result<Option<f64>, ServeError> {
                match entry.get(key) {
                    None | Some(Value::Null) => Ok(None),
                    Some(v) => v
                        .as_f64()
                        .map(Some)
                        .ok_or_else(|| bad(&format!("bad `{key}`"))),
                }
            };
            let outcome = entry
                .get("outcome")
                .and_then(Value::as_str)
                .and_then(tribool_parse)
                .ok_or_else(|| bad("bad `outcome`"))?;
            let digest = match entry.get("pred_digest") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .and_then(parse_digest_hex)
                        .ok_or_else(|| bad("bad `pred_digest`"))?,
                ),
            };
            let per_class = per_class_reference(entry.get("per_class")).map_err(|e| bad(&e))?;
            entry_keys.push((digest, per_class));
            history.push(HistoryEntry {
                commit_id,
                step: num_u32("step")?,
                era: num_u32("era")?,
                estimates: CommitEstimates {
                    d: opt_f64("d")?,
                    n: opt_f64("n")?,
                    o: opt_f64("o")?,
                    diff: opt_f64("diff")?,
                    labels_requested: entry
                        .get("labels")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("bad `labels`"))?,
                },
                outcome,
                passed: flag("passed")?,
                accepted: flag("accepted")?,
            });
        }
        project
            .restore(steps_used, era, retired, history, entry_keys)
            .map_err(|e| corrupt(path, e))?;
        Ok(journal_ops)
    }

    /// Reference history entry: the `Value` tree that the snapshot and
    /// `/history` were built from before both streamed.
    fn entry_json_reference(e: &HistoryEntry) -> Value {
        Value::object([
            ("id", Value::from(e.commit_id.as_str())),
            ("step", Value::from(e.step)),
            ("era", Value::from(e.era)),
            ("outcome", Value::from(tribool_str(e.outcome))),
            ("passed", Value::from(e.passed)),
            ("accepted", Value::from(e.accepted)),
            ("d", Value::from(e.estimates.d)),
            ("n", Value::from(e.estimates.n)),
            ("o", Value::from(e.estimates.o)),
            ("diff", Value::from(e.estimates.diff)),
            ("labels", Value::from(e.estimates.labels_requested)),
        ])
    }

    fn per_class_json_reference(pc: &PerClassCounts) -> Value {
        let vec = |v: &[u64]| Value::Array(v.iter().map(|&x| Value::from(x)).collect());
        Value::object([
            ("classes", Value::from(pc.classes)),
            ("support", vec(&pc.support)),
            ("new_tp", vec(&pc.new_tp)),
            ("old_tp", vec(&pc.old_tp)),
            ("new_pred", vec(&pc.new_pred)),
            ("old_pred", vec(&pc.old_pred)),
        ])
    }

    /// Reference snapshot: the tree builder [`render_snapshot`]
    /// replaced. The streamed bytes must match it exactly.
    fn snapshot_reference(journal_ops: u64, project: &Project) -> String {
        let history: Vec<Value> = project
            .history()
            .entries()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let Value::Object(mut fields) = entry_json_reference(e) else {
                    unreachable!("entry_json_reference builds an object")
                };
                fields.push((
                    "pred_digest".into(),
                    Value::from(project.pred_digest(i).map(digest_hex)),
                ));
                if let Some(pc) = project.per_class_at(i) {
                    fields.push(("per_class".into(), per_class_json_reference(pc)));
                }
                Value::Object(fields)
            })
            .collect();
        let mut fields = vec![
            ("version", Value::from(1u64)),
            ("journal_ops", Value::from(journal_ops)),
            ("steps_used", Value::from(project.steps_used())),
            ("era", Value::from(project.era())),
            ("retired", Value::from(project.is_retired())),
        ];
        if let Some(measured) = project.measured() {
            fields.push(("testset_digest", Value::from(digest_hex(measured.digest()))));
            if measured.lazy() {
                fields.push((
                    "labeled",
                    Value::array(measured.labeled_indices().into_iter().map(Value::from)),
                ));
            }
        }
        fields.push(("history", Value::Array(history)));
        Value::object(fields).pretty()
    }

    /// Reference `/history` body, built as a tree.
    fn history_reference(name: &str, project: &Project) -> String {
        Value::object([
            ("project", Value::from(name)),
            (
                "entries",
                Value::array(project.history().entries().iter().map(entry_json_reference)),
            ),
        ])
        .encode()
    }

    /// Estimates as the gate records them, plus the shapes only a
    /// restored snapshot or a degenerate count can hold.
    fn estimate() -> impl Strategy<Value = Option<f64>> {
        const EDGES: &[f64] = &[
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.020_000_000_000_000_018,
            1e-7,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
        ];
        prop_oneof![
            Just(None),
            (0u64..=1000, 1u64..=1000).prop_map(|(k, n)| Some(k as f64 / n as f64)),
            (-1.0f64..1.0).prop_map(Some),
            (0usize..EDGES.len()).prop_map(|i| Some(EDGES[i])),
        ]
    }

    fn commit_id() -> impl Strategy<Value = String> {
        const IDS: &[&str] = &["c", "", ESCAPED_ID, "\u{2028}\u{7f}", "0123456789abcdef"];
        (0usize..IDS.len(), 0u32..1000).prop_map(|(i, n)| format!("{}{n}", IDS[i]))
    }

    fn per_class() -> impl Strategy<Value = Option<PerClassCounts>> {
        let counts = |classes: usize| prop::collection::vec(0u64..5000, classes..classes + 1);
        prop_oneof![
            Just(None),
            (1usize..6).prop_flat_map(move |classes| {
                (
                    counts(classes),
                    counts(classes),
                    counts(classes),
                    counts(classes),
                    counts(classes),
                )
                    .prop_map(
                        move |(support, new_tp, old_tp, new_pred, old_pred)| {
                            Some(PerClassCounts {
                                classes: classes as u32,
                                support,
                                new_tp,
                                old_tp,
                                new_pred,
                                old_pred,
                            })
                        },
                    )
            }),
        ]
    }

    type Row = (HistoryEntry, Option<u64>, Option<PerClassCounts>);

    fn history_row() -> impl Strategy<Value = Row> {
        (
            commit_id(),
            (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..3, 0u32..4),
            (estimate(), estimate(), estimate(), estimate()),
            prop_oneof![0u64..20_000, 0u64..=u64::MAX],
            prop_oneof![Just(None), (0u64..=u64::MAX).prop_map(Some)],
            per_class(),
        )
            .prop_map(
                |(commit_id, (step, era, outcome, flags), (d, n, o, diff), labels, digest, pc)| {
                    let outcome =
                        [Tribool::True, Tribool::False, Tribool::Unknown][outcome as usize];
                    let entry = HistoryEntry {
                        commit_id,
                        step,
                        era,
                        estimates: CommitEstimates {
                            d,
                            n,
                            o,
                            diff,
                            labels_requested: labels,
                        },
                        outcome,
                        passed: flags & 1 == 1,
                        accepted: flags & 2 == 2,
                    };
                    (entry, digest, pc)
                },
            )
    }

    /// A counts project, a lazy and a fully-labelled predictions
    /// project, a lazy F1 project and an F1 counts project.
    fn base_project(kind: u32) -> Project {
        let estimator = serving_estimator();
        let spec = |lazy| TestsetSpec {
            truth: (0..40u32).map(|i| i % 3).collect(),
            classes: 3,
            lazy,
        };
        let (script, testset) = match kind {
            0 => (SCRIPT.to_owned(), None),
            1 => (SCRIPT.to_owned(), Some(spec(true))),
            2 => (SCRIPT.to_owned(), Some(spec(false))),
            3 => (
                SCRIPT.replace("n > 0.6 +/- 0.2", "f1(n) - f1(o) > -0.5 +/- 0.2"),
                Some(spec(true)),
            ),
            _ => (
                SCRIPT.replace("n > 0.6 +/- 0.2", "f1(n) - f1(o) > -0.5 +/- 0.2"),
                None,
            ),
        };
        let testset = testset.map(|spec| MeasuredTestset::from_spec(spec).unwrap());
        Project::register_with_testset("proj", &script, &estimator, testset).unwrap()
    }

    /// A `kind` project restored to a state the gate can reach from
    /// random history rows: steps within the budget H, no entry after
    /// the snapshot's era, and `labeled` spent on a lazy pool.
    fn restored_project(
        kind: u32,
        rows: Vec<Row>,
        (steps_used, era, retired): (u32, u32, bool),
        labeled: &[usize],
    ) -> Project {
        let mut project = base_project(kind);
        let h = project.script().steps();
        let mut history = CommitHistory::new();
        let mut keys = Vec::new();
        for (entry, digest, pc) in rows {
            history.push(HistoryEntry {
                step: 1 + entry.step % h,
                era: entry.era.min(era),
                ..entry
            });
            keys.push((digest, pc));
        }
        project
            .restore(steps_used % (h + 1), era, retired, history, keys)
            .unwrap();
        if let Some(measured) = project.measured_mut() {
            measured.restore_labels(labeled).unwrap();
        }
        project
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn streamed_snapshot_and_history_match_the_tree_reference(
            kind in 0u32..4,
            rows in prop::collection::vec(history_row(), 0..24),
            counters in (0u64..=u64::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..2),
            labeled in prop::collection::vec(0usize..40, 0..40),
        ) {
            let (journal_ops, steps_used, era, retired) = counters;
            let project = restored_project(kind, rows, (steps_used, era, retired == 1), &labeled);
            prop_assert_eq!(
                render_snapshot(journal_ops, &project),
                snapshot_reference(journal_ops, &project)
            );
            prop_assert_eq!(
                crate::server::history_body("proj \"x\"", &project),
                history_reference("proj \"x\"", &project)
            );
        }
    }

    /// Load `text` as a `kind` project's `snapshot.json` with the pull
    /// decoder and with the tree reference: both reject with the same
    /// error, which names `snapshot.json` or the testset blob it
    /// points at, or both accept with the same watermark and the same
    /// status, `/history`, `/budget` and re-rendered snapshot bodies.
    fn check_against_reference(kind: u32, text: &str) -> Result<(), TestCaseError> {
        let disk = MemVfs::new();
        let dir = Path::new("/hostile/projects/proj");
        let path = dir.join("snapshot.json");
        let (mut pulled, mut reference) = (base_project(kind), base_project(kind));
        if let Some(m) = pulled.measured() {
            for era in 0..3 {
                write_atomic(
                    &disk,
                    &dir.join(testset_blob_name(era)),
                    testset_blob(era, m.truth(), m.classes(), m.lazy()).as_bytes(),
                )
                .unwrap();
            }
        }
        let pull = load_snapshot(&disk, dir, &path, text, &mut pulled);
        let tree = Value::parse(text)
            .map_err(|e| corrupt(&path, e.to_string()))
            .and_then(|snap| load_snapshot_reference(&disk, dir, &path, &snap, &mut reference));
        match (pull, tree) {
            (Ok(pull), Ok(tree)) => {
                prop_assert_eq!(pull, tree);
                let bodies = |p: &Project| {
                    [
                        crate::server::status_body(p),
                        crate::server::history_body("proj", p),
                        crate::server::budget_body(p),
                        render_snapshot(pull, p),
                    ]
                };
                prop_assert_eq!(bodies(&pulled), bodies(&reference));
            }
            (Err(pull), Err(tree)) => {
                prop_assert_eq!(pull.to_string(), tree.to_string());
                let ServeError::Corrupt { path: named, .. } = &pull else {
                    return Err(TestCaseError::fail(format!(
                        "not a corrupt-file error: {pull}"
                    )));
                };
                let file = named.file_name().and_then(|n| n.to_str()).unwrap_or("");
                prop_assert!(
                    named.parent() == Some(dir)
                        && (file == "snapshot.json" || file.starts_with("testset.")),
                    "{pull}"
                );
            }
            (pull, tree) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts differ on {text:?}: pull {pull:?}, tree {tree:?}"
                )));
            }
        }
        Ok(())
    }

    /// The snapshot of a `kind` project restored from `rows`, hostile
    /// edits applied, gets the tree reference's verdict.
    fn check_snapshot_case(
        kind: u32,
        rows: Vec<Row>,
        (journal_ops, steps_used, era, retired): (u64, u32, u32, u32),
        labeled: &[usize],
        edits: &[Edit],
        compact: bool,
    ) -> Result<(), TestCaseError> {
        // Label counts past 2^53 render inexactly, and the loaders
        // refuse them: keep them exact so that most documents load.
        let rows = rows.into_iter().map(|(mut entry, digest, pc)| {
            entry.estimates.labels_requested >>= 11;
            (entry, digest, pc)
        });
        let project = restored_project(
            kind,
            rows.collect(),
            (steps_used, era, retired == 1),
            labeled,
        );
        let text = edited(&render_snapshot(journal_ops, &project), edits, compact);
        check_against_reference(kind, &text)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn hostile_snapshots_get_the_tree_reference_verdict(
            kind in 0u32..4,
            rows in prop::collection::vec(history_row(), 0..6),
            counters in (0u64..1 << 40, 0u32..=u32::MAX, 0u32..3, 0u32..2),
            labeled in prop::collection::vec(0usize..40, 0..12),
            edits in edits(2),
            compact in 0u32..2,
        ) {
            check_snapshot_case(kind, rows, counters, &labeled, &edits, compact == 1)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(250_000))]

        /// [`hostile_snapshots_get_the_tree_reference_verdict`] over many
        /// more snapshots; run it in release with `--ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn hostile_snapshots_get_the_tree_reference_verdict_exhaustively(
            kind in 0u32..4,
            rows in prop::collection::vec(history_row(), 0..6),
            counters in (0u64..1 << 40, 0u32..=u32::MAX, 0u32..3, 0u32..2),
            labeled in prop::collection::vec(0usize..40, 0..12),
            edits in edits(2),
            compact in 0u32..2,
        ) {
            check_snapshot_case(kind, rows, counters, &labeled, &edits, compact == 1)?;
        }
    }

    /// Every member of every object of a lazy F1 snapshot, dropped,
    /// shadowed by an earlier duplicate, followed by an ignored one, or
    /// preceded by an unknown key; every object's members reversed; and
    /// every array element made a string: each edited document gets the
    /// tree reference's verdict.
    /// A snapshot without its `era` is among them, so a decoder that
    /// defaulted a missing field would accept what the tree refuses.
    #[test]
    fn every_snapshot_member_edit_gets_the_tree_reference_verdict() {
        let rows = (0..3u32)
            .map(|i| {
                let pc = PerClassCounts {
                    classes: 3,
                    support: vec![1, 2, 3],
                    new_tp: vec![1, 1, i.into()],
                    old_tp: vec![0, 1, 2],
                    new_pred: vec![2, 2, 2],
                    old_pred: vec![3, 2, 1],
                };
                let entry = HistoryEntry {
                    commit_id: format!("{ESCAPED_ID}{i}"),
                    step: i + 1,
                    era: 0,
                    estimates: CommitEstimates {
                        d: Some(0.25),
                        n: None,
                        o: Some(-0.5),
                        diff: Some(0.1),
                        labels_requested: 7,
                    },
                    outcome: Tribool::Unknown,
                    passed: i % 2 == 0,
                    accepted: i == 1,
                };
                (entry, Some(u64::from(i) << 40 | 0xabc), Some(pc))
            })
            .collect();
        let project = restored_project(3, rows, (3, 0, false), &[0, 5, 39]);
        let text = render_snapshot(9, &project);
        check_against_reference(3, &text).unwrap();
        let doc = Value::parse(&text).unwrap();
        let (mut paths, mut elements) = (Vec::new(), Vec::new());
        container_paths(&doc, &mut Vec::new(), &mut paths, &mut elements);
        let mut edits = 0;
        for path in &elements {
            let mut edited = doc.clone();
            *value_at(&mut edited, path) = Value::from("odd");
            check_against_reference(3, &edited.pretty()).unwrap();
            edits += 1;
        }
        for path in &paths {
            let len = members_at(&mut doc.clone(), path).len();
            let mut edited = Vec::new();
            for i in 0..len {
                for edit in 0..4 {
                    let mut doc = doc.clone();
                    let members = members_at(&mut doc, path);
                    let key = members[i].0.clone();
                    match edit {
                        0 => drop(members.remove(i)),
                        1 => members.insert(i, (key, Value::from("odd"))),
                        2 => members.insert(i + 1, (key, Value::from("odd"))),
                        _ => members.insert(i, ("unknown".into(), Value::from("odd"))),
                    }
                    edited.push(doc);
                }
            }
            let mut reversed = doc.clone();
            members_at(&mut reversed, path).reverse();
            edited.push(reversed);
            for doc in edited {
                check_against_reference(3, &doc.pretty()).unwrap();
                edits += 1;
            }
        }
        assert!(edits > 100, "{edits} edits");
        let no_era = text.replacen("  \"era\": 0,\n", "", 1);
        assert_ne!(no_era, text);
        let pull = load_snapshot(
            &MemVfs::new(),
            Path::new("/p"),
            Path::new("/p/snapshot.json"),
            &no_era,
            &mut base_project(3),
        );
        assert!(
            matches!(&pull, Err(ServeError::Corrupt { reason, .. }) if reason == "missing or non-integer `era`"),
            "{pull:?}"
        );
    }

    /// Reference `per_class` reader: the tree walk [`decode_per_class`]
    /// replaced. Absent/null parses to `None`.
    fn per_class_reference(value: Option<&Value>) -> Result<Option<PerClassCounts>, String> {
        let value = match value {
            None | Some(Value::Null) => return Ok(None),
            Some(v) => v,
        };
        let classes = value
            .get("classes")
            .and_then(Value::as_u64)
            .and_then(|c| u32::try_from(c).ok());
        let vectors = PER_CLASS_VECTORS.map(|key| match value.get(key).and_then(Value::as_array) {
            None => Ints::Missing,
            Some(items) => items
                .iter()
                .map(Value::as_u64)
                .collect::<Option<Vec<u64>>>()
                .map_or(Ints::NonInteger, Ints::Read),
        });
        per_class_counts(classes, vectors).map(Some)
    }

    /// Reference registration-record reader: the tree walk
    /// [`read_registration`] replaced.
    fn read_registration_reference(
        path: &Path,
        text: &str,
    ) -> Result<(String, String, Option<u64>), ServeError> {
        let record = Value::parse(text).map_err(|e| corrupt(path, e.to_string()))?;
        let name = record
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(path, "missing `name`"))?;
        let script = record
            .get("script")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(path, "missing `script`"))?;
        let digest = match record.get("testset") {
            None | Some(Value::Null) => None,
            Some(ts) => Some(
                ts.get("digest")
                    .and_then(Value::as_str)
                    .and_then(parse_digest_hex)
                    .ok_or_else(|| corrupt(path, "missing or bad testset `digest`"))?,
            ),
        };
        Ok((name.to_owned(), script.to_owned(), digest))
    }

    /// Reference era-blob reader: the tree walk [`testset_from_blob`]
    /// replaced.
    fn testset_from_blob_reference(
        path: &Path,
        era: u32,
        text: &str,
    ) -> Result<MeasuredTestset, ServeError> {
        let blob = Value::parse(text).map_err(|e| corrupt(path, e.to_string()))?;
        if blob.get("version").and_then(Value::as_u64) != Some(1) {
            return Err(corrupt(path, "unsupported testset blob version"));
        }
        if blob.get("era").and_then(Value::as_u64) != Some(u64::from(era)) {
            return Err(corrupt(path, "blob era does not match file name"));
        }
        let lazy = match blob.get("labeling").and_then(Value::as_str) {
            Some("lazy") => true,
            Some("full") => false,
            _ => return Err(corrupt(path, "missing or unknown `labeling`")),
        };
        let classes = blob
            .get("classes")
            .and_then(Value::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| corrupt(path, "missing or bad `classes`"))?;
        let truth = blob
            .get("labels")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(path, "missing `labels`"))
            .and_then(|text| decode_u32_vec(text).map_err(|e| corrupt(path, e)))?;
        MeasuredTestset::from_spec(TestsetSpec {
            truth,
            classes,
            lazy,
        })
        .map_err(|e| corrupt(path, format!("invalid testset: {e}")))
    }

    /// Reference journal-line replay: the tree walk [`replay_op`]
    /// replaced, which parsed each line into a [`Value`] and moved the
    /// vectors out of it. It runs the same gate steps.
    fn replay_op_reference(
        vfs: &dyn Vfs,
        dir: &Path,
        path: &Path,
        line_no: usize,
        line: &str,
        project: &mut Project,
    ) -> Result<(), ServeError> {
        let bad = |what: String| corrupt(path, format!("line {line_no}: {what}"));
        let op = Value::parse(line).map_err(|e| bad(e.to_string()))?;
        let (old_wire, new_wire) = (op.get("old").cloned(), op.get("new").cloned());
        let field_u64 = |key: &str| -> Result<u64, ServeError> {
            op.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("missing or non-integer `{key}`")))
        };
        let commit_id = || -> Result<String, ServeError> {
            op.get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("missing `id`".into()))
                .map(str::to_owned)
        };
        let recorded_counts = || -> Result<EvalCounts, ServeError> {
            Ok(EvalCounts {
                samples: field_u64("samples")?,
                new_correct: field_u64("new_correct")?,
                old_correct: field_u64("old_correct")?,
                changed: field_u64("changed")?,
                labels: field_u64("labels")?,
                per_class: per_class_reference(op.get("per_class")).map_err(bad)?,
            })
        };
        let check_outcome = |receipt: &CommitReceipt| -> Result<(), ServeError> {
            let recorded_passed = op
                .get("passed")
                .and_then(Value::as_bool)
                .ok_or_else(|| bad("missing `passed`".into()))?;
            let recorded_step = field_u64("step")?;
            let recorded_era = field_u64("era")?;
            if receipt.passed != recorded_passed
                || u64::from(receipt.step) != recorded_step
                || u64::from(receipt.era) != recorded_era
            {
                return Err(bad(format!(
                    "replay diverged: recorded (passed={recorded_passed}, step={recorded_step}, \
                     era={recorded_era}) vs recomputed (passed={}, step={}, era={})",
                    receipt.passed, receipt.step, receipt.era
                )));
            }
            Ok(())
        };
        match op.get("op").and_then(Value::as_str) {
            Some("commit") => {
                let (commit_id, counts) = (commit_id()?, recorded_counts()?);
                let (receipt, _) = project
                    .commit(&commit_id, Feed::Counts(&counts), &mut project.savepoint())
                    .map_err(|e| bad(format!("gate rejected replayed op: {e}")))?;
                check_outcome(&receipt)
            }
            Some("commit_predictions") => {
                let vector = |wire: Option<Value>, key: &str| match wire {
                    Some(Value::String(wire)) => WireVector::Text(Cow::Owned(wire)),
                    _ => WireVector::Invalid(format!("missing `{key}`")),
                };
                let (packed, old, new) =
                    PackedPredictions::decode(vector(old_wire, "old"), vector(new_wire, "new"))
                        .map_err(bad)?;
                let recorded = recorded_counts()?;
                let feed = Feed::Vectors(&packed, &old, &new);
                let (receipt, counts) = project
                    .commit(&commit_id()?, feed, &mut project.savepoint())
                    .map_err(|e| bad(format!("gate rejected replayed op: {e}")))?;
                if *counts != recorded {
                    return Err(bad(format!(
                        "measurement replay diverged: recorded {recorded:?} vs remeasured {counts:?} \
                         (prediction or testset blob tampered?)"
                    )));
                }
                check_outcome(&receipt)
            }
            Some("fresh_testset") => {
                let recorded = field_u64("era")?;
                let testset = match op.get("testset_digest") {
                    None | Some(Value::Null) => None,
                    Some(digest) => {
                        let recorded_digest = digest
                            .as_str()
                            .and_then(parse_digest_hex)
                            .ok_or_else(|| bad("bad `testset_digest`".into()))?;
                        let era =
                            u32::try_from(recorded).map_err(|_| bad("era out of range".into()))?;
                        let anchor = (recorded_digest, "the journalled digest");
                        Some(read_testset_blob(vfs, dir, era, anchor)?)
                    }
                };
                let new_era = project
                    .fresh_era(testset, &mut project.savepoint())
                    .map_err(|e| bad(format!("testset replay failed: {e}")))?;
                if u64::from(new_era) != recorded {
                    return Err(bad(format!(
                        "replay diverged: recorded era {recorded} vs recomputed {new_era}"
                    )));
                }
                Ok(())
            }
            _ => Err(bad("unknown op".into())),
        }
    }

    /// The base testset every era's blob of a `kind` project holds.
    fn base_spec(kind: u32) -> Option<TestsetSpec> {
        base_project(kind).measured().map(|m| TestsetSpec {
            truth: m.truth().to_vec(),
            classes: m.classes(),
            lazy: m.lazy(),
        })
    }

    /// A disk holding eras 0–3 of a `kind` project's testset blob.
    fn blob_disk(kind: u32, dir: &Path) -> MemVfs {
        let disk = MemVfs::new();
        if let Some(spec) = base_spec(kind) {
            for era in 0..4 {
                write_atomic(
                    &disk,
                    &dir.join(testset_blob_name(era)),
                    testset_blob(era, &spec.truth, spec.classes, spec.lazy).as_bytes(),
                )
                .unwrap();
            }
        }
        disk
    }

    /// A receipt for lines the live gate would refuse: replay refuses
    /// them too, or diverges from this outcome.
    fn refused_receipt() -> CommitReceipt {
        CommitReceipt {
            commit_id: String::new(),
            step: 1,
            era: 0,
            signal: None,
            accepted: false,
            outcome: Tribool::Unknown,
            passed: false,
            estimates: CommitEstimates::default(),
            alarm: None,
            steps_remaining: 0,
        }
    }

    /// One journal line (newline stripped) of an op on `project`, which
    /// the op is applied to when the live gate accepts it: `commit`
    /// (plain and per-class counts), `commit_predictions` (in-class or
    /// not) or `fresh_testset`, drawn from `seed`.
    fn live_line(kind: u32, project: &mut Project, seed: u64) -> String {
        let pick = |bits: u32, n: u64| (seed >> bits) % n;
        // Mostly the commits the project's mode takes, now and then the
        // other kind, which the gate refuses.
        let ops: [u32; 5] = if matches!(kind, 1..=3) {
            [0, 1, 1, 1, 2]
        } else {
            [0, 0, 0, 1, 2]
        };
        let line = match ops[pick(0, 5) as usize] {
            0 => {
                let samples = 40 + pick(2, 200);
                let per_class = (kind >= 3).then(|| {
                    let half = samples / 2;
                    PerClassCounts {
                        classes: 2,
                        support: vec![half, samples - half],
                        new_tp: vec![half, pick(10, samples - half + 1)],
                        old_tp: vec![pick(20, half + 1), 0],
                        new_pred: vec![half, samples - half],
                        old_pred: vec![half, samples - half],
                    }
                });
                let submission = CommitSubmission {
                    commit_id: format!("c{}", pick(30, 4)),
                    counts: EvalCounts {
                        samples,
                        new_correct: pick(34, samples + 1),
                        old_correct: pick(42, samples + 1),
                        changed: pick(50, samples + 1),
                        labels: pick(58, 50),
                        per_class,
                    },
                };
                let receipt = project
                    .submit(&submission)
                    .unwrap_or_else(|_| refused_receipt());
                commit_line(&submission.commit_id, None, &submission.counts, &receipt)
            }
            1 => {
                let classes = 3 + u32::from(pick(2, 8) == 0);
                let vector = |shift: u32| -> Vec<u32> {
                    (0..40u32)
                        .map(|i| (i + (seed >> shift) as u32 % 7) % classes)
                        .collect()
                };
                let submission = PredictionsSubmission {
                    commit_id: format!("p{}", pick(5, 4)),
                    old: vector(10),
                    new: vector(20),
                };
                let (receipt, counts) =
                    project.submit_predictions(&submission).unwrap_or_else(|_| {
                        let counts = EvalCounts {
                            samples: 40,
                            new_correct: 0,
                            old_correct: 0,
                            changed: 0,
                            labels: 0,
                            per_class: None,
                        };
                        (refused_receipt(), counts)
                    });
                let packed = submission.packed();
                commit_line(&submission.commit_id, Some(&packed), &counts, &receipt)
            }
            _ => match base_spec(kind) {
                Some(spec) => {
                    let digest = spec.digest();
                    let era = project
                        .fresh_testset(Some(MeasuredTestset::from_spec(spec).unwrap()))
                        .unwrap_or(project.era() + 1);
                    fresh_testset_line(era, Some(digest))
                }
                None => fresh_testset_line(project.fresh_testset(None).unwrap(), None),
            },
        };
        line.trim_end_matches('\n').to_owned()
    }

    /// Replay `line` onto two copies of `project` with the pull decoder
    /// and with the tree reference: both refuse with the same error, or
    /// both accept and leave the same status, `/history`, `/budget` and
    /// snapshot bodies.
    fn check_line_against_reference(
        disk: &MemVfs,
        dir: &Path,
        project: &Project,
        line: &str,
    ) -> Result<(), TestCaseError> {
        let path = dir.join(segment_name(0));
        let (mut pulled, mut reference) = (project.clone(), project.clone());
        let pull = replay_op(disk, dir, &path, 1, line, &mut pulled);
        let tree = replay_op_reference(disk, dir, &path, 1, line, &mut reference);
        prop_assert_eq!(
            pull.as_ref().map_err(ToString::to_string),
            tree.as_ref().map_err(ToString::to_string),
            "{}",
            line
        );
        if pull.is_ok() {
            let bodies = |p: &Project| {
                [
                    crate::server::status_body(p),
                    crate::server::history_body("proj", p),
                    crate::server::budget_body(p),
                    render_snapshot(0, p),
                ]
            };
            prop_assert_eq!(bodies(&pulled), bodies(&reference), "{}", line);
        }
        Ok(())
    }

    /// A `kind` project after `prior` live ops, and one more op's journal
    /// line, hostile edits applied.
    fn journal_case(kind: u32, prior: &[u64], seed: u64, edits: &[Edit]) -> (Project, String) {
        let mut project = base_project(kind);
        for &op in prior {
            live_line(kind, &mut project, op);
        }
        let line = live_line(kind, &mut project.clone(), seed);
        (project, edited(&line, edits, true))
    }

    fn check_journal_case(
        kind: u32,
        prior: &[u64],
        seed: u64,
        edits: &[Edit],
    ) -> Result<(), TestCaseError> {
        let dir = Path::new("/hostile/projects/proj");
        let (project, line) = journal_case(kind, prior, seed, edits);
        check_line_against_reference(&blob_disk(kind, dir), dir, &project, &line)
    }

    /// The registration record of a `kind` project, hostile edits
    /// applied: the pull decoder and the tree reference read the same
    /// name, script and digest, or refuse with the same reason.
    fn check_record_case(kind: u32, edits: &[Edit], compact: bool) -> Result<(), TestCaseError> {
        let path = Path::new("/p/project.json");
        let text = edited(&registration_record(&base_project(kind)), edits, compact);
        let pull = read_registration(path, &text)
            .map(|(name, script, digest)| (name.into_owned(), script.into_owned(), digest));
        let tree = read_registration_reference(path, &text);
        prop_assert_eq!(
            pull.map_err(|e| e.to_string()),
            tree.map_err(|e| e.to_string()),
            "{}",
            text
        );
        Ok(())
    }

    /// An era blob, packed or CSV, full or lazy, read as its own era or
    /// another, hostile edits applied: the pull decoder and the tree
    /// reference read the same spec, or refuse with the same reason.
    fn check_blob_case(
        (len, classes, lazy, era, read_as): (usize, u32, bool, u32, u32),
        edits: &[Edit],
        compact: bool,
    ) -> Result<(), TestCaseError> {
        let spec = TestsetSpec {
            truth: (0..len as u32).map(|i| (i * 7) % classes).collect(),
            classes,
            lazy,
        };
        let path = Path::new("/p/testset.1.json");
        let blob = testset_blob(era, &spec.truth, spec.classes, spec.lazy);
        let text = edited(&blob, edits, compact);
        let pull = testset_from_blob(path, read_as, &text);
        let tree = testset_from_blob_reference(path, read_as, &text);
        prop_assert_eq!(
            pull.map_err(|e| e.to_string()),
            tree.map_err(|e| e.to_string()),
            "{}",
            text
        );
        Ok(())
    }

    fn blob_shape() -> impl Strategy<Value = (usize, u32, bool, u32, u32)> {
        (
            0usize..50,
            prop_oneof![1u32..5, 60u32..70, Just(0u32), Just(1 << 17)],
            0u32..2,
            0u32..3,
            prop_oneof![Just(0u32), 0u32..3],
        )
            .prop_map(|(len, classes, lazy, era, read_as)| {
                let read_as = if read_as == 0 { era } else { read_as };
                (len, classes.max(1), lazy == 1, era, read_as)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Journal lines of every op kind replay alike through the pull
        /// decoder and the tree walk it replaced.
        #[test]
        fn hostile_journal_lines_get_the_tree_reference_verdict(
            kind in 0u32..5,
            prior in prop::collection::vec(0u64..u64::MAX, 0..3),
            seed in 0u64..u64::MAX,
            edits in edits(2),
        ) {
            check_journal_case(kind, &prior, seed, &edits)?;
        }

        /// Registration records read alike through the pull decoder and
        /// the tree walk it replaced.
        #[test]
        fn hostile_registration_records_get_the_tree_reference_verdict(
            kind in 0u32..5,
            edits in edits(3),
            compact in 0u32..2,
        ) {
            check_record_case(kind, &edits, compact == 1)?;
        }

        /// Era blobs read alike through the pull decoder and the tree
        /// walk it replaced.
        #[test]
        fn hostile_testset_blobs_get_the_tree_reference_verdict(
            shape in blob_shape(),
            edits in edits(3),
            compact in 0u32..2,
        ) {
            check_blob_case(shape, &edits, compact == 1)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(250_000))]

        /// [`hostile_journal_lines_get_the_tree_reference_verdict`] over
        /// many more lines; run it in release with `--ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn hostile_journal_lines_get_the_tree_reference_verdict_exhaustively(
            kind in 0u32..5,
            prior in prop::collection::vec(0u64..u64::MAX, 0..3),
            seed in 0u64..u64::MAX,
            edits in edits(2),
        ) {
            check_journal_case(kind, &prior, seed, &edits)?;
        }

        /// [`hostile_registration_records_get_the_tree_reference_verdict`]
        /// over many more records; run it in release with `--ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn hostile_registration_records_get_the_tree_reference_verdict_exhaustively(
            kind in 0u32..5,
            edits in edits(3),
            compact in 0u32..2,
        ) {
            check_record_case(kind, &edits, compact == 1)?;
        }

        /// [`hostile_testset_blobs_get_the_tree_reference_verdict`] over
        /// many more blobs; run it in release with `--ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn hostile_testset_blobs_get_the_tree_reference_verdict_exhaustively(
            shape in blob_shape(),
            edits in edits(3),
            compact in 0u32..2,
        ) {
            check_blob_case(shape, &edits, compact == 1)?;
        }
    }

    /// Commit id carrying every kind of byte the escaper treats
    /// specially.
    const ESCAPED_ID: &str = "kat \"1\"\\\t\u{1}\u{1f}\u{e9}/\u{1F600}";

    /// The pinned `f1` project: an F1 script and a lazy 4-class testset.
    fn pinned_f1() -> (String, TestsetSpec) {
        let script = SCRIPT
            .replace("n > 0.6 +/- 0.2", "f1(n) - f1(o) > -0.5 +/- 0.2")
            .replace("steps      : 3", "steps      : 10");
        let truth: Vec<u32> = (0..48u32).map(|i| (i * 7) % 4).collect();
        let spec = TestsetSpec {
            truth,
            classes: 4,
            lazy: true,
        };
        (script, spec)
    }

    /// The pinned `counts` project's script.
    fn pinned_counts_script() -> String {
        SCRIPT.replace("steps      : 3", "steps      : 200")
    }

    /// `null` estimates planted into the pinned op-128 counts snapshot.
    fn plant_null_estimates(snapshot: &str) -> String {
        snapshot
            .replacen("\"d\": 0.3,", "\"d\": null,", 1)
            .replacen("\"diff\": 0.35,", "\"diff\": null,", 1)
            .replacen(
                "\"n\": 0.48,\n      \"o\": 0.5,",
                "\"n\": null,\n      \"o\": null,",
                1,
            )
    }

    /// Drive the two pinned projects and collect, in order, every byte
    /// stream they leave behind: snapshots, journals and the `/history`
    /// and `/budget` bodies. A project's journal is every line written
    /// to its segments, as the [`FaultVfs`] seam saw them: the snapshots
    /// seal and unlink the segments they cover.
    ///
    /// - `f1`: a lazy 4-class F1 predictions project, snapshotted empty
    ///   right after registration and again after three commits.
    /// - `counts`: 70 counts commits (a cadence snapshot at op 64), a
    ///   fresh testset era, 60 more (an explicit snapshot at op 128,
    ///   which the cadence no longer reaches that early: the journal
    ///   suffix past op 64 is still smaller than the op-64 snapshot).
    ///   The live gate records every estimate, so `null` ones are
    ///   planted in the last snapshot (as a snapshot from an older
    ///   writer could hold them) and carried through a restart into the
    ///   next snapshot and `/history`.
    fn pinned_artifacts() -> Vec<(&'static str, Vec<u8>)> {
        let root = Path::new("/pins");
        let vfs = FaultVfs::new(root, FaultPlan::new());
        let disk = vfs.disk();
        let path = |project: &str, file: &str| root.join("projects").join(project).join(file);
        let read = |project: &str, file: &str| disk.file_bytes(&path(project, file)).unwrap();
        let open = || Registry::open_with(root, serving_estimator(), Arc::new(vfs.clone()));
        let body = |resp: Result<crate::http::Response, ServeError>| resp.unwrap().body;
        let mut out = Vec::new();
        let registry = open().unwrap();

        let (script, spec) = pinned_f1();
        let truth = spec.truth.clone();
        let slot = registry.register("f1", &script, Some(spec)).unwrap();
        let mut slot = slot.lock().unwrap();
        slot.snapshot().unwrap();
        out.push(("f1.snapshot.empty.json", read("f1", "snapshot.json")));
        let flip = |every: u32| -> Vec<u32> {
            truth
                .iter()
                .zip(0u32..)
                .map(|(&t, i)| if i % every == 0 { (t + 1) % 4 } else { t })
                .collect()
        };
        for (k, (id, old, new)) in [("p", 3, 5), (ESCAPED_ID, 5, 2), ("p", 2, 7)]
            .into_iter()
            .enumerate()
        {
            let submission = PredictionsSubmission {
                commit_id: format!("{id}{k}"),
                old: flip(old),
                new: flip(new),
            };
            slot.submit_predictions(&submission).unwrap();
        }
        slot.snapshot().unwrap();
        drop(slot);
        out.push(("f1.snapshot.json", read("f1", "snapshot.json")));
        out.push(("f1.journal.log", vfs.journal_written("f1")));
        out.push((
            "f1.history.json",
            body(crate::server::project_history(&registry, "f1")),
        ));
        out.push((
            "f1.budget.json",
            body(crate::server::project_budget(&registry, "f1")),
        ));

        let slot = registry
            .register("counts", &pinned_counts_script(), None)
            .unwrap();
        let mut slot = slot.lock().unwrap();
        for i in 0..130u64 {
            if i == 70 {
                slot.fresh_testset(None).unwrap();
            }
            let id = if i % 41 == 5 {
                format!("{ESCAPED_ID}{i}")
            } else {
                format!("c{i}")
            };
            slot.submit(&submission(&id, (i * 37 + 11) % 101)).unwrap();
            if i == 63 {
                out.push(("counts.snapshot.64.json", read("counts", "snapshot.json")));
            }
            if i == 126 {
                slot.snapshot().unwrap();
            }
        }
        drop(slot);
        drop(registry);
        let snapshot = read("counts", "snapshot.json");
        out.push(("counts.snapshot.128.json", snapshot.clone()));
        out.push(("counts.journal.log", vfs.journal_written("counts")));

        let planted = plant_null_estimates(std::str::from_utf8(&snapshot).unwrap());
        write_atomic(&disk, &path("counts", "snapshot.json"), planted.as_bytes()).unwrap();
        let registry = open().unwrap();
        registry
            .get("counts")
            .unwrap()
            .lock()
            .unwrap()
            .snapshot()
            .unwrap();
        out.push(("counts.snapshot.json", read("counts", "snapshot.json")));
        out.push((
            "counts.history.json",
            body(crate::server::project_history(&registry, "counts")),
        ));
        out.push((
            "counts.budget.json",
            body(crate::server::project_budget(&registry, "counts")),
        ));
        out
    }

    /// The bytes of [`pinned_artifacts`], captured before snapshots and
    /// `/history` moved to the streaming writer. Restart recovery reads
    /// snapshots and journals back, and clients diff `/history`, so none
    /// of them may move.
    const PINNED: &[(&str, &str)] = &[
        (
            "f1.snapshot.empty.json",
            include_str!("testdata/f1.snapshot.empty.json"),
        ),
        (
            "f1.snapshot.json",
            include_str!("testdata/f1.snapshot.json"),
        ),
        ("f1.journal.log", include_str!("testdata/f1.journal.log")),
        ("f1.history.json", include_str!("testdata/f1.history.json")),
        ("f1.budget.json", include_str!("testdata/f1.budget.json")),
        (
            "counts.snapshot.64.json",
            include_str!("testdata/counts.snapshot.64.json"),
        ),
        (
            "counts.snapshot.128.json",
            include_str!("testdata/counts.snapshot.128.json"),
        ),
        (
            "counts.journal.log",
            include_str!("testdata/counts.journal.log"),
        ),
        (
            "counts.snapshot.json",
            include_str!("testdata/counts.snapshot.json"),
        ),
        (
            "counts.history.json",
            include_str!("testdata/counts.history.json"),
        ),
        (
            "counts.budget.json",
            include_str!("testdata/counts.budget.json"),
        ),
    ];

    #[test]
    fn snapshot_history_and_journal_bytes_are_pinned() {
        let got = pinned_artifacts();
        assert_eq!(
            got.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
            PINNED.iter().map(|(name, _)| *name).collect::<Vec<_>>()
        );
        for ((name, bytes), (_, want)) in got.iter().zip(PINNED) {
            assert_eq!(std::str::from_utf8(bytes).unwrap(), *want, "{name} moved");
        }
    }

    /// A data dir written before journal segments existed, with a bare
    /// `journal.log` under a snapshot whose watermark is past 0, boots
    /// to the pinned bodies: the pinned logs are read as the segments
    /// that start at op 0, their covered ops skipped. A log the snapshot
    /// covers whole goes at boot; a live one takes appends until the
    /// next seal, which then writes the pinned snapshot.
    #[test]
    fn pre_segment_data_dir_boots_to_the_pinned_bodies() {
        let root = Path::new("/pre-segment");
        let disk = MemVfs::new();
        let path = |project: &str, file: &str| root.join("projects").join(project).join(file);
        let open = || Registry::open_with(root, serving_estimator(), Arc::new(disk.clone()));
        let registry = open().unwrap();
        let (script, spec) = pinned_f1();
        registry.register("f1", &script, Some(spec)).unwrap();
        registry
            .register("counts", &pinned_counts_script(), None)
            .unwrap();
        drop(registry);
        let counts_128 = plant_null_estimates(include_str!("testdata/counts.snapshot.128.json"));
        for (project, file, text) in [
            (
                "f1",
                "snapshot.json",
                include_str!("testdata/f1.snapshot.json"),
            ),
            ("f1", "journal.log", include_str!("testdata/f1.journal.log")),
            ("counts", "snapshot.json", &counts_128),
            (
                "counts",
                "journal.log",
                include_str!("testdata/counts.journal.log"),
            ),
        ] {
            write_atomic(&disk, &path(project, file), text.as_bytes()).unwrap();
        }
        let registry = open().unwrap();
        assert_eq!(registry.boot_replay().ops, 3, "counts ops 129..=131");
        let body = |resp: Result<crate::http::Response, ServeError>| resp.unwrap().body;
        for (project, history, budget) in [
            (
                "f1",
                include_str!("testdata/f1.history.json"),
                include_str!("testdata/f1.budget.json"),
            ),
            (
                "counts",
                include_str!("testdata/counts.history.json"),
                include_str!("testdata/counts.budget.json"),
            ),
        ] {
            let got = body(crate::server::project_history(&registry, project));
            assert_eq!(std::str::from_utf8(&got).unwrap(), history, "{project}");
            let got = body(crate::server::project_budget(&registry, project));
            assert_eq!(std::str::from_utf8(&got).unwrap(), budget, "{project}");
        }
        assert!(!disk.exists(&path("f1", "journal.log")));
        assert!(disk.exists(&path("counts", "journal.log")));
        let slot = registry.get("counts").unwrap();
        slot.lock().unwrap().snapshot().unwrap();
        assert_eq!(
            disk.file_bytes(&path("counts", "snapshot.json")).unwrap(),
            include_bytes!("testdata/counts.snapshot.json")
        );
        assert!(!disk.exists(&path("counts", "journal.log")));
    }

    /// [`SCRIPT`] with a budget for 1,000 commits.
    fn long_script() -> String {
        SCRIPT.replace("steps      : 3", "steps      : 1000")
    }

    /// Commit `op` of the long-running test projects: a counts commit,
    /// or predictions over a 100-item lazy pool. Consecutive ops never
    /// repeat, so none is taken for a redelivery.
    fn commit_op(slot: &mut ProjectSlot, predictions: bool, op: u64) {
        let correct = (op * 37 + 11) % 101;
        if predictions {
            let submission = pred_submission(&format!("p{op}"), 100, 50, correct as usize);
            slot.submit_predictions(&submission).unwrap();
        } else {
            slot.submit(&submission(&format!("c{op}"), correct))
                .unwrap();
        }
    }

    /// The journal watermark of `snapshot.json` bytes.
    fn watermark(snapshot: &[u8]) -> u64 {
        let text = std::str::from_utf8(snapshot).unwrap();
        let rest = text.split_once("\"journal_ops\": ").unwrap().1;
        rest[..rest.find(',').unwrap()].parse().unwrap()
    }

    /// The journal segment files of the project directory `dir`, by
    /// file name.
    fn segment_files(disk: &MemVfs, dir: &Path) -> Vec<String> {
        disk.list_dir(dir)
            .unwrap()
            .iter()
            .filter_map(|path| path.file_name()?.to_str())
            .filter(|name| segment_start(name).is_some())
            .map(str::to_owned)
            .collect()
    }

    /// Over 600 counts commits, a cadence snapshot lands at op 64 and
    /// then at the first op where both conditions hold: 64 ops since the
    /// last one, and as many journal bytes since it as it holds. Each
    /// seals the journal: the one segment left holds exactly the ops
    /// past the last snapshot. A restart halfway picks the count up
    /// where it left off.
    #[test]
    fn automatic_snapshot_cadence() {
        let vfs = FaultVfs::new(Path::new("/cadence"), FaultPlan::new());
        let disk = vfs.disk();
        let root = Path::new("/cadence");
        let dir = root.join("projects/proj");
        let open = || Registry::open_with(root, serving_estimator(), Arc::new(vfs.clone()));
        let mut registry = open().unwrap();
        registry.register("proj", &long_script(), None).unwrap();
        let (mut last_ops, mut last_journal, mut last_snapshot) = (0u64, 0usize, 0usize);
        let (mut expected, mut written) = (Vec::new(), Vec::new());
        for op in 1..=600u64 {
            if op == 301 {
                registry = open().unwrap();
            }
            commit_op(
                &mut registry.get("proj").unwrap().lock().unwrap(),
                false,
                op,
            );
            let journal = vfs.journal_written("proj");
            let snapshot = disk.file_bytes(&dir.join("snapshot.json"));
            if let Some(snapshot) = &snapshot {
                if written.last() != Some(&watermark(snapshot)) {
                    written.push(watermark(snapshot));
                }
            }
            if op - last_ops >= SNAPSHOT_EVERY && journal.len() - last_journal >= last_snapshot {
                expected.push(op);
                (last_ops, last_journal) = (op, journal.len());
                last_snapshot = snapshot.map_or(0, |s| s.len());
            }
            let live = segment_name(last_ops);
            if op == last_ops {
                assert!(segment_files(&disk, &dir).is_empty(), "op {op}");
            } else {
                assert_eq!(segment_files(&disk, &dir), [live.as_str()], "op {op}");
                assert_eq!(
                    disk.file_bytes(&dir.join(&live)).unwrap(),
                    &journal[last_journal..],
                    "op {op}"
                );
            }
        }
        assert_eq!(written, expected);
        assert_eq!(
            expected[0], SNAPSHOT_EVERY,
            "the first snapshot lands at op 64"
        );
        assert!(expected.len() >= 3, "{expected:?}");
        // And the snapshot+journal combination still restores.
        let registry = open().unwrap();
        assert_eq!(registry.boot_replay().ops, 600 - expected.last().unwrap());
        let slot = registry.get("proj").unwrap();
        assert_eq!(slot.lock().unwrap().project.steps_used(), 600);
    }

    /// Boot over hostile journal segment names. A project holds a
    /// snapshot at op 2 and `journal.2.log` with ops 3 and 4; each case
    /// edits a copy of its directory. A malformed name, a gap, an
    /// overlap or a segment past the watermark is refused as `Corrupt`
    /// naming the file; a stale segment the snapshot covers whole, as a
    /// kill between the seal's directory fsync and its unlink leaves
    /// one, is unlinked without replay; names that are no segment are
    /// ignored. None panics.
    #[test]
    fn hostile_segment_names_are_refused_or_unlinked() {
        let root = Path::new("/hostile-segments");
        let dir = root.join("projects/proj");
        let vfs = FaultVfs::new(root, FaultPlan::new());
        {
            let registry =
                Registry::open_with(root, serving_estimator(), Arc::new(vfs.clone())).unwrap();
            let slot = registry.register("proj", &long_script(), None).unwrap();
            let mut slot = slot.lock().unwrap();
            for op in 1..=4 {
                commit_op(&mut slot, false, op);
                if op == 2 {
                    slot.snapshot().unwrap();
                }
            }
        }
        let stream = vfs.journal_written("proj");
        let lines: Vec<&[u8]> = stream.split_inclusive(|&b| b == b'\n').collect();
        let ops = |range: std::ops::Range<usize>| lines[range].concat();
        let past_max = format!("journal.{}0.log", u64::MAX);
        // Files to add to the directory, by name.
        type Files<'a> = Vec<(&'a str, Vec<u8>)>;
        let mut refused: Vec<(&str, Files, &str)> = [
            "journal.x.log",
            "journal..log",
            "journal.-1.log",
            "journal.+2.log",
            "journal.2e0.log",
            "journal.02.log",
            "journal.00.log",
            past_max.as_str(),
        ]
        .into_iter()
        .map(|name| ("malformed", vec![(name, ops(2..4))], name))
        .collect();
        refused.extend([
            (
                "past the watermark",
                vec![("journal.3.log", ops(3..4))],
                "journal.3.log",
            ),
            ("gap", vec![("journal.5.log", ops(3..4))], "journal.5.log"),
            (
                "overlap",
                vec![("journal.3.log", ops(3..4))],
                "journal.3.log",
            ),
            (
                "same start",
                vec![("journal.0.log", ops(0..2)), ("journal.log", ops(0..2))],
                "journal.log",
            ),
            ("short", vec![("journal.0.log", ops(0..1))], "journal.0.log"),
        ]);
        for (case, files, culprit) in refused {
            let disk = vfs.disk().kill_view();
            if matches!(case, "past the watermark" | "short") {
                disk.remove_file(&dir.join("journal.2.log")).unwrap();
            }
            for (name, bytes) in files {
                write_atomic(&disk, &dir.join(name), &bytes).unwrap();
            }
            match Registry::open_with(root, serving_estimator(), Arc::new(disk)) {
                Err(ServeError::Corrupt { path, reason }) => {
                    assert_eq!(path, dir.join(culprit), "{case}: {reason}");
                }
                Err(e) => panic!("{case}: expected Corrupt naming {culprit}, got {e}"),
                Ok(_) => panic!("{case}: booted over {culprit}"),
            }
        }

        // (case, files added, live segment removed, segments after boot)
        let booted: [(&str, Files, bool, &[&str]); 4] = [
            (
                "stale before the live one",
                vec![("journal.0.log", ops(0..2))],
                false,
                &["journal.2.log"],
            ),
            ("stale alone", vec![("journal.0.log", ops(0..2))], true, &[]),
            (
                "stale pre-segment log",
                vec![("journal.log", ops(0..2))],
                true,
                &[],
            ),
            (
                "no segment names",
                vec![
                    ("journal.2.log.bak", ops(0..1)),
                    ("journal.tmp", Vec::new()),
                ],
                false,
                &["journal.2.log"],
            ),
        ];
        for (case, files, unlink_live, after) in booted {
            let disk = vfs.disk().kill_view();
            if unlink_live {
                disk.remove_file(&dir.join("journal.2.log")).unwrap();
            }
            for (name, bytes) in files {
                write_atomic(&disk, &dir.join(name), &bytes).unwrap();
            }
            let registry = Registry::open_with(root, serving_estimator(), Arc::new(disk.clone()))
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            let steps = registry
                .get("proj")
                .unwrap()
                .lock()
                .unwrap()
                .project
                .steps_used();
            assert_eq!(steps, if unlink_live { 2 } else { 4 }, "{case}");
            assert_eq!(
                registry.boot_replay().ops,
                if unlink_live { 0 } else { 2 },
                "{case}"
            );
            assert_eq!(segment_files(&disk, &dir), after, "{case}");
        }
    }

    /// Drive `ops` counts commits against one relaxed-mode project on a
    /// [`FaultVfs`] under `plan`, calling `after_op` after each; returns
    /// the recorded I/O ops. (Only the committing thread touches the
    /// journal, so the project's op order, which addresses the faults,
    /// is the same in every run.)
    fn run_relaxed(
        root: &Path,
        plan: FaultPlan,
        ops: u64,
        after_op: &mut dyn FnMut(u64, &FaultVfs, &StoreFailures),
    ) -> Vec<OpRecord> {
        let fvfs = FaultVfs::new(root, plan);
        fvfs.start_recording();
        let registry = Registry::open_with_durability(
            root,
            serving_estimator(),
            Arc::new(fvfs.clone()),
            Durability::Relaxed,
            None,
        )
        .unwrap();
        let slot = registry.register("proj", &long_script(), None).unwrap();
        let mut slot = slot.lock().unwrap();
        for op in 1..=ops {
            commit_op(&mut slot, false, op);
            after_op(op, &fvfs, registry.store_failures());
        }
        fvfs.take_oplog()
    }

    /// A cadence snapshot whose temp write hits `ENOSPC` is retried
    /// `SNAPSHOT_EVERY` ops later, not on the next op, and the failure
    /// is counted once.
    #[test]
    fn failed_cadence_snapshot_is_retried_a_cadence_later() {
        let root = Path::new("/retry");
        let dir = root.join("projects/proj");
        let temp_write = run_relaxed(root, FaultPlan::new(), SNAPSHOT_EVERY, &mut |_, _, _| {})
            .into_iter()
            .find(|rec| rec.kind == "write" && rec.path == dir.join("snapshot.tmp"))
            .expect("the op-64 snapshot writes its temp file");
        let plan = FaultPlan::new().at(
            &temp_write.scope,
            temp_write.index,
            Fault::Fail(FaultKind::Enospc),
        );
        run_relaxed(root, plan, 3 * SNAPSHOT_EVERY, &mut |op, fvfs, failures| {
            let snapshot = fvfs.disk().file_bytes(&dir.join("snapshot.json"));
            let want = (op >= 2 * SNAPSHOT_EVERY).then_some(2 * SNAPSHOT_EVERY);
            assert_eq!(snapshot.as_deref().map(watermark), want, "after op {op}");
            assert_eq!(
                failures.snapshots.load(Ordering::Relaxed),
                u64::from(op >= SNAPSHOT_EVERY),
                "snapshot failures after op {op}"
            );
            assert_eq!(failures.journal_syncs.load(Ordering::Relaxed), 0);
        });
    }

    /// A failed `relaxed` inline journal sync (op 128: no snapshot is
    /// due there) fails no request and is counted once.
    #[test]
    fn failed_relaxed_journal_sync_is_counted() {
        let root = Path::new("/relaxed-sync");
        let journal = root.join("projects/proj/journal.64.log");
        let sync = run_relaxed(
            root,
            FaultPlan::new(),
            2 * SNAPSHOT_EVERY,
            &mut |_, _, _| {},
        )
        .into_iter()
        .rfind(|rec| rec.kind == "sync" && rec.path == journal)
        .expect("op 128 syncs the journal inline");
        let plan = FaultPlan::new().at(&sync.scope, sync.index, Fault::Fail(FaultKind::Eio));
        run_relaxed(root, plan, 3 * SNAPSHOT_EVERY, &mut |op, _, failures| {
            assert_eq!(
                failures.journal_syncs.load(Ordering::Relaxed),
                u64::from(op >= 2 * SNAPSHOT_EVERY),
                "journal sync failures after op {op}"
            );
            assert_eq!(failures.snapshots.load(Ordering::Relaxed), 0);
        });
    }

    /// Kill the process (drop without a shutdown snapshot) after `k`
    /// ops, for `k` over `0..=600` with a stride: every reboot serves
    /// the bodies of the uninterrupted twin at `k` ops, and replays at
    /// most `SNAPSHOT_EVERY - 1` ops or at most the last snapshot's
    /// bytes of journal. The data dir holds one segment at most,
    /// `journal.<watermark>.log`, holding exactly the ops replayed: boot
    /// reads no byte the snapshot covers.
    #[test]
    fn killed_at_any_op_reboots_to_the_uninterrupted_state() {
        let root = Path::new("/kill");
        let dir = root.join("projects/proj");
        for predictions in [false, true] {
            let disk = MemVfs::new();
            let twin =
                Registry::open_with(root, serving_estimator(), Arc::new(disk.clone())).unwrap();
            let slot = if predictions {
                let script = long_script().replace("n > 0.6 +/- 0.2", "n - o > 0.0 +/- 0.2");
                twin.register("proj", &script, Some(lazy_spec(100)))
            } else {
                twin.register("proj", &long_script(), None)
            }
            .unwrap();
            for k in 0..=600u64 {
                if k > 0 {
                    commit_op(&mut slot.lock().unwrap(), predictions, k);
                }
                if k % 23 != 0 {
                    continue;
                }
                let survivor = disk.kill_view();
                let rebooted =
                    Registry::open_with(root, serving_estimator(), Arc::new(survivor.clone()))
                        .unwrap();
                assert_eq!(bodies(&rebooted), bodies(&twin), "k = {k}");
                let snapshot = survivor.file_bytes(&dir.join("snapshot.json"));
                let covered = snapshot.as_deref().map_or(0, watermark);
                let replayed = rebooted.boot_replay().ops;
                assert_eq!(replayed, k - covered);
                let segments = segment_files(&survivor, &dir);
                let journal = match segments.as_slice() {
                    [] => Vec::new(),
                    [live] if *live == segment_name(covered) => {
                        survivor.file_bytes(&dir.join(live)).unwrap()
                    }
                    other => panic!("k = {k}: segments {other:?} past snapshot op {covered}"),
                };
                assert_eq!(
                    journal.split_inclusive(|&b| b == b'\n').count() as u64,
                    replayed,
                    "k = {k}"
                );
                let suffix = journal.len();
                assert_eq!(rebooted.boot_replay().journal_bytes, suffix as u64);
                assert!(
                    replayed < SNAPSHOT_EVERY || suffix <= snapshot.map_or(0, |s| s.len()),
                    "k = {k}: replayed {replayed} ops, {suffix} bytes"
                );
            }
        }
    }

    /// Under `relaxed`, a power cut after `64 m + r` commits, on a
    /// project with no snapshot due at op `64 m`, keeps the first
    /// `64 m` acked commits: the journal is synced every 64 ops even
    /// when the cadence writes no snapshot.
    #[test]
    fn relaxed_power_cut_keeps_every_synced_cadence() {
        let (m, r) = (2, 37);
        let root = Path::new("/relaxed");
        let dir = root.join("projects/proj");
        let fvfs = FaultVfs::new(root, FaultPlan::new());
        let registry = Registry::open_with_durability(
            root,
            serving_estimator(),
            Arc::new(fvfs.clone()),
            Durability::Relaxed,
            None,
        )
        .unwrap();
        let slot = registry.register("proj", &long_script(), None).unwrap();
        for op in 1..=m * SNAPSHOT_EVERY + r {
            commit_op(&mut slot.lock().unwrap(), false, op);
        }
        let snapshot = fvfs.disk().file_bytes(&dir.join("snapshot.json")).unwrap();
        assert_eq!(
            watermark(&snapshot),
            SNAPSHOT_EVERY,
            "no snapshot due since op 64"
        );
        let survivor = fvfs.disk().power_cut_view();
        // The op-64 seal left one segment, whose entry and first 64 ops
        // were synced.
        assert_eq!(segment_files(&survivor, &dir), ["journal.64.log"]);
        let rebooted = Registry::open_with(root, serving_estimator(), Arc::new(survivor)).unwrap();
        assert!(rebooted.boot_replay().ops >= SNAPSHOT_EVERY);
        let steps = u64::from(
            rebooted
                .get("proj")
                .unwrap()
                .lock()
                .unwrap()
                .project
                .steps_used(),
        );
        assert!(steps >= m * SNAPSHOT_EVERY, "only {steps} commits survived");
    }
}
