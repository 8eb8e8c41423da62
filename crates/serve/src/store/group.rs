//! Group-commit durability: the journal syncs a thread stages are
//! retired together in one *round*, one `fsync` per distinct journal.
//!
//! # Model
//!
//! Journal *bytes* are always written inline, under the project slot
//! lock, in every durability mode — so the byte stream of a journal is
//! identical across modes by construction. A round carries journal
//! syncs only: a registration fsyncs and renames its own `project.json`
//! on the registering thread (no other write ever shares that sync), so
//! the `easeml_group_commit_*` series count journal syncs alone. What
//! varies is when a journal append is forced to stable storage and when
//! the client is told:
//!
//! * [`Durability::Group`] — the append *stages* a sync on its thread's
//!   queue and parks a [`Waiter`] for the route layer. A round
//!   (`GroupCommit::round`) drains the thread's queue, issues **one**
//!   `sync_data` per distinct journal in it, and completes the waiters.
//!   There is no flusher thread: the round runs on the thread that
//!   staged the syncs.
//!   - An event loop (`GroupCommit::defer_rounds`) runs one round
//!     after each readiness sweep, before it sleeps, and releases the
//!     parked responses only after it. Every commit handled in one
//!     sweep shares that sweep's fsyncs.
//!   - Any other thread (pool workers, the fault harness, tests) runs
//!     the round before the store call that staged returns
//!     (`GroupCommit::settle`), so nothing stays queued past that
//!     call.
//! * [`Durability::Relaxed`] — the append stages nothing and the
//!   response is released immediately. The journal is synced inline
//!   every [`super::SNAPSHOT_EVERY`] ops (by the cadence snapshot when
//!   one is due, which syncs first, else on its own), and by the
//!   shutdown snapshot, so a power cut may lose at most the last
//!   `SNAPSHOT_EVERY - 1` acknowledged ops; a process kill loses
//!   nothing, because the bytes are already in the file.
//!
//! # Failure containment
//!
//! If a *deferred* sync fails, the in-memory gate state has already
//! advanced past records whose durability is now unknown, and rolling
//! memory back is impossible (later commits may have stacked on top).
//! Instead the journal is **poisoned**: every waiter of the round is
//! failed, and all further appends to that journal return
//! [`ServeError::Unavailable`] until the process restarts and replays.
//! The journal file itself is left intact — every record that reached
//! memory is still in the file, so replay after restart converges with
//! (or ahead of) what clients observed, never behind an acknowledged
//! commit.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::error::ServeError;
use crate::obs::hist::{Edges, Histogram};
use crate::obs::{Counter, Metrics};
use crate::vfs::VfsFile;

/// When a mutating request is acknowledged relative to its `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Appends stage onto the group-commit queue; ack after the batched
    /// `fsync` covers the record. The default.
    #[default]
    Group,
    /// Ack before `fsync`; a power cut may lose acknowledged commits.
    Relaxed,
}

impl Durability {
    /// Parse a CLI spelling (`group` / `relaxed`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "group" => Some(Durability::Group),
            "relaxed" => Some(Durability::Relaxed),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Durability::Group => "group",
            Durability::Relaxed => "relaxed",
        }
    }
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A journal handle shareable between the threads that append to it and
/// sync it. Holds the project's live segment, if
/// one is open, and tracks how far it is known durable and whether a
/// deferred sync has poisoned the journal.
///
/// A seal swaps the segment out under the mutex ([`SharedJournal::seal`])
/// once a durable snapshot covers it, so a sync staged before the seal
/// finds no segment and retires as a no-op: the seal's own inline sync
/// already covered its records.
#[derive(Debug)]
pub(crate) struct SharedJournal {
    inner: Mutex<JournalInner>,
}

#[derive(Debug)]
struct JournalInner {
    /// The live segment; `None` from a seal to the next append.
    file: Option<Box<dyn VfsFile>>,
    /// Bytes of the live segment known forced to stable storage.
    synced_len: u64,
    /// Set when a deferred sync failed; see the module docs.
    poisoned: bool,
}

impl SharedJournal {
    /// A journal without a live segment.
    pub(crate) fn new() -> SharedJournal {
        SharedJournal {
            inner: Mutex::new(JournalInner {
                file: None,
                synced_len: 0,
                poisoned: false,
            }),
        }
    }

    /// Whether a live segment is open.
    pub(crate) fn is_open(&self) -> bool {
        self.inner.lock().unwrap().file.is_some()
    }

    /// Make `file` the live segment. Its current length is taken as the
    /// durable baseline (recovery already replayed it).
    pub(crate) fn open(&self, file: Box<dyn VfsFile>) -> Result<(), ServeError> {
        let synced_len = file.len()?;
        let mut inner = self.inner.lock().unwrap();
        inner.file = Some(file);
        inner.synced_len = synced_len;
        Ok(())
    }

    /// Close the live segment: a durable snapshot covers every record
    /// in it, and the next append starts a new one.
    pub(crate) fn seal(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.file = None;
        inner.synced_len = 0;
    }

    fn poisoned_err() -> ServeError {
        ServeError::Unavailable(
            "journal poisoned by a failed group sync; project is read-only until restart"
                .to_string(),
        )
    }

    /// Append `line` without syncing. Rolls the file length back on a
    /// failed write so a half-written record never lingers.
    pub(crate) fn append(&self, line: &[u8]) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return Err(Self::poisoned_err());
        }
        let file = inner.file.as_mut().expect("append opens a segment first");
        let offset = file.len()?;
        if let Err(e) = file.write_all(line) {
            let _ = file.set_len(offset);
            return Err(e.into());
        }
        Ok(())
    }

    /// Sync inline on behalf of the snapshot path (all modes) and of
    /// `relaxed`'s periodic sync. Does not poison on failure — the
    /// unsynced suffix simply stays unsynced and the caller aborts its
    /// snapshot attempt or logs the failed sync.
    pub(crate) fn sync_inline(&self) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return Err(Self::poisoned_err());
        }
        let Some(file) = &inner.file else {
            return Ok(());
        };
        file.sync_data()?;
        inner.synced_len = file.len()?;
        Ok(())
    }

    /// Deferred sync issued by a round. Skips the `sync_data` when
    /// nothing was appended since the last sync, or no segment is open
    /// (the batch's records were already covered — e.g. by the snapshot
    /// path). Poisons the journal on failure.
    fn flush(&self) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return Err("journal poisoned by an earlier failed group sync".to_string());
        }
        let Some(file) = &inner.file else {
            return Ok(());
        };
        let len = match file.len() {
            Ok(len) => len,
            Err(e) => {
                inner.poisoned = true;
                return Err(format!("group sync failed: {e}"));
            }
        };
        if len == inner.synced_len {
            return Ok(());
        }
        match file.sync_data() {
            Ok(()) => {
                inner.synced_len = len;
                Ok(())
            }
            Err(e) => {
                inner.poisoned = true;
                Err(format!("group sync failed: {e}"))
            }
        }
    }

    /// Truncate the live segment to `len` (recovery discarding a torn
    /// trailing line).
    pub(crate) fn set_len(&self, len: u64) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .file
            .as_ref()
            .expect("recovery opened the segment")
            .set_len(len)?;
        inner.synced_len = inner.synced_len.min(len);
        Ok(())
    }
}

/// A handle to one staged durable write: resolves `Ok` once the round
/// that retired it made its journal bytes durable, `Err` if that
/// round's `fsync` failed. Cloneable; all clones resolve together.
#[derive(Clone)]
pub struct Waiter {
    cell: Arc<OnceLock<Result<(), String>>>,
}

impl Waiter {
    fn new() -> Waiter {
        Waiter {
            cell: Arc::new(OnceLock::new()),
        }
    }

    /// Resolve the waiter; the first completion wins.
    fn complete(&self, result: Result<(), String>) {
        let _ = self.cell.set(result);
    }

    /// The retiring round's result, or `None` while no round has
    /// retired the staged sync yet.
    #[must_use]
    pub fn result(&self) -> Option<Result<(), String>> {
        self.cell.get().cloned()
    }
}

impl fmt::Debug for Waiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cell.get() {
            None => f.write_str("Waiter(pending)"),
            Some(r) => write!(f, "Waiter(done: {r:?})"),
        }
    }
}

impl PartialEq for Waiter {
    fn eq(&self, other: &Waiter) -> bool {
        Arc::ptr_eq(&self.cell, &other.cell)
    }
}

impl Eq for Waiter {}

/// One staged journal sync: once it retires, every record appended to
/// `journal` before staging is durable.
struct Staged {
    journal: Arc<SharedJournal>,
    waiter: Waiter,
}

thread_local! {
    /// The journal syncs this thread staged that no round retired yet.
    static STAGED: RefCell<Vec<Staged>> = const { RefCell::new(Vec::new()) };
    /// Set while an event loop on this thread runs a round after each
    /// sweep (see [`GroupCommit::defer_rounds`]).
    static DEFERRED: Cell<bool> = const { Cell::new(false) };
}

/// Metric handles a round records into (see
/// [`GroupMetrics::register`]).
#[derive(Clone)]
pub struct GroupMetrics {
    batch_size: Arc<Histogram>,
    flush_nanos: Arc<Histogram>,
    rounds: Arc<Counter>,
    commits: Arc<Counter>,
}

impl GroupMetrics {
    /// Create the group-commit series in `metrics`.
    #[must_use]
    pub fn register(metrics: &Metrics) -> GroupMetrics {
        GroupMetrics {
            batch_size: metrics.histogram_with(
                "easeml_group_commit_batch_size",
                "Staged journal syncs retired per group-commit round.",
                Edges::pow2(10),
                &[],
            ),
            flush_nanos: metrics.histogram_with(
                "easeml_group_commit_flush_seconds",
                "Wall time of one group-commit round (first fsync to last waiter).",
                Edges::time(),
                &[],
            ),
            rounds: metrics.counter(
                "easeml_group_commit_rounds_total",
                "Group-commit rounds that retired at least one staged journal sync.",
            ),
            commits: metrics.counter(
                "easeml_group_commit_writes_total",
                "Journal syncs retired by group-commit rounds.",
            ),
        }
    }
}

impl fmt::Debug for GroupMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GroupMetrics(..)")
    }
}

/// The group-commit discipline: journal appends stage a sync on their
/// thread's queue and get a [`Waiter`] back; a round on the same thread
/// retires the queue with one `sync_data` per distinct journal. Natural
/// batching: every commit an event loop handles in one sweep is retired
/// by that sweep's round.
pub struct GroupCommit {
    metrics: Option<GroupMetrics>,
}

impl fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GroupCommit(..)")
    }
}

/// Marks the current thread as an event loop that runs
/// [`GroupCommit::round`] after each sweep; see
/// [`GroupCommit::defer_rounds`].
pub(crate) struct DeferredRounds<'a> {
    group: &'a GroupCommit,
}

impl Drop for DeferredRounds<'_> {
    /// The loop is done: retire anything it left staged.
    fn drop(&mut self) {
        DEFERRED.with(|d| d.set(false));
        self.group.round();
    }
}

impl GroupCommit {
    /// A group commit recording into `metrics`, if given.
    #[must_use]
    pub(crate) fn new(metrics: Option<GroupMetrics>) -> GroupCommit {
        GroupCommit { metrics }
    }

    /// Stage a sync of `journal` on this thread's queue; the returned
    /// waiter resolves when a round has made every record appended so
    /// far durable (or failed trying).
    pub(crate) fn stage(&self, journal: Arc<SharedJournal>) -> Waiter {
        let waiter = Waiter::new();
        STAGED.with(|staged| {
            staged.borrow_mut().push(Staged {
                journal,
                waiter: waiter.clone(),
            });
        });
        waiter
    }

    /// Until the guard drops, leave this thread's staged syncs to its
    /// event loop, which promises to call [`GroupCommit::round`] after
    /// each sweep.
    pub(crate) fn defer_rounds(&self) -> DeferredRounds<'_> {
        DEFERRED.with(|d| d.set(true));
        DeferredRounds { group: self }
    }

    /// The end of a store call that may have staged: run the round now,
    /// unless this thread's event loop runs it after its sweep.
    pub(crate) fn settle(&self) {
        if !DEFERRED.with(Cell::get) {
            self.round();
        }
    }

    /// Retire every sync this thread staged: one `flush` per distinct
    /// journal, then complete the waiters. A no-op when nothing is
    /// staged.
    pub(crate) fn round(&self) {
        let batch = STAGED.with(|staged| std::mem::take(&mut *staged.borrow_mut()));
        if batch.is_empty() {
            return;
        }
        let start = Instant::now();
        let mut flushed: Vec<(&Arc<SharedJournal>, Result<(), String>)> = Vec::new();
        let results: Vec<Result<(), String>> = batch
            .iter()
            .map(|Staged { journal, .. }| {
                if let Some((_, result)) = flushed.iter().find(|(j, _)| Arc::ptr_eq(j, journal)) {
                    return result.clone();
                }
                let result = journal.flush();
                flushed.push((journal, result.clone()));
                result
            })
            .collect();
        // Waiter completions wait until the round's metrics are
        // recorded, so an observer that sees an ack sees the round
        // accounted for.
        if let Some(metrics) = &self.metrics {
            let retired = batch.len() as u64;
            metrics.rounds.inc();
            metrics.commits.add(retired);
            metrics.batch_size.record(retired);
            metrics
                .flush_nanos
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        for (staged, result) in batch.into_iter().zip(results) {
            staged.waiter.complete(result);
        }
    }
}

// The waiter a deferred append left for the current request, picked up
// by the route layer after the store call returns (same idiom as
// `obs::trace`'s per-thread slot).
thread_local! {
    static PENDING: RefCell<Option<Waiter>> = const { RefCell::new(None) };
}

/// Deposit the waiter of the append the current thread just staged.
pub(crate) fn set_pending(waiter: Waiter) {
    PENDING.with(|slot| *slot.borrow_mut() = Some(waiter));
}

/// Take (and clear) the waiter deposited by the last staged append on
/// this thread, if any.
pub(crate) fn take_pending() -> Option<Waiter> {
    PENDING.with(|slot| slot.borrow_mut().take())
}

/// Syncs this thread staged that no round retired yet.
#[cfg(test)]
pub(crate) fn staged_len() -> usize {
    STAGED.with(|staged| staged.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Metrics;
    use crate::vfs::{FaultPlan, FaultVfs, MemVfs, OpRecord, Vfs};
    use std::path::Path;

    /// A journal whose live segment is `path`, its directory entries
    /// durable (as the store makes them before the first append).
    fn journal_on(vfs: &dyn Vfs, path: &str) -> Arc<SharedJournal> {
        let path = Path::new(path);
        let dir = path.parent().expect("journal has a directory");
        vfs.create_dir_all(dir).unwrap();
        let journal = Arc::new(SharedJournal::new());
        journal.open(vfs.open_append(path).unwrap()).unwrap();
        vfs.sync_dir(Path::new("/")).unwrap();
        vfs.sync_dir(dir).unwrap();
        journal
    }

    /// A fault VFS without faults, recording every counted op.
    fn recording_vfs() -> FaultVfs {
        let vfs = FaultVfs::new(Path::new("/data"), FaultPlan::new());
        vfs.start_recording();
        vfs
    }

    fn syncs_of(log: &[OpRecord], path: &str) -> usize {
        log.iter()
            .filter(|op| op.kind == "sync" && op.path == Path::new(path))
            .count()
    }

    /// A staged sync's waiter reads pending until a round retires it.
    /// Every clone resolves together: one read on another thread after
    /// the round, and one made only after it, the late reader.
    #[test]
    fn waiter_blocks_until_complete_and_replays_to_late_callbacks() {
        let vfs = MemVfs::new();
        let journal = journal_on(&vfs, "/j/journal.log");
        let group = GroupCommit::new(None);
        let _rounds = group.defer_rounds();
        journal.append(b"a\n").unwrap();
        let w = group.stage(Arc::clone(&journal));
        let w2 = w.clone();
        group.settle();
        assert_eq!(w.result(), None, "a deferring thread leaves it staged");
        group.round();
        let t = std::thread::spawn(move || w2.result());
        assert_eq!(t.join().unwrap(), Some(Ok(())));
        let late = w.clone();
        assert_eq!(late.result(), Some(Ok(())));
    }

    #[test]
    fn first_completion_wins() {
        let w = Waiter::new();
        w.complete(Ok(()));
        w.complete(Err("late".to_string()));
        assert_eq!(w.result(), Some(Ok(())));
    }

    /// Off an event loop, the store call that staged retires its own
    /// round: both syncs staged before it settle in one fsync.
    #[test]
    fn flusher_batches_and_resolves_waiters() {
        let vfs = recording_vfs();
        let journal = journal_on(&vfs, "/j/journal.log");
        let group = GroupCommit::new(None);
        journal.append(b"a\n").unwrap();
        let w1 = group.stage(Arc::clone(&journal));
        journal.append(b"b\n").unwrap();
        let w2 = group.stage(Arc::clone(&journal));
        group.settle();
        assert_eq!(staged_len(), 0);
        assert_eq!(w1.result(), Some(Ok(())));
        assert_eq!(w2.result(), Some(Ok(())));
        assert_eq!(syncs_of(&vfs.take_oplog(), "/j/journal.log"), 1);
        // Both records survive a power cut: the sync covered them.
        let cut = vfs.disk().power_cut_view();
        assert_eq!(
            cut.read_to_string(Path::new("/j/journal.log")).unwrap(),
            "a\nb\n"
        );
    }

    /// A failed deferred sync fails its waiters and poisons the
    /// journal: later appends, flushes and inline syncs are refused
    /// even once the disk works again.
    #[test]
    fn poisoned_journal_refuses_appends() {
        let vfs = recording_vfs();
        let journal = journal_on(&vfs, "/j/journal.log");
        let group = GroupCommit::new(None);
        journal.append(b"a\n").unwrap();
        vfs.set_deny_writes(true);
        let waiter = group.stage(Arc::clone(&journal));
        group.round();
        let err = waiter.result().unwrap().unwrap_err();
        assert!(err.starts_with("group sync failed: "), "{err}");
        vfs.set_deny_writes(false);
        assert_eq!(journal.append(b"b\n").unwrap_err().status(), 503);
        assert_eq!(journal.sync_inline().unwrap_err().status(), 503);
        let waiter = group.stage(Arc::clone(&journal));
        group.round();
        assert!(waiter.result().unwrap().is_err());
        // Only the failed attempt reached the disk.
        assert_eq!(syncs_of(&vfs.take_oplog(), "/j/journal.log"), 1);
    }

    /// A staged sync whose records an inline (snapshot) sync already
    /// covered retires without another fsync.
    #[test]
    fn flush_skips_fsync_when_already_covered() {
        let vfs = recording_vfs();
        let journal = journal_on(&vfs, "/j/journal.log");
        let group = GroupCommit::new(None);
        journal.append(b"a\n").unwrap();
        journal.sync_inline().unwrap();
        let waiter = group.stage(Arc::clone(&journal));
        group.round();
        assert_eq!(waiter.result(), Some(Ok(())));
        assert_eq!(syncs_of(&vfs.take_oplog(), "/j/journal.log"), 1);
    }

    /// A sync staged before a seal retires as a no-op after the sealed
    /// segment is closed and unlinked (the seal's inline sync covered
    /// its records), and the journal takes appends to a new segment.
    #[test]
    fn sync_staged_before_a_seal_retires_after_the_unlink() {
        let vfs = recording_vfs();
        let sealed = Path::new("/data/projects/p/journal.0.log");
        let journal = journal_on(&vfs, "/data/projects/p/journal.0.log");
        let group = GroupCommit::new(None);
        journal.append(b"a\n").unwrap();
        // Stage, then seal before any round runs.
        let waiter = group.stage(Arc::clone(&journal));
        journal.sync_inline().unwrap();
        journal.seal();
        vfs.remove_file(sealed).unwrap();
        group.round();
        assert_eq!(waiter.result(), Some(Ok(())));
        assert!(!journal.is_open());
        let next = Path::new("/data/projects/p/journal.1.log");
        journal.open(vfs.open_append(next).unwrap()).unwrap();
        journal.append(b"b\n").unwrap();
        let waiter = group.stage(Arc::clone(&journal));
        group.round();
        assert_eq!(waiter.result(), Some(Ok(())));
        let log = vfs.take_oplog();
        assert_eq!(syncs_of(&log, "/data/projects/p/journal.0.log"), 1);
        assert_eq!(syncs_of(&log, "/data/projects/p/journal.1.log"), 1);
    }

    #[test]
    fn one_round_batches_across_journals() {
        let metrics = Metrics::new();
        let gm = GroupMetrics::register(&metrics);
        let vfs = recording_vfs();
        let ja = journal_on(&vfs, "/a/journal.log");
        let jb = journal_on(&vfs, "/b/journal.log");
        ja.append(b"a1\n").unwrap();
        ja.append(b"a2\n").unwrap();
        jb.append(b"b1\n").unwrap();
        let group = GroupCommit::new(Some(gm.clone()));
        // Stage three syncs (two journals); the next round retires them
        // as ONE round.
        let waiters: Vec<Waiter> = [&ja, &ja, &jb]
            .into_iter()
            .map(|journal| group.stage(Arc::clone(journal)))
            .collect();
        group.round();
        for waiter in &waiters {
            assert_eq!(waiter.result(), Some(Ok(())));
        }
        // One round retired all three syncs with one fsync per journal,
        // and both journals survive a power cut.
        assert_eq!(gm.rounds.get(), 1);
        assert_eq!(gm.commits.get(), 3);
        let log = vfs.take_oplog();
        assert_eq!(syncs_of(&log, "/a/journal.log"), 1);
        assert_eq!(syncs_of(&log, "/b/journal.log"), 1);
        let cut = vfs.disk().power_cut_view();
        assert_eq!(
            cut.read_to_string(Path::new("/a/journal.log")).unwrap(),
            "a1\na2\n"
        );
        assert_eq!(
            cut.read_to_string(Path::new("/b/journal.log")).unwrap(),
            "b1\n"
        );
        // A round with nothing staged is not counted.
        group.round();
        assert_eq!(gm.rounds.get(), 1);
    }

    /// An event loop that stops deferring (its serve call returned)
    /// retires whatever it left staged.
    #[test]
    fn shutdown_drains_staged_work() {
        let vfs = MemVfs::new();
        let journal = journal_on(&vfs, "/j/journal.log");
        let group = GroupCommit::new(None);
        let rounds = group.defer_rounds();
        journal.append(b"a\n").unwrap();
        let w = group.stage(Arc::clone(&journal));
        group.settle();
        assert_eq!(w.result(), None);
        drop(rounds);
        assert_eq!(w.result(), Some(Ok(())));
        assert_eq!(staged_len(), 0);
        assert_eq!(
            vfs.power_cut_view()
                .read_to_string(Path::new("/j/journal.log"))
                .unwrap(),
            "a\n"
        );
    }
}
