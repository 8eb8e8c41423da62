//! Group-commit durability: a shared commit queue and a dedicated
//! flusher thread that batches many logical commits into one
//! `fsync` per journal per round.
//!
//! # Model
//!
//! Journal *bytes* are always written inline, under the project slot
//! lock, in every durability mode — so the byte stream of a journal is
//! identical across modes by construction. The queue carries journal
//! syncs only: a registration fsyncs and renames its own `project.json`
//! on the registering thread (no other write ever shares that sync), so
//! the `easeml_group_commit_*` series count journal syncs alone. What
//! varies is when a journal append is forced to stable storage and when
//! the client is told:
//!
//! * [`Durability::Group`] — the append *stages* a sync request on the
//!   shared [`GroupCommit`] queue and the response is deferred via a
//!   [`Waiter`]; the flusher drains the queue, issues **one**
//!   `sync_data` per distinct journal in the batch, and completes the
//!   waiters. Concurrent commits to the same project (or to different
//!   projects on the same round) share a single fsync.
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
//! Instead the journal is **poisoned**: every staged waiter is failed,
//! and all further appends to that journal return
//! [`ServeError::Unavailable`] until the process restarts and replays.
//! The journal file itself is left intact — every record that reached
//! memory is still in the file, so replay after restart converges with
//! (or ahead of) what clients observed, never behind an acknowledged
//! commit.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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

/// A journal handle shareable between request threads (which append)
/// and the flusher (which syncs). Tracks how far the file is known
/// durable and whether a deferred sync has poisoned it.
#[derive(Debug)]
pub(crate) struct SharedJournal {
    inner: Mutex<JournalInner>,
}

#[derive(Debug)]
struct JournalInner {
    file: Box<dyn VfsFile>,
    /// Bytes known forced to stable storage.
    synced_len: u64,
    /// Set when a deferred sync failed; see the module docs.
    poisoned: bool,
}

impl SharedJournal {
    /// Wrap a freshly opened journal. The current length is taken as
    /// the durable baseline (recovery already replayed it).
    pub(crate) fn new(file: Box<dyn VfsFile>) -> Result<SharedJournal, ServeError> {
        let synced_len = file.len()?;
        Ok(SharedJournal {
            inner: Mutex::new(JournalInner {
                file,
                synced_len,
                poisoned: false,
            }),
        })
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
        let offset = inner.file.len()?;
        if let Err(e) = inner.file.write_all(line) {
            let _ = inner.file.set_len(offset);
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
        inner.file.sync_data()?;
        inner.synced_len = inner.file.len()?;
        Ok(())
    }

    /// Deferred sync issued by the flusher. Skips the `sync_data` when
    /// nothing was appended since the last sync (the batch's records
    /// were already covered — e.g. by the snapshot path). Poisons the
    /// journal on failure.
    fn flush(&self) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return Err("journal poisoned by an earlier failed group sync".to_string());
        }
        let len = match inner.file.len() {
            Ok(len) => len,
            Err(e) => {
                inner.poisoned = true;
                return Err(format!("group sync failed: {e}"));
            }
        };
        if len == inner.synced_len {
            return Ok(());
        }
        match inner.file.sync_data() {
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

    /// Truncate to `len` (recovery discarding a torn trailing line).
    pub(crate) fn set_len(&self, len: u64) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        inner.file.set_len(len)?;
        inner.synced_len = inner.synced_len.min(len);
        Ok(())
    }
}

/// A parked completion callback of a deferred durable write.
type WaitCallback = Box<dyn FnOnce(Result<(), String>) + Send>;

/// Completion state of a deferred durable write.
enum WaitState {
    Pending(Vec<WaitCallback>),
    Done(Result<(), String>),
}

struct WaitCell {
    state: Mutex<WaitState>,
    cv: Condvar,
}

/// A handle to one staged durable write: resolves `Ok` once the
/// covering `fsync` returned, `Err` if it failed (or the flusher shut
/// down first). Cloneable; all clones resolve together.
#[derive(Clone)]
pub struct Waiter {
    cell: Arc<WaitCell>,
}

impl Waiter {
    fn new() -> Waiter {
        Waiter {
            cell: Arc::new(WaitCell {
                state: Mutex::new(WaitState::Pending(Vec::new())),
                cv: Condvar::new(),
            }),
        }
    }

    fn complete(&self, result: Result<(), String>) {
        let callbacks = {
            let mut state = self.cell.state.lock().unwrap();
            match std::mem::replace(&mut *state, WaitState::Done(result.clone())) {
                WaitState::Pending(callbacks) => callbacks,
                WaitState::Done(prior) => {
                    // First completion wins; restore it.
                    *state = WaitState::Done(prior);
                    Vec::new()
                }
            }
        };
        self.cell.cv.notify_all();
        for callback in callbacks {
            callback(result.clone());
        }
    }

    /// Block until resolved.
    pub fn wait(&self) -> Result<(), String> {
        let mut state = self.cell.state.lock().unwrap();
        loop {
            match &*state {
                WaitState::Done(result) => return result.clone(),
                WaitState::Pending(_) => state = self.cell.cv.wait(state).unwrap(),
            }
        }
    }

    /// Run `callback` when resolved — inline if already resolved, else
    /// from the flusher thread. Used by the event loop to re-arm a
    /// connection without blocking.
    pub fn on_complete(&self, callback: impl FnOnce(Result<(), String>) + Send + 'static) {
        let mut callback = Some(callback);
        let immediate = {
            let mut state = self.cell.state.lock().unwrap();
            match &mut *state {
                WaitState::Done(result) => Some(result.clone()),
                WaitState::Pending(callbacks) => {
                    let boxed = callback.take().expect("callback taken once");
                    callbacks.push(Box::new(boxed));
                    None
                }
            }
        };
        if let Some(result) = immediate {
            (callback.take().expect("callback still present"))(result);
        }
    }
}

impl fmt::Debug for Waiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.cell.state.lock().unwrap();
        match &*state {
            WaitState::Pending(_) => f.write_str("Waiter(pending)"),
            WaitState::Done(r) => write!(f, "Waiter(done: {r:?})"),
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

struct GroupQueue {
    staged: VecDeque<Staged>,
    shutdown: bool,
}

struct GroupShared {
    queue: Mutex<GroupQueue>,
    cv: Condvar,
}

/// Metric handles the flusher records into (see
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
                "Staged journal syncs retired per flusher round.",
                Edges::pow2(10),
                &[],
            ),
            flush_nanos: metrics.histogram_with(
                "easeml_group_commit_flush_seconds",
                "Wall time of one flusher round (drain to last ack).",
                Edges::time(),
                &[],
            ),
            rounds: metrics.counter(
                "easeml_group_commit_rounds_total",
                "Flusher rounds that retired at least one staged journal sync.",
            ),
            commits: metrics.counter(
                "easeml_group_commit_writes_total",
                "Journal syncs retired through the group-commit queue.",
            ),
        }
    }
}

impl fmt::Debug for GroupMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GroupMetrics(..)")
    }
}

/// The shared commit queue plus its dedicated flusher thread.
///
/// Journal appends stage a sync and get a [`Waiter`] back; the flusher
/// drains the queue in rounds and issues one `sync_data` per distinct
/// journal per round. Natural batching: while one round's
/// fsync is in flight, later requests pile onto the queue and are
/// retired together in the next round.
pub struct GroupCommit {
    shared: Arc<GroupShared>,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GroupCommit(..)")
    }
}

impl GroupCommit {
    /// Spawn the flusher.
    #[must_use]
    pub(crate) fn new(metrics: Option<GroupMetrics>) -> GroupCommit {
        let shared = Arc::new(GroupShared {
            queue: Mutex::new(GroupQueue {
                staged: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("easeml-flush".to_string())
            .spawn(move || flusher_loop(&thread_shared, metrics.as_ref()))
            .expect("spawn group-commit flusher");
        GroupCommit {
            shared,
            thread: Some(thread),
        }
    }

    /// Stage a sync of `journal`; the returned waiter resolves when the
    /// flusher has made every record appended so far durable (or failed
    /// trying).
    pub(crate) fn stage(&self, journal: Arc<SharedJournal>) -> Waiter {
        let waiter = Waiter::new();
        {
            let mut queue = self.shared.queue.lock().unwrap();
            if queue.shutdown {
                drop(queue);
                waiter.complete(Err("group-commit flusher is shut down".to_string()));
                return waiter;
            }
            queue.staged.push_back(Staged {
                journal,
                waiter: waiter.clone(),
            });
        }
        self.shared.cv.notify_one();
        waiter
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn flusher_loop(shared: &GroupShared, metrics: Option<&GroupMetrics>) {
    loop {
        let batch: Vec<Staged> = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if !queue.staged.is_empty() {
                    break queue.staged.drain(..).collect();
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.cv.wait(queue).unwrap();
            }
        };
        let start = Instant::now();
        let retired = batch.len() as u64;

        // All waiter completions are held until the round's metrics are
        // recorded, so an observer woken by an ack sees the round
        // accounted for.
        let mut done: Vec<(Waiter, Result<(), String>)> = Vec::new();
        let mut syncs: Vec<(Arc<SharedJournal>, Vec<Waiter>)> = Vec::new();
        for Staged { journal, waiter } in batch {
            match syncs
                .iter_mut()
                .find(|(existing, _)| Arc::ptr_eq(existing, &journal))
            {
                Some((_, waiters)) => waiters.push(waiter),
                None => syncs.push((journal, vec![waiter])),
            }
        }
        for (journal, waiters) in syncs {
            let result = journal.flush();
            for waiter in waiters {
                done.push((waiter, result.clone()));
            }
        }

        if let Some(metrics) = metrics {
            metrics.rounds.inc();
            metrics.commits.add(retired);
            metrics.batch_size.record(retired);
            metrics
                .flush_nanos
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        for (waiter, result) in done {
            waiter.complete(result);
        }
    }
}

// The waiter a deferred append left for the current request, picked up
// by the route layer after the store call returns (same idiom as
// `obs::trace`'s per-thread slot).
thread_local! {
    static PENDING: std::cell::RefCell<Option<Waiter>> = const { std::cell::RefCell::new(None) };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Metrics;
    use crate::vfs::{FaultPlan, FaultVfs, MemVfs, OpRecord, Vfs};
    use std::path::Path;

    fn journal_on(vfs: &dyn Vfs, path: &str) -> Arc<SharedJournal> {
        let path = Path::new(path);
        vfs.create_dir_all(path.parent().expect("journal has a directory"))
            .unwrap();
        Arc::new(SharedJournal::new(vfs.open_append(path).unwrap()).unwrap())
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

    #[test]
    fn waiter_blocks_until_complete_and_replays_to_late_callbacks() {
        let w = Waiter::new();
        let w2 = w.clone();
        let t = std::thread::spawn(move || w2.wait());
        w.complete(Ok(()));
        assert_eq!(t.join().unwrap(), Ok(()));
        // A callback attached after completion runs inline.
        let seen = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        w.on_complete(move |r| *seen2.lock().unwrap() = Some(r));
        assert_eq!(*seen.lock().unwrap(), Some(Ok(())));
    }

    #[test]
    fn first_completion_wins() {
        let w = Waiter::new();
        w.complete(Ok(()));
        w.complete(Err("late".to_string()));
        assert_eq!(w.wait(), Ok(()));
    }

    #[test]
    fn flusher_batches_and_resolves_waiters() {
        let vfs = MemVfs::new();
        let journal = journal_on(&vfs, "/j/journal.log");
        let group = GroupCommit::new(None);
        journal.append(b"a\n").unwrap();
        let w1 = group.stage(Arc::clone(&journal));
        journal.append(b"b\n").unwrap();
        let w2 = group.stage(Arc::clone(&journal));
        assert_eq!(w1.wait(), Ok(()));
        assert_eq!(w2.wait(), Ok(()));
        // Both records survive a power cut: the sync covered them.
        let cut = vfs.power_cut_view();
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
        let err = group.stage(Arc::clone(&journal)).wait().unwrap_err();
        assert!(err.starts_with("group sync failed: "), "{err}");
        vfs.set_deny_writes(false);
        assert_eq!(journal.append(b"b\n").unwrap_err().status(), 503);
        assert_eq!(journal.sync_inline().unwrap_err().status(), 503);
        assert!(group.stage(Arc::clone(&journal)).wait().is_err());
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
        assert_eq!(group.stage(Arc::clone(&journal)).wait(), Ok(()));
        assert_eq!(syncs_of(&vfs.take_oplog(), "/j/journal.log"), 1);
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
        // Enqueue three staged syncs (two journals) under one queue
        // lock, so the flusher's next drain sees them as ONE round.
        let waiters: Vec<Waiter> = {
            let mut queue = group.shared.queue.lock().unwrap();
            [&ja, &ja, &jb]
                .into_iter()
                .map(|journal| {
                    let waiter = Waiter::new();
                    queue.staged.push_back(Staged {
                        journal: Arc::clone(journal),
                        waiter: waiter.clone(),
                    });
                    waiter
                })
                .collect()
        };
        group.shared.cv.notify_one();
        for waiter in &waiters {
            assert_eq!(waiter.wait(), Ok(()));
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
    }

    #[test]
    fn shutdown_drains_staged_work() {
        let vfs = MemVfs::new();
        let journal = journal_on(&vfs, "/j/journal.log");
        let group = GroupCommit::new(None);
        journal.append(b"a\n").unwrap();
        let w = group.stage(Arc::clone(&journal));
        drop(group);
        assert_eq!(w.wait(), Ok(()));
        assert_eq!(
            vfs.power_cut_view()
                .read_to_string(Path::new("/j/journal.log"))
                .unwrap(),
            "a\n"
        );
    }
}
