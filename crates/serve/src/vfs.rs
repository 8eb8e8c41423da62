//! Injectable filesystem facade for the durability layer.
//!
//! Every file operation [`crate::store`] performs — create, append,
//! fsync, rename, read — goes through a [`Vfs`], so the durability
//! contracts can be *falsified* under scripted faults instead of merely
//! spot-checked:
//!
//! * [`RealVfs`] — the production passthrough to [`std::fs`];
//! * [`MemVfs`] — an in-memory disk that models the fsync contract: a
//!   file's bytes split into a *durable* prefix (covered by a
//!   `sync_data`) and a *pending* tail (written but not yet synced). A
//!   simulated power cut drops exactly the pending tail; a simulated
//!   process kill keeps everything (the page cache survives the
//!   process);
//! * [`FaultVfs`] — wraps a [`MemVfs`] with a deterministic, seeded
//!   [`FaultPlan`]: fail the Nth operation (one-shot or persistently,
//!   e.g. ENOSPC), tear a write so only a prefix reaches the platter,
//!   or halt the "machine" at an exact operation index and capture the
//!   surviving disk image for reboot.
//!
//! Operation indices are counted **per project scope** (the first path
//! component below the fault root that still has components under it),
//! so a fault plan addressed to one project is deterministic even under
//! concurrent traffic to other projects — the property the
//! `EASEML_THREADS={1,4}` determinism test pins down.
//!
//! Simplifications, stated explicitly: directory entries (creation,
//! rename) are modelled as durable immediately — the interesting
//! failure surface here is *data* durability ordering, and the store
//! already survives husk directories and stale temp files by
//! construction. `rename` is atomic, as on any POSIX filesystem.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// An open file handle behind a [`Vfs`]. All writes are appends (the
/// store only ever appends or rewrites whole files via
/// [`write_atomic`]).
// `len` is fallible (it stats the file), so a clippy-suggested
// `is_empty` would be `io::Result<bool>` — noise nobody calls.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: fmt::Debug + Send {
    /// Append `buf` to the file.
    ///
    /// # Errors
    ///
    /// I/O failures, injected or real.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flush the file's contents (and size) to stable storage —
    /// `fdatasync` semantics. `&self` like [`std::fs::File::sync_data`].
    ///
    /// # Errors
    ///
    /// I/O failures, injected or real.
    fn sync_data(&self) -> io::Result<()>;

    /// Current length of the file in bytes.
    ///
    /// # Errors
    ///
    /// I/O failures.
    fn len(&self) -> io::Result<u64>;

    /// Truncate the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// I/O failures, injected or real.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// The filesystem facade. `Send + Sync` so one instance can back every
/// project slot; implementations serialize internally.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// `mkdir -p`.
    ///
    /// # Errors
    ///
    /// I/O failures, injected or real.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Read a whole file as UTF-8.
    ///
    /// # Errors
    ///
    /// I/O failures and invalid UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Entries directly under `path`, sorted (deterministic boot order).
    ///
    /// # Errors
    ///
    /// I/O failures; a missing directory is `NotFound`.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether `path` is a directory.
    fn is_dir(&self, path: &Path) -> bool;

    /// Whether `path` exists at all.
    fn exists(&self, path: &Path) -> bool;

    /// Delete a file.
    ///
    /// # Errors
    ///
    /// I/O failures; missing file is `NotFound`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Atomically rename `from` to `to` (replacing `to`).
    ///
    /// # Errors
    ///
    /// I/O failures, injected or real.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Create (truncate) a file for writing.
    ///
    /// # Errors
    ///
    /// I/O failures, injected or real.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Open (creating if absent) a file for appending.
    ///
    /// # Errors
    ///
    /// I/O failures, injected or real.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
}

/// Atomic file write through a [`Vfs`]: temp sibling + sync + rename.
///
/// # Errors
///
/// I/O failures, injected or real.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = vfs.create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    vfs.rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// RealVfs
// ---------------------------------------------------------------------------

/// The production [`Vfs`]: a passthrough to [`std::fs`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

#[derive(Debug)]
struct RealFile(std::fs::File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        self.0.write_all(buf)?;
        self.0.flush()
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for RealVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        Ok(entries)
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        )))
    }
}

// ---------------------------------------------------------------------------
// MemVfs
// ---------------------------------------------------------------------------

/// One in-memory file: a durable prefix (what a power cut keeps) and a
/// pending tail (written but not yet `sync_data`ed).
#[derive(Debug, Default, Clone)]
struct MemFile {
    durable: Vec<u8>,
    pending: Vec<u8>,
}

impl MemFile {
    fn content(&self) -> Vec<u8> {
        let mut all = self.durable.clone();
        all.extend_from_slice(&self.pending);
        all
    }

    fn len(&self) -> u64 {
        (self.durable.len() + self.pending.len()) as u64
    }
}

#[derive(Debug, Default, Clone)]
struct MemDisk {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: BTreeSet<PathBuf>,
}

/// In-memory [`Vfs`] modelling the fsync contract (see module docs).
/// Cloning the handle shares the disk; [`MemVfs::power_cut_view`] /
/// [`MemVfs::kill_view`] produce independent copies.
#[derive(Debug, Default, Clone)]
pub struct MemVfs {
    disk: Arc<Mutex<MemDisk>>,
}

impl MemVfs {
    /// A fresh, empty in-memory disk.
    #[must_use]
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemDisk> {
        self.disk.lock().expect("mem disk poisoned")
    }

    /// The disk as a *process kill* leaves it: everything ever written
    /// survives (the OS page cache outlives the process).
    #[must_use]
    pub fn kill_view(&self) -> MemVfs {
        let disk = self.lock().clone();
        MemVfs {
            disk: Arc::new(Mutex::new(disk)),
        }
    }

    /// The disk as a *power cut* leaves it: every file truncated to its
    /// durable (synced) prefix — the unsynced tail is exactly what dies.
    #[must_use]
    pub fn power_cut_view(&self) -> MemVfs {
        let mut disk = self.lock().clone();
        for file in disk.files.values_mut() {
            file.pending.clear();
        }
        MemVfs {
            disk: Arc::new(Mutex::new(disk)),
        }
    }

    /// Full logical content of a file (durable + pending), if present.
    #[must_use]
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(MemFile::content)
    }

    /// Length of the durable (synced) prefix of a file, if present.
    #[must_use]
    pub fn synced_len(&self, path: &Path) -> Option<usize> {
        self.lock().files.get(path).map(|f| f.durable.len())
    }

    /// Tear a write: flush the file's pending tail and `bytes` straight
    /// into the durable image — the platter got them even though the
    /// writing op will report failure. (A torn prefix of an append lands
    /// *after* everything already in flight for the same file, since
    /// appends hit the device in order.)
    fn torn_append(&self, path: &Path, bytes: &[u8]) {
        let mut disk = self.lock();
        let file = disk.files.entry(path.to_owned()).or_default();
        let pending = std::mem::take(&mut file.pending);
        file.durable.extend_from_slice(&pending);
        file.durable.extend_from_slice(bytes);
    }
}

#[derive(Debug)]
struct MemFileHandle {
    disk: Arc<Mutex<MemDisk>>,
    path: PathBuf,
}

impl MemFileHandle {
    fn with_file<T>(&self, f: impl FnOnce(&mut MemFile) -> T) -> io::Result<T> {
        let mut disk = self.disk.lock().expect("mem disk poisoned");
        disk.files.get_mut(&self.path).map(f).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "file removed while handle open")
        })
    }
}

impl VfsFile for MemFileHandle {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.with_file(|f| f.pending.extend_from_slice(buf))
    }

    fn sync_data(&self) -> io::Result<()> {
        self.with_file(|f| {
            let pending = std::mem::take(&mut f.pending);
            f.durable.extend_from_slice(&pending);
        })
    }

    fn len(&self) -> io::Result<u64> {
        self.with_file(|f| f.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.with_file(|f| {
            let len = usize::try_from(len).unwrap_or(usize::MAX);
            if len >= f.durable.len() {
                f.pending.truncate(len - f.durable.len());
            } else {
                f.durable.truncate(len);
                f.pending.clear();
            }
        })
    }
}

impl Vfs for MemVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut disk = self.lock();
        let mut cur = PathBuf::new();
        for comp in path.components() {
            cur.push(comp);
            disk.dirs.insert(cur.clone());
        }
        Ok(())
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let bytes = self
            .file_bytes(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "not UTF-8"))
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let disk = self.lock();
        if !disk.dirs.contains(path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such directory"));
        }
        let mut entries: Vec<PathBuf> = disk
            .files
            .keys()
            .chain(disk.dirs.iter())
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect();
        entries.sort();
        entries.dedup();
        Ok(entries)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.lock().dirs.contains(path)
    }

    fn exists(&self, path: &Path) -> bool {
        let disk = self.lock();
        disk.files.contains_key(path) || disk.dirs.contains(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.lock()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut disk = self.lock();
        let file = disk
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        disk.files.insert(to.to_owned(), file);
        Ok(())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.lock()
            .files
            .insert(path.to_owned(), MemFile::default());
        Ok(Box::new(MemFileHandle {
            disk: Arc::clone(&self.disk),
            path: path.to_owned(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.lock().files.entry(path.to_owned()).or_default();
        Ok(Box::new(MemFileHandle {
            disk: Arc::clone(&self.disk),
            path: path.to_owned(),
        }))
    }
}

// ---------------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------------

/// What kind of I/O error an injected failure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC` — no space left on device.
    Enospc,
    /// `EIO` — generic device error.
    Eio,
}

impl FaultKind {
    fn to_error(self) -> io::Error {
        match self {
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            FaultKind::Eio => io::Error::from_raw_os_error(5),
        }
    }
}

/// One scripted fault, addressed by (scope, operation index).
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// This one operation fails; later operations proceed normally.
    Fail(FaultKind),
    /// This and every later operation in the scope fails (a full disk
    /// stays full).
    FailFrom(FaultKind),
    /// The write persists only its first `keep` bytes (straight to the
    /// durable image), reports failure, and the machine halts.
    Torn {
        /// Bytes of the write that reach the platter.
        keep: usize,
    },
    /// The machine loses power *before* this operation: the durable
    /// image survives, the pending tails die.
    PowerCut,
    /// The process is killed *before* this operation: the full written
    /// image survives.
    Kill,
}

/// How a halted machine's surviving disk is derived. Recorded at halt
/// time; the view itself is computed lazily in
/// [`FaultVfs::captured_disk`] so that operations *in flight* at the
/// halt — ones that already passed their fault check and will report
/// success to the caller — land in the survivor. An eager snapshot
/// here would race them: a concurrent scope could ack a commit whose
/// covering fsync completed a microsecond after the capture, making a
/// genuinely durable commit look lost.
#[derive(Debug, Clone, Copy)]
enum HaltView {
    /// Power cut: only durable (synced) prefixes survive.
    PowerCut,
    /// Process kill: everything written survives (page cache outlives
    /// the process).
    Kill,
}

/// A deterministic fault schedule: scope → operation index → fault.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    faults: HashMap<String, BTreeMap<u64, Fault>>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `fault` at the `index`-th counted operation of `scope`
    /// (`""` is the root scope: registry-level files).
    #[must_use]
    pub fn at(mut self, scope: &str, index: u64, fault: Fault) -> FaultPlan {
        self.faults
            .entry(scope.to_owned())
            .or_default()
            .insert(index, fault);
        self
    }

    fn lookup(&self, scope: &str, index: u64) -> Option<Fault> {
        let per_scope = self.faults.get(scope)?;
        if let Some(f) = per_scope.get(&index) {
            return Some(*f);
        }
        // Persistent faults cover every index at or past their start.
        per_scope
            .range(..=index)
            .rev()
            .find(|(_, f)| matches!(f, Fault::FailFrom(_)))
            .map(|(_, f)| *f)
    }
}

/// Which operation a [`FaultVfs`] counted (recorded when the op log is
/// enabled; the matrix harness uses it to enumerate kill points).
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Scope the operation was counted under.
    pub scope: String,
    /// Index within the scope (the fault-plan address).
    pub index: u64,
    /// Operation name (`create`, `write`, `sync`, …).
    pub kind: &'static str,
    /// Path the operation addressed.
    pub path: PathBuf,
    /// Payload length for writes, 0 otherwise.
    pub len: usize,
}

#[derive(Debug)]
struct FaultState {
    disk: MemVfs,
    root: PathBuf,
    plan: Mutex<FaultPlan>,
    counters: Mutex<HashMap<String, u64>>,
    /// Once the simulated machine halts, every later op fails.
    dead: AtomicBool,
    /// Set (once) when a halting fault fires; see [`HaltView`].
    halted_as: Mutex<Option<HaltView>>,
    /// Runtime toggle: fail every mutating op with ENOSPC (a disk that
    /// filled up mid-flight), without halting the machine.
    deny_writes: AtomicBool,
    record: AtomicBool,
    oplog: Mutex<Vec<OpRecord>>,
}

/// A [`MemVfs`] wrapped with a deterministic fault schedule. Cheap to
/// clone (shared state).
#[derive(Debug, Clone)]
pub struct FaultVfs {
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// A fault VFS over a fresh in-memory disk. `root` is the data
    /// directory: project scopes are resolved relative to it.
    #[must_use]
    pub fn new(root: &Path, plan: FaultPlan) -> FaultVfs {
        FaultVfs::with_disk(root, MemVfs::new(), plan)
    }

    /// A fault VFS over an existing disk image (reboot a captured view).
    #[must_use]
    pub fn with_disk(root: &Path, disk: MemVfs, plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            state: Arc::new(FaultState {
                disk,
                root: root.to_owned(),
                plan: Mutex::new(plan),
                counters: Mutex::new(HashMap::new()),
                dead: AtomicBool::new(false),
                halted_as: Mutex::new(None),
                deny_writes: AtomicBool::new(false),
                record: AtomicBool::new(false),
                oplog: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The live disk handle (shared — mutations keep flowing through).
    #[must_use]
    pub fn disk(&self) -> MemVfs {
        self.state.disk.clone()
    }

    /// The disk image that survives the halt, if the machine has
    /// halted. Computed from the live disk at call time — call only
    /// after all client threads have joined, so operations that were
    /// in flight at the halt (already past their fault check, about to
    /// report success) are reflected; see `HaltView`.
    #[must_use]
    pub fn captured_disk(&self) -> Option<MemVfs> {
        let view = *self.state.halted_as.lock().expect("halt poisoned");
        view.map(|view| match view {
            HaltView::PowerCut => self.state.disk.power_cut_view(),
            HaltView::Kill => self.state.disk.kill_view(),
        })
    }

    /// Whether a `Kill`/`PowerCut`/`Torn` fault has halted the machine.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.state.dead.load(Ordering::SeqCst)
    }

    /// Toggle ENOSPC-on-every-mutation (runtime fault for degraded-mode
    /// tests; independent of the scripted plan).
    pub fn set_deny_writes(&self, deny: bool) {
        self.state.deny_writes.store(deny, Ordering::SeqCst);
    }

    /// Start recording an [`OpRecord`] log of counted operations.
    pub fn start_recording(&self) {
        self.state.record.store(true, Ordering::SeqCst);
    }

    /// Stop recording and take the accumulated op log.
    #[must_use]
    pub fn take_oplog(&self) -> Vec<OpRecord> {
        self.state.record.store(false, Ordering::SeqCst);
        std::mem::take(&mut self.state.oplog.lock().expect("oplog poisoned"))
    }

    /// Operation count so far in `scope`.
    #[must_use]
    pub fn op_count(&self, scope: &str) -> u64 {
        self.state
            .counters
            .lock()
            .expect("counters poisoned")
            .get(scope)
            .copied()
            .unwrap_or(0)
    }

    fn scope_of(state: &FaultState, path: &Path) -> String {
        let Ok(rel) = path.strip_prefix(&state.root) else {
            return String::new();
        };
        let mut comps = rel.components();
        // Project state lives under `projects/<name>/…`; everything else
        // (cache dumps, the `projects` dir itself) is root-scoped.
        match (comps.next(), comps.next()) {
            (Some(first), Some(name)) if first.as_os_str() == "projects" => {
                name.as_os_str().to_string_lossy().into_owned()
            }
            _ => String::new(),
        }
    }

    /// Count one operation and apply any scheduled fault. `write`
    /// carries the payload for `Torn` handling.
    fn check(&self, kind: &'static str, path: &Path, write: Option<&[u8]>) -> io::Result<()> {
        let state = &*self.state;
        if state.dead.load(Ordering::SeqCst) {
            return Err(io::Error::other("simulated machine halt"));
        }
        let scope = Self::scope_of(state, path);
        let index = {
            let mut counters = state.counters.lock().expect("counters poisoned");
            let slot = counters.entry(scope.clone()).or_insert(0);
            let index = *slot;
            *slot += 1;
            index
        };
        if state.record.load(Ordering::SeqCst) {
            state.oplog.lock().expect("oplog poisoned").push(OpRecord {
                scope: scope.clone(),
                index,
                kind,
                path: path.to_owned(),
                len: write.map_or(0, <[u8]>::len),
            });
        }
        let mutating = !matches!(kind, "read" | "list_dir");
        if mutating && state.deny_writes.load(Ordering::SeqCst) {
            return Err(FaultKind::Enospc.to_error());
        }
        let fault = state
            .plan
            .lock()
            .expect("plan poisoned")
            .lookup(&scope, index);
        match fault {
            None => Ok(()),
            Some(Fault::Fail(kind) | Fault::FailFrom(kind)) => Err(kind.to_error()),
            Some(Fault::Torn { keep }) => {
                if let Some(buf) = write {
                    state.disk.torn_append(path, &buf[..keep.min(buf.len())]);
                }
                self.halt(HaltView::PowerCut);
                Err(io::Error::other("simulated power cut (torn write)"))
            }
            Some(Fault::PowerCut) => {
                self.halt(HaltView::PowerCut);
                Err(io::Error::other("simulated power cut"))
            }
            Some(Fault::Kill) => {
                self.halt(HaltView::Kill);
                Err(io::Error::other("simulated process kill"))
            }
        }
    }

    fn halt(&self, view: HaltView) {
        let state = &*self.state;
        let mut halted = state.halted_as.lock().expect("halt poisoned");
        if halted.is_none() {
            *halted = Some(view);
        }
        state.dead.store(true, Ordering::SeqCst);
    }
}

#[derive(Debug)]
struct FaultFile {
    vfs: FaultVfs,
    inner: Box<dyn VfsFile>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.vfs.check("write", &self.path, Some(buf))?;
        self.inner.write_all(buf)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.vfs.check("sync", &self.path, None)?;
        self.inner.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        // Pure query: not a counted operation.
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.vfs.check("set_len", &self.path, None)?;
        self.inner.set_len(len)
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check("create_dir", path, None)?;
        self.state.disk.create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.check("read", path, None)?;
        self.state.disk.read_to_string(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.check("list_dir", path, None)?;
        self.state.disk.list_dir(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.state.disk.is_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.disk.exists(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check("remove", path, None)?;
        self.state.disk.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check("rename", from, None)?;
        self.state.disk.rename(from, to)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check("create", path, None)?;
        let inner = self.state.disk.create(path)?;
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            inner,
            path: path.to_owned(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check("open_append", path, None)?;
        let inner = self.state.disk.open_append(path)?;
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            inner,
            path: path.to_owned(),
        }))
    }
}

// ---------------------------------------------------------------------------
// MeteredVfs
// ---------------------------------------------------------------------------

/// A counting wrapper over any [`Vfs`]: every operation is delegated
/// unchanged (zero semantic change to the wrapped implementation —
/// [`FaultVfs`] op indices, [`MemVfs`] durability modelling, and
/// [`RealVfs`] behavior are all preserved) while per-op counts, byte
/// totals, latency histograms, and journal/snapshot rollups feed the
/// observability registry. `sync_data` calls additionally report into
/// the active request trace's fsync stage.
///
/// [`crate::server::Server::bind`] wraps whatever `Vfs` the config
/// supplies in one of these, so the durability layer is metered both in
/// production (`RealVfs`) and under injected faults.
#[derive(Debug, Clone)]
pub struct MeteredVfs {
    inner: Arc<dyn Vfs>,
    metrics: crate::obs::VfsMetrics,
}

/// What a metered file handle is writing to, decided once at open time
/// so the append hot path never re-inspects paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MeteredKind {
    Journal,
    Other,
}

fn metered_kind(path: &Path) -> MeteredKind {
    if path.file_name().is_some_and(|n| n == "journal.log") {
        MeteredKind::Journal
    } else {
        MeteredKind::Other
    }
}

#[derive(Debug)]
struct MeteredFile {
    inner: Box<dyn VfsFile>,
    metrics: crate::obs::VfsMetrics,
    kind: MeteredKind,
}

impl MeteredVfs {
    /// Wrap `inner`, reporting into `metrics`.
    #[must_use]
    pub fn new(inner: Arc<dyn Vfs>, metrics: crate::obs::VfsMetrics) -> MeteredVfs {
        MeteredVfs { inner, metrics }
    }

    fn wrap(&self, inner: Box<dyn VfsFile>, path: &Path) -> Box<dyn VfsFile> {
        Box::new(MeteredFile {
            inner,
            metrics: self.metrics.clone(),
            kind: metered_kind(path),
        })
    }
}

impl VfsFile for MeteredFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use crate::obs::VfsOp;
        self.metrics.op(VfsOp::Write);
        let start = std::time::Instant::now();
        let result = self.inner.write_all(buf);
        self.metrics
            .write_latency(crate::obs::trace::ns(start.elapsed()));
        if result.is_ok() {
            self.metrics.write_bytes_total.add(buf.len() as u64);
            if self.kind == MeteredKind::Journal {
                self.metrics.journal_appends_total.inc();
                self.metrics.journal_bytes_total.add(buf.len() as u64);
            }
        }
        result
    }

    fn sync_data(&self) -> io::Result<()> {
        use crate::obs::trace::{self, Stage};
        use crate::obs::VfsOp;
        self.metrics.op(VfsOp::Sync);
        let start = std::time::Instant::now();
        let result = self.inner.sync_data();
        let elapsed = start.elapsed();
        self.metrics.sync_latency(trace::ns(elapsed));
        trace::add(Stage::Fsync, elapsed);
        if result.is_ok() && self.kind == MeteredKind::Journal {
            self.metrics.journal_fsyncs_total.inc();
        }
        result
    }

    fn len(&self) -> io::Result<u64> {
        self.metrics.op(crate::obs::VfsOp::Stat);
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.metrics.op(crate::obs::VfsOp::SetLen);
        self.inner.set_len(len)
    }
}

impl Vfs for MeteredVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.metrics.op(crate::obs::VfsOp::Mkdir);
        self.inner.create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.metrics.op(crate::obs::VfsOp::Read);
        self.inner.read_to_string(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.metrics.op(crate::obs::VfsOp::Stat);
        self.inner.list_dir(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.metrics.op(crate::obs::VfsOp::Stat);
        self.inner.is_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.metrics.op(crate::obs::VfsOp::Stat);
        self.inner.exists(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.metrics.op(crate::obs::VfsOp::Remove);
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.metrics.op(crate::obs::VfsOp::Rename);
        let result = self.inner.rename(from, to);
        if result.is_ok() && to.file_name().is_some_and(|n| n == "snapshot.json") {
            self.metrics.snapshot_writes_total.inc();
        }
        result
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.metrics.op(crate::obs::VfsOp::Create);
        Ok(self.wrap(self.inner.create(path)?, path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.metrics.op(crate::obs::VfsOp::OpenAppend);
        Ok(self.wrap(self.inner.open_append(path)?, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_models_fsync_boundary() {
        let vfs = MemVfs::new();
        let path = Path::new("/d/journal.log");
        vfs.create_dir_all(Path::new("/d")).unwrap();
        let mut f = vfs.open_append(path).unwrap();
        f.write_all(b"synced\n").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"pending\n").unwrap();
        assert_eq!(f.len().unwrap(), 15);

        // Kill keeps everything; power cut drops exactly the unsynced tail.
        assert_eq!(
            vfs.kill_view().file_bytes(path).unwrap(),
            b"synced\npending\n"
        );
        assert_eq!(vfs.power_cut_view().file_bytes(path).unwrap(), b"synced\n");
        // The live disk is unaffected by taking views.
        assert_eq!(vfs.file_bytes(path).unwrap(), b"synced\npending\n");
        assert_eq!(vfs.synced_len(path).unwrap(), 7);
    }

    #[test]
    fn mem_vfs_set_len_truncates_across_boundary() {
        let vfs = MemVfs::new();
        let path = Path::new("/f");
        let mut f = vfs.create(path).unwrap();
        f.write_all(b"abcd").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"efgh").unwrap();
        f.set_len(6).unwrap();
        assert_eq!(vfs.file_bytes(path).unwrap(), b"abcdef");
        f.set_len(2).unwrap();
        assert_eq!(vfs.file_bytes(path).unwrap(), b"ab");
        assert_eq!(vfs.synced_len(path).unwrap(), 2);
    }

    #[test]
    fn mem_vfs_rename_and_listing() {
        let vfs = MemVfs::new();
        vfs.create_dir_all(Path::new("/data/projects/p")).unwrap();
        let mut f = vfs.create(Path::new("/data/projects/p/a.tmp")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_data().unwrap();
        vfs.rename(
            Path::new("/data/projects/p/a.tmp"),
            Path::new("/data/projects/p/a.json"),
        )
        .unwrap();
        assert!(vfs.exists(Path::new("/data/projects/p/a.json")));
        assert!(!vfs.exists(Path::new("/data/projects/p/a.tmp")));
        let listed = vfs.list_dir(Path::new("/data/projects")).unwrap();
        assert_eq!(listed, vec![PathBuf::from("/data/projects/p")]);
        assert!(vfs.is_dir(Path::new("/data/projects/p")));
    }

    #[test]
    fn fault_vfs_scopes_and_counts_per_project() {
        let root = Path::new("/data");
        let vfs = FaultVfs::new(root, FaultPlan::new());
        vfs.create_dir_all(Path::new("/data/projects")).unwrap(); // root scope
        vfs.create_dir_all(Path::new("/data/projects/alpha"))
            .unwrap(); // alpha scope
        let mut fa = vfs.create(Path::new("/data/projects/alpha/j")).unwrap();
        let mut fb = vfs.create(Path::new("/data/projects/beta/j")).unwrap();
        fa.write_all(b"a").unwrap();
        fa.write_all(b"a").unwrap();
        fb.write_all(b"b").unwrap();
        assert_eq!(vfs.op_count("alpha"), 4); // create_dir + create + 2 writes
        assert_eq!(vfs.op_count("beta"), 2); // create + write
                                             // Root-level entries are root-scoped.
        vfs.create(Path::new("/data/cache.v1")).unwrap();
        assert_eq!(vfs.op_count(""), 2); // projects dir + cache file
    }

    #[test]
    fn fault_fail_nth_is_one_shot_and_fail_from_is_sticky() {
        let root = Path::new("/d");
        let plan = FaultPlan::new().at("", 1, Fault::Fail(FaultKind::Eio)).at(
            "",
            3,
            Fault::FailFrom(FaultKind::Enospc),
        );
        let vfs = FaultVfs::new(root, plan);
        let p = Path::new("/d/f");
        assert!(vfs.create(p).is_ok()); // op 0
        let err = vfs.create(p).unwrap_err(); // op 1: EIO
        assert_eq!(err.raw_os_error(), Some(5));
        assert!(vfs.create(p).is_ok()); // op 2
        let err = vfs.create(p).unwrap_err(); // op 3: ENOSPC, sticky
        assert_eq!(err.raw_os_error(), Some(28));
        let err = vfs.create(p).unwrap_err(); // op 4: still ENOSPC
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(!vfs.halted());
    }

    #[test]
    fn torn_write_persists_prefix_and_halts() {
        let root = Path::new("/d");
        // Ops: 0 create, 1 write (synced base), 2 sync, 3 torn write.
        let plan = FaultPlan::new().at("", 3, Fault::Torn { keep: 4 });
        let vfs = FaultVfs::new(root, plan);
        let p = Path::new("/d/journal");
        let mut f = vfs.create(p).unwrap();
        f.write_all(b"base\n").unwrap();
        f.sync_data().unwrap();
        assert!(f.write_all(b"doomed-line\n").is_err());
        assert!(vfs.halted());
        let survivor = vfs.captured_disk().unwrap();
        assert_eq!(survivor.file_bytes(p).unwrap(), b"base\ndoom");
        // Post-halt, every operation fails.
        assert!(vfs.create(Path::new("/d/other")).is_err());
    }

    #[test]
    fn power_cut_capture_drops_unsynced_tail() {
        let root = Path::new("/d");
        // Ops: 0 create, 1 write, 2 sync, 3 write, 4 power cut (on sync).
        let plan = FaultPlan::new().at("", 4, Fault::PowerCut);
        let vfs = FaultVfs::new(root, plan);
        let p = Path::new("/d/j");
        let mut f = vfs.create(p).unwrap();
        f.write_all(b"ok\n").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"lost\n").unwrap();
        assert!(f.sync_data().is_err());
        let survivor = vfs.captured_disk().unwrap();
        assert_eq!(survivor.file_bytes(p).unwrap(), b"ok\n");
        // Kill would have kept it all: check on a twin schedule.
        let plan = FaultPlan::new().at("", 4, Fault::Kill);
        let vfs = FaultVfs::new(root, plan);
        let mut f = vfs.create(p).unwrap();
        f.write_all(b"ok\n").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"kept\n").unwrap();
        assert!(f.sync_data().is_err());
        assert_eq!(
            vfs.captured_disk().unwrap().file_bytes(p).unwrap(),
            b"ok\nkept\n"
        );
    }

    #[test]
    fn deny_writes_is_enospc_and_reversible() {
        let root = Path::new("/d");
        let vfs = FaultVfs::new(root, FaultPlan::new());
        let p = Path::new("/d/f");
        let mut f = vfs.create(p).unwrap();
        vfs.set_deny_writes(true);
        assert_eq!(f.write_all(b"x").unwrap_err().raw_os_error(), Some(28));
        assert!(vfs.read_to_string(p).is_ok(), "reads still work");
        vfs.set_deny_writes(false);
        f.write_all(b"x").unwrap();
    }

    #[test]
    fn write_atomic_is_sync_then_rename() {
        let vfs = MemVfs::new();
        let path = Path::new("/d/record.json");
        write_atomic(&vfs, path, b"{}").unwrap();
        assert_eq!(vfs.file_bytes(path).unwrap(), b"{}");
        assert_eq!(vfs.synced_len(path).unwrap(), 2, "synced before rename");
        assert!(!vfs.exists(Path::new("/d/record.tmp")));
    }

    #[test]
    fn metered_vfs_counts_without_changing_behavior() {
        let metrics = crate::obs::ServeMetrics::new(&[]);
        let mem = MemVfs::new();
        let vfs = MeteredVfs::new(Arc::new(mem), metrics.vfs.clone());
        let dir = Path::new("/p/projects/demo");
        vfs.create_dir_all(dir).unwrap();
        let journal = dir.join("journal.log");
        let mut f = vfs.open_append(&journal).unwrap();
        f.write_all(b"op-1\n").unwrap();
        f.write_all(b"op-2\n").unwrap();
        f.sync_data().unwrap();
        write_atomic(&vfs, &dir.join("snapshot.json"), b"{}").unwrap();
        assert_eq!(vfs.read_to_string(&journal).unwrap(), "op-1\nop-2\n");

        assert_eq!(metrics.vfs.journal_appends_total.get(), 2);
        assert_eq!(metrics.vfs.journal_bytes_total.get(), 10);
        assert_eq!(metrics.vfs.journal_fsyncs_total.get(), 1);
        assert_eq!(metrics.vfs.snapshot_writes_total.get(), 1);
        assert_eq!(
            metrics.vfs.write_bytes_total.get(),
            12,
            "journal + snapshot"
        );
        // The underlying disk is untouched semantically: the snapshot
        // temp file is gone and the journal bytes are exact.
        assert!(!vfs.exists(&dir.join("snapshot.tmp")));
    }

    #[test]
    fn metered_fault_vfs_preserves_op_indices() {
        // Wrapping a FaultVfs must not shift its per-scope op counting:
        // the same workload counts the same ops and the same scripted
        // fault fires at the same index, metered or not.
        let root = Path::new("/m");
        let run = |metered: bool| -> (u64, Vec<bool>) {
            let fvfs = FaultVfs::new(
                root,
                FaultPlan::new().at("demo", 3, Fault::Fail(FaultKind::Enospc)),
            );
            let vfs: Arc<dyn Vfs> = if metered {
                let metrics = crate::obs::ServeMetrics::new(&[]);
                Arc::new(MeteredVfs::new(Arc::new(fvfs.clone()), metrics.vfs.clone()))
            } else {
                Arc::new(fvfs.clone())
            };
            vfs.create_dir_all(Path::new("/m/projects/demo")).unwrap();
            let path = Path::new("/m/projects/demo/journal.log");
            let mut f = vfs.open_append(path).unwrap();
            let outcomes = vec![
                f.write_all(b"a\n").is_ok(),
                f.write_all(b"b\n").is_ok(),
                f.sync_data().is_ok(),
            ];
            (fvfs.op_count("demo"), outcomes)
        };
        let bare = run(false);
        let metered = run(true);
        assert_eq!(bare, metered, "metering shifted fault-plan op indices");
        assert!(bare.1.contains(&false), "the scripted fault fired");
    }
}
