//! A tmpfs-like in-memory filesystem behind the server's `Vfs` seam,
//! which holds the server's data directory.
//!
//! The benchmark reads and writes nothing outside the directory it runs
//! in, so the data cannot live on `/dev/shm`; the checkout's own disk is
//! a journalled filesystem on a virtual disk, where `fsync` alone swings
//! throughput by more than 2x and every created file or directory costs
//! a journalled block allocation (about 1 ms of kernel time per
//! registration, four times the estimator's work). Like tmpfs, this disk
//! makes `fsync` free, makes creating a file or a directory a map insert,
//! and keeps an open handle writing to its file across a rename (an
//! inode, not a path). So the numbers measure the program, not the disk;
//! the price is that the store's file operations are this module's, not
//! `RealVfs`'s system calls, and that the data directory counts toward
//! the process's resident memory.

use easeml_serve::vfs::{Vfs, VfsFile};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A file's bytes as the chunks they were written in, so appending to a
/// large journal never reallocates and copies the whole file (tmpfs
/// appends pages; it does not move the file).
#[derive(Debug, Default)]
struct Chunks {
    chunks: Vec<Vec<u8>>,
    len: usize,
}

impl Chunks {
    fn append(&mut self, bytes: &[u8]) {
        self.chunks.push(bytes.to_vec());
        self.len += bytes.len();
    }

    fn truncate(&mut self, len: usize) {
        while self.len > len {
            let last = self.chunks.last_mut().expect("non-empty");
            let cut = (self.len - len).min(last.len());
            last.truncate(last.len() - cut);
            self.len -= cut;
            if last.is_empty() {
                self.chunks.pop();
            }
        }
        if len > self.len {
            self.append(&vec![0; len - self.len]);
        }
    }

    fn to_vec(&self) -> Vec<u8> {
        self.chunks.concat()
    }
}

type Content = Arc<Mutex<Chunks>>;

#[derive(Debug, Default)]
struct Tree {
    files: HashMap<PathBuf, Content>,
    /// Every directory with its entries (files and subdirectories).
    dirs: HashMap<PathBuf, BTreeSet<PathBuf>>,
}

impl Tree {
    fn link(&mut self, path: &Path) {
        if let Some(parent) = path.parent() {
            self.dirs
                .entry(parent.to_owned())
                .or_default()
                .insert(path.to_owned());
        }
    }

    fn unlink(&mut self, path: &Path) {
        if let Some(entries) = path.parent().and_then(|p| self.dirs.get_mut(p)) {
            entries.remove(path);
        }
    }
}

/// The in-memory disk; clones share it.
#[derive(Debug, Default, Clone)]
pub struct RamDisk {
    tree: Arc<Mutex<Tree>>,
}

fn not_found() -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, "no such file or directory")
}

impl RamDisk {
    fn lock(&self) -> MutexGuard<'_, Tree> {
        self.tree.lock().expect("ram disk poisoned")
    }

    /// Bytes of every file under `dir`.
    pub fn bytes_under(&self, dir: &Path) -> u64 {
        let tree = self.lock();
        let mut total = 0;
        let mut stack = vec![dir.to_owned()];
        while let Some(d) = stack.pop() {
            for entry in tree.dirs.get(&d).into_iter().flatten() {
                match tree.files.get(entry) {
                    Some(content) => total += content.lock().expect("file").len as u64,
                    None => stack.push(entry.clone()),
                }
            }
        }
        total
    }
}

#[derive(Debug)]
struct Handle(Content);

impl VfsFile for Handle {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.lock().expect("file").append(buf);
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.lock().expect("file").len as u64)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(|_| not_found())?;
        self.0.lock().expect("file").truncate(len);
        Ok(())
    }
}

impl Vfs for RamDisk {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.lock();
        let mut cur = PathBuf::new();
        for component in path.components() {
            cur.push(component);
            if !tree.dirs.contains_key(&cur) {
                tree.dirs.insert(cur.clone(), BTreeSet::new());
                tree.link(&cur);
            }
        }
        Ok(())
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let content = self.lock().files.get(path).cloned().ok_or_else(not_found)?;
        let bytes = content.lock().expect("file").to_vec();
        String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "not UTF-8"))
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let tree = self.lock();
        let entries = tree.dirs.get(path).ok_or_else(not_found)?;
        Ok(entries.iter().cloned().collect())
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.lock().dirs.contains_key(path)
    }

    fn exists(&self, path: &Path) -> bool {
        let tree = self.lock();
        tree.files.contains_key(path) || tree.dirs.contains_key(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.lock();
        tree.files.remove(path).ok_or_else(not_found)?;
        tree.unlink(path);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = self.lock();
        let content = tree.files.remove(from).ok_or_else(not_found)?;
        tree.unlink(from);
        tree.files.insert(to.to_owned(), content);
        tree.link(to);
        Ok(())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let content = Content::default();
        let mut tree = self.lock();
        tree.files.insert(path.to_owned(), Arc::clone(&content));
        tree.link(path);
        Ok(Box::new(Handle(content)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut tree = self.lock();
        let content = match tree.files.get(path) {
            Some(content) => Arc::clone(content),
            None => {
                let content = Content::default();
                tree.files.insert(path.to_owned(), Arc::clone(&content));
                tree.link(path);
                content
            }
        };
        Ok(Box::new(Handle(content)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_filesystem() {
        let disk = RamDisk::default();
        let dir = Path::new("d/projects/p");
        disk.create_dir_all(dir).unwrap();
        let mut journal = disk.open_append(&dir.join("journal.log")).unwrap();
        journal.write_all(b"one\n").unwrap();
        let mut tmp = disk.create(&dir.join("snap.tmp")).unwrap();
        tmp.write_all(b"{}").unwrap();
        disk.rename(&dir.join("snap.tmp"), &dir.join("snapshot.json"))
            .unwrap();
        journal.write_all(b"two\n").unwrap();
        assert_eq!(
            disk.list_dir(dir).unwrap(),
            vec![dir.join("journal.log"), dir.join("snapshot.json")]
        );
        assert_eq!(
            disk.list_dir(Path::new("d/projects")).unwrap(),
            vec![dir.to_owned()]
        );
        assert_eq!(
            disk.read_to_string(&dir.join("journal.log")).unwrap(),
            "one\ntwo\n"
        );
        assert!(disk.is_dir(dir) && !disk.is_dir(&dir.join("snapshot.json")));
        assert!(!disk.exists(&dir.join("snap.tmp")));
        assert_eq!(disk.bytes_under(Path::new("d")), 8 + 2);
        journal.set_len(6).unwrap();
        assert_eq!(
            disk.read_to_string(&dir.join("journal.log")).unwrap(),
            "one\ntw"
        );
        journal.set_len(8).unwrap();
        assert_eq!(journal.len().unwrap(), 8);
        disk.remove_file(&dir.join("snapshot.json")).unwrap();
        assert!(disk.list_dir(Path::new("missing")).is_err());
    }
}
