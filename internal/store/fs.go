package store

import (
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the mutating filesystem operations of the ingestion
// path — WAL segment appends, recovery repairs and compaction — so
// tests can inject write/fsync/rename failures and crash points (see
// FaultFS). Reads stay on the ordinary os layer: crash simulation
// materializes the surviving state onto the real directory before a
// reopen, so recovery code never needs an injected read path.
//
// DirFS is the production implementation over the real filesystem.
type FS interface {
	// MkdirAll creates a directory (and parents) if missing.
	MkdirAll(path string) error
	// Create opens path for writing, truncating any previous content.
	Create(path string) (FileW, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes one file.
	Remove(path string) error
	// RemoveAll deletes a path and everything under it.
	RemoveAll(path string) error
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// SyncDir fsyncs a directory so its entries (creates, renames,
	// removes) are durable. On a crash before SyncDir, a directory
	// operation may or may not have reached disk.
	SyncDir(path string) error
}

// FileW is the write surface of one FS file. Writes are durable only
// after Sync returns.
type FileW interface {
	io.Writer
	Sync() error
	Close() error
}

// DirFS returns the production FS over the real filesystem.
func DirFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

//msvet:ignore fsyncrename osFS is the FS implementation the discipline is built on
func (osFS) Create(path string) (FileW, error) { return os.Create(path) }

//msvet:ignore fsyncrename osFS is the FS implementation the discipline is built on
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncDir(path string) error { return SyncDir(path) }

// SyncDir fsyncs the directory at path, making its entries — files
// created in it, renames into it, removals from it — durable. The
// fsync-then-rename discipline is incomplete without it: a rename is
// only crash-safe once the directory holding the new entry is synced.
// Shared by the WAL, compaction and chi.idx persistence paths.
func SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// AtomicWriteFile publishes a persistent artifact at path with the
// full write-fsync-rename-dirsync discipline: write streams the
// content into path+".tmp", which is fsynced, closed, renamed over
// path, and made durable by fsyncing the parent directory. Concurrent
// writers to the same path must be serialized by the caller (the
// fixed .tmp name is deliberate — it keeps crash-simulation state
// deterministic). No cleanup runs on error paths: FaultFS crash
// points must observe exactly the state a real crash would leave, and
// a stray .tmp is simply overwritten by the next writer.
func AtomicWriteFile(fsys FS, path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	// Sync before the rename: without it a crash right after the
	// rename can publish a torn artifact under the final name.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	// The rename is only crash-durable once the directory entry is
	// fsynced too.
	return fsys.SyncDir(dirOf(path))
}

// writeFileSync writes path atomically through fsys: content lands in
// path+".tmp", is fsynced, then renamed over path. The caller syncs
// the parent directory once its batch of renames is complete.
func writeFileSync(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// dirOf returns the parent directory of path.
func dirOf(path string) string { return filepath.Dir(path) }
