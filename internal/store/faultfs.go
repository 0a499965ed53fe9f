package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrInjectedCrash is returned by every FaultFS operation at and after
// the injected crash point.
var ErrInjectedCrash = errors.New("store: injected crash")

// KeepPolicy decides how much not-yet-fsynced state survives a
// simulated crash.
type KeepPolicy int

const (
	// KeepNone loses every unsynced byte and unsynced directory
	// operation — the adversarial disk.
	KeepNone KeepPolicy = iota
	// KeepHalf keeps half of each file's unsynced bytes and the first
	// half of the unsynced directory operations — the torn-write disk.
	KeepHalf
	// KeepAll keeps everything, as if the page cache survived — the
	// lucky disk.
	KeepAll
)

func (p KeepPolicy) String() string {
	switch p {
	case KeepNone:
		return "keep-none"
	case KeepHalf:
		return "keep-half"
	case KeepAll:
		return "keep-all"
	}
	return fmt.Sprintf("KeepPolicy(%d)", int(p))
}

// FaultFS implements FS over the real filesystem while injecting
// failures and crashes for durability testing. Every mutating
// operation — Create, each Write, each Sync, Rename, Remove, Truncate,
// SyncDir, MkdirAll — consumes one op index. A test first runs its
// workload cleanly to learn the op count, then reruns it once per op
// index with SetCrashAt: at the chosen index the operation is cut
// short (a Write tears mid-record; everything else simply never
// happens), the simulated crash is materialized onto the real
// directory, and all later operations fail with ErrInjectedCrash.
//
// Materialization models a machine losing power with dirty state:
// bytes written but not Synced are truncated away per the KeepPolicy,
// and directory operations (created files, renames, removals) not yet
// covered by a SyncDir of their parent are rolled back — all of them
// under KeepNone, the later half under KeepHalf, none under KeepAll.
// The post-crash state lives on the real directory, so the test
// reopens it with the ordinary os-backed DirFS and exercises the
// production recovery path.
//
// Simplifications, deliberate: Truncate and RemoveAll apply durably at
// once (the recovery path uses them to discard data, never to commit
// it), and unsynced directory operations survive or vanish in program
// order rather than arbitrary subsets.
type FaultFS struct {
	mu      sync.Mutex
	ops     int
	crashAt int
	failAt  int
	failErr error
	crashed bool
	policy  KeepPolicy

	files  map[string]*faultFile
	dirLog []undoOp
}

// NewFaultFS returns a FaultFS with no crash or failure scheduled.
func NewFaultFS(policy KeepPolicy) *FaultFS {
	return &FaultFS{policy: policy, crashAt: -1, failAt: -1, files: map[string]*faultFile{}}
}

// SetCrashAt schedules the simulated crash at the given op index
// (-1: never).
func (ff *FaultFS) SetCrashAt(n int) {
	ff.mu.Lock()
	ff.crashAt = n
	ff.mu.Unlock()
}

// SetFailAt schedules a one-shot injected error (no crash) at the
// given op index: the operation does not happen and returns err.
func (ff *FaultFS) SetFailAt(n int, err error) {
	ff.mu.Lock()
	ff.failAt = n
	ff.failErr = err
	ff.mu.Unlock()
}

// Ops returns the number of op indices consumed so far.
func (ff *FaultFS) Ops() int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.ops
}

// Crashed reports whether the simulated crash has happened.
func (ff *FaultFS) Crashed() bool {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.crashed
}

// Crash materializes the simulated crash immediately, as if the
// process died between operations.
func (ff *FaultFS) Crash() {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if !ff.crashed {
		ff.materializeLocked()
	}
}

// step consumes one op index; a non-nil error means the operation must
// not happen.
func (ff *FaultFS) step() error {
	if ff.crashed {
		return ErrInjectedCrash
	}
	n := ff.ops
	ff.ops++
	if n == ff.failAt {
		ff.failAt = -1
		return ff.failErr
	}
	if n == ff.crashAt {
		ff.materializeLocked()
		return ErrInjectedCrash
	}
	return nil
}

// faultFile tracks one file's durability state: size is what the real
// file holds, synced how much of it an fsync has covered.
type faultFile struct {
	ff     *FaultFS
	path   string
	f      *os.File
	size   int64
	synced int64
}

const (
	uCreate = iota
	uMkdir
	uRename
	uRemove
)

// undoOp is one not-yet-durable directory operation and everything
// needed to roll it back.
type undoOp struct {
	kind       int
	path       string // created file/dir, removed file, or rename newpath
	oldpath    string // rename only
	savedNew   []byte // prior content of path (nil: did not exist)
	savedMoved []byte // rename: the bytes that moved; remove: the removed bytes
	parent     string // SyncDir on this directory makes the op durable
}

func (ff *FaultFS) MkdirAll(path string) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	ff.dirLog = append(ff.dirLog, undoOp{kind: uMkdir, path: path, parent: filepath.Dir(path)})
	return nil
}

func (ff *FaultFS) Create(path string) (FileW, error) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return nil, err
	}
	var saved []byte
	if b, err := os.ReadFile(path); err == nil {
		saved = b
	}
	//msvet:ignore fsyncrename FaultFS wraps the raw OS layer to simulate it failing
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	ff.dirLog = append(ff.dirLog, undoOp{kind: uCreate, path: path, savedNew: saved, parent: filepath.Dir(path)})
	fl := &faultFile{ff: ff, path: path, f: f}
	ff.files[path] = fl
	return fl, nil
}

func (ff *FaultFS) Rename(oldpath, newpath string) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return err
	}
	var savedNew []byte
	if b, err := os.ReadFile(newpath); err == nil {
		savedNew = b
	}
	moved, err := os.ReadFile(oldpath)
	if err != nil {
		return err
	}
	//msvet:ignore fsyncrename FaultFS wraps the raw OS layer to simulate it failing
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if fl := ff.files[oldpath]; fl != nil {
		delete(ff.files, oldpath)
		fl.path = newpath
		ff.files[newpath] = fl
	}
	ff.dirLog = append(ff.dirLog, undoOp{
		kind: uRename, path: newpath, oldpath: oldpath,
		savedNew: savedNew, savedMoved: moved, parent: filepath.Dir(newpath),
	})
	return nil
}

func (ff *FaultFS) Remove(path string) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return err
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	delete(ff.files, path)
	ff.dirLog = append(ff.dirLog, undoOp{kind: uRemove, path: path, savedMoved: saved, parent: filepath.Dir(path)})
	return nil
}

func (ff *FaultFS) RemoveAll(path string) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return err
	}
	for p := range ff.files {
		if p == path || (len(p) > len(path) && p[:len(path)] == path && p[len(path)] == filepath.Separator) {
			delete(ff.files, p)
		}
	}
	return os.RemoveAll(path)
}

func (ff *FaultFS) Truncate(path string, size int64) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return err
	}
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	if fl := ff.files[path]; fl != nil {
		fl.size = min(fl.size, size)
		fl.synced = min(fl.synced, size)
	}
	return nil
}

func (ff *FaultFS) SyncDir(path string) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return err
	}
	if err := SyncDir(path); err != nil {
		return err
	}
	kept := ff.dirLog[:0]
	for _, op := range ff.dirLog {
		if op.parent != path {
			kept = append(kept, op)
		}
	}
	ff.dirLog = kept
	return nil
}

func (fl *faultFile) Write(p []byte) (int, error) {
	ff := fl.ff
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.crashed {
		return 0, ErrInjectedCrash
	}
	n := ff.ops
	ff.ops++
	if n == ff.failAt {
		ff.failAt = -1
		return 0, ff.failErr
	}
	if n == ff.crashAt {
		// Tear the write: half of it reaches the file, then the crash.
		half := len(p) / 2
		if half > 0 {
			if k, err := fl.f.Write(p[:half]); err == nil {
				fl.size += int64(k)
			}
		}
		ff.materializeLocked()
		return 0, ErrInjectedCrash
	}
	k, err := fl.f.Write(p)
	fl.size += int64(k)
	return k, err
}

func (fl *faultFile) Sync() error {
	ff := fl.ff
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.step(); err != nil {
		return err
	}
	if err := fl.f.Sync(); err != nil {
		return err
	}
	fl.synced = fl.size
	return nil
}

func (fl *faultFile) Close() error {
	// Closing is not a durability event and consumes no op index.
	return fl.f.Close()
}

// materializeLocked turns the tracked dirty state into the post-crash
// on-disk state, in two passes: unsynced file bytes are trimmed per
// the policy, then unsynced directory operations are rolled back in
// reverse order (all under KeepNone, the later half under KeepHalf).
func (ff *FaultFS) materializeLocked() {
	ff.crashed = true
	for _, fl := range ff.files {
		if fl.f != nil {
			fl.f.Close()
		}
		keep := fl.synced
		switch ff.policy {
		case KeepHalf:
			keep += (fl.size - fl.synced) / 2
		case KeepAll:
			keep = fl.size
		}
		if keep < fl.size {
			os.Truncate(fl.path, keep) // best effort; path may be gone
		}
	}
	survive := 0
	switch ff.policy {
	case KeepAll:
		survive = len(ff.dirLog)
	case KeepHalf:
		survive = len(ff.dirLog) / 2
	}
	for i := len(ff.dirLog) - 1; i >= survive; i-- {
		op := ff.dirLog[i]
		switch op.kind {
		case uMkdir:
			os.RemoveAll(op.path)
		case uCreate:
			if op.savedNew != nil {
				//msvet:ignore fsyncrename crash-state restore rewinds files directly, durability is out of scope
				os.WriteFile(op.path, op.savedNew, 0o644)
			} else {
				os.Remove(op.path)
			}
		case uRename:
			//msvet:ignore fsyncrename crash-state restore rewinds files directly, durability is out of scope
			os.WriteFile(op.oldpath, op.savedMoved, 0o644)
			if op.savedNew != nil {
				//msvet:ignore fsyncrename crash-state restore rewinds files directly, durability is out of scope
				os.WriteFile(op.path, op.savedNew, 0o644)
			} else {
				os.Remove(op.path)
			}
		case uRemove:
			//msvet:ignore fsyncrename crash-state restore rewinds files directly, durability is out of scope
			os.WriteFile(op.path, op.savedMoved, 0o644)
		}
	}
	ff.dirLog = nil
}
