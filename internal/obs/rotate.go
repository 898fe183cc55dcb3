package obs

import (
	"fmt"
	"os"
	"sync"
)

// RotatingFile is a size-capped NDJSON log sink: when a Write would push
// the current file past MaxBytes, the file is rotated (path → path.1 →
// path.2 …) and the oldest beyond Keep is deleted — so a sustained
// stream of triggered wide-event lines can never fill the disk. Writes are
// line-atomic under an internal mutex; a single Write is never split
// across files.
type RotatingFile struct {
	path     string
	maxBytes int64
	keep     int

	mu   sync.Mutex
	f    *os.File
	size int64
}

// DefRotateMaxBytes and DefRotateKeep are the rotation defaults used
// when the caller passes zero: 10 MiB per file, 5 rotated files kept.
const (
	DefRotateMaxBytes = 10 << 20
	DefRotateKeep     = 5
)

// OpenRotatingFile opens (appending) or creates the log at path.
// maxBytes <= 0 takes DefRotateMaxBytes; keep <= 0 takes DefRotateKeep.
func OpenRotatingFile(path string, maxBytes int64, keep int) (*RotatingFile, error) {
	if maxBytes <= 0 {
		maxBytes = DefRotateMaxBytes
	}
	if keep <= 0 {
		keep = DefRotateKeep
	}
	r := &RotatingFile{path: path, maxBytes: maxBytes, keep: keep}
	if err := r.open(); err != nil {
		return nil, err
	}
	return r, nil
}

// open opens the live file for appending and records its size.
func (r *RotatingFile) open() error {
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	r.f = f
	r.size = st.Size()
	return nil
}

// Write implements io.Writer. A write that would exceed the cap rotates
// first, so each file stays at or under MaxBytes (except a single write
// larger than the cap, which lands alone in a fresh file).
func (r *RotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return 0, fmt.Errorf("obs: rotating file %s is closed", r.path)
	}
	if r.size > 0 && r.size+int64(len(p)) > r.maxBytes {
		if err := r.rotate(); err != nil {
			return 0, err
		}
	}
	n, err := r.f.Write(p)
	r.size += int64(n)
	return n, err
}

// rotate shifts path.i → path.i+1 (dropping the one beyond keep) and
// reopens a fresh live file. Called with the mutex held.
func (r *RotatingFile) rotate() error {
	if err := r.f.Close(); err != nil {
		return err
	}
	r.f = nil
	os.Remove(fmt.Sprintf("%s.%d", r.path, r.keep))
	for i := r.keep - 1; i >= 1; i-- {
		from := fmt.Sprintf("%s.%d", r.path, i)
		if _, err := os.Stat(from); err == nil {
			os.Rename(from, fmt.Sprintf("%s.%d", r.path, i+1))
		}
	}
	if err := os.Rename(r.path, r.path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	return r.open()
}

// Close closes the live file; further Writes fail.
func (r *RotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
