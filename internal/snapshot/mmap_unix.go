//go:build unix

package snapshot

import (
	"os"
	"syscall"
)

// mapFile maps the snapshot read-only, so loading reads the payloads
// from the page cache instead of copying the whole file onto the heap
// first. Falls back to a plain read if mmap fails.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, errf("open %s: %v", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, errf("stat %s: %v", path, err)
	}
	size := st.Size()
	if size < headerSize {
		return nil, nil, errf("file truncated: %d bytes, header needs %d", size, headerSize)
	}
	if int64(int(size)) != size {
		return nil, nil, errf("file of %d bytes does not fit in memory on this platform", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return readFileFallback(path)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
