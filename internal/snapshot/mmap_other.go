//go:build !unix

package snapshot

// mapFile reads the snapshot into memory on platforms without a usable
// mmap.
func mapFile(path string) ([]byte, func() error, error) {
	return readFileFallback(path)
}
