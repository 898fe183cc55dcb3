package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// Output is deterministic: the same world always produces the same
// bytes.

type sectionPayload struct {
	id   uint32
	data []byte
}

// payloads assembles every section body in file order.
func (w *World) payloads() ([]sectionPayload, error) {
	metaJSON, err := json.Marshal(w.Meta)
	if err != nil {
		return nil, errf("marshal meta: %v", err)
	}
	dsJSON, err := json.Marshal(w.Datasets)
	if err != nil {
		return nil, errf("marshal datasets: %v", err)
	}
	worldJSON, err := json.Marshal(w.Domains)
	if err != nil {
		return nil, errf("marshal world: %v", err)
	}
	explains := make([][]byte, len(w.Domains))
	ledgers := make([][]byte, len(w.Domains))
	for i, dw := range w.Domains {
		explains[i], ledgers[i] = dw.Explain, dw.ledger
	}
	return []sectionPayload{
		{secMeta, metaJSON},
		{secDatasets, dsJSON},
		{secWorld, worldJSON},
		{secExplains, packBlobs(explains)},
		{secDecisions, packBlobs(ledgers)},
	}, nil
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// WriteTo serializes the world in snapshot format.
func (w *World) WriteTo(out io.Writer) (int64, error) {
	secs, err := w.payloads()
	if err != nil {
		return 0, err
	}
	h := header{
		version:     FormatVersion,
		sections:    uint32(len(secs)),
		seed:        w.Meta.Seed,
		scale:       w.Meta.Scale,
		fingerprint: fingerprint(w.Meta.GoVersion, w.Meta.Seed, w.Meta.Scale),
		tableOff:    headerSize,
	}
	tableEnd := h.tableOff + uint64(len(secs))*entrySize + 8

	// Lay out payloads: each starts at the next 8-aligned offset.
	entries := make([]byte, uint64(len(secs))*entrySize)
	cur := pad8(tableEnd)
	for i, s := range secs {
		e := entries[i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:4], s.id)
		binary.LittleEndian.PutUint32(e[4:8], 0)
		binary.LittleEndian.PutUint64(e[8:16], cur)
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.data)))
		binary.LittleEndian.PutUint64(e[24:32], checksum(s.data))
		cur = pad8(cur + uint64(len(s.data)))
	}

	var n int64
	emit := func(b []byte) error {
		if err != nil {
			return err
		}
		var m int
		m, err = out.Write(b)
		n += int64(m)
		return err
	}
	var zeros [8]byte
	padTo := func(target uint64) error {
		return emit(zeros[:target-uint64(n)])
	}
	if err := emit(encodeHeader(h)); err != nil {
		return n, err
	}
	if err := emit(entries); err != nil {
		return n, err
	}
	var crc [8]byte
	binary.LittleEndian.PutUint64(crc[:], checksum(entries))
	if err := emit(crc[:]); err != nil {
		return n, err
	}
	for i, s := range secs {
		off := binary.LittleEndian.Uint64(entries[i*entrySize+8:])
		if err := padTo(off); err != nil {
			return n, err
		}
		if err := emit(s.data); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Bytes serializes the world into memory — handy for tests and fuzz
// seeding.
func (w *World) Bytes() ([]byte, error) {
	secs, err := w.payloads()
	if err != nil {
		return nil, err
	}
	total := pad8(headerSize + uint64(len(secs))*entrySize + 8)
	for _, s := range secs {
		total = pad8(total + uint64(len(s.data)))
	}
	buf := &sliceWriter{b: make([]byte, 0, total)}
	if _, err := w.WriteTo(buf); err != nil {
		return nil, err
	}
	return buf.b, nil
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// Write atomically persists the world to path: the bytes land in a
// temporary file in the same directory, are synced, and replace any
// existing snapshot with a rename — a crash never leaves a torn file
// under the final name.
func (w *World) Write(path string) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return errf("create temp: %v", err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if _, err := w.WriteTo(f); err != nil {
		cleanup()
		return errf("write %s: %v", tmp, err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return errf("sync %s: %v", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return errf("close %s: %v", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return errf("rename %s -> %s: %v", tmp, path, err)
	}
	return nil
}
