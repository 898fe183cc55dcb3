// Package snapshot persists a fully built WebIQ world — the generated
// datasets and, per domain, the unified interface, acquisition report
// and decision ledger — in a versioned, checksum-gated binary file, so
// a server boots what the offline pipeline built without rerunning it.
// The surface-web corpus is not stored: only acquisition searches it,
// and acquisition regenerates it from the seed.
//
// File layout (all integers little-endian, fixed width):
//
//	offset  size  field
//	0       8     magic "WIQSNAP\x00"
//	8       4     format version (uint32)
//	12      4     section count (uint32)
//	16      8     build seed (int64)
//	24      8     corpus scale (float64 bits)
//	32      8     build fingerprint (uint64; see fingerprint)
//	40      8     section table offset (uint64; 64 as written)
//	48      8     reserved (0)
//	56      8     CRC64-ECMA of header bytes [0,56)
//
// The section table is an array of 32-byte entries
//
//	{id uint32, reserved uint32, off uint64, len uint64, crc uint64}
//
// followed by one trailing CRC64 over all entry bytes. Every section
// payload starts at an 8-byte-aligned file offset (zero padding between
// sections) and carries its own CRC64, verified in full on every load.
// Any mismatch — magic, version, bounds, alignment, checksum — is a
// hard refusal with a descriptive error, never a panic.
//
// Versioning policy: readers require an exact format-version match and
// the presence of every section they know; unknown section IDs are
// ignored, so additive extensions need no version bump. Any change to
// the header, an existing section's layout, or the meaning of its
// contents bumps FormatVersion.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
)

// Magic identifies a WebIQ snapshot file.
const Magic = "WIQSNAP\x00"

// FormatVersion is the snapshot format this build reads and writes.
const FormatVersion = 2

const (
	headerSize  = 64
	entrySize   = 32
	maxSections = 1024 // sanity bound against corrupt counts
)

// Section IDs, in file order. IDs 2-15 are retired (format version 1
// stored the search index there); do not reuse them.
const (
	secMeta     uint32 = 1  // build metadata (JSON)
	secDatasets uint32 = 16 // post-acquisition datasets (JSON)
	secWorld    uint32 = 17 // unified interfaces + ledgers + reports (JSON)
)

// sectionNames maps IDs to the names webiq-snapshot info prints.
var sectionNames = map[uint32]string{
	secMeta: "meta", secDatasets: "datasets", secWorld: "world",
}

// requiredSections lists every section a reader needs, in the order
// the writer emits them.
var requiredSections = []uint32{secMeta, secDatasets, secWorld}

// SectionName returns the human-readable name of a section ID.
func SectionName(id uint32) string {
	if n, ok := sectionNames[id]; ok {
		return n
	}
	return fmt.Sprintf("unknown-%d", id)
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func checksum(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// header is the decoded fixed-width file header.
type header struct {
	version     uint32
	sections    uint32
	seed        int64
	scale       float64
	fingerprint uint64
	tableOff    uint64
}

func errf(format string, args ...any) error {
	return fmt.Errorf("snapshot: "+format, args...)
}

func encodeHeader(h header) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], Magic)
	binary.LittleEndian.PutUint32(buf[8:12], h.version)
	binary.LittleEndian.PutUint32(buf[12:16], h.sections)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.seed))
	binary.LittleEndian.PutUint64(buf[24:32], math.Float64bits(h.scale))
	binary.LittleEndian.PutUint64(buf[32:40], h.fingerprint)
	binary.LittleEndian.PutUint64(buf[40:48], h.tableOff)
	binary.LittleEndian.PutUint64(buf[48:56], 0)
	binary.LittleEndian.PutUint64(buf[56:64], checksum(buf[:56]))
	return buf
}

func decodeHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, errf("file truncated: %d bytes, header needs %d", len(data), headerSize)
	}
	if string(data[0:8]) != Magic {
		return h, errf("bad magic %q: not a WebIQ snapshot", data[0:8])
	}
	if got, want := binary.LittleEndian.Uint64(data[56:64]), checksum(data[:56]); got != want {
		return h, errf("header checksum mismatch: file %#x, computed %#x", got, want)
	}
	h.version = binary.LittleEndian.Uint32(data[8:12])
	if h.version != FormatVersion {
		return h, errf("format version %d, this build reads %d", h.version, FormatVersion)
	}
	h.sections = binary.LittleEndian.Uint32(data[12:16])
	if h.sections == 0 || h.sections > maxSections {
		return h, errf("implausible section count %d", h.sections)
	}
	h.seed = int64(binary.LittleEndian.Uint64(data[16:24]))
	h.scale = math.Float64frombits(binary.LittleEndian.Uint64(data[24:32]))
	h.fingerprint = binary.LittleEndian.Uint64(data[32:40])
	h.tableOff = binary.LittleEndian.Uint64(data[40:48])
	return h, nil
}

// SectionInfo describes one section-table entry.
type SectionInfo struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
	Off  uint64 `json:"off"`
	Len  uint64 `json:"len"`
	CRC  uint64 `json:"crc"`
}

// decodeTable parses and checksums the section table.
func decodeTable(data []byte, h header) ([]SectionInfo, error) {
	n := uint64(h.sections)
	end := h.tableOff + n*entrySize + 8
	if h.tableOff < headerSize || end < h.tableOff || end > uint64(len(data)) {
		return nil, errf("section table [%d,%d) outside file of %d bytes", h.tableOff, end, len(data))
	}
	entries := data[h.tableOff : h.tableOff+n*entrySize]
	if got, want := binary.LittleEndian.Uint64(data[end-8:end]), checksum(entries); got != want {
		return nil, errf("section table checksum mismatch: file %#x, computed %#x", got, want)
	}
	out := make([]SectionInfo, n)
	for i := range out {
		e := entries[i*entrySize:]
		out[i] = SectionInfo{
			ID:  binary.LittleEndian.Uint32(e[0:4]),
			Off: binary.LittleEndian.Uint64(e[8:16]),
			Len: binary.LittleEndian.Uint64(e[16:24]),
			CRC: binary.LittleEndian.Uint64(e[24:32]),
		}
		out[i].Name = SectionName(out[i].ID)
	}
	return out, nil
}

// sectionBytes bounds-checks one entry against the file and returns its
// payload (without verifying the CRC; see verifySection).
func sectionBytes(data []byte, s SectionInfo, tableEnd uint64) ([]byte, error) {
	if s.Off%8 != 0 {
		return nil, errf("section %s at offset %d: not 8-byte aligned", s.Name, s.Off)
	}
	if s.Off < tableEnd || s.Off > uint64(len(data)) || s.Len > uint64(len(data))-s.Off {
		return nil, errf("section %s [%d,+%d) outside file of %d bytes", s.Name, s.Off, s.Len, len(data))
	}
	return data[s.Off : s.Off+s.Len], nil
}

func verifySection(payload []byte, s SectionInfo) error {
	if got := checksum(payload); got != s.CRC {
		return errf("section %s checksum mismatch: file %#x, computed %#x", s.Name, s.CRC, got)
	}
	return nil
}

// fingerprint derives the build fingerprint from the generator
// identity: Go toolchain version, seed, corpus scale, and format
// version. Info surfaces it so operators can tell two snapshots apart
// at a glance.
func fingerprint(goVersion string, seed int64, scale float64) uint64 {
	return checksum([]byte(fmt.Sprintf("%s|seed=%d|scale=%g|v%d", goVersion, seed, scale, FormatVersion)))
}
