package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"webiq/internal/obs"
)

// testWorld builds one small world per test binary; every test reads it
// and none mutates it.
var (
	testWorldOnce  sync.Once
	testWorldValue *World
	testWorldBytes []byte
	testWorldErr   error
)

const (
	testSeed  = 7
	testScale = 0.2
)

func testWorld(t *testing.T) (*World, []byte) {
	t.Helper()
	testWorldOnce.Do(func() {
		testWorldValue, testWorldErr = BuildWorld(BuildConfig{Seed: testSeed, Scale: testScale})
		if testWorldErr == nil {
			testWorldBytes, testWorldErr = testWorldValue.Bytes()
		}
	})
	if testWorldErr != nil {
		t.Fatalf("build test world: %v", testWorldErr)
	}
	return testWorldValue, testWorldBytes
}

// ledgerNDJSON renders decisions the way a ledger streams them.
func ledgerNDJSON(t *testing.T, decisions []obs.Decision) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, d := range decisions {
		if err := enc.Encode(d); err != nil {
			t.Fatalf("encode decision: %v", err)
		}
	}
	return buf.Bytes()
}

func TestWriteDeterministic(t *testing.T) {
	_, want := testWorld(t)
	w2, err := BuildWorld(BuildConfig{Seed: testSeed, Scale: testScale})
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	got, err := w2.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("two builds of the same world produced different snapshot bytes")
	}
}

// requireEqualWorlds compares every stored artifact between a loaded
// and a freshly built world, byte-for-byte where bytes are the
// contract.
func requireEqualWorlds(t *testing.T, got, want *World) {
	t.Helper()
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Errorf("meta differs:\nloaded %+v\nbuilt  %+v", got.Meta, want.Meta)
	}
	gd, _ := json.Marshal(got.Datasets)
	wd, _ := json.Marshal(want.Datasets)
	if !bytes.Equal(gd, wd) {
		t.Error("datasets differ after round trip")
	}
	if len(got.Domains) != len(want.Domains) {
		t.Fatalf("domain count: loaded %d, built %d", len(got.Domains), len(want.Domains))
	}
	for i := range want.Domains {
		g, w := got.Domains[i], want.Domains[i]
		if !bytes.Equal(g.ReportJSON, w.ReportJSON) {
			t.Errorf("%s: report JSON differs after round trip", w.Domain)
		}
		if !bytes.Equal(ledgerNDJSON(t, g.Decisions), ledgerNDJSON(t, w.Decisions)) {
			t.Errorf("%s: ledger NDJSON differs after round trip", w.Domain)
		}
		gu, _ := json.Marshal(g.Unified)
		wu, _ := json.Marshal(w.Unified)
		if !bytes.Equal(gu, wu) {
			t.Errorf("%s: unified interface differs after round trip", w.Domain)
		}
		if !reflect.DeepEqual(g.Degradations, w.Degradations) {
			t.Errorf("%s: degradations differ after round trip", w.Domain)
		}
	}
}

func TestRoundTripBytes(t *testing.T) {
	want, raw := testWorld(t)
	got, err := LoadBytes(raw)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	requireEqualWorlds(t, got, want)
}

// TestLoadBytesMisaligned feeds the loader buffers at every offset
// within a word: nothing it decodes depends on the buffer's alignment.
func TestLoadBytesMisaligned(t *testing.T) {
	want, raw := testWorld(t)
	for shift := 1; shift < 8; shift++ {
		buf := make([]byte, len(raw)+shift)
		copy(buf[shift:], raw)
		got, err := LoadBytes(buf[shift:])
		if err != nil {
			t.Fatalf("shift %d: LoadBytes: %v", shift, err)
		}
		requireEqualWorlds(t, got, want)
	}
}

func TestRoundTripFile(t *testing.T) {
	want, raw := testWorld(t)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := want.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(onDisk, raw) {
		t.Error("Write and Bytes disagree")
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireEqualWorlds(t, got, want)
	if err := got.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := got.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	info, err := Verify(path)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !reflect.DeepEqual(info.Meta, want.Meta) {
		t.Errorf("Verify meta: got %+v, want %+v", info.Meta, want.Meta)
	}
	if len(info.Sections) != len(requiredSections) {
		t.Errorf("Verify found %d sections, want %d", len(info.Sections), len(requiredSections))
	}
	light, err := Info(path)
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if !reflect.DeepEqual(light.Meta, want.Meta) {
		t.Errorf("Info meta: got %+v, want %+v", light.Meta, want.Meta)
	}
	if light.Fingerprint != info.Fingerprint || light.Fingerprint == 0 {
		t.Errorf("fingerprints disagree: info %#x, verify %#x", light.Fingerprint, info.Fingerprint)
	}
}

// mustNotPanic wraps a loader call so any panic fails with the
// corruption context attached.
func mustNotPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: loader panicked: %v", what, r)
		}
	}()
	fn()
}

func TestCorruptTruncations(t *testing.T) {
	_, raw := testWorld(t)
	cuts := []int{0, 1, 8, headerSize - 1, headerSize, headerSize + 5,
		headerSize + len(requiredSections)*entrySize + 7, len(raw) / 3, len(raw) / 2, len(raw) - 1}
	for _, n := range cuts {
		what := fmt.Sprintf("truncate to %d", n)
		mustNotPanic(t, what, func() {
			if _, err := LoadBytes(raw[:n]); err == nil {
				t.Errorf("%s: loader accepted a truncated snapshot", what)
			} else if !strings.Contains(err.Error(), "snapshot:") {
				t.Errorf("%s: unhelpful error %v", what, err)
			}
		})
	}
}

func TestCorruptBitFlips(t *testing.T) {
	want, raw := testWorld(t)
	// Every header and table byte, then a spread of payload offsets in
	// every section (first, middle, last byte).
	var offsets []int
	tableEnd := headerSize + len(requiredSections)*entrySize + 8
	for i := 0; i < tableEnd; i++ {
		offsets = append(offsets, i)
	}
	info, err := Verify(writeTemp(t, raw))
	if err != nil {
		t.Fatalf("Verify pristine: %v", err)
	}
	for _, s := range info.Sections {
		if s.Len == 0 {
			continue
		}
		offsets = append(offsets, int(s.Off), int(s.Off+s.Len/2), int(s.Off+s.Len-1))
	}
	for _, off := range offsets {
		for _, bit := range []byte{0x01, 0x80} {
			what := fmt.Sprintf("flip bit %#x at offset %d", bit, off)
			mut := append([]byte(nil), raw...)
			mut[off] ^= bit
			mustNotPanic(t, what, func() {
				if _, err := LoadBytes(mut); err == nil {
					t.Errorf("%s: loader accepted a corrupted snapshot", what)
				}
			})
		}
	}
	// Padding bytes are the one uncovered region: flipping them must
	// either refuse or load the identical world — never wrong data.
	pad := -1
	for i := 1; i < len(info.Sections); i++ {
		gap := int(info.Sections[i].Off) - int(info.Sections[i-1].Off+info.Sections[i-1].Len)
		if gap > 0 {
			pad = int(info.Sections[i-1].Off + info.Sections[i-1].Len)
			break
		}
	}
	if pad >= 0 {
		mut := append([]byte(nil), raw...)
		mut[pad] ^= 0xff
		mustNotPanic(t, "flip padding", func() {
			if w, err := LoadBytes(mut); err == nil {
				if !reflect.DeepEqual(w.Meta, want.Meta) {
					t.Error("padding flip changed loaded metadata")
				}
			}
		})
	}
}

func TestCorruptGarbage(t *testing.T) {
	_, raw := testWorld(t)
	cases := map[string][]byte{
		"empty":        {},
		"not a file":   []byte("this is not a snapshot at all, just text"),
		"magic only":   []byte(Magic),
		"zero header":  make([]byte, headerSize),
		"random words": bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33}, 64),
	}
	// A header claiming a huge section count must be refused, not
	// allocated for.
	huge := append([]byte(nil), raw[:headerSize]...)
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0x7f
	cases["huge section count"] = huge
	for what, b := range cases {
		mustNotPanic(t, what, func() {
			if _, err := LoadBytes(b); err == nil {
				t.Errorf("%s: loader accepted garbage", what)
			}
		})
	}
	// Any other version is refused by name, with a valid header CRC so
	// the version check is what refuses it: one from the future, and
	// version 1, which also stored the search index.
	for what, v := range map[string]uint32{"future version": FormatVersion + 1, "format version 1": 1} {
		b := withVersion(raw, v)
		mustNotPanic(t, what, func() {
			_, err := LoadBytes(b)
			if want := fmt.Sprintf("format version %d,", v); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %v, want one naming %q", what, err, want)
			}
		})
	}
}

// withVersion returns a copy of a snapshot image whose header claims
// format version v, with the header CRC recomputed.
func withVersion(raw []byte, v uint32) []byte {
	b := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(b[8:12], v)
	binary.LittleEndian.PutUint64(b[56:64], checksum(b[:56]))
	return b
}

// TestCorruptSectionSwap rebuilds a snapshot whose meta disagrees with
// its payloads: the cross-checks must catch it even though every CRC is
// valid.
func TestCorruptSectionSwap(t *testing.T) {
	w, _ := testWorld(t)
	mutant := *w
	mutant.Meta.Decisions++
	b, err := mutant.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	if _, err := LoadBytes(b); err == nil {
		t.Error("loader accepted a snapshot whose meta disagrees with its world section")
	} else if !strings.Contains(err.Error(), "decisions") {
		t.Errorf("unhelpful error %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Error("Load accepted a missing file")
	}
	if _, err := Info(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Error("Info accepted a missing file")
	}
}

func writeTemp(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
