package snapshot

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadBytes throws arbitrary bytes at the loader. The contract
// under fuzzing is absolute: any input either loads as a structurally
// valid world or fails with an error — never a panic, never an
// out-of-range access, never silently wrong data. The corpus is seeded
// from a real snapshot plus systematic mutations of it, so coverage
// starts deep inside the parser rather than at the magic check.
func FuzzLoadBytes(f *testing.F) {
	w, err := BuildWorld(BuildConfig{Seed: 3, Scale: 0.05})
	if err != nil {
		f.Fatalf("build seed world: %v", err)
	}
	raw, err := w.Bytes()
	if err != nil {
		f.Fatalf("serialize seed world: %v", err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(make([]byte, headerSize))
	f.Add(raw[:headerSize])
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:len(raw)-1])
	for _, off := range []int{8, 12, 40, 60, headerSize, headerSize + 8, headerSize + 16, len(raw) - 9} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// Shifted copy: the loader must not depend on the buffer's alignment.
	f.Add(append([]byte{0}, raw...))

	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := LoadBytes(data)
		if err != nil {
			if w != nil {
				t.Fatal("loader returned both a world and an error")
			}
			return
		}
		// Accepted input: the world must hold together well enough to
		// serve and re-serialize.
		if len(w.Domains) != len(w.Meta.Domains) || len(w.Datasets) != len(w.Meta.Domains) {
			t.Fatalf("meta/domain mismatch slipped through: meta %d, %d worlds, %d datasets",
				len(w.Meta.Domains), len(w.Domains), len(w.Datasets))
		}
		for i := range w.Domains {
			if w.Domains[i].Unified == nil {
				t.Fatalf("domain %s loaded without a unified interface", w.Domains[i].Domain)
			}
		}
		if _, err := json.Marshal(w.Domains); err != nil {
			t.Fatalf("loaded world does not re-marshal: %v", err)
		}
		// A loaded world must serialize back to a loadable snapshot.
		out, err := w.Bytes()
		if err != nil {
			t.Fatalf("re-serialize accepted world: %v", err)
		}
		w2, err := LoadBytes(out)
		if err != nil {
			t.Fatalf("re-serialized world does not load: %v", err)
		}
		// Every domain's decisions either decode, identically on both
		// sides of the round trip, or fail on both.
		for _, key := range w.Meta.Domains {
			got, gerr := ledgerNDJSONBytes(w2, key)
			want, werr := ledgerNDJSONBytes(w, key)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: decisions decode %v before re-serialization, %v after", key, werr, gerr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: ledger bytes changed across re-serialization", key)
			}
		}
	})
}

// ledgerNDJSONBytes decodes one domain's decisions and renders them the
// way a ledger streams them.
func ledgerNDJSONBytes(w *World, domain string) ([]byte, error) {
	decisions, err := w.Decisions(domain)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, d := range decisions {
		_ = enc.Encode(d)
	}
	return buf.Bytes(), nil
}
