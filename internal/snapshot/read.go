package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
)

// The loader never trusts a byte: header, section table, and every
// payload are checksummed, then the decoded sections are cross-checked
// against the header and each other. Corruption of any kind —
// truncation, bit flips, hostile garbage — yields a descriptive error,
// never a panic and never silently wrong data.

// FileInfo summarizes a snapshot file for webiq-snapshot info/verify.
type FileInfo struct {
	Path          string        `json:"path"`
	Size          int64         `json:"size"`
	FormatVersion uint32        `json:"format_version"`
	Fingerprint   uint64        `json:"fingerprint"`
	Meta          Meta          `json:"meta"`
	Sections      []SectionInfo `json:"sections"`
}

// Load maps the snapshot at path, decodes the world from it, and unmaps
// it again: everything decoded is a copy, so the returned world does
// not depend on the file.
func Load(path string) (*World, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if closer != nil {
		defer closer()
	}
	w, _, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return w, nil
}

// LoadBytes decodes a world from an in-memory snapshot image. Any
// []byte works (fuzzing, network transfer); the world keeps no
// reference to it.
func LoadBytes(b []byte) (*World, error) {
	w, _, err := parse(b)
	return w, err
}

// Verify fully loads the snapshot — every checksum, every structural
// invariant — and reports what it found.
func Verify(path string) (*FileInfo, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if closer != nil {
		defer closer()
	}
	w, sections, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	h, _ := decodeHeader(data)
	return &FileInfo{
		Path:          path,
		Size:          int64(len(data)),
		FormatVersion: h.version,
		Fingerprint:   h.fingerprint,
		Meta:          w.Meta,
		Sections:      sections,
	}, nil
}

// Info reads only the header, section table, and meta section — enough
// to describe the file without touching the bulk payloads.
func Info(path string) (*FileInfo, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if closer != nil {
		defer closer()
	}
	h, err := decodeHeader(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	sections, err := decodeTable(data, h)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	tableEnd := h.tableOff + uint64(h.sections)*entrySize + 8
	info := &FileInfo{
		Path:          path,
		Size:          int64(len(data)),
		FormatVersion: h.version,
		Fingerprint:   h.fingerprint,
		Sections:      sections,
	}
	for _, s := range sections {
		if s.ID != secMeta {
			continue
		}
		payload, err := sectionBytes(data, s, tableEnd)
		if err != nil {
			return nil, err
		}
		if err := verifySection(payload, s); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(payload, &info.Meta); err != nil {
			return nil, errf("meta section: %v", err)
		}
		return info, nil
	}
	return nil, errf("missing section %s", SectionName(secMeta))
}

// parse validates a complete snapshot image and decodes the world.
func parse(data []byte) (*World, []SectionInfo, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, nil, err
	}
	sections, err := decodeTable(data, h)
	if err != nil {
		return nil, nil, err
	}
	tableEnd := h.tableOff + uint64(h.sections)*entrySize + 8
	byID := make(map[uint32][]byte, len(sections))
	for _, s := range sections {
		if _, dup := byID[s.ID]; dup {
			return nil, nil, errf("duplicate section %s", s.Name)
		}
		payload, err := sectionBytes(data, s, tableEnd)
		if err != nil {
			return nil, nil, err
		}
		if err := verifySection(payload, s); err != nil {
			return nil, nil, err
		}
		byID[s.ID] = payload
	}
	for _, id := range requiredSections {
		if _, ok := byID[id]; !ok {
			return nil, nil, errf("missing section %s", SectionName(id))
		}
	}

	w := &World{}
	if err := json.Unmarshal(byID[secMeta], &w.Meta); err != nil {
		return nil, nil, errf("meta section: %v", err)
	}
	if w.Meta.Seed != h.seed || w.Meta.Scale != h.scale {
		return nil, nil, errf("header (seed %d, scale %g) disagrees with meta (seed %d, scale %g)",
			h.seed, h.scale, w.Meta.Seed, w.Meta.Scale)
	}
	if fp := fingerprint(w.Meta.GoVersion, w.Meta.Seed, w.Meta.Scale); fp != h.fingerprint {
		return nil, nil, errf("fingerprint mismatch: header %#x, recomputed %#x", h.fingerprint, fp)
	}
	w.Fingerprint = h.fingerprint

	if err := json.Unmarshal(byID[secDatasets], &w.Datasets); err != nil {
		return nil, nil, errf("datasets section: %v", err)
	}
	if err := json.Unmarshal(byID[secWorld], &w.Domains); err != nil {
		return nil, nil, errf("world section: %v", err)
	}
	if err := w.checkConsistent(); err != nil {
		return nil, nil, err
	}
	return w, sections, nil
}

// checkConsistent cross-checks the datasets and world sections against
// the meta section, so a snapshot whose sections were swapped in from
// different builds cannot pass as valid.
func (w *World) checkConsistent() error {
	if len(w.Datasets) != len(w.Meta.Domains) || len(w.Domains) != len(w.Meta.Domains) {
		return errf("meta lists %d domains, snapshot has %d datasets and %d worlds",
			len(w.Meta.Domains), len(w.Datasets), len(w.Domains))
	}
	decisions := 0
	for i, key := range w.Meta.Domains {
		if w.Datasets[i] == nil || w.Datasets[i].Domain != key {
			return errf("dataset %d is not for domain %s", i, key)
		}
		if w.Domains[i].Domain != key {
			return errf("world %d is for domain %q, meta says %q", i, w.Domains[i].Domain, key)
		}
		if w.Domains[i].Unified == nil {
			return errf("domain %s has no unified interface", key)
		}
		decisions += len(w.Domains[i].Decisions)
	}
	if decisions != w.Meta.Decisions {
		return errf("meta says %d decisions, snapshot has %d", w.Meta.Decisions, decisions)
	}
	return nil
}

// readFileFallback loads the snapshot with a plain read when mmap is
// unavailable.
func readFileFallback(path string) ([]byte, func() error, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, errf("read %s: %v", path, err)
	}
	return b, nil, nil
}
