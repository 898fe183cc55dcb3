package nlp

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NoTerm is the sentinel ID a frozen table returns for a term it has
// never interned. It is never assigned to a real term (a table refuses
// to grow that large), so lookups against an index treat it like any
// other absent term: no postings, matches nothing.
const NoTerm uint32 = ^uint32(0)

// TermTable interns token strings into dense uint32 term IDs. IDs are
// assigned in first-seen order starting at 0 and never change once
// assigned, so a table can be shared by an index and the queries
// compiled against it. The zero value is NOT ready to use; call
// NewTermTable.
//
// All methods are safe for concurrent use. The common case — looking up
// a term that is already interned — takes only a read lock, so parallel
// readers (query compilation, value folding across matcher workers) do
// not serialize on each other. A table that will never grow again can
// be frozen (see Freeze), after which every read is lock-free.
type TermTable struct {
	mu     sync.RWMutex
	ids    map[string]uint32
	terms  []string
	frozen atomic.Bool
}

// NewTermTable returns an empty table.
func NewTermTable() *TermTable {
	return &TermTable{ids: make(map[string]uint32)}
}

// NewFrozenTermTable reconstructs a frozen table from its flattened
// form (see Flatten): offsets[i]..offsets[i+1] spans term i in blob.
// Term strings are substrings of blob — no per-term copies — so a blob
// backed by a memory-mapped snapshot is served in place. The layout is
// validated; a malformed flattening is refused with an error, never a
// panic.
func NewFrozenTermTable(offsets []uint32, blob string) (*TermTable, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("nlp: frozen term table: empty offset table")
	}
	n := len(offsets) - 1
	if uint64(n) >= uint64(NoTerm) {
		return nil, fmt.Errorf("nlp: frozen term table: %d terms overflow the ID space", n)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("nlp: frozen term table: first offset %d, want 0", offsets[0])
	}
	if uint64(offsets[n]) != uint64(len(blob)) {
		return nil, fmt.Errorf("nlp: frozen term table: final offset %d, want blob length %d", offsets[n], len(blob))
	}
	t := &TermTable{ids: make(map[string]uint32, n), terms: make([]string, n)}
	for i := 0; i < n; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("nlp: frozen term table: offsets not monotonic at term %d", i)
		}
		s := blob[offsets[i]:offsets[i+1]]
		if _, dup := t.ids[s]; dup {
			return nil, fmt.Errorf("nlp: frozen term table: duplicate term %q", s)
		}
		t.terms[i] = s
		t.ids[s] = uint32(i)
	}
	t.frozen.Store(true)
	return t, nil
}

// Flatten returns the table's persistent form: a dense offset table and
// a contiguous string blob, where offsets[i]..offsets[i+1] spans term i.
func (t *TermTable) Flatten() (offsets []uint32, blob []byte) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.terms)
	offsets = make([]uint32, n+1)
	total := 0
	for _, s := range t.terms {
		total += len(s)
	}
	blob = make([]byte, 0, total)
	for i, s := range t.terms {
		offsets[i] = uint32(len(blob))
		blob = append(blob, s...)
	}
	offsets[n] = uint32(len(blob))
	return offsets, blob
}

// Freeze flips the table into its read-only mode: every subsequent read
// is lock-free, and Intern of a never-seen term returns NoTerm instead
// of growing the table. Freezing is irreversible and safe to race with
// concurrent Interns — a writer that slipped past the frozen check
// re-checks under the write lock, so no mutation lands after Freeze
// returns.
func (t *TermTable) Freeze() {
	t.mu.Lock()
	t.frozen.Store(true)
	t.mu.Unlock()
}

// Frozen reports whether the table has been frozen.
func (t *TermTable) Frozen() bool { return t.frozen.Load() }

// Intern returns the ID of s, assigning the next dense ID on first
// sight. On a frozen table an unknown term returns NoTerm.
func (t *TermTable) Intern(s string) uint32 {
	if t.frozen.Load() {
		if id, ok := t.ids[s]; ok {
			return id
		}
		return NoTerm
	}
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen.Load() {
		// Frozen while we were waiting for the write lock: behave like
		// the lock-free frozen path, never mutate.
		if id, ok := t.ids[s]; ok {
			return id
		}
		return NoTerm
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	id = uint32(len(t.terms))
	t.ids[s] = id
	t.terms = append(t.terms, s)
	return id
}

// InternBytes is Intern for a byte slice. When the term is already
// interned — the steady state — no string is allocated: the map lookup
// uses the compiler's zero-copy string(b) key optimization. Only a
// first sighting copies b into a new string. On a frozen table an
// unknown term returns NoTerm.
func (t *TermTable) InternBytes(b []byte) uint32 {
	if t.frozen.Load() {
		if id, ok := t.ids[string(b)]; ok {
			return id
		}
		return NoTerm
	}
	t.mu.RLock()
	id, ok := t.ids[string(b)]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen.Load() {
		if id, ok := t.ids[string(b)]; ok {
			return id
		}
		return NoTerm
	}
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	s := string(b)
	id = uint32(len(t.terms))
	t.ids[s] = id
	t.terms = append(t.terms, s)
	return id
}

// Lookup returns the ID of s without interning it. ok is false when s
// has never been interned.
func (t *TermTable) Lookup(s string) (id uint32, ok bool) {
	if t.frozen.Load() {
		id, ok = t.ids[s]
		return id, ok
	}
	t.mu.RLock()
	id, ok = t.ids[s]
	t.mu.RUnlock()
	return id, ok
}

// LookupBytes is Lookup for a byte slice; it never allocates.
func (t *TermTable) LookupBytes(b []byte) (id uint32, ok bool) {
	if t.frozen.Load() {
		id, ok = t.ids[string(b)]
		return id, ok
	}
	t.mu.RLock()
	id, ok = t.ids[string(b)]
	t.mu.RUnlock()
	return id, ok
}

// Term returns the string for an ID previously returned by Intern.
// It panics if id was never assigned, like an out-of-range slice index.
func (t *TermTable) Term(id uint32) string {
	if t.frozen.Load() {
		return t.terms[id]
	}
	t.mu.RLock()
	s := t.terms[id]
	t.mu.RUnlock()
	return s
}

// Len returns the number of distinct terms interned.
func (t *TermTable) Len() int {
	if t.frozen.Load() {
		return len(t.terms)
	}
	t.mu.RLock()
	n := len(t.terms)
	t.mu.RUnlock()
	return n
}
