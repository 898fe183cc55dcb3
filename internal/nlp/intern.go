package nlp

import (
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
