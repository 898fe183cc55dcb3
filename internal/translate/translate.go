// Package translate executes queries posed against the unified interface
// by translating them to per-source form submissions — the final layer
// of the Deep-Web integration stack the paper motivates ("thereby making
// access to the individual sources transparent to users").
//
// A unified attribute carries the member attributes it was merged from;
// a query setting that attribute to a value fans out to every source
// owning a member, sets the member field to the value, and gathers the
// response pages.
package translate

import (
	"context"
	"fmt"
	"sort"

	"webiq/internal/deepweb"
	"webiq/internal/schema"
	"webiq/internal/unify"
)

// Probe submits one form query: the source behind interfaceID with
// attribute attrID set to value. It returns the response page, or an
// error when the source could not be reached.
type Probe func(ctx context.Context, interfaceID, attrID, value string) (string, error)

// Translator fans queries on a unified interface out to the sources.
type Translator struct {
	unified *unify.UnifiedInterface
	ds      *schema.Dataset
	probe   Probe
	// byLabel resolves unified attribute labels.
	byLabel map[string]*unify.UnifiedAttribute
	// owner maps member attribute ID to its interface ID.
	owner map[string]string
}

// New builds a Translator over the unified interface, the source
// dataset it was built from, and the probe that reaches the sources.
func New(u *unify.UnifiedInterface, ds *schema.Dataset, probe Probe) *Translator {
	t := &Translator{
		unified: u,
		ds:      ds,
		probe:   probe,
		byLabel: map[string]*unify.UnifiedAttribute{},
		owner:   map[string]string{},
	}
	for _, ua := range u.Attributes {
		t.byLabel[ua.Label] = ua
	}
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			t.owner[a.ID] = ifc.ID
		}
	}
	return t
}

// Attributes lists the queryable unified attribute labels.
func (t *Translator) Attributes() []string {
	out := make([]string, 0, len(t.byLabel))
	for l := range t.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// SourceResult is one source's answer to a translated query.
type SourceResult struct {
	// InterfaceID identifies the source.
	InterfaceID string
	// AttrID is the member attribute the value was submitted through.
	AttrID string
	// OK reports whether the response-analysis heuristics classified
	// the submission as successful.
	OK bool
	// Page is the raw response page.
	Page string
	// Err is set when the source could not be reached; the source is
	// then unavailable, not unsuccessful.
	Err error
}

// Query sets the unified attribute with the given label to value and
// submits the translated query to every source owning a member
// attribute. Results come back in interface-ID order; a source whose
// probe failed is listed with Err set.
func (t *Translator) Query(ctx context.Context, unifiedLabel, value string) ([]SourceResult, error) {
	ua, ok := t.byLabel[unifiedLabel]
	if !ok {
		return nil, fmt.Errorf("translate: unified interface has no attribute %q", unifiedLabel)
	}
	var out []SourceResult
	for _, member := range ua.Members {
		ifcID := t.owner[member]
		page, err := t.probe(ctx, ifcID, member, value)
		out = append(out, SourceResult{
			InterfaceID: ifcID,
			AttrID:      member,
			OK:          err == nil && deepweb.AnalyzeResponse(page),
			Page:        page,
			Err:         err,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InterfaceID < out[j].InterfaceID })
	return out, nil
}

// Coverage summarizes a result set: how many sources answered
// successfully out of those probed (unavailable ones included).
func Coverage(results []SourceResult) (ok, total int) {
	for _, r := range results {
		total++
		if r.OK {
			ok++
		}
	}
	return ok, total
}
