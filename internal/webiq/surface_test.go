package webiq

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
)

// cannedEngine serves scripted snippets and hit counts, isolating the
// Surface pipeline from the corpus generator.
type cannedEngine struct {
	snippets map[string][]string // substring of query -> snippet texts
	hits     map[string]int
}

func (c *cannedEngine) Search(query string, limit int) []surfaceweb.Snippet {
	for key, texts := range c.snippets {
		if strings.Contains(query, key) {
			out := make([]surfaceweb.Snippet, 0, len(texts))
			for i, t := range texts {
				if limit > 0 && i >= limit {
					break
				}
				out = append(out, surfaceweb.Snippet{DocID: i, Text: t})
			}
			return out
		}
	}
	return nil
}

func (c *cannedEngine) NumHits(query string) int { return c.hits[query] }

func TestSurfaceExtractPipeline(t *testing.T) {
	eng := &cannedEngine{
		snippets: map[string][]string{
			`"makes such as"`: {
				"Popular makes such as Honda, Toyota, and Ford are in stock.",
				"We sell makes such as Honda and Nissan.",
			},
		},
		hits: map[string]int{},
	}
	cfg := DefaultConfig()
	cfg.UseDomainKeywords = false
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)

	ifc := &schema.Interface{ID: "i", Attributes: []*schema.Attribute{
		{ID: "i/a", InterfaceID: "i", Label: "Make"},
	}}
	ds := &schema.Dataset{Domain: "auto", EntityName: "car", DomainKeyword: "used cars",
		Interfaces: []*schema.Interface{ifc}}

	cands := s.Extract(ifc.Attributes[0], ifc, ds)
	got := map[string]int{}
	for _, c := range cands {
		got[c.Value] = c.Freq
	}
	if got["Honda"] != 2 {
		t.Errorf("Honda freq = %d, want 2 (two snippets)", got["Honda"])
	}
	for _, want := range []string{"Toyota", "Ford", "Nissan"} {
		if got[want] == 0 {
			t.Errorf("missing candidate %q in %v", want, got)
		}
	}
}

func TestSurfaceVerifyRanksByScore(t *testing.T) {
	eng := &cannedEngine{
		snippets: map[string][]string{},
		hits: map[string]int{
			`"make honda"`:  20,
			`"make toyota"`: 5,
			`"make"`:        100,
			`"honda"`:       50,
			`"toyota"`:      50,
		},
	}
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	attr := &schema.Attribute{ID: "x", Label: "Make"}
	got := s.Verify(attr, []Candidate{{Value: "Toyota"}, {Value: "Honda"}})
	want := []string{"Honda", "Toyota"} // Honda has the higher PMI
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verified order = %v, want %v", got, want)
	}
}

func TestSurfaceVerifyDropsZeroScore(t *testing.T) {
	eng := &cannedEngine{
		snippets: map[string][]string{},
		hits: map[string]int{
			`"make honda"`: 10, `"make"`: 100, `"honda"`: 50,
			// "January" has no joint hits with "make".
			`"january"`: 1000,
		},
	}
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	attr := &schema.Attribute{ID: "x", Label: "Make"}
	got := s.Verify(attr, []Candidate{{Value: "Honda"}, {Value: "January"}})
	for _, g := range got {
		if g == "January" {
			t.Error("zero-score candidate survived validation")
		}
	}
}

func TestSurfaceRejectCandidateRules(t *testing.T) {
	s := &Surface{cfg: DefaultConfig()}
	cases := map[string]bool{
		"Honda":          false,
		"h":              true, // single character
		"Make":           true, // the label itself
		"makes":          true, // label word inflection
		"Departure city": false,
	}
	for c, want := range cases {
		if got := s.rejectCandidate("Make", c); got != want {
			t.Errorf("rejectCandidate(Make, %q) = %v, want %v", c, got, want)
		}
	}
}

func TestSiblingLabels(t *testing.T) {
	ifc := &schema.Interface{ID: "i", Attributes: []*schema.Attribute{
		{ID: "i/a", Label: "Make"},
		{ID: "i/b", Label: "Model"},
		{ID: "i/c", Label: "Year"},
	}}
	got := siblingLabels(ifc.Attributes[1], ifc)
	want := []string{"Make", "Year"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("siblings = %v, want %v", got, want)
	}
	if siblingLabels(ifc.Attributes[0], nil) != nil {
		t.Error("nil interface should give nil siblings")
	}
}

func TestSurfaceEmptyLabelNoQueries(t *testing.T) {
	eng := &cannedEngine{snippets: map[string][]string{}, hits: map[string]int{}}
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	attr := &schema.Attribute{ID: "x", Label: ""}
	ds := &schema.Dataset{Domain: "auto"}
	if got := s.DiscoverInstancesCtx(context.Background(), attr, nil, ds); got != nil {
		t.Errorf("empty label discovered %v", got)
	}
}
