package unify

import (
	"reflect"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/obs"
)

// refMergesAmong is the per-attribute ledger walk explain used to make:
// every decision of the ledger, filtered to the matcher merges within
// the member set.
func refMergesAmong(decisions []obs.Decision, members []string) []obs.Decision {
	if len(members) < 2 {
		return nil
	}
	in := map[string]bool{}
	for _, m := range members {
		in[m] = true
	}
	var out []obs.Decision
	for _, d := range decisions {
		if d.Component == "matcher" && d.Verdict == "merge" && in[d.AttrID] && in[d.OtherID] {
			out = append(out, d)
		}
	}
	return out
}

// TestMergesAmongMatchesLedgerFilter pins the one-walk merge lists: for
// every paper domain and unified attribute, filtering the domain's
// merges equals filtering the whole ledger per attribute.
func TestMergesAmongMatchesLedgerFilter(t *testing.T) {
	total := 0
	for _, dom := range kb.Domains() {
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		ledger := obs.NewLedger(nil)
		m := matcher.New(matcher.DefaultConfig())
		m.SetLedger(ledger)
		u := Build(ds, m.Match(ds))
		decisions := ledger.Decisions()
		merges := matcherMerges(decisions)
		for _, ua := range u.Attributes {
			got, want := mergesAmong(merges, ua.Members), refMergesAmong(decisions, ua.Members)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: merges %v, want %v", dom.Key, ua.Label, got, want)
			}
			total += len(got)
		}
		p := Explain(dom.Key, u, ds, decisions)
		if p.Instances == 0 || p.Attributed != p.Instances {
			t.Errorf("%s: %d of %d instances attributed", dom.Key, p.Attributed, p.Instances)
		}
	}
	if total == 0 {
		t.Fatal("no unified attribute has a merge; the comparison is vacuous")
	}
}
