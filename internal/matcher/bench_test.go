package matcher

import (
	"fmt"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/schema"
)

// syntheticDataset builds a dataset of ifaces interfaces with attrsPer
// attributes each, with overlapping label vocabulary so the merge loop
// performs long merge cascades — the regime where the O(n³) rescan
// dominated.
func syntheticDataset(ifaces, attrsPer int) *schema.Dataset {
	labels := []string{
		"Title", "Author", "Publisher", "Price", "Format", "Subject",
		"Keyword", "Category", "Year", "Edition", "Language", "ISBN",
	}
	ds := &schema.Dataset{Domain: "synthetic"}
	for i := 0; i < ifaces; i++ {
		ifc := &schema.Interface{ID: fmt.Sprintf("syn/if%03d", i)}
		for j := 0; j < attrsPer; j++ {
			l := labels[(i+j)%len(labels)]
			ifc.Attributes = append(ifc.Attributes, &schema.Attribute{
				ID:          fmt.Sprintf("%s/a%d", ifc.ID, j),
				InterfaceID: ifc.ID,
				Label:       l,
				Instances:   []string{l + " one", l + " two", l + " three"},
			})
		}
		ds.Interfaces = append(ds.Interfaces, ifc)
	}
	return ds
}

// BenchmarkMatchMergeLoop isolates the clustering loop's asymptotics:
// synthetic datasets keep AttrSim cheap, so the heap-vs-rescan
// difference in the merge phase dominates as n grows.
func BenchmarkMatchMergeLoop(b *testing.B) {
	for _, size := range []struct{ ifaces, attrs int }{
		{20, 8}, {40, 8}, {80, 8},
	} {
		n := size.ifaces * size.attrs
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := syntheticDataset(size.ifaces, size.attrs)
			m := New(DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Match(ds)
			}
		})
	}
}

// BenchmarkMatchDomains is the end-to-end matcher cost on the five
// paper domains with predefined values only (no acquisition). The
// ledger/<domain> lines run the same matches with a decision ledger
// installed, as a pipeline build does, so every merge also pays for its
// provenance record.
func BenchmarkMatchDomains(b *testing.B) {
	for _, ledgered := range []bool{false, true} {
		for _, dom := range kb.Domains() {
			ds := dataset.Generate(dom, dataset.DefaultConfig())
			name := dom.Key
			if ledgered {
				name = "ledger/" + name
			}
			b.Run(name, func(b *testing.B) {
				m := New(DefaultConfig())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if ledgered {
						m.SetLedger(obs.NewLedger(nil))
					}
					m.Match(ds)
				}
			})
		}
	}
}
