package experiments

import (
	"context"
	"fmt"
	"strings"

	"webiq/internal/kb"
	"webiq/internal/schema"
	"webiq/internal/webiq"
)

// Table1Row reproduces one row of Table 1: dataset characteristics
// (columns 2–5) and instance-acquisition success rates (columns 6–7).
type Table1Row struct {
	Domain string
	// AvgAttrs is the average number of attributes per interface.
	AvgAttrs float64
	// PctIntNoInst is the percentage of interfaces containing attributes
	// without instances.
	PctIntNoInst float64
	// PctAttrNoInst is, among those interfaces, the percentage of
	// attributes without instances.
	PctAttrNoInst float64
	// ExpInst is the percentage of instance-less attributes whose
	// instances can reasonably be expected on the Surface Web (a manual
	// judgment in the paper; derived from the concepts' Findable flags
	// here).
	ExpInst float64
	// Surface is the acquisition success rate using only the Surface
	// component (success = at least K instances gathered).
	Surface float64
	// SurfaceDeep is the success rate when instance borrowing with
	// Deep-Web validation is added.
	SurfaceDeep float64
}

// Table1 runs the acquisition experiments and returns one row per
// domain.
func (e *Env) Table1() []Table1Row {
	var rows []Table1Row
	for _, dom := range e.Domains {
		row := Table1Row{Domain: dom.DisplayName}

		base := e.freshDataset(dom)
		st := base.ComputeStats()
		row.AvgAttrs = st.AvgAttrs
		row.PctIntNoInst = st.PctInterfacesNoInst
		row.PctAttrNoInst = st.PctAttrsNoInst
		row.ExpInst = expectedFindable(dom, base)

		// Column 6: Surface only.
		ds := e.freshDataset(dom)
		acq, _ := e.acquirer(ds, dom, webiq.Components{Surface: true})
		row.Surface = acq.AcquireAllCtx(context.Background(), ds).SuccessRate()

		// Column 7: Surface + borrowing validated via the Deep Web.
		ds = e.freshDataset(dom)
		acq, _ = e.acquirer(ds, dom, webiq.Components{Surface: true, AttrDeep: true})
		row.SurfaceDeep = acq.AcquireAllCtx(context.Background(), ds).SuccessRate()

		rows = append(rows, row)
	}
	return rows
}

// expectedFindable computes the ExpInst column: among attributes with no
// instances, the percentage whose generating concept is Findable.
func expectedFindable(dom *kb.Domain, ds *schema.Dataset) float64 {
	findable := map[string]bool{}
	for _, c := range dom.Concepts {
		findable[c.ID] = c.Findable
	}
	total, ok := 0, 0
	for _, a := range ds.AllAttributes() {
		if a.HasInstances() {
			continue
		}
		total++
		if findable[a.ConceptID] {
			ok++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(ok) / float64(total)
}

// RenderTable1 formats the rows as the paper's Table 1, appending the
// cross-domain average row.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %6s %10s %11s %8s %9s %13s\n",
		"Domain", "#Attr", "IntNoInst%", "AttrNoInst%", "ExpInst%", "Surface%", "Surface+Deep%")
	var sum Table1Row
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %6.1f %10.0f %11.1f %8.1f %9.1f %13.1f\n",
			r.Domain, r.AvgAttrs, r.PctIntNoInst, r.PctAttrNoInst,
			r.ExpInst, r.Surface, r.SurfaceDeep)
		sum.AvgAttrs += r.AvgAttrs
		sum.PctIntNoInst += r.PctIntNoInst
		sum.PctAttrNoInst += r.PctAttrNoInst
		sum.ExpInst += r.ExpInst
		sum.Surface += r.Surface
		sum.SurfaceDeep += r.SurfaceDeep
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-9s %6.1f %10.0f %11.1f %8.1f %9.1f %13.1f\n",
			"Average", sum.AvgAttrs/n, sum.PctIntNoInst/n, sum.PctAttrNoInst/n,
			sum.ExpInst/n, sum.Surface/n, sum.SurfaceDeep/n)
	}
	return b.String()
}
