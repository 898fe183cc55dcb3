package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"webiq/internal/webiq"
)

// Fig6Row is one domain's bars in Figure 6: F-1 accuracy (percent) of
// the baseline matcher (IceQ), baseline + WebIQ, and baseline + WebIQ
// with thresholding.
type Fig6Row struct {
	Domain        string
	Baseline      float64
	WithWebIQ     float64
	WithThreshold float64
}

// Figure6 runs the matching-accuracy experiment for each domain.
func (e *Env) Figure6() []Fig6Row {
	var rows []Fig6Row
	for _, dom := range e.Domains {
		row := Fig6Row{Domain: dom.DisplayName}

		// Baseline: IceQ alone, no thresholding (τ = 0).
		base := e.freshDataset(dom)
		row.Baseline = 100 * e.matchF1(base, 0).F1

		// Baseline + WebIQ: acquire with all components, then match.
		ds := e.freshDataset(dom)
		acq, _ := e.acquirer(ds, dom, webiq.AllComponents())
		acq.AcquireAllCtx(context.Background(), ds)
		row.WithWebIQ = 100 * e.matchF1(ds, 0).F1

		// Baseline + WebIQ + thresholding (τ = .1) on the same acquired
		// dataset.
		row.WithThreshold = 100 * e.matchF1(ds, e.Thresholded).F1

		rows = append(rows, row)
	}
	return rows
}

// RenderFigure6 formats the Figure 6 series with an average row.
func RenderFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %9s %11s %18s\n", "Domain", "Baseline", "Base+WebIQ", "Base+WebIQ+Thresh")
	var s Fig6Row
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %9.1f %11.1f %18.1f\n", r.Domain, r.Baseline, r.WithWebIQ, r.WithThreshold)
		s.Baseline += r.Baseline
		s.WithWebIQ += r.WithWebIQ
		s.WithThreshold += r.WithThreshold
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "%-9s %9.1f %11.1f %18.1f\n", "Average", s.Baseline/n, s.WithWebIQ/n, s.WithThreshold/n)
	}
	return b.String()
}

// Fig7Row is one domain's bars in Figure 7: F-1 accuracy as WebIQ
// components are consecutively incorporated into the baseline.
type Fig7Row struct {
	Domain       string
	Baseline     float64
	PlusSurface  float64
	PlusAttrDeep float64
	PlusAll      float64
}

// Figure7 runs the component-contribution ablation.
func (e *Env) Figure7() []Fig7Row {
	configs := []webiq.Components{
		{},
		{Surface: true},
		{Surface: true, AttrDeep: true},
		{Surface: true, AttrDeep: true, AttrSurface: true},
	}
	var rows []Fig7Row
	for _, dom := range e.Domains {
		var f1s [4]float64
		for i, comps := range configs {
			ds := e.freshDataset(dom)
			if comps != (webiq.Components{}) {
				acq, _ := e.acquirer(ds, dom, comps)
				acq.AcquireAllCtx(context.Background(), ds)
			}
			f1s[i] = 100 * e.matchF1(ds, 0).F1
		}
		rows = append(rows, Fig7Row{
			Domain:       dom.DisplayName,
			Baseline:     f1s[0],
			PlusSurface:  f1s[1],
			PlusAttrDeep: f1s[2],
			PlusAll:      f1s[3],
		})
	}
	return rows
}

// RenderFigure7 formats the Figure 7 series.
func RenderFigure7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %9s %9s %10s %9s\n", "Domain", "Baseline", "+Surface", "+AttrDeep", "+AttrSurf")
	var s Fig7Row
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %9.1f %9.1f %10.1f %9.1f\n",
			r.Domain, r.Baseline, r.PlusSurface, r.PlusAttrDeep, r.PlusAll)
		s.Baseline += r.Baseline
		s.PlusSurface += r.PlusSurface
		s.PlusAttrDeep += r.PlusAttrDeep
		s.PlusAll += r.PlusAll
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "%-9s %9.1f %9.1f %10.1f %9.1f\n",
			"Average", s.Baseline/n, s.PlusSurface/n, s.PlusAttrDeep/n, s.PlusAll/n)
	}
	return b.String()
}

// Fig8Row is one domain's bars in Figure 8: simulated minutes spent
// matching and in each WebIQ component, plus the query counts behind
// them.
type Fig8Row struct {
	Domain          string
	MatchTime       time.Duration
	SurfaceTime     time.Duration
	AttrSurfaceTime time.Duration
	AttrDeepTime    time.Duration
	SurfaceQueries  int
	AttrSurfQueries int
	AttrDeepProbes  int
}

// Total is the overall overhead (everything except matching).
func (r Fig8Row) Total() time.Duration {
	return r.SurfaceTime + r.AttrSurfaceTime + r.AttrDeepTime
}

// Figure8 runs the overhead analysis: a full acquisition + matching run
// per domain with component-attributed virtual time. It always queries
// the raw engine — the experiment measures what acquisition costs when
// every query pays the search engine's price, so the query cache must
// not absorb repeats here (and the paper's numbers are reproduced
// exactly).
func (e *Env) Figure8() []Fig8Row {
	var rows []Fig8Row
	for _, dom := range e.Domains {
		ds := e.freshDataset(dom)
		acq, _ := e.acquirerUncached(ds, dom, webiq.AllComponents())
		rep := acq.AcquireAllCtx(context.Background(), ds)

		// Matching cost: simulated per-pair cost over all attribute
		// pairs, calibrated to the paper's hardware (see Env).
		n := len(ds.AllAttributes())
		matchTime := time.Duration(n*(n-1)/2) * e.MatchCostPerPair
		e.matchF1(ds, 0)

		rows = append(rows, Fig8Row{
			Domain:          dom.DisplayName,
			MatchTime:       matchTime,
			SurfaceTime:     rep.SurfaceTime,
			AttrSurfaceTime: rep.AttrSurfaceTime,
			AttrDeepTime:    rep.AttrDeepTime,
			SurfaceQueries:  rep.SurfaceQueries,
			AttrSurfQueries: rep.AttrSurfaceQueries,
			AttrDeepProbes:  rep.AttrDeepQueries,
		})
	}
	return rows
}

// RenderFigure8 formats the overhead rows in minutes, as the paper does.
func RenderFigure8(rows []Fig8Row) string {
	min := func(d time.Duration) float64 { return d.Minutes() }
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %9s %9s %10s %9s %9s\n",
		"Domain", "Match(m)", "Surf(m)", "AttrSf(m)", "AttrDp(m)", "Total(m)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %9.1f %9.1f %10.1f %9.1f %9.1f\n",
			r.Domain, min(r.MatchTime), min(r.SurfaceTime),
			min(r.AttrSurfaceTime), min(r.AttrDeepTime), min(r.Total()))
	}
	fmt.Fprintf(&b, "\n%-9s %9s %10s %9s\n", "Domain", "SurfQrys", "AttrSfQrys", "Probes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %9d %10d %9d\n",
			r.Domain, r.SurfaceQueries, r.AttrSurfQueries, r.AttrDeepProbes)
	}
	return b.String()
}
