package experiments

import (
	"context"
	"fmt"
	"strings"

	"webiq/internal/schema"
	"webiq/internal/stats"
	"webiq/internal/webiq"
)

// TauPoint is the F-1 accuracy (averaged over domains) at one clustering
// threshold, before and after acquisition.
type TauPoint struct {
	Tau      float64
	Baseline float64
	WithIQ   float64
}

// TauSweep measures matcher sensitivity to the clustering threshold τ —
// the knob the paper sets to .1 ("about the average of the thresholds
// learned for the five domains" by IceQ). It returns one point per
// threshold, each averaged over the five domains.
func (e *Env) TauSweep(taus []float64) []TauPoint {
	if len(taus) == 0 {
		taus = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}
	}
	// Acquire once per domain, evaluate at every τ.
	baseSets := make([]dsHolder, 0, len(e.World.Domains))
	for _, dom := range e.World.Domains {
		base := e.World.Dataset(dom)
		acq := e.World.Dataset(dom)
		acquirer := e.acquirer(e.Cache, acq, webiq.AllComponents())
		acquirer.AcquireAllCtx(context.Background(), acq)
		baseSets = append(baseSets, dsHolder{base: base, acq: acq})
	}
	out := make([]TauPoint, 0, len(taus))
	for _, tau := range taus {
		p := TauPoint{Tau: tau}
		for _, h := range baseSets {
			p.Baseline += 100 * e.matchF1(h.base, tau).F1
			p.WithIQ += 100 * e.matchF1(h.acq, tau).F1
		}
		n := float64(len(baseSets))
		p.Baseline /= n
		p.WithIQ /= n
		out = append(out, p)
	}
	return out
}

// dsHolder pairs a domain's baseline dataset with its acquired copy.
type dsHolder struct{ base, acq *schema.Dataset }

// RenderTauSweep formats the τ-sensitivity curve.
func RenderTauSweep(points []TauPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %10s %10s\n", "tau", "Baseline", "Base+WebIQ")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.2f %10.1f %10.1f\n", p.Tau, p.Baseline, p.WithIQ)
	}
	return b.String()
}

// SeedStats summarizes cross-seed variability of the headline result.
type SeedStats struct {
	Seeds int
	// Per-seed averages across domains.
	BaselineMean, BaselineStd float64
	WithIQMean, WithIQStd     float64
	SuccessMean, SuccessStd   float64
}

// SeedSweep reruns the headline experiment (baseline F-1, enriched F-1,
// acquisition success) across n seeds, rebuilding corpus, dataset, and
// sources each time, and reports means and standard deviations. It
// answers "is the reproduction an artifact of one lucky seed?".
func SeedSweep(n int) SeedStats {
	var base, withIQ, success []float64
	for seed := int64(1); seed <= int64(n); seed++ {
		env := NewEnvWithSeed(seed)
		var b, w, s float64
		for _, dom := range env.World.Domains {
			ds := env.World.Dataset(dom)
			b += 100 * env.matchF1(ds, 0).F1

			acqDS := env.World.Dataset(dom)
			acq := env.acquirer(env.Cache, acqDS, webiq.AllComponents())
			rep := acq.AcquireAllCtx(context.Background(), acqDS)
			s += rep.SuccessRate()
			w += 100 * env.matchF1(acqDS, 0).F1
		}
		k := float64(len(env.World.Domains))
		base = append(base, b/k)
		withIQ = append(withIQ, w/k)
		success = append(success, s/k)
	}
	st := SeedStats{Seeds: n}
	st.BaselineMean, st.BaselineStd = stats.MeanStd(base)
	st.WithIQMean, st.WithIQStd = stats.MeanStd(withIQ)
	st.SuccessMean, st.SuccessStd = stats.MeanStd(success)
	return st
}

// RenderSeedSweep formats the robustness summary.
func RenderSeedSweep(st SeedStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Across %d seeds (mean ± std over per-seed domain averages):\n", st.Seeds)
	fmt.Fprintf(&b, "  Baseline F1:          %5.1f ± %.1f\n", st.BaselineMean, st.BaselineStd)
	fmt.Fprintf(&b, "  Baseline+WebIQ F1:    %5.1f ± %.1f\n", st.WithIQMean, st.WithIQStd)
	fmt.Fprintf(&b, "  Acquisition success:  %5.1f ± %.1f\n", st.SuccessMean, st.SuccessStd)
	return b.String()
}
