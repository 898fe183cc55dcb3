package eval

import (
	"sort"
	"strings"

	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/schema"
	iq "webiq/internal/webiq"
)

// Artifacts is everything one evaluated pipeline run produced for one
// domain — the inputs metrics compute over. The decision ledger is the
// load-bearing piece: per-stage scoring attributes every accepted
// instance to the component that accepted it, so a metric regression is
// explainable decision by decision (ByAttr / /unified/{domain}/explain).
type Artifacts struct {
	// Set is the domain's gold standard.
	Set *Set
	// Dataset is the dataset after acquisition (Acquired fields filled).
	Dataset *schema.Dataset
	// Report is the acquisition report (degradations, success rate).
	Report *iq.Report
	// Ledger carries every acceptance decision of the run.
	Ledger *obs.Ledger
	// Match is the matcher's result at the evaluation threshold.
	Match *matcher.Result
	// K is the acquisition target per attribute.
	K int
	// TraceID is the run's root trace, stamped into every decision.
	TraceID string
}

// Metric computes named scalar components ("precision", "recall",
// "f1", counts prefixed "n_") for one domain run and pools per-domain
// values into a run-level summary. Pooling is metric-specific: ratio
// metrics re-derive from summed counts (micro average) rather than
// averaging ratios.
type Metric interface {
	Name() string
	Compute(a *Artifacts) map[string]float64
	Pool(domainValues []map[string]float64) map[string]float64
}

// --- Stage metrics ---

// StageMetric scores one acquisition stage from the decision ledger:
// precision over the stage's per-value accept decisions, recall against
// the gold vocabulary of the attributes the stage is responsible for,
// and F1. "Responsible" follows the Section-5 policy: surface and
// attr-deep serve initially instance-less attributes, attr-surface
// serves predefined-value ones; recall is only charged for findable
// attributes (non-findable failure is the expected outcome, per
// Table 1's ExpInst column) and capped at min(K, |gold vocabulary|)
// per attribute.
type StageMetric struct {
	// Stage is the ledger component: "surface", "attr-surface", or
	// "attr-deep".
	Stage string
}

// Name implements Metric.
func (m StageMetric) Name() string { return m.Stage }

// acceptedVerdicts are the ledger verdicts that put a value into
// Acquired. "degraded-accept" is the accept-with-flag fallback under
// fault injection; counting it keeps precision honest under faults.
func acceptedVerdict(v string) bool { return v == "accept" || v == "degraded-accept" }

// Compute implements Metric.
func (m StageMetric) Compute(a *Artifacts) map[string]float64 {
	// Distinct accepted values per attribute (a value can be accepted
	// twice: via two donors, or as a cached replay).
	acceptedBy := map[string]map[string]bool{}
	for _, d := range a.Ledger.Decisions() {
		if d.Component != m.Stage || !acceptedVerdict(d.Verdict) || d.Value == "" {
			continue
		}
		set := acceptedBy[d.AttrID]
		if set == nil {
			set = map[string]bool{}
			acceptedBy[d.AttrID] = set
		}
		set[strings.ToLower(d.Value)] = true
	}
	var accepted, correct, got, target float64
	for _, g := range a.Set.Attrs {
		vals := acceptedBy[g.AttrID]
		nCorrect := 0
		for v := range vals {
			accepted++
			if g.Correct(v) {
				correct++
				nCorrect++
			}
		}
		if m.responsible(&g) && g.Findable {
			t := a.K
			if g.Numeric == nil && len(g.Instances) < t {
				t = len(g.Instances)
			}
			if t > 0 {
				target += float64(t)
				got += float64(min(nCorrect, t))
			}
		}
	}
	return prf(correct, accepted, got, target)
}

// responsible reports whether the stage is expected to serve the
// attribute under the acquisition policy.
func (m StageMetric) responsible(g *AttrGold) bool {
	if m.Stage == "attr-surface" {
		return g.Predefined
	}
	return !g.Predefined
}

// Pool implements Metric (micro average across domains).
func (m StageMetric) Pool(vals []map[string]float64) map[string]float64 {
	return poolPRF(vals)
}

// --- Final acquired-instance quality ---

// AcquiredMetric scores the instances that actually landed on the
// attributes after the full policy ran: precision over every Acquired
// value, recall for initially instance-less findable attributes
// against min(K, |gold|), and the Table-1 acquisition success rate.
type AcquiredMetric struct{}

// Name implements Metric.
func (AcquiredMetric) Name() string { return "acquired" }

// Compute implements Metric.
func (AcquiredMetric) Compute(a *Artifacts) map[string]float64 {
	byID := map[string]*schema.Attribute{}
	for _, attr := range a.Dataset.AllAttributes() {
		byID[attr.ID] = attr
	}
	var accepted, correct, got, target float64
	for _, g := range a.Set.Attrs {
		attr := byID[g.AttrID]
		if attr == nil {
			continue
		}
		nCorrect := 0
		seen := map[string]bool{}
		for _, v := range attr.Acquired {
			f := strings.ToLower(v)
			if seen[f] {
				continue
			}
			seen[f] = true
			accepted++
			if g.Correct(v) {
				correct++
				nCorrect++
			}
		}
		if !g.Predefined && g.Findable {
			t := a.K
			if g.Numeric == nil && len(g.Instances) < t {
				t = len(g.Instances)
			}
			if t > 0 {
				target += float64(t)
				got += float64(min(nCorrect, t))
			}
		}
	}
	out := prf(correct, accepted, got, target)
	out["success_rate"] = a.Report.SuccessRate() / 100
	return out
}

// Pool implements Metric.
func (AcquiredMetric) Pool(vals []map[string]float64) map[string]float64 {
	out := poolPRF(vals)
	// Success rate has no count components; macro-average it.
	var sum float64
	n := 0
	for _, v := range vals {
		if sr, ok := v["success_rate"]; ok {
			sum += sr
			n++
		}
	}
	if n > 0 {
		out["success_rate"] = sum / float64(n)
	}
	return out
}

// --- Matcher merge accuracy ---

// MatchMetric scores the matcher against the expected merges: pairwise
// precision/recall/F1 (the paper's Section-6 measure) plus the fraction
// of expected unified-interface clusters reproduced exactly.
type MatchMetric struct{}

// Name implements Metric.
func (MatchMetric) Name() string { return "match" }

// Compute implements Metric.
func (MatchMetric) Compute(a *Artifacts) map[string]float64 {
	mm := matcher.Evaluate(a.Match.Pairs, a.Set.GoldPairSet())
	out := prf(float64(mm.Correct), float64(mm.Predicted), float64(mm.Correct), float64(mm.Gold))

	predicted := map[string]bool{}
	for _, cl := range a.Match.Clusters {
		if len(cl) >= 2 {
			predicted[clusterKey(cl)] = true
		}
	}
	exact := 0
	for _, cl := range a.Set.Clusters {
		if predicted[clusterKey(cl)] {
			exact++
		}
	}
	out["n_clusters_gold"] = float64(len(a.Set.Clusters))
	out["n_clusters_exact"] = float64(exact)
	if len(a.Set.Clusters) > 0 {
		out["cluster_exact"] = float64(exact) / float64(len(a.Set.Clusters))
	}
	return out
}

func clusterKey(ids []string) string {
	s := append([]string(nil), ids...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

// Pool implements Metric.
func (MatchMetric) Pool(vals []map[string]float64) map[string]float64 {
	out := poolPRF(vals)
	var gold, exact float64
	for _, v := range vals {
		gold += v["n_clusters_gold"]
		exact += v["n_clusters_exact"]
	}
	out["n_clusters_gold"] = gold
	out["n_clusters_exact"] = exact
	if gold > 0 {
		out["cluster_exact"] = exact / gold
	}
	return out
}

// --- Degradation counts ---

// DegradationMetric counts the graceful-degradation events of the run
// by stage — zero without fault injection, the fault-profile
// degradation budget with it.
type DegradationMetric struct{}

// Name implements Metric.
func (DegradationMetric) Name() string { return "degradation" }

// Compute implements Metric.
func (DegradationMetric) Compute(a *Artifacts) map[string]float64 {
	out := map[string]float64{"n_total": float64(len(a.Report.Degradations))}
	for _, d := range a.Report.Degradations {
		out["n_"+d.Stage]++
	}
	return out
}

// Pool implements Metric (counts sum).
func (DegradationMetric) Pool(vals []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, v := range vals {
		for k, x := range v {
			out[k] += x
		}
	}
	return out
}

// --- Shared helpers ---

// prf assembles the standard precision/recall/F1 component map from
// accept and recall counts. Counts ride along (n_ prefix) so pooling
// can micro-average.
func prf(correct, accepted, got, target float64) map[string]float64 {
	out := map[string]float64{
		"n_correct":  correct,
		"n_accepted": accepted,
		"n_got":      got,
		"n_target":   target,
	}
	p, r := 0.0, 0.0
	if accepted > 0 {
		p = correct / accepted
	}
	if target > 0 {
		r = got / target
	}
	out["precision"] = p
	out["recall"] = r
	if p+r > 0 {
		out["f1"] = 2 * p * r / (p + r)
	} else {
		out["f1"] = 0
	}
	return out
}

// poolPRF sums the count components across domains and re-derives
// precision/recall/F1 — the micro average, so big domains weigh more
// and tiny ones cannot swing the gate.
func poolPRF(vals []map[string]float64) map[string]float64 {
	var correct, accepted, got, target float64
	for _, v := range vals {
		correct += v["n_correct"]
		accepted += v["n_accepted"]
		got += v["n_got"]
		target += v["n_target"]
	}
	return prf(correct, accepted, got, target)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
