package server

import (
	"net/http"
	"strings"

	"webiq/internal/obs"
	"webiq/internal/schema"
	"webiq/internal/unify"
)

// Decision provenance for the unified interface: GET
// /unified/{domain}/explain reports, for every attribute of the
// domain's unified interface, where each instance came from (the
// acquiring component) and the numeric evidence behind its acceptance
// (PMI confidence, classifier posterior, or probe-success fraction),
// plus the matcher merges that formed the attribute with their
// LabelSim/DomSim breakdowns.

// ExplainInstance attributes one unified-interface instance.
type ExplainInstance struct {
	Value string `json:"value"`
	// SourceAttr is the member attribute the instance came from.
	SourceAttr string `json:"source_attr"`
	// Component is "native" for predefined values, else the acquiring
	// component: "surface", "attr-surface", or "attr-deep".
	Component string `json:"component"`
	// Verdict is "predefined" for native values, "accept" otherwise.
	Verdict string `json:"verdict"`
	// Score/Threshold carry the acceptance evidence: PMI confidence vs
	// MinScore (surface), the deciding posterior bound vs 0.5
	// (attr-surface), or the success fraction of the sample values
	// consulted vs 1/3 (attr-deep). Zero for native values.
	Score     float64 `json:"score,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Evidence is the human-readable detail of the accepting decision.
	Evidence string `json:"evidence,omitempty"`
}

// ExplainAttribute is the provenance of one unified attribute.
type ExplainAttribute struct {
	Label     string            `json:"label"`
	Members   []string          `json:"members"`
	Merges    []obs.Decision    `json:"merges,omitempty"`
	Instances []ExplainInstance `json:"instances"`
}

// ExplainPayload is the /unified/{domain}/explain response.
type ExplainPayload struct {
	Domain     string             `json:"domain"`
	Attributes []ExplainAttribute `json:"attributes"`
	// Instances / Attributed count the unified instances and how many
	// could be tied to a recorded decision (or a predefined value);
	// they are equal when provenance is complete.
	Instances  int `json:"instances"`
	Attributed int `json:"attributed"`
}

// handleExplain serves GET /unified/{domain}/explain: the payload boot
// rendered from the world's decisions.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, domain string) {
	d := s.byDomain[domain]
	if d == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(d.explain)
}

// explainUnified resolves the provenance of every instance of the
// unified interface. It replays unify.Build's member walk exactly
// (predefined values first, then acquired, case-folded dedup), so each
// unified instance maps back to the member attribute that contributed
// it; predefined values are attributed as "native", acquired values to
// the ledger's accept decision recorded by the acquiring component.
func explainUnified(domain string, u *unify.UnifiedInterface, ds *schema.Dataset, ledger *obs.Ledger) *ExplainPayload {
	byID := map[string]*schema.Attribute{}
	if ds != nil {
		for _, ifc := range ds.Interfaces {
			for _, a := range ifc.Attributes {
				byID[a.ID] = a
			}
		}
	}
	merges := matcherMerges(ledger)
	out := &ExplainPayload{Domain: domain}
	for _, ua := range u.Attributes {
		ea := ExplainAttribute{
			Label:   ua.Label,
			Members: append([]string(nil), ua.Members...),
			Merges:  mergesAmong(merges, ua.Members),
		}
		seen := map[string]bool{}
		for pass := 0; pass < 2; pass++ {
			for _, id := range ua.Members {
				a := byID[id]
				if a == nil {
					continue
				}
				vals := a.Instances
				var decisions []obs.Decision
				if pass == 1 {
					vals = a.Acquired
					decisions = ledger.ByAttr(id)
				}
				for _, v := range vals {
					f := strings.ToLower(v)
					if seen[f] {
						continue
					}
					seen[f] = true
					inst := ExplainInstance{Value: v, SourceAttr: id}
					if pass == 0 {
						inst.Component = "native"
						inst.Verdict = "predefined"
						inst.Evidence = "predefined on the source interface"
						out.Attributed++
					} else if d, ok := acceptDecision(decisions, v); ok {
						inst.Component = d.Component
						inst.Verdict = d.Verdict
						inst.Score = d.Score
						inst.Threshold = d.Threshold
						inst.Evidence = d.Detail
						out.Attributed++
					} else {
						inst.Component = "unknown"
						inst.Verdict = "unattributed"
					}
					out.Instances++
					ea.Instances = append(ea.Instances, inst)
				}
			}
		}
		out.Attributes = append(out.Attributes, ea)
	}
	return out
}

// acceptDecision finds, among one attribute's decisions, the one that
// accepted value v — exact value match first, case-folded as a
// fallback. The first accept wins: it is the decision that actually
// added the value (later duplicates were deduplicated away).
func acceptDecision(decisions []obs.Decision, v string) (obs.Decision, bool) {
	for _, d := range decisions {
		if d.Verdict == "accept" && d.Value == v {
			return d, true
		}
	}
	f := strings.ToLower(v)
	for _, d := range decisions {
		if d.Verdict == "accept" && strings.ToLower(d.Value) == f {
			return d, true
		}
	}
	return obs.Decision{}, false
}

// matcherMerges returns the ledger's matcher merge decisions, in
// ledger order.
func matcherMerges(ledger *obs.Ledger) []obs.Decision {
	var out []obs.Decision
	for _, d := range ledger.Decisions() {
		if d.Component == "matcher" && d.Verdict == "merge" {
			out = append(out, d)
		}
	}
	return out
}

// mergesAmong picks the merges whose supporting pair lies within the
// member set, in merge order.
func mergesAmong(merges []obs.Decision, members []string) []obs.Decision {
	if len(members) < 2 {
		return nil
	}
	in := make(map[string]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	var out []obs.Decision
	for _, d := range merges {
		if in[d.AttrID] && in[d.OtherID] {
			out = append(out, d)
		}
	}
	return out
}
