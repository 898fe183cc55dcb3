package unify

import (
	"bytes"
	"encoding/json"
	"strings"

	"webiq/internal/obs"
	"webiq/internal/schema"
)

// Decision provenance for the unified interface: for every attribute of
// a domain's unified interface, where each instance came from (the
// acquiring component) and the numeric evidence behind its acceptance
// (PMI confidence, classifier posterior, or probe-success fraction),
// plus the matcher merges that formed the attribute with their
// LabelSim/DomSim breakdowns. The snapshot builder renders it once per
// domain; the server's GET /unified/{domain}/explain serves the bytes.

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

// RenderExplain renders Explain's payload as the explain route serves
// it: two-space indented JSON with a trailing newline.
func RenderExplain(domain string, u *UnifiedInterface, ds *schema.Dataset, decisions []obs.Decision) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Explain(domain, u, ds, decisions)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Explain resolves the provenance of every instance of the unified
// interface from the domain's ledger decisions, in emission order. It
// replays Build's member walk exactly (predefined values first, then
// acquired, case-folded dedup), so each unified instance maps back to
// the member attribute that contributed it; predefined values are
// attributed as "native", acquired values to the accept decision
// recorded by the acquiring component.
func Explain(domain string, u *UnifiedInterface, ds *schema.Dataset, decisions []obs.Decision) *ExplainPayload {
	byID := map[string]*schema.Attribute{}
	if ds != nil {
		for _, ifc := range ds.Interfaces {
			for _, a := range ifc.Attributes {
				byID[a.ID] = a
			}
		}
	}
	byAttr := map[string][]int{}
	for i, d := range decisions {
		if d.AttrID != "" {
			byAttr[d.AttrID] = append(byAttr[d.AttrID], i)
		}
	}
	merges := matcherMerges(decisions)
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
				var idx []int
				if pass == 1 {
					vals = a.Acquired
					idx = byAttr[id]
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
					} else if d, ok := acceptDecision(decisions, idx, v); ok {
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

// acceptDecision finds, among one attribute's decisions (the indexes idx
// into decisions), the one that accepted value v — exact value match
// first, case-folded as a fallback. The first accept wins: it is the
// decision that actually added the value (later duplicates were
// deduplicated away).
func acceptDecision(decisions []obs.Decision, idx []int, v string) (obs.Decision, bool) {
	for _, i := range idx {
		if d := decisions[i]; d.Verdict == "accept" && d.Value == v {
			return d, true
		}
	}
	f := strings.ToLower(v)
	for _, i := range idx {
		if d := decisions[i]; d.Verdict == "accept" && strings.ToLower(d.Value) == f {
			return d, true
		}
	}
	return obs.Decision{}, false
}

// matcherMerges returns the matcher merge decisions, in ledger order.
func matcherMerges(decisions []obs.Decision) []obs.Decision {
	var out []obs.Decision
	for _, d := range decisions {
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
