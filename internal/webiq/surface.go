package webiq

import (
	"context"
	"sort"
	"strings"

	"webiq/internal/nlp"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/schema"
)

// Surface discovers instances for an attribute from the Surface Web,
// implementing Section 2: instance extraction (label syntax analysis,
// extraction-query formulation, snippet extraction) followed by instance
// verification (outlier removal, Web validation).
type Surface struct {
	// engine answers the extraction searches: the zero-fault adapter
	// over the constructor's engine, or the error-aware client
	// Acquirer.SetFallible installs. A failed search degrades (the query
	// is skipped, the failure recorded) instead of aborting discovery.
	engine resilience.FallibleEngine
	// adapter is the zero-fault adapter setFallible(nil) restores.
	adapter   resilience.FallibleEngine
	validator *Validator
	cfg       Config

	// ledger, when set, records every verification decision (outlier
	// removals, PMI accept/reject) for the provenance ledger. nil-safe.
	ledger *obs.Ledger
}

// NewSurface returns a Surface component sharing the given validator's
// hit-count cache.
func NewSurface(engine SearchEngine, validator *Validator, cfg Config) *Surface {
	a := resilience.AdaptEngine(engine)
	return &Surface{engine: a, adapter: a, validator: validator, cfg: cfg}
}

// setFallible installs an error-aware engine for extraction searches;
// nil restores the zero-fault adapter over the constructor's engine.
func (s *Surface) setFallible(e resilience.FallibleEngine) {
	if e == nil {
		e = s.adapter
	}
	s.engine = e
}

// SetLedger installs the decision-provenance ledger; nil disables
// recording.
func (s *Surface) SetLedger(l *obs.Ledger) { s.ledger = l }

// Candidate is an extracted instance candidate with bookkeeping for
// reports and tests.
type Candidate struct {
	Value string
	// Freq is how many snippets yielded the candidate.
	Freq int
	// Score is the validation confidence (average PMI).
	Score float64
	// Degraded marks a candidate accepted without validation because
	// the validation backend failed terminally (accept-with-flag).
	Degraded bool
}

// DiscoverInstancesCtx runs the full extraction + verification pipeline
// and returns up to cfg.K instances ranked by validation score. The
// interface and dataset provide the domain information used to narrow
// queries. Ledger decisions recorded during verification carry the
// context's trace/span identity.
func (s *Surface) DiscoverInstancesCtx(ctx context.Context, a *schema.Attribute, ifc *schema.Interface, ds *schema.Dataset) []string {
	return candidateValues(s.verifyScored(ctx, a, s.extractCtx(ctx, a, ifc, ds)))
}

// candidateValues copies out the candidate values, preserving nil for
// an empty verification result (callers distinguish nil from empty).
func candidateValues(cands []Candidate) []string {
	if len(cands) == 0 {
		return nil
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Value
	}
	return out
}

// Extract implements the instance-extraction phase (Figure 3.a) and
// returns raw candidates with frequencies.
func (s *Surface) Extract(a *schema.Attribute, ifc *schema.Interface, ds *schema.Dataset) []Candidate {
	return s.extractCtx(context.Background(), a, ifc, ds)
}

// extractCtx is Extract with the degradation path: a search that fails
// terminally skips just that query — the remaining queries still run
// and borrowing still follows — and the failure is recorded on the
// run's degradation sink.
func (s *Surface) extractCtx(ctx context.Context, a *schema.Attribute, ifc *schema.Interface, ds *schema.Dataset) []Candidate {
	ls := nlp.AnalyzeLabel(a.Label)
	if len(ls.NPs) == 0 {
		// Bare prepositions, verb phrases without embedded NPs, etc.:
		// the extraction phase terminates with no instances.
		return nil
	}

	siblings := siblingLabels(a, ifc)
	rej := labelRejectSet(a.Label)
	tagged := tagBufPool.Get().(*[]nlp.TaggedToken)
	defer tagBufPool.Put(tagged)
	freq := map[string]int{}
	var order []string
	for _, np := range ls.NPs {
		for _, q := range FormulateQueries(np, ds.EntityName, ds.DomainKeyword, siblings, s.cfg) {
			snips, err := s.engine.Search(ctx, q.Query, s.cfg.SnippetsPerQuery)
			if err != nil {
				degrade(ctx, Degradation{
					Stage: "surface", Reason: resilience.Reason(err),
					AttrID: a.ID, Label: a.Label,
					Detail: "extraction search skipped: " + q.Query,
				})
				if ctx.Err() != nil {
					return candidateList(order, freq)
				}
				continue
			}
			for _, snip := range snips {
				*tagged = snip.Tokens((*tagged)[:0])
				for _, c := range ExtractFromTokens(q, *tagged) {
					if rejectWith(rej, c) {
						continue
					}
					if _, seen := freq[c]; !seen {
						order = append(order, c)
					}
					freq[c]++
				}
			}
		}
	}
	return candidateList(order, freq)
}

// candidateList materializes the extraction candidates in first-seen
// order.
func candidateList(order []string, freq map[string]int) []Candidate {
	out := make([]Candidate, 0, len(order))
	for _, c := range order {
		out = append(out, Candidate{Value: c, Freq: freq[c]})
	}
	return out
}

// Verify implements the instance-verification phase (Figure 3.b):
// outlier removal followed by Web validation, returning the top-K
// values.
func (s *Surface) Verify(a *schema.Attribute, cands []Candidate) []string {
	return candidateValues(s.verifyScored(context.Background(), a, cands))
}

// verifyScored is the verification phase returning the surviving
// candidates with their validation scores, recording each decision in
// the ledger when one is installed. The returned values are identical
// to the pre-ledger Verify in content and order.
func (s *Surface) verifyScored(ctx context.Context, a *schema.Attribute, cands []Candidate) []Candidate {
	if len(cands) == 0 {
		return nil
	}
	values := make([]string, len(cands))
	for i, c := range cands {
		values[i] = c.Value
	}
	if !s.cfg.SkipOutlierRemoval {
		if s.ledger != nil {
			var removed []string
			values, removed = RemoveOutliersExplain(values, s.cfg)
			for _, v := range removed {
				s.ledger.RecordCtx(ctx, obs.Decision{
					Component: "outlier", Verdict: "removed",
					AttrID: a.ID, Label: a.Label, Value: v,
					Threshold: s.cfg.OutlierSigma,
					Detail:    "type filter / discordancy test",
				})
			}
		} else {
			values = RemoveOutliers(values, s.cfg)
		}
	}
	if len(values) == 0 {
		return nil
	}

	// The whole candidate list is scored up front, serially (the
	// acquirer already runs one attribute per worker); the decision
	// loop below consumes the scores.
	confs, confErrs := s.validator.ConfidenceCtx(ctx, s.validator.Phrases(a.Label), values)
	scored := make([]Candidate, 0, len(values))
	for i, v := range values {
		sc, err := confs[i], confErrs[i]
		if err != nil {
			// Web validation is unavailable for this candidate: accept
			// it with the degradation recorded rather than silently
			// dropping an extracted instance (the paper's validation is
			// a precision filter; losing it costs precision, not
			// soundness). The zero score sorts flagged values last.
			degrade(ctx, Degradation{
				Stage: "pmi", Reason: resilience.Reason(err),
				AttrID: a.ID, Label: a.Label,
				Detail: "accept-with-flag: " + v,
			})
			if s.ledger != nil {
				s.ledger.RecordCtx(ctx, obs.Decision{
					Component: "surface", Verdict: "degraded-accept",
					AttrID: a.ID, Label: a.Label, Value: v,
					Threshold: s.cfg.MinScore,
					Detail:    "validation backend unavailable: " + err.Error(),
				})
			}
			scored = append(scored, Candidate{Value: v, Degraded: true})
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if sc <= s.cfg.MinScore {
			if s.ledger != nil {
				s.ledger.RecordCtx(ctx, obs.Decision{
					Component: "surface", Verdict: "reject",
					AttrID: a.ID, Label: a.Label, Value: v,
					Score: sc, Threshold: s.cfg.MinScore,
					Detail: "PMI confidence below threshold",
				})
			}
			continue
		}
		scored = append(scored, Candidate{Value: v, Score: sc})
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].Score > scored[j].Score })
	// The success criterion of Section 5 is reaching K instances, but
	// all validated instances (up to the acquisition cap) are retained:
	// larger instance sets give the matcher more value-overlap evidence.
	limit := s.cfg.MaxAcquired
	if limit < s.cfg.K {
		limit = s.cfg.K
	}
	if len(scored) > limit {
		if s.ledger != nil {
			for _, c := range scored[limit:] {
				s.ledger.RecordCtx(ctx, obs.Decision{
					Component: "surface", Verdict: "reject",
					AttrID: a.ID, Label: a.Label, Value: c.Value,
					Score: c.Score, Threshold: s.cfg.MinScore,
					Detail: "validated but over the acquisition cap",
				})
			}
		}
		scored = scored[:limit]
	}
	if s.ledger != nil {
		for _, c := range scored {
			s.ledger.RecordCtx(ctx, obs.Decision{
				Component: "surface", Verdict: "accept",
				AttrID: a.ID, Label: a.Label, Value: c.Value,
				Score: c.Score, Threshold: s.cfg.MinScore,
			})
		}
	}
	return scored
}

// rejectCandidate drops degenerate candidates: the label itself, label
// words, or single characters.
func (s *Surface) rejectCandidate(label, c string) bool {
	return rejectWith(labelRejectSet(label), c)
}

// labelRejectSet precomputes the degenerate forms rejected for a label:
// the lowered label itself plus every label word with its plural and
// singular. extractCtx builds it once per attribute instead of
// re-deriving the words for every extracted candidate.
func labelRejectSet(label string) map[string]bool {
	rej := map[string]bool{strings.ToLower(label): true}
	for _, w := range nlp.Words(label) {
		rej[w] = true
		rej[nlp.Pluralize(w)] = true
		rej[nlp.Singularize(w)] = true
	}
	return rej
}

// rejectWith is rejectCandidate against a precomputed reject set; the
// pooled buffer keeps the lowered-candidate probe allocation-free.
func rejectWith(rej map[string]bool, c string) bool {
	if len(c) <= 1 {
		return true
	}
	bp := foldBuf()
	buf := nlp.AppendLower((*bp)[:0], c)
	ok := rej[string(buf)]
	*bp = buf
	putFoldBuf(bp)
	return ok
}

// siblingLabels lists the labels of the other attributes on the same
// interface, in display order.
func siblingLabels(a *schema.Attribute, ifc *schema.Interface) []string {
	if ifc == nil {
		return nil
	}
	var out []string
	for _, o := range ifc.Attributes {
		if o.ID != a.ID {
			out = append(out, o.Label)
		}
	}
	return out
}
