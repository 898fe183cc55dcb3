package webiq

import (
	"context"
	"fmt"

	"webiq/internal/deepweb"
	"webiq/internal/memo"
	"webiq/internal/obs"
	"webiq/internal/resilience"
)

// AttrDeep validates borrowed instances by probing the attribute's own
// Deep-Web source, implementing Section 4: formulate a probing query
// with A set to the borrowed value and other attributes at defaults,
// submit, and analyze the response page with heuristics. To reduce the
// number of queries, if the submission succeeds for at least one third
// of the probed instances of the donor attribute B, all instances of B
// are assumed to be instances of A.
type AttrDeep struct {
	pool *deepweb.Pool
	// source answers the probes: the zero-fault adapter over pool, or
	// the error-aware client Acquirer.SetFallible installs. A failed
	// probe is excluded from the one-third rule's sample instead of
	// counting as a rejection.
	source resilience.FallibleSource
	cfg    Config
	ledger *obs.Ledger

	// verdicts remembers the response-page verdict of every answered
	// probe for the component's lifetime (one run), keyed by interface
	// ID, attribute ID and value: a target's donors share values, and a
	// submission the source has answered is not sent again. It sits
	// above source, so a remembered verdict never draws a fresh fault,
	// and a failed probe is not stored. One shard: probing is serial.
	verdicts *memo.Memo[bool]
}

// NewAttrDeep returns the Attr-Deep component over the source pool.
func NewAttrDeep(pool *deepweb.Pool, cfg Config) *AttrDeep {
	return &AttrDeep{pool: pool, source: sourceProbe(pool.Source), cfg: cfg, verdicts: memo.New[bool](1)}
}

// setFallible installs an error-aware probing backend; nil restores the
// zero-fault adapter over the pool.
func (ad *AttrDeep) setFallible(src resilience.FallibleSource) {
	if src == nil {
		src = sourceProbe(ad.pool.Source)
	}
	ad.source = src
}

// sourceProbe lifts the sources that sources returns per interface ID
// into a zero-fault FallibleSource; an unknown interface fails with
// resilience.ErrUnknownSource.
func sourceProbe(sources func(ifcID string) *deepweb.Source) resilience.ProbeFunc {
	return func(ifcID, attrID, value string) (string, error) {
		src := sources(ifcID)
		if src == nil {
			return "", resilience.ErrUnknownSource
		}
		return src.Probe(attrID, value), nil
	}
}

// SetLedger installs the decision-provenance ledger; nil disables
// recording.
func (ad *AttrDeep) SetLedger(l *obs.Ledger) { ad.ledger = l }

// ValidateBorrowedCtx probes the source behind interfaceID with
// attribute attrID set to a sample of the donor's values. If at least
// one third of the answered probes succeed, all donor values are
// accepted (the one-third rule); otherwise none are. The batch verdict
// and each accepted value are recorded as "attr-deep" ledger decisions
// under the attribute and donor labels, carrying ctx's trace identity.
//
// The sample's values are probed one at a time, in order, and probing
// stops as soon as no outcome of the probes left can change the
// verdict (see oneThirdFixed), so the values consulted are the shortest
// prefix of the sample that decides it, at any Config.Parallelism.
// Each value's answer comes from the source only the first time the
// run consults that submission (see probe). Probes that fail, or that
// cancellation kept from running, shrink the sample instead of voting.
func (ad *AttrDeep) ValidateBorrowedCtx(ctx context.Context, interfaceID, attrID, attrLabel, donorLabel string, donorValues []string) ([]string, bool) {
	if len(donorValues) == 0 {
		return nil, false
	}
	if ad.pool.Source(interfaceID) == nil {
		return nil, false
	}
	probes := donorValues
	if ad.cfg.MaxBorrowProbes > 0 && len(probes) > ad.cfg.MaxBorrowProbes {
		probes = probes[:ad.cfg.MaxBorrowProbes]
	}
	issued, answered, success := 0, 0, 0
	for _, v := range probes {
		if oneThirdFixed(success, answered, len(probes)-issued) || ctx.Err() != nil {
			break
		}
		issued++
		ok, err := ad.probe(ctx, interfaceID, attrID, v)
		if err != nil {
			degrade(ctx, Degradation{
				Stage: "attr-deep", Reason: resilience.Reason(err),
				AttrID: attrID, Label: attrLabel,
				Detail: "probe failed: " + v,
			})
			continue
		}
		answered++
		if ok {
			success++
		}
	}
	if answered == 0 {
		// Deep validation is entirely unavailable for this donor: skip
		// it (no evidence either way) rather than reject.
		degrade(ctx, Degradation{
			Stage: "attr-deep", Reason: "no-probes-answered",
			AttrID: attrID, Label: attrLabel,
			Detail: fmt.Sprintf("donor %q: deep validation skipped", donorLabel),
		})
		if ad.ledger != nil {
			ad.ledger.RecordCtx(ctx, obs.Decision{
				Component: "attr-deep", Verdict: "skip",
				AttrID: attrID, Label: attrLabel, Count: issued,
				Detail: fmt.Sprintf("donor %q: 0/%d probes answered", donorLabel, issued),
			})
		}
		return nil, false
	}
	// The one-third rule runs over the probes that actually got an
	// answer; a backend failure shrinks the sample, it does not vote.
	frac := float64(success) / float64(answered)
	accepted := 3*success >= answered
	if ad.ledger != nil {
		verdict := "reject"
		if accepted {
			verdict = "accept"
		}
		ad.ledger.RecordCtx(ctx, obs.Decision{
			Component: "attr-deep", Verdict: verdict,
			AttrID: attrID, Label: attrLabel,
			Score: frac, Threshold: 1.0 / 3.0, Count: issued,
			Detail: fmt.Sprintf("donor %q: %d/%d probes succeeded, decided after %d of %d",
				donorLabel, success, answered, issued, len(probes)),
		})
		if accepted {
			for _, v := range donorValues {
				ad.ledger.RecordCtx(ctx, obs.Decision{
					Component: "attr-deep", Verdict: "accept",
					AttrID: attrID, Label: attrLabel, Value: v,
					Score: frac, Threshold: 1.0 / 3.0,
					Detail: fmt.Sprintf("one-third rule via donor %q", donorLabel),
				})
			}
		}
	}
	if accepted {
		return donorValues, true
	}
	return nil, false
}

// probe returns whether the source behind interfaceID answers value for
// attribute attrID with a success page (deepweb.AnalyzeResponse). The
// verdict of a submission the run already answered is remembered; only
// a new one reaches the source.
func (ad *AttrDeep) probe(ctx context.Context, interfaceID, attrID, value string) (bool, error) {
	// The key is built in a stack buffer; the memo copies it into a
	// string only on a miss.
	var kb [128]byte
	k := append(kb[:0], interfaceID...)
	k = append(k, 0)
	k = append(k, attrID...)
	k = append(k, 0)
	k = append(k, value...)
	ok, _, err := ad.verdicts.Do(ctx, k, func(string) (bool, error) {
		page, err := ad.source.Probe(ctx, interfaceID, attrID, value)
		if err != nil {
			return false, err
		}
		return deepweb.AnalyzeResponse(page), nil
	})
	return ok, err
}

// oneThirdFixed reports whether the one-third verdict over s successes
// of a answered probes is fixed whatever the r probes left answer: each
// may succeed, reject, or fail and shrink the sample. It is fixed at
// accept when even r rejections keep 3s >= a+r, and at reject when even
// r successes keep 3(s+r) < a+r. With nothing answered yet it is never
// fixed: r failures would make the verdict a skip.
func oneThirdFixed(s, a, r int) bool {
	return a > 0 && (3*s >= a+r || 3*(s+r) < a+r)
}
