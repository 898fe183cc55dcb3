package webiq

import (
	"context"
	"fmt"

	"webiq/internal/deepweb"
	"webiq/internal/obs"
	"webiq/internal/parallel"
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
}

// NewAttrDeep returns the Attr-Deep component over the source pool.
func NewAttrDeep(pool *deepweb.Pool, cfg Config) *AttrDeep {
	return &AttrDeep{pool: pool, source: sourceProbe(pool.Source), cfg: cfg}
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
// With Config.Parallelism > 1 the probes run on a bounded worker pool.
// Every probe is issued either way (the one-third rule needs the full
// sample), so the probe count, the pool's virtual-time charge, and the
// accept/reject decision are identical to the sequential run. Probes
// that fail, or that cancellation kept from running, shrink the sample
// instead of voting.
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
	oks := make([]bool, len(probes))
	ran := make([]bool, len(probes))
	failed := make([]error, len(probes))
	parallel.For(ctx, len(probes), ad.cfg.Parallelism, func(i int) {
		page, err := ad.source.Probe(ctx, interfaceID, attrID, probes[i])
		ran[i] = true
		if err != nil {
			failed[i] = err
			return
		}
		oks[i] = deepweb.AnalyzeResponse(page)
	})
	answered := 0
	for i := range probes {
		switch {
		case failed[i] != nil:
			degrade(ctx, Degradation{
				Stage: "attr-deep", Reason: resilience.Reason(failed[i]),
				AttrID: attrID, Label: attrLabel,
				Detail: "probe failed: " + probes[i],
			})
		case ran[i]:
			answered++
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
				AttrID: attrID, Label: attrLabel, Count: len(probes),
				Detail: fmt.Sprintf("donor %q: 0/%d probes answered", donorLabel, len(probes)),
			})
		}
		return nil, false
	}
	success := 0
	for _, ok := range oks {
		if ok {
			success++
		}
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
			Score: frac, Threshold: 1.0 / 3.0, Count: len(probes),
			Detail: fmt.Sprintf("donor %q: %d/%d probes succeeded", donorLabel, success, answered),
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
