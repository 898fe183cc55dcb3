package webiq

import (
	"context"
	"errors"
	"fmt"

	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/stats"
)

// This file implements Section 3: the validation-based naive Bayes
// classifier that decides whether an instance borrowed from another
// attribute belongs to attribute A. Features are thresholded validation
// (PMI) scores; training is fully automatic — positives are A's own
// instances, negatives are instances of A's interface siblings.

// Classifier is a trained validation-based naive Bayes classifier for
// one attribute.
type Classifier struct {
	// Phrases are the validation phrases; feature i is the thresholded
	// score on phrase i.
	Phrases []string
	// Thresholds are the per-feature thresholds t_i estimated by
	// information gain over T1.
	Thresholds []float64
	// Priors and class-conditional probabilities estimated from T2 with
	// Laplacean smoothing.
	PPos, PNeg float64
	// PF[i][f][c]: probability of feature i having value f (0/1) given
	// class c (0 = negative, 1 = positive).
	PF [][2][2]float64
}

// errTooFewExamples is returned when there are not enough training
// examples to split into T1 and T2.
var errTooFewExamples = errors.New("webiq: too few training examples for classifier")

// trainClassifier builds the classifier for an attribute with the given
// label, using its existing instances as positive examples and the
// non-instances (values of sibling attributes) as negatives. It follows
// the three steps of Section 3.2: training-set preparation (validation
// scores via the Surface Web), threshold estimation on T1 by information
// gain, and probability estimation on T2 with Laplacean smoothing.
//
// Errors from the validation backend propagate: any training example
// whose validation vector is unavailable makes the whole classifier
// untrainable (a partially scored matrix would bias the thresholds),
// and the first such error is returned for the caller's degradation
// policy.
func trainClassifier(ctx context.Context, v *Validator, label string, positives, negatives []string) (*Classifier, error) {
	phrases := v.Phrases(label)
	if len(phrases) == 0 {
		return nil, errors.New("webiq: no validation phrases for label " + label)
	}
	if len(positives) < 2 || len(negatives) < 2 {
		return nil, errTooFewExamples
	}
	// Score every training example's validation vector (the expensive,
	// query-issuing part) on the worker pool. Each example writes its
	// own slot, so the training matrix is identical to a sequential
	// build and the validator's singleflight memo keeps the query count
	// identical too.
	xs := make([]string, 0, len(positives)+len(negatives))
	xs = append(xs, positives...)
	xs = append(xs, negatives...)
	scores, errs := v.ScoresCtx(ctx, phrases, xs, v.cfg.Parallelism, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return trainFromScores(phrases, scores[:len(positives)], scores[len(positives):]), nil
}

// trainFromScores runs threshold and probability estimation over
// already-computed validation vectors (the M columns of Figure 5.c).
func trainFromScores(phrases []string, posScores, negScores [][]float64) *Classifier {
	type example struct {
		scores []float64
		pos    bool
	}
	var all []example
	for _, s := range posScores {
		all = append(all, example{scores: s, pos: true})
	}
	for _, s := range negScores {
		all = append(all, example{scores: s, pos: false})
	}

	// Split each class in half: first halves form T1 (threshold
	// estimation), second halves form T2 (probability estimation),
	// mirroring Figure 5.d/5.e.
	var t1, t2 []example
	half := func(n int) int { return (n + 1) / 2 }
	np, nn := len(posScores), len(negScores)
	for i, ex := range all {
		var inT1 bool
		if i < np {
			inT1 = i < half(np)
		} else {
			inT1 = (i - np) < half(nn)
		}
		if inT1 {
			t1 = append(t1, ex)
		} else {
			t2 = append(t2, ex)
		}
	}

	c := &Classifier{Phrases: phrases}
	// Step 2: estimate thresholds by information gain over T1.
	c.Thresholds = make([]float64, len(phrases))
	for i := range phrases {
		var vals []float64
		var labels []bool
		for _, ex := range t1 {
			vals = append(vals, ex.scores[i])
			labels = append(labels, ex.pos)
		}
		c.Thresholds[i] = bestThreshold(vals, labels)
	}

	// Step 3: estimate probabilities from T2 with Laplacean smoothing.
	c.PF = make([][2][2]float64, len(phrases))
	var cnt [2]int // examples per class in T2
	fcnt := make([][2][2]int, len(phrases))
	for _, ex := range t2 {
		cls := 0
		if ex.pos {
			cls = 1
		}
		cnt[cls]++
		for i := range phrases {
			f := 0
			if ex.scores[i] > c.Thresholds[i] {
				f = 1
			}
			fcnt[i][f][cls]++
		}
	}
	total := cnt[0] + cnt[1]
	c.PPos = float64(cnt[1]+1) / float64(total+2)
	c.PNeg = float64(cnt[0]+1) / float64(total+2)
	for i := range phrases {
		for f := 0; f < 2; f++ {
			for cls := 0; cls < 2; cls++ {
				c.PF[i][f][cls] = float64(fcnt[i][f][cls]+1) / float64(cnt[cls]+2)
			}
		}
	}
	return c
}

// bestThreshold chooses the threshold maximizing information gain: the
// split of the values that most reduces class entropy (Section 3.2,
// step 2). Candidate thresholds are midpoints between adjacent sorted
// values.
func bestThreshold(values []float64, positive []bool) float64 {
	th, _ := stats.InfoGainSplit(values, positive)
	return th
}

// Features converts a validation-score vector into the binary feature
// vector using the learned thresholds.
func (c *Classifier) Features(scores []float64) []int {
	out := make([]int, len(scores))
	for i, s := range scores {
		if s > c.Thresholds[i] {
			out[i] = 1
		}
	}
	return out
}

// ProbPositive evaluates Formula 1: the posterior probability that an
// object with the given validation scores is an instance of the
// attribute.
func (c *Classifier) ProbPositive(scores []float64) float64 {
	f := c.Features(scores)
	pPos, pNeg := c.PPos, c.PNeg
	for i, fi := range f {
		pPos *= c.PF[i][fi][1]
		pNeg *= c.PF[i][fi][0]
	}
	if pPos+pNeg == 0 {
		return 0.5
	}
	return pPos / (pPos + pNeg)
}

// bounds returns the least and greatest Formula 1 posterior over every
// completion of a scored prefix: scores holds the validation scores of
// the first k phrases, and each of the 2^(n-k) completions gives the
// features past k each value, 0 or 1. Every completion is evaluated
// with ProbPositive's own products in its order, so a full vector
// yields lo == hi == ProbPositive(scores), and the decision
// ProbPositive(full) > 0.5 is fixed by the prefix exactly when lo > 0.5
// (accept) or hi <= 0.5 (reject).
func (c *Classifier) bounds(scores []float64) (lo, hi float64) {
	k, n := len(scores), len(c.PF)
	lo, hi = 1, 0
	for m := 0; m < 1<<(n-k); m++ {
		pPos, pNeg := c.PPos, c.PNeg
		for i := 0; i < n; i++ {
			var f int
			if i >= k {
				f = m >> (i - k) & 1
			} else if scores[i] > c.Thresholds[i] {
				f = 1
			}
			pPos *= c.PF[i][f][1]
			pNeg *= c.PF[i][f][0]
		}
		p := 0.5
		if pPos+pNeg != 0 {
			p = pPos / (pPos + pNeg)
		}
		lo, hi = min(lo, p), max(hi, p)
	}
	return lo, hi
}

// decided reports whether the scored prefix fixes the decision: the
// stop predicate Attr-Surface scores borrowed values under.
func (c *Classifier) decided(scores []float64) bool {
	lo, hi := c.bounds(scores)
	return lo > 0.5 || hi <= 0.5
}

// AttrSurface borrows instances for an attribute and validates them via
// the Surface Web using the validation-based classifier.
type AttrSurface struct {
	validator *Validator
	cfg       Config
	ledger    *obs.Ledger

	// Optional classifier-decision metrics; nil-safe no-ops when
	// Instrument was not called.
	mDecisions *obs.CounterVec // decision: accept, reject, skip
}

// NewAttrSurface returns the Attr-Surface component.
func NewAttrSurface(validator *Validator, cfg Config) *AttrSurface {
	return &AttrSurface{validator: validator, cfg: cfg}
}

// Instrument registers the classifier decision counter on r:
//
//	webiq_classifier_decisions_total{decision}
//
// decision is "accept" or "reject" per borrowed value classified, and
// "skip" per borrowed value dropped because training was impossible.
func (as *AttrSurface) Instrument(r *obs.Registry) {
	as.mDecisions = r.CounterVec("webiq_classifier_decisions_total", "Validation-based classifier decisions on borrowed values.", "decision")
}

// SetLedger installs the decision-provenance ledger; nil disables
// recording.
func (as *AttrSurface) SetLedger(l *obs.Ledger) { as.ledger = l }

// ValidateBorrowedCtx trains a classifier for the attribute with the
// given label (positives = its instances, negatives = sibling values),
// then returns the subset of borrowed values classified as instances.
// When the classifier cannot be trained at all (too few examples, no
// validation phrases, or a backend failure) it returns nil and records
// a "skip" rather than a unanimous rejection.
//
// With the caller's trace context and attribute ID it records, for the
// provenance ledger, a "trained" decision carrying the information-gain
// thresholds (or a "skip" when training was impossible) and one
// accept/reject per borrowed value with its posterior against the 0.5
// cutoff.
func (as *AttrSurface) ValidateBorrowedCtx(ctx context.Context, attrID, label string, positives, negatives, borrowed []string) (accepted []string) {
	clf, err := trainClassifier(ctx, as.validator, label, positives, negatives)
	if err != nil {
		if r := resilience.Reason(err); r != "other" && r != "none" {
			// Backend failure, not a data property: the classifier skip
			// is a degradation, recorded as such.
			degrade(ctx, Degradation{
				Stage: "attr-surface", Reason: r,
				AttrID: attrID, Label: label,
				Detail: "classifier training degraded; borrowed values skipped",
			})
		}
		as.mDecisions.With("skip").Add(float64(len(borrowed)))
		if as.ledger != nil {
			as.ledger.RecordCtx(ctx, obs.Decision{
				Component: "attr-surface", Verdict: "skip",
				AttrID: attrID, Label: label, Count: len(borrowed),
				Detail: "classifier untrainable: " + err.Error(),
			})
		}
		return nil
	}
	if as.ledger != nil {
		as.ledger.RecordCtx(ctx, obs.Decision{
			Component: "attr-surface", Verdict: "trained",
			AttrID: attrID, Label: label,
			Count:  len(clf.Phrases),
			Detail: fmt.Sprintf("info-gain thresholds %.4g (priors +%.3f/-%.3f)", clf.Thresholds, clf.PPos, clf.PNeg),
		})
	}
	// Scoring each borrowed value is independent; score them on the
	// worker pool and decide in index order, so accepted preserves the
	// borrowed order exactly as a sequential loop would. Each value is
	// scored phrase by phrase only until its decision is fixed, so the
	// keys asked depend on the value's own scores, not on the width.
	n := len(clf.Phrases)
	scores, errs := as.validator.ScoresCtx(ctx, clf.Phrases, borrowed, as.cfg.Parallelism, clf.decided)
	for i, b := range borrowed {
		if errs[i] != nil {
			// The value could not be scored (backend failure, or the
			// run was canceled before its slot ran): skip just this
			// value rather than rejecting it with fabricated evidence.
			degrade(ctx, Degradation{
				Stage: "attr-surface", Reason: resilience.Reason(errs[i]),
				AttrID: attrID, Label: label,
				Detail: "borrowed value skipped: " + b,
			})
			as.mDecisions.With("skip").Inc()
			continue
		}
		// The deciding bound: the least posterior over the unscored
		// phrases' completions for an accept, the greatest for a
		// reject; the posterior itself once every phrase is scored.
		lo, hi := clf.bounds(scores[i])
		verdict, bound := "reject", hi
		if lo > 0.5 {
			verdict, bound = "accept", lo
			accepted = append(accepted, b)
		}
		as.mDecisions.With(verdict).Inc()
		if as.ledger != nil {
			as.ledger.RecordCtx(ctx, obs.Decision{
				Component: "attr-surface", Verdict: verdict,
				AttrID: attrID, Label: label, Value: b,
				Score: bound, Threshold: 0.5, Count: len(scores[i]),
				Detail: fmt.Sprintf("posterior bound over %d of %d phrases", len(scores[i]), n),
			})
		}
	}
	return accepted
}
