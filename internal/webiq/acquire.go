package webiq

import (
	"context"
	"sort"
	"sync"
	"time"

	"webiq/internal/obs"
	"webiq/internal/parallel"
	"webiq/internal/resilience"
	"webiq/internal/schema"
)

// Components selects which WebIQ components the Acquirer applies; the
// Figure-7 ablation toggles these.
type Components struct {
	Surface     bool
	AttrDeep    bool
	AttrSurface bool
}

// AllComponents enables the full system.
func AllComponents() Components {
	return Components{Surface: true, AttrDeep: true, AttrSurface: true}
}

// Acquirer implements the instance-acquisition policy of Section 5.
type Acquirer struct {
	surface     *Surface
	attrSurface *AttrSurface
	attrDeep    *AttrDeep
	enabled     Components
	cfg         Config

	// Optional accounting probes for the overhead analysis (Figure 8):
	// surfaceClock reads the search engine's accumulated virtual time
	// and query count; deepClock reads the source pool's.
	surfaceClock func() (time.Duration, int)
	deepClock    func() (time.Duration, int)

	// Optional observability (see obs.go): metric handles are nil-safe
	// no-ops until SetObserver installs them; spans is nil until
	// SetSpanTracer installs a tracer.
	mAttrs       *obs.CounterVec // result: success, failed, predefined
	mInstances   *obs.CounterVec // component
	mBorrowed    *obs.CounterVec // component
	mCompVirtual *obs.CounterVec // component
	mCompQueries *obs.CounterVec // component
	mDegraded    *obs.CounterVec // stage, reason
	spans        *obs.Tracer

	// ledger backs the degradation sink's provenance records (SetLedger).
	ledger *obs.Ledger
}

// SetFallible installs error-aware backends on every component: engine
// replaces the zero-fault search-engine adapter for extraction and hit
// counting, source replaces the zero-fault probe adapter over the pool
// for deep validation. Terminal backend failures degrade gracefully
// (see degrade.go). A nil argument restores that backend's zero-fault
// adapter, whose outputs are byte-identical to a build without this
// call.
func (a *Acquirer) SetFallible(engine resilience.FallibleEngine, source resilience.FallibleSource) {
	if a.surface != nil {
		a.surface.setFallible(engine)
		a.surface.validator.SetFallible(engine)
	}
	if a.attrSurface != nil {
		a.attrSurface.validator.SetFallible(engine)
	}
	if a.attrDeep != nil {
		a.attrDeep.setFallible(source)
	}
}

// SetAccounting installs clock probes used to attribute simulated query
// time to individual components in the acquisition report. Either probe
// may be nil.
func (a *Acquirer) SetAccounting(surfaceClock, deepClock func() (time.Duration, int)) {
	a.surfaceClock = surfaceClock
	a.deepClock = deepClock
}

// NewAcquirer wires the three components. Any component may be nil if
// its flag in enabled is false.
func NewAcquirer(surface *Surface, attrDeep *AttrDeep, attrSurface *AttrSurface, enabled Components, cfg Config) *Acquirer {
	return &Acquirer{
		surface:     surface,
		attrSurface: attrSurface,
		attrDeep:    attrDeep,
		enabled:     enabled,
		cfg:         cfg,
	}
}

// Method names the acquisition path that produced an attribute's
// instances.
type Method string

// Acquisition methods.
const (
	MethodNone        Method = "none"
	MethodSurface     Method = "surface"
	MethodAttrDeep    Method = "attr-deep"
	MethodAttrSurface Method = "attr-surface"
)

// Outcome records the acquisition result for one attribute.
type Outcome struct {
	AttrID       string
	Label        string
	HadInstances bool
	// Acquired is the number of instances added to the attribute.
	Acquired int
	// Methods lists the paths that contributed instances.
	Methods []Method
	// Success is true for an initially instance-less attribute that
	// ended with at least K instances.
	Success bool
}

// Report aggregates acquisition outcomes over a dataset, including the
// per-component simulated overhead for the Figure-8 analysis.
type Report struct {
	Outcomes []Outcome

	// SurfaceTime/SurfaceQueries: search-engine time and queries spent
	// gathering instances from the Web (the Surface component). Only
	// asks that reached the engine count: a search or hit count the
	// run's memos already answered costs nothing.
	SurfaceTime    time.Duration
	SurfaceQueries int
	// AttrSurfaceTime/AttrSurfaceQueries: search-engine time and queries
	// spent validating borrowed instances via the Surface Web; a hit
	// count the run already asked costs nothing.
	AttrSurfaceTime    time.Duration
	AttrSurfaceQueries int
	// AttrDeepTime/AttrDeepQueries: source probing time and probes spent
	// validating borrowed instances via the Deep Web. Only probes that
	// reached a source count: a submission the run already answered is
	// remembered.
	AttrDeepTime    time.Duration
	AttrDeepQueries int

	// Degradations lists every graceful-degradation event of the run:
	// backend failures the pipeline absorbed by skipping a query,
	// accepting without validation, or shrinking a probe sample. Empty
	// without fault injection.
	Degradations []Degradation
	// Interrupted is non-nil when the run stopped early because the
	// context was canceled; Outcomes then holds only the attributes
	// finished before the stop (partial results, with the error).
	Interrupted error
}

// SuccessRate returns the percentage of initially instance-less
// attributes for which acquisition succeeded (gathered >= K instances) —
// the quantity of Table 1's columns 6–7.
func (r *Report) SuccessRate() float64 {
	total, ok := 0, 0
	for _, o := range r.Outcomes {
		if o.HadInstances {
			continue
		}
		total++
		if o.Success {
			ok++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(ok) / float64(total)
}

// AcquireAllCtx gathers instances for every attribute of the dataset,
// mutating the attributes' Acquired fields, and returns the report.
//
// With Config.Parallelism > 1 the Surface discovery phase runs
// concurrently up front; the result is identical to the sequential run
// because Surface discovery depends only on labels and dataset metadata,
// never on other attributes' acquired instances. Outcomes, acquired
// instances, and the run's total engine consumption are all identical;
// only the Report's split between Surface and Attr-Surface charges can
// shift, because a validation query needed by both phases is charged to
// whichever issues it first (the validator memoizes it), and the
// up-front phase runs all discovery before any Attr-Surface validation.
//
// The "acquire-all" span joins the trace carried by ctx (a server
// request, typically) as a child, component spans nest under it, and
// every ledger decision recorded during the run carries the trace
// identity.
func (a *Acquirer) AcquireAllCtx(ctx context.Context, ds *schema.Dataset) *Report {
	ctx, all := a.spans.StartSpan(ctx, "acquire-all")
	all.Label("domain", ds.Domain)
	ctx, sink := a.newDegradeCtx(ctx)
	rep := &Report{}
	ix := newDonorIndex()
	var pre map[string][]string
	if a.cfg.Parallelism > 1 && a.enabled.Surface && a.surface != nil {
		pre = a.parallelSurface(ctx, ds, rep)
	}
loop:
	for _, ifc := range ds.Interfaces {
		for _, attr := range ifc.Attributes {
			if err := ctx.Err(); err != nil {
				rep.Interrupted = err
				break loop
			}
			out := a.acquireOne(ctx, rep, ix, ds, ifc, attr, pre)
			rep.Outcomes = append(rep.Outcomes, out)
			switch {
			case out.HadInstances:
				a.mAttrs.With("predefined").Inc()
			case out.Success:
				a.mAttrs.With("success").Inc()
			default:
				a.mAttrs.With("failed").Inc()
			}
		}
	}
	if rep.Interrupted == nil {
		rep.Interrupted = ctx.Err()
	}
	rep.Degradations = sink.take()
	all.AddVirtual(rep.SurfaceTime + rep.AttrSurfaceTime + rep.AttrDeepTime)
	all.AddQueries(rep.SurfaceQueries + rep.AttrSurfaceQueries + rep.AttrDeepQueries)
	all.End()
	return rep
}

// parallelSurface runs Surface discovery for every instance-less
// attribute with a bounded worker pool and returns the per-attribute
// results. The whole phase's engine time and query count are charged to
// the Surface component.
func (a *Acquirer) parallelSurface(ctx context.Context, ds *schema.Dataset, rep *Report) map[string][]string {
	type job struct {
		attr *schema.Attribute
		ifc  *schema.Interface
	}
	var jobs []job
	for _, ifc := range ds.Interfaces {
		for _, attr := range ifc.Attributes {
			if !attr.HasInstances() {
				jobs = append(jobs, job{attr, ifc})
			}
		}
	}
	spCtx, sp := a.spans.StartSpan(ctx, "surface")
	sp.Label("phase", "parallel")
	t0, q0 := readClock(a.surfaceClock)
	// On cancellation no new attribute is claimed; in-flight workers
	// finish (they observe the context themselves) and unclaimed
	// attributes surface as Interrupted partial results.
	results := make([][]string, len(jobs))
	parallel.For(spCtx, len(jobs), a.cfg.Parallelism, func(i int) {
		results[i] = a.surface.DiscoverInstancesCtx(spCtx, jobs[i].attr, jobs[i].ifc, ds)
	})
	t1, q1 := readClock(a.surfaceClock)
	rep.SurfaceTime += t1 - t0
	rep.SurfaceQueries += q1 - q0
	a.endComponent(sp, "surface", t1-t0, q1-q0)
	pre := make(map[string][]string, len(jobs))
	for i, j := range jobs {
		pre[j.attr.ID] = results[i]
	}
	return pre
}

// readClock samples an accounting probe, tolerating a nil probe.
func readClock(probe func() (time.Duration, int)) (time.Duration, int) {
	if probe == nil {
		return 0, 0
	}
	return probe()
}

// acquireOne applies the Section-5 policy to a single attribute. When
// pre is non-nil it holds precomputed Surface discovery results (from
// the parallel phase) keyed by attribute ID. ix is the run's donor
// index.
func (a *Acquirer) acquireOne(ctx context.Context, rep *Report, ix *donorIndex, ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute, pre map[string][]string) Outcome {
	out := Outcome{AttrID: attr.ID, Label: attr.Label, HadInstances: attr.HasInstances()}

	if !attr.HasInstances() {
		// Step 1.a: gather instances via the Surface Web.
		if a.enabled.Surface && a.surface != nil {
			var got []string
			if pre != nil {
				got = pre[attr.ID]
			} else {
				spCtx, sp := a.componentSpanCtx(ctx, "surface", attr.ID, attr.Label)
				t0, q0 := readClock(a.surfaceClock)
				got = a.surface.DiscoverInstancesCtx(spCtx, attr, ifc, ds)
				t1, q1 := readClock(a.surfaceClock)
				rep.SurfaceTime += t1 - t0
				rep.SurfaceQueries += q1 - q0
				a.endComponent(sp, "surface", t1-t0, q1-q0)
			}
			added := addAcquired(attr, got, a.cfg.MaxAcquired)
			if len(got) > 0 {
				out.Methods = append(out.Methods, MethodSurface)
				a.mInstances.With("surface").Add(float64(added))
			}
		}
		// Step 1.b: if unsuccessful, borrow and validate via the Deep
		// Web. (Surface validation would be unlikely to succeed given
		// 1.a failed, so it is not attempted — per the paper.)
		if len(attr.Acquired) < a.cfg.K && a.enabled.AttrDeep && a.attrDeep != nil {
			spCtx, sp := a.componentSpanCtx(ctx, "attr-deep", attr.ID, attr.Label)
			t0, q0 := readClock(a.deepClock)
			for _, donor := range a.borrowDonorsFreeText(ix, ds, ifc, attr) {
				borrowed := donor.AllInstances()
				a.mBorrowed.With("attr-deep").Add(float64(len(borrowed)))
				vals, ok := a.attrDeep.ValidateBorrowedCtx(spCtx, ifc.ID, attr.ID, attr.Label, donor.Label, borrowed)
				if !ok {
					continue
				}
				added := addAcquired(attr, vals, a.cfg.MaxAcquired)
				a.mInstances.With("attr-deep").Add(float64(added))
				if added > 0 && !hasMethod(out.Methods, MethodAttrDeep) {
					out.Methods = append(out.Methods, MethodAttrDeep)
				}
				// Stop once the acquisition target is met — further
				// donors only cost probes.
				if len(attr.Acquired) >= a.cfg.K {
					break
				}
			}
			t1, q1 := readClock(a.deepClock)
			rep.AttrDeepTime += t1 - t0
			rep.AttrDeepQueries += q1 - q0
			a.endComponent(sp, "attr-deep", t1-t0, q1-q0)
		}
		out.Acquired = len(attr.Acquired)
		out.Success = len(attr.Acquired) >= a.cfg.K
		if len(out.Methods) == 0 {
			out.Methods = []Method{MethodNone}
		}
		return out
	}

	// Extension (off in the paper's scheme): gather additional instances
	// from the Surface Web even for predefined-value attributes.
	if a.cfg.SurfaceForPredef && a.enabled.Surface && a.surface != nil {
		spCtx, sp := a.componentSpanCtx(ctx, "surface", attr.ID, attr.Label)
		t0, q0 := readClock(a.surfaceClock)
		got := a.surface.DiscoverInstancesCtx(spCtx, attr, ifc, ds)
		t1, q1 := readClock(a.surfaceClock)
		rep.SurfaceTime += t1 - t0
		rep.SurfaceQueries += q1 - q0
		a.endComponent(sp, "surface", t1-t0, q1-q0)
		if added := addAcquired(attr, got, a.cfg.MaxAcquired); added > 0 {
			out.Methods = append(out.Methods, MethodSurface)
			a.mInstances.With("surface").Add(float64(added))
		}
	}

	// Step 2: the attribute has predefined instances. Borrow from
	// value-compatible attributes and validate via the Surface Web —
	// the source would reject values outside the predefined list, so
	// Attr-Deep is not applicable.
	if a.enabled.AttrSurface && a.attrSurface != nil {
		borrowed := a.borrowValuesPredef(ix, ds, ifc, attr)
		if len(borrowed) > 0 {
			a.mBorrowed.With("attr-surface").Add(float64(len(borrowed)))
			spCtx, sp := a.componentSpanCtx(ctx, "attr-surface", attr.ID, attr.Label)
			t0, q0 := readClock(a.surfaceClock)
			negatives := nonInstances(ifc, attr, 8)
			positives := capSlice(attr.Instances, 8)
			accepted := a.attrSurface.ValidateBorrowedCtx(spCtx, attr.ID, attr.Label, positives, negatives, borrowed)
			t1, q1 := readClock(a.surfaceClock)
			rep.AttrSurfaceTime += t1 - t0
			rep.AttrSurfaceQueries += q1 - q0
			a.endComponent(sp, "attr-surface", t1-t0, q1-q0)
			added := addAcquired(attr, accepted, a.cfg.MaxAcquired)
			a.mInstances.With("attr-surface").Add(float64(added))
			if added > 0 {
				out.Methods = append(out.Methods, MethodAttrSurface)
			}
		}
	}
	out.Acquired = len(attr.Acquired)
	if len(out.Methods) == 0 {
		out.Methods = []Method{MethodNone}
	}
	return out
}

// borrowDonorsFreeText selects donor attributes for Step 1.b: attributes
// on other interfaces that carry instances, whose labels are similar to
// X1's, and whose domains differ from every predefined-value attribute Y
// on X1's interface (if Y had a similar domain, X1 would likely have
// been predefined too). Donors are ordered by label similarity.
func (a *Acquirer) borrowDonorsFreeText(ix *donorIndex, ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute) []*schema.Attribute {
	type scored struct {
		attr *schema.Attribute
		sim  float64
	}
	var donors []scored
	label := ix.labelID(attr)
	for _, other := range ds.Interfaces {
		if other.ID == ifc.ID {
			continue
		}
		for _, cand := range other.Attributes {
			if len(cand.Instances)+len(cand.Acquired) == 0 {
				continue
			}
			ls := ix.labelSim(label, ix.labelID(cand))
			if ls < a.cfg.BorrowLabelSim {
				continue
			}
			if a.domainMatchesSibling(ix, ifc, attr, cand) {
				continue
			}
			donors = append(donors, scored{cand, ls})
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if donors[i].sim != donors[j].sim {
			return donors[i].sim > donors[j].sim
		}
		return donors[i].attr.ID < donors[j].attr.ID
	})
	out := make([]*schema.Attribute, len(donors))
	for i, d := range donors {
		out[i] = d.attr
	}
	return out
}

// domainMatchesSibling reports whether the candidate donor's domain
// overlaps the domain of some predefined-value sibling of attr — the
// exclusion condition of Section 5, case 1 — by sim.ValueOverlap over
// the index's views.
func (a *Acquirer) domainMatchesSibling(ix *donorIndex, ifc *schema.Interface, attr *schema.Attribute, cand *schema.Attribute) bool {
	candVals := ix.values(cand)
	for _, y := range ifc.Attributes {
		if y.ID == attr.ID || !y.HasInstances() {
			continue
		}
		if foldOverlap(candVals, ix.predefined(y)) >= 0.3 {
			return true
		}
	}
	return false
}

// borrowValuesPredef collects values to borrow for a predefined-value
// attribute (Step 2): from attributes on other interfaces sharing at
// least BorrowValueMatches very similar values, take the values X1 does
// not already list.
func (a *Acquirer) borrowValuesPredef(ix *donorIndex, ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute) []string {
	out := a.collectBorrowValues(ix, ds, ifc, attr, true)
	if len(out) == 0 {
		// No value-compatible donor exists (the Figure-1 situation:
		// Airline's NA list shares nothing with Carrier's EU list). Fall
		// back to borrowing from every attribute and let the
		// validation-based classifier decide membership — Section 3's
		// example borrows Aer Lingus from Carrier for Airline exactly
		// this way.
		out = a.collectBorrowValues(ix, ds, ifc, attr, false)
	}
	if len(out) > a.cfg.MaxAcquired {
		out = out[:a.cfg.MaxAcquired]
	}
	return out
}

// collectBorrowValues gathers candidate values from other interfaces'
// attributes, optionally restricted to donors sharing at least
// BorrowValueMatches very similar values with attr. It stops once it
// holds MaxAcquired values: borrowValuesPredef keeps only that many, so
// later donors could not change its result.
func (a *Acquirer) collectBorrowValues(ix *donorIndex, ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute, requireSimilar bool) []string {
	have := map[string]bool{}
	for _, v := range attr.Instances {
		have[foldValue(v)] = true
	}
	var out []string
	seen := map[string]bool{}
	var x1 *donorValues
	if requireSimilar {
		x1 = ix.predefined(attr)
	}
	for _, other := range ds.Interfaces {
		if other.ID == ifc.ID {
			continue
		}
		for _, cand := range other.Attributes {
			if a.cfg.MaxAcquired > 0 && len(out) >= a.cfg.MaxAcquired {
				return out
			}
			if len(cand.Instances)+len(cand.Acquired) == 0 {
				continue
			}
			vals := ix.values(cand)
			if requireSimilar && !ix.domainsVerySimilar(x1, vals, a.cfg.BorrowValueMatches) {
				continue
			}
			for k, list := range [2][]string{cand.Instances, cand.Acquired} {
				for i, v := range list {
					// Zero-copy map probes against the index's folded
					// form; a string is only allocated for a new value.
					fv := vals.ascii.at(k*len(cand.Instances) + i)
					if have[string(fv)] || seen[string(fv)] {
						continue
					}
					seen[string(fv)] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// nonInstances gathers values of the other attributes on the interface —
// the automatically obtained negative examples of Section 3.
func nonInstances(ifc *schema.Interface, attr *schema.Attribute, cap int) []string {
	var out []string
	for _, o := range ifc.Attributes {
		if o.ID == attr.ID {
			continue
		}
		for _, v := range o.AllInstances() {
			out = append(out, v)
			if len(out) >= cap {
				return out
			}
		}
	}
	return out
}

// addAcquired appends values to attr.Acquired, deduplicating against
// both predefined and already-acquired values, up to the cap. It
// returns the number added.
func addAcquired(attr *schema.Attribute, values []string, maxTotal int) int {
	buf := foldBuf()
	fv := *buf
	have := map[string]bool{}
	for _, v := range attr.Instances {
		have[foldValue(v)] = true
	}
	for _, v := range attr.Acquired {
		have[foldValue(v)] = true
	}
	added := 0
	for _, v := range values {
		if len(attr.Acquired) >= maxTotal {
			break
		}
		fv = appendFoldValue(fv[:0], v)
		if have[string(fv)] {
			continue
		}
		have[string(fv)] = true
		attr.Acquired = append(attr.Acquired, v)
		added++
	}
	*buf = fv
	putFoldBuf(buf)
	return added
}

func capSlice(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func hasMethod(ms []Method, m Method) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

func foldValue(s string) string {
	out := make([]byte, 0, len(s))
	return string(appendFoldValue(out, s))
}

// appendFoldValue appends the ASCII-lowered s to buf — foldValue
// without the string allocation, for zero-copy map probes.
func appendFoldValue(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// foldBufPool recycles the fold buffers of the acquisition loops.
var foldBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func foldBuf() *[]byte     { return foldBufPool.Get().(*[]byte) }
func putFoldBuf(b *[]byte) { foldBufPool.Put(b) }
