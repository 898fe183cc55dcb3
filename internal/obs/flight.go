package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the after-the-fact half of the observability
// layer: /metrics and /stats show the present, the recorder retains the
// recent past. It keeps one wide event — a single structured record
// merging route, status, latency, trace ID, substrate-usage deltas,
// degradation totals, breaker states, and admission-queue depth — per
// request in a lock-light ring buffer, samples the Go runtime
// periodically, and, when a trigger rule fires (5xx, slow request,
// breaker-open transition, admission shed, p99 budget breach), dumps a
// timestamped diagnostic bundle: the recent wide events, the live span
// trees of in-flight traces, a metrics snapshot with deltas, and
// auto-captured pprof CPU/heap profiles. Every wide event that fires a
// trigger is also appended to eventsFile in the bundle directory, so a
// debounced trigger still leaves its record on disk. With no recorder
// installed every hook is nil-safe and free.

// WideEvent is one request, wide: everything the server knew about the
// request when it finished, denormalized into a single record so a
// bundle (or an operator grepping NDJSON) never has to join streams.
// Substrate fields are deltas of process-global counters taken at
// request start/end; under concurrency they attribute overlapping work
// approximately, which is the right trade for a diagnostic record.
type WideEvent struct {
	// TimeNS is the completion time, nanoseconds since the Unix epoch.
	TimeNS int64 `json:"time_ns"`
	// Route is the coarse route label; Method/Path the concrete request.
	Route  string `json:"route"`
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
	// Status is the HTTP status; Seconds the wall-clock latency.
	Status  int     `json:"status"`
	Seconds float64 `json:"seconds"`
	// TraceID links the event to /trace/{id}; empty for shed requests,
	// which never reach the tracing middleware.
	TraceID string `json:"trace_id,omitempty"`
	// ShedReason is set when the admission queue rejected the request
	// (queue-full, draining, canceled).
	ShedReason string `json:"shed_reason,omitempty"`
	// ProbeQueries is how many deep-web probes the substrate served
	// while this request ran.
	ProbeQueries int `json:"probe_queries,omitempty"`
	// Degradations is the cumulative graceful-degradation count across
	// all domains when the request finished.
	Degradations int `json:"degradations,omitempty"`
	// BreakerDeep is the deep-web source client's circuit-breaker state
	// at completion, when a fault profile is on.
	BreakerDeep string `json:"breaker_deep,omitempty"`
	// AdmInFlight / AdmQueued are the admission-queue depths at
	// completion, when admission control is on.
	AdmInFlight int `json:"adm_in_flight,omitempty"`
	AdmQueued   int `json:"adm_queued,omitempty"`
	// Trigger names the trigger rule this event fired, if any.
	Trigger string `json:"trigger,omitempty"`
}

// eventSlot is one ring position. Writers claim a slot by atomic
// sequence and take only that slot's mutex, so concurrent writers
// contend only when the ring wraps onto a slot being read.
type eventSlot struct {
	mu  sync.Mutex
	seq uint64 // 0 = never written; else the 1-based claim sequence
	ev  WideEvent
}

// eventsFile is the NDJSON log, in the bundle directory, of every wide
// event that fired a trigger; it rotates at DefRotateMaxBytes, keeping
// DefRotateKeep old files. Bundles and pruning match only flight-*.json,
// so it is never listed or pruned as a bundle.
const eventsFile = "events.ndjson"

// DefFlightCapacity is the default wide-event ring capacity.
const DefFlightCapacity = 8192

// DefFlightWindow is the default wide-event window included in bundles.
const DefFlightWindow = 30 * time.Second

// FlightOptions configure a FlightRecorder.
type FlightOptions struct {
	// Dir is where diagnostic bundles are written; required for dumps
	// (Snapshot/Trigger fail without it).
	Dir string
	// Capacity is the wide-event ring size (DefFlightCapacity when 0).
	Capacity int
	// Window is how much recent wide-event history a bundle includes
	// (DefFlightWindow when 0).
	Window time.Duration
	// Triggers are the anomaly rules that fire automatic bundle dumps.
	Triggers TriggerConfig
	// MaxBundles caps how many bundle files Dir retains; older ones are
	// deleted after each dump (16 when 0, unbounded when < 0).
	MaxBundles int
	// CPUProfileDuration is how long the auto-captured CPU profile runs
	// (500ms when 0, disabled when < 0).
	CPUProfileDuration time.Duration
	// Identity labels every bundle with the world being served (snapshot
	// fingerprint, seed, scale, build info).
	Identity map[string]string
	// Registry, Tracer, Sampler supply the bundle's metrics snapshot,
	// span trees, and runtime samples; each may be nil.
	Registry *Registry
	Tracer   *Tracer
	Sampler  *RuntimeSampler
}

// FlightRecorder is the wide-event ring plus the bundle dumper. All
// methods are safe for concurrent use and nil-safe.
type FlightRecorder struct {
	opts  FlightOptions
	slots []eventSlot
	next  atomic.Uint64

	// lastDumpNS debounces automatic triggers; manual snapshots bypass it.
	lastDumpNS atomic.Int64
	cpuBusy    atomic.Bool

	dumpMu   sync.Mutex
	baseline map[string]float64 // metric values at last dump (or Start)

	// events is the triggered-event log; nil without a bundle
	// directory or when it could not be opened.
	events *RotatingFile

	mEvents  *Counter
	mBundles *CounterVec // reason
	mDropped *Counter
}

// NewFlightRecorder returns a recorder; Start begins runtime sampling.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	if opts.Capacity <= 0 {
		opts.Capacity = DefFlightCapacity
	}
	if opts.Window <= 0 {
		opts.Window = DefFlightWindow
	}
	if opts.MaxBundles == 0 {
		opts.MaxBundles = 16
	}
	if opts.CPUProfileDuration == 0 {
		opts.CPUProfileDuration = 500 * time.Millisecond
	}
	f := &FlightRecorder{
		opts:  opts,
		slots: make([]eventSlot, opts.Capacity),
	}
	if opts.Dir != "" && os.MkdirAll(opts.Dir, 0o755) == nil {
		// A log that cannot be opened is skipped: like the bundles, it
		// is best-effort and must never affect serving.
		f.events, _ = OpenRotatingFile(filepath.Join(opts.Dir, eventsFile), 0, 0)
	}
	if r := opts.Registry; r != nil {
		f.mEvents = r.Counter("webiq_flight_events_total", "Wide events captured by the flight recorder.")
		f.mBundles = r.CounterVec("webiq_flight_bundles_total", "Diagnostic bundles dumped, by trigger reason.", "reason")
		f.mDropped = r.Counter("webiq_flight_trigger_debounced_total", "Trigger firings suppressed by the dump debounce window.")
	}
	return f
}

// Start snapshots the metric baseline and begins background runtime
// sampling at the given interval (no sampling when interval <= 0 or the
// recorder has no sampler). Call Close to stop.
func (f *FlightRecorder) Start(sampleInterval time.Duration) {
	if f == nil {
		return
	}
	f.dumpMu.Lock()
	f.baseline = f.opts.Registry.Values()
	f.dumpMu.Unlock()
	if sampleInterval > 0 {
		f.opts.Sampler.Start(sampleInterval)
	}
}

// Close stops background sampling and closes the triggered-event log.
// The ring remains readable.
func (f *FlightRecorder) Close() {
	if f == nil {
		return
	}
	f.opts.Sampler.Stop()
	if f.events != nil {
		f.events.Close()
	}
}

// Triggers returns the recorder's trigger rules.
func (f *FlightRecorder) Triggers() TriggerConfig {
	if f == nil {
		return TriggerConfig{}
	}
	return f.opts.Triggers
}

// Window returns the bundle's wide-event window.
func (f *FlightRecorder) Window() time.Duration {
	if f == nil {
		return 0
	}
	return f.opts.Window
}

// Record appends one wide event to the ring and, when it fired a
// trigger (Trigger != ""), to the triggered-event log as well. Callers
// record before they call Trigger, so the log line is written even when
// the debounce suppresses the bundle.
func (f *FlightRecorder) Record(ev WideEvent) {
	if f == nil {
		return
	}
	if ev.TimeNS == 0 {
		ev.TimeNS = time.Now().UnixNano()
	}
	n := f.next.Add(1)
	s := &f.slots[(n-1)%uint64(len(f.slots))]
	s.mu.Lock()
	s.seq = n
	s.ev = ev
	s.mu.Unlock()
	f.mEvents.Inc()
	if ev.Trigger != "" && f.events != nil {
		// One Write per line keeps lines whole across rotation; write
		// errors (and writes after Close) are dropped like the line.
		if line, err := json.Marshal(ev); err == nil {
			_, _ = f.events.Write(append(line, '\n'))
		}
	}
}

// EventsSince returns every retained wide event completed at or after
// cutoffNS (Unix nanoseconds), oldest first. cutoffNS <= 0 returns the
// whole ring.
func (f *FlightRecorder) EventsSince(cutoffNS int64) []WideEvent {
	if f == nil {
		return nil
	}
	type seqEv struct {
		seq uint64
		ev  WideEvent
	}
	got := make([]seqEv, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		if s.seq != 0 && (cutoffNS <= 0 || s.ev.TimeNS >= cutoffNS) {
			got = append(got, seqEv{s.seq, s.ev})
		}
		s.mu.Unlock()
	}
	sort.Slice(got, func(i, j int) bool { return got[i].seq < got[j].seq })
	out := make([]WideEvent, len(got))
	for i, g := range got {
		out[i] = g.ev
	}
	return out
}

// EventCount returns how many wide events have been recorded in total
// (not how many the ring currently retains).
func (f *FlightRecorder) EventCount() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}

// --- Trigger rules ---

// DefTriggerDebounce is the minimum gap between automatic bundle dumps.
const DefTriggerDebounce = 30 * time.Second

// TriggerConfig is the set of anomaly rules that fire automatic bundle
// dumps. The zero value fires on nothing.
type TriggerConfig struct {
	// On5xx dumps on any 5xx response.
	On5xx bool `json:"on_5xx"`
	// Slow dumps on a request at or above this latency (0 disables).
	Slow time.Duration `json:"slow_ns"`
	// OnBreakerOpen dumps when a circuit breaker transitions to open.
	OnBreakerOpen bool `json:"on_breaker_open"`
	// OnShed dumps when the admission queue sheds a request.
	OnShed bool `json:"on_shed"`
	// P99Budget dumps when a route's p99 exceeds this budget (0
	// disables); routes need P99MinCount observations first.
	P99Budget time.Duration `json:"p99_budget_ns"`
	// P99MinCount guards the p99 rule against small-sample noise
	// (default 50 when P99Budget is set and this is 0).
	P99MinCount uint64 `json:"p99_min_count,omitempty"`
	// Debounce is the minimum gap between automatic dumps
	// (DefTriggerDebounce when 0, no debounce when < 0).
	Debounce time.Duration `json:"debounce_ns"`
}

// DefaultTriggers fire on 5xx, 2s-slow requests, breaker-open
// transitions, and admission sheds.
func DefaultTriggers() TriggerConfig {
	return TriggerConfig{On5xx: true, Slow: 2 * time.Second, OnBreakerOpen: true, OnShed: true}
}

// ParseTriggers parses a comma-separated trigger spec:
//
//	5xx | slow=DUR | breaker | shed | p99=DUR[:MINCOUNT] | debounce=DUR
//
// e.g. "5xx,slow=500ms,breaker,shed,p99=1s,debounce=10s". An empty spec
// yields DefaultTriggers; the spec "none" yields no triggers (manual
// snapshots only).
func ParseTriggers(spec string) (TriggerConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return DefaultTriggers(), nil
	}
	var tc TriggerConfig
	if spec == "none" {
		return tc, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		key, val, hasVal := strings.Cut(part, "=")
		switch key {
		case "5xx":
			tc.On5xx = true
		case "breaker":
			tc.OnBreakerOpen = true
		case "shed":
			tc.OnShed = true
		case "slow", "debounce", "p99":
			if !hasVal {
				return tc, fmt.Errorf("obs: trigger %q needs a duration (e.g. %s=500ms)", key, key)
			}
			if key == "p99" {
				if dur, cnt, ok := strings.Cut(val, ":"); ok {
					n := uint64(0)
					if _, err := fmt.Sscanf(cnt, "%d", &n); err != nil {
						return tc, fmt.Errorf("obs: bad p99 min count %q", cnt)
					}
					tc.P99MinCount = n
					val = dur
				}
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return tc, fmt.Errorf("obs: bad %s duration %q: %v", key, val, err)
			}
			switch key {
			case "slow":
				tc.Slow = d
			case "debounce":
				tc.Debounce = d
			case "p99":
				tc.P99Budget = d
			}
		case "":
			// Tolerate stray commas.
		default:
			return tc, fmt.Errorf("obs: unknown trigger %q (have 5xx, slow=DUR, breaker, shed, p99=DUR, debounce=DUR)", key)
		}
	}
	if tc.P99Budget > 0 && tc.P99MinCount == 0 {
		tc.P99MinCount = 50
	}
	return tc, nil
}

// String renders the config back into ParseTriggers form.
func (tc TriggerConfig) String() string {
	var parts []string
	if tc.On5xx {
		parts = append(parts, "5xx")
	}
	if tc.Slow > 0 {
		parts = append(parts, "slow="+tc.Slow.String())
	}
	if tc.OnBreakerOpen {
		parts = append(parts, "breaker")
	}
	if tc.OnShed {
		parts = append(parts, "shed")
	}
	if tc.P99Budget > 0 {
		parts = append(parts, "p99="+tc.P99Budget.String())
	}
	if tc.Debounce > 0 {
		parts = append(parts, "debounce="+tc.Debounce.String())
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Match returns the name of the first trigger rule the event fires, or
// "". Breaker-open transitions are reported out of band (they are not
// request events); see Trigger.
func (tc TriggerConfig) Match(ev WideEvent) string {
	if tc.OnShed && ev.ShedReason != "" {
		return "shed"
	}
	if tc.On5xx && ev.Status >= 500 {
		return "5xx"
	}
	if tc.Slow > 0 && ev.Seconds >= tc.Slow.Seconds() {
		return "slow"
	}
	return ""
}

// Trigger requests an automatic bundle dump for the given reason. It
// debounces (one dump per Debounce window) and runs the dump in the
// background; it reports whether a dump was actually started.
func (f *FlightRecorder) Trigger(reason, traceID string) bool {
	if f == nil || f.opts.Dir == "" {
		return false
	}
	deb := f.opts.Triggers.Debounce
	if deb == 0 {
		deb = DefTriggerDebounce
	}
	now := time.Now().UnixNano()
	if deb > 0 {
		last := f.lastDumpNS.Load()
		if now-last < int64(deb) || !f.lastDumpNS.CompareAndSwap(last, now) {
			f.mDropped.Inc()
			return false
		}
	}
	go func() {
		if _, _, err := f.dump(reason, traceID); err != nil {
			// Dump failures must never affect serving; the dropped
			// counter is the only signal.
			f.mDropped.Inc()
		}
	}()
	return true
}
