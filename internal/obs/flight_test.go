package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRingRetainsAndOrders(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Capacity: 8})
	for i := 0; i < 20; i++ {
		f.Record(WideEvent{Route: "r", Status: 200, TimeNS: int64(i + 1)})
	}
	evs := f.EventsSince(0)
	if len(evs) != 8 {
		t.Fatalf("ring retained %d events, want capacity 8", len(evs))
	}
	for i, ev := range evs {
		if want := int64(13 + i); ev.TimeNS != want {
			t.Errorf("event %d: TimeNS=%d, want %d (oldest-first order)", i, ev.TimeNS, want)
		}
	}
	if got := f.EventCount(); got != 20 {
		t.Errorf("EventCount=%d, want 20", got)
	}
	// Cutoff filtering.
	if got := len(f.EventsSince(18)); got != 3 {
		t.Errorf("EventsSince(18) returned %d events, want 3", got)
	}
}

func TestFlightRingConcurrentWriters(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Capacity: 64})
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Record(WideEvent{Route: fmt.Sprintf("r%d", w), Status: 200})
				if i%16 == 0 {
					f.EventsSince(0) // concurrent reads
				}
			}
		}(w)
	}
	wg.Wait()
	if got := f.EventCount(); got != writers*per {
		t.Fatalf("EventCount=%d, want %d", got, writers*per)
	}
	evs := f.EventsSince(0)
	if len(evs) != 64 {
		t.Fatalf("ring holds %d, want 64", len(evs))
	}
	for _, ev := range evs {
		if ev.Route == "" || ev.Status != 200 {
			t.Fatalf("torn event read: %+v", ev)
		}
	}
}

func TestParseTriggers(t *testing.T) {
	def, err := ParseTriggers("")
	if err != nil || !def.On5xx || def.Slow != 2*time.Second || !def.OnBreakerOpen || !def.OnShed {
		t.Fatalf("empty spec => %+v, err %v; want defaults", def, err)
	}
	none, err := ParseTriggers("none")
	if err != nil || none != (TriggerConfig{}) {
		t.Fatalf("none => %+v, err %v", none, err)
	}
	tc, err := ParseTriggers("5xx,slow=500ms,breaker,shed,p99=1s:30,debounce=10s")
	if err != nil {
		t.Fatal(err)
	}
	if !tc.On5xx || tc.Slow != 500*time.Millisecond || !tc.OnBreakerOpen || !tc.OnShed ||
		tc.P99Budget != time.Second || tc.P99MinCount != 30 || tc.Debounce != 10*time.Second {
		t.Fatalf("parsed %+v", tc)
	}
	// Round trip through String.
	back, err := ParseTriggers(tc.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", tc.String(), err)
	}
	back.P99MinCount = tc.P99MinCount // String does not render the count
	if back != tc {
		t.Errorf("round trip: %+v != %+v", back, tc)
	}
	for _, bad := range []string{"slow", "p99=x", "bogus", "slow=..."} {
		if _, err := ParseTriggers(bad); err == nil {
			t.Errorf("ParseTriggers(%q) accepted", bad)
		}
	}
}

func TestTriggerMatch(t *testing.T) {
	tc := DefaultTriggers()
	cases := []struct {
		ev   WideEvent
		want string
	}{
		{WideEvent{Status: 200, Seconds: 0.01}, ""},
		{WideEvent{Status: 500}, "5xx"},
		{WideEvent{Status: 503, ShedReason: "queue-full"}, "shed"},
		{WideEvent{Status: 200, Seconds: 3.0}, "slow"},
	}
	for _, c := range cases {
		if got := tc.Match(c.ev); got != c.want {
			t.Errorf("Match(%+v) = %q, want %q", c.ev, got, c.want)
		}
	}
}

// TestSnapshotBundle pins the bundle contract: a synchronous snapshot
// captures the windowed wide events, at least one runtime sample, the
// metrics snapshot + delta, a heap profile, and round-trips through
// ReadBundle.
func TestSnapshotBundle(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	tr := NewTracer(nil)
	c := reg.Counter("test_total", "")
	f := NewFlightRecorder(FlightOptions{
		Dir:                dir,
		Window:             time.Minute,
		Registry:           reg,
		Tracer:             tr,
		Sampler:            NewRuntimeSampler(16, time.Millisecond),
		CPUProfileDuration: -1, // keep the test fast
		SampleInterval:     -1,
		Identity:           map[string]string{"seed": "1"},
	})
	f.Start()
	c.Add(3)
	f.Record(WideEvent{Route: "unified", Status: 500, Seconds: 0.2, TraceID: "tr-err"})
	f.Record(WideEvent{Route: "stats", Status: 200, Seconds: 0.001})

	// An in-flight root span must show up in the bundle.
	live := tr.StartRoot("unified-build")
	defer live.End()

	b, path, err := f.Snapshot("", "")
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "manual" || b.Schema != BundleSchema {
		t.Errorf("reason=%q schema=%d", b.Reason, b.Schema)
	}
	if len(b.WideEvents) != 2 {
		t.Fatalf("bundle has %d wide events, want 2", len(b.WideEvents))
	}
	if len(b.Runtime) == 0 {
		t.Error("bundle has no runtime samples")
	}
	if b.Identity["seed"] != "1" {
		t.Errorf("identity = %v", b.Identity)
	}
	if got := b.Metrics["test_total"]; got != 3 {
		t.Errorf("metrics snapshot test_total=%v, want 3", got)
	}
	if got := b.MetricsDelta["test_total"]; got != 3 {
		t.Errorf("metrics delta test_total=%v, want 3 (baseline was 0)", got)
	}
	if len(b.HeapProfile) == 0 {
		t.Error("no heap profile captured")
	}
	found := false
	for _, r := range b.InFlight {
		if r.Name == "unified-build" && r.TraceID == live.TraceID() {
			found = true
		}
	}
	if !found {
		t.Errorf("in-flight roots missing live span: %+v", b.InFlight)
	}

	back, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reason != b.Reason || len(back.WideEvents) != len(b.WideEvents) {
		t.Errorf("round trip mismatch: %+v", back)
	}

	// A second snapshot's delta starts from the first's values.
	c.Add(2)
	b2, _, err := f.Snapshot("again", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.MetricsDelta["test_total"]; got != 2 {
		t.Errorf("second delta test_total=%v, want 2", got)
	}
}

func TestTriggerDebounceAndPrune(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightOptions{
		Dir:                dir,
		MaxBundles:         2,
		CPUProfileDuration: -1,
		Triggers:           TriggerConfig{Debounce: time.Hour},
	})
	f.Start()
	if !f.Trigger("5xx", "") {
		t.Fatal("first trigger suppressed")
	}
	if f.Trigger("5xx", "") {
		t.Error("second trigger not debounced")
	}
	// Wait for the async dump to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos, err := f.Bundles()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async trigger dump never produced a bundle")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Pruning keeps only MaxBundles files.
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond) // distinct timestamps in names
		if _, _, err := f.Snapshot(fmt.Sprintf("r%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := f.Bundles()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("after prune: %d bundles, want 2", len(infos))
	}

	// BundlePath rejects traversal.
	for _, bad := range []string{"", "../x.json", "flight-x.json/../../etc", "nope.json"} {
		if _, err := f.BundlePath(bad); err == nil {
			t.Errorf("BundlePath(%q) accepted", bad)
		}
	}
	if _, err := f.BundlePath(infos[0].Name); err != nil {
		t.Errorf("BundlePath(%q): %v", infos[0].Name, err)
	}
}

// TestTriggeredEventsLog pins the triggered-event log: Record appends
// exactly the wide events that fired a trigger to events.ndjson, and
// bundle listing and pruning (MaxBundles 1) leave the log alone.
func TestTriggeredEventsLog(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightOptions{Dir: dir, MaxBundles: 1, CPUProfileDuration: -1})
	f.Record(WideEvent{Route: "stats", Status: 200, Seconds: 0.001, TraceID: "quiet"})
	f.Record(WideEvent{Route: "unified", Status: 500, Seconds: 0.2, TraceID: "tr-err", Trigger: "5xx"})
	f.Record(WideEvent{Route: "source", Status: 503, ShedReason: "queue-full", Trigger: "shed"})
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond) // distinct timestamps in names
		if _, _, err := f.Snapshot(fmt.Sprintf("r%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	f.Record(WideEvent{Route: "late", Trigger: "5xx"}) // after Close: ring only

	infos, err := f.Bundles()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("after prune: %d bundles, want 1", len(infos))
	}
	data, err := os.ReadFile(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatalf("pruning removed the triggered-event log: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("events.ndjson has %d lines, want the 2 triggered events:\n%s", len(lines), data)
	}
	var ev WideEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Route != "unified" || ev.Status != 500 || ev.TraceID != "tr-err" || ev.Trigger != "5xx" || ev.TimeNS == 0 {
		t.Errorf("line 1 = %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.ShedReason != "queue-full" || ev.Trigger != "shed" {
		t.Errorf("line 2 = %+v", ev)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Record(WideEvent{})
	f.Close()
	f.Start()
	if f.EventsSince(0) != nil || f.EventCount() != 0 || f.Trigger("x", "") {
		t.Error("nil recorder not inert")
	}
	if _, _, err := f.Snapshot("", ""); err == nil {
		t.Error("nil recorder Snapshot succeeded")
	}
	var rs *RuntimeSampler
	rs.Start(time.Second)
	rs.Stop()
	if s := rs.Sample(); s.Goroutines <= 0 {
		t.Error("nil sampler Sample returned empty sample")
	}
}

func TestBundleFilesAtomic(t *testing.T) {
	// No stray temp files after dumps.
	dir := t.TempDir()
	f := NewFlightRecorder(FlightOptions{Dir: dir, CPUProfileDuration: -1})
	f.Start()
	if _, _, err := f.Snapshot("x", ""); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}
