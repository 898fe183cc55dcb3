package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-th quantile (0 < q <= 1) of xs by the
// nearest-rank rule; the median averages the two middle values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 {
		n := len(s)
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns 100·num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// interval is a closed time range in nanoseconds on one clock.
type interval struct{ start, end int64 }

// union merges overlapping intervals into a sorted disjoint list.
func union(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns how much of [start, end] the disjoint sorted list
// merged covers.
func covered(merged []interval, start, end int64) int64 {
	i := sort.Search(len(merged), func(i int) bool { return merged[i].end > start })
	var n int64
	for ; i < len(merged) && merged[i].start < end; i++ {
		n += min(merged[i].end, end) - max(merged[i].start, start)
	}
	return n
}

// runtimeCounters is a reading of the Go runtime's cumulative
// allocation, GC and CPU accounting.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// runtimeUse accumulates runtime counter deltas over measured regions.
type runtimeUse struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func (u *runtimeUse) add(from, to runtimeCounters) {
	u.allocBytes += to.allocBytes - from.allocBytes
	u.allocObjects += to.allocObjects - from.allocObjects
	u.gcCycles += to.gcCycles - from.gcCycles
	u.gcCPU += to.gcCPU - from.gcCPU
	u.totalCPU += to.totalCPU - from.totalCPU
}

// heapPeak samples the heap in use (live objects and those not yet
// swept) on a background goroutine and keeps the largest value seen;
// Stop ends the goroutine and waits for it.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop returns the peak heap in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
