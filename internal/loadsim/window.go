package loadsim

import (
	"sync"
	"time"
)

// rollingStats tracks event rate, error rate and mean latency over a sliding
// window of per-second buckets — a ring indexed by absolute second, so
// recording is O(1), stale buckets are reclaimed lazily on touch, and a
// snapshot is one pass over at most `width` buckets. This is the live-view
// counterpart of the cumulative obs.Histogram instruments: the histogram
// answers "how was the whole run", the window answers "how is it going right
// now" for the progress line and the per-tenant/per-endpoint rate columns.
type rollingStats struct {
	mu      sync.Mutex
	width   int64 // window width in whole seconds
	buckets []winBucket
}

type winBucket struct {
	sec    int64 // absolute unix second this slot currently holds
	count  int64
	errs   int64
	sumSec float64 // summed latencies, seconds
}

func newRollingStats(width time.Duration) *rollingStats {
	w := int64(width / time.Second)
	if w < 1 {
		w = 1
	}
	return &rollingStats{width: w, buckets: make([]winBucket, w)}
}

// record counts one event at time now with the given latency.
func (r *rollingStats) record(now time.Time, latency time.Duration, isErr bool) {
	sec := now.Unix()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &r.buckets[sec%r.width]
	if b.sec != sec { // slot held a second that has since left the window
		*b = winBucket{sec: sec}
	}
	b.count++
	b.sumSec += latency.Seconds()
	if isErr {
		b.errs++
	}
}

// snapshot folds the buckets still inside the window ending at now.
func (r *rollingStats) snapshot(now time.Time) (rate, meanLat, errRate float64) {
	sec := now.Unix()
	var count, errs int64
	var sum float64
	r.mu.Lock()
	for i := range r.buckets {
		b := &r.buckets[i]
		if b.sec > sec-r.width && b.sec <= sec {
			count += b.count
			errs += b.errs
			sum += b.sumSec
		}
	}
	r.mu.Unlock()
	if count == 0 {
		return 0, 0, 0
	}
	return float64(count) / float64(r.width), sum / float64(count), float64(errs) / float64(count)
}

// statsWindow is the width of the per-tenant and per-endpoint windows.
const statsWindow = 10 * time.Second

// statsSet is a keyed family of rolling windows (per tenant, per endpoint).
type statsSet struct {
	mu sync.Mutex
	m  map[string]*rollingStats
}

func newStatsSet() *statsSet {
	return &statsSet{m: make(map[string]*rollingStats)}
}

func (s *statsSet) get(key string) *rollingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	if !ok {
		r = newRollingStats(statsWindow)
		s.m[key] = r
	}
	return r
}
