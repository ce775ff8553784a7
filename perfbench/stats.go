package main

import (
	"math"
	"sort"
	"time"

	"edgecache/internal/obs"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: a tail read off fewer samples is one outlier.
const minBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail returns the nearest-rank q-quantile of xs, lowered to the highest
// percentile that still has at least minBeyond samples above it when q
// asks for more than the sample count supports. It also returns the
// quantile actually used. When that percentile would fall below the
// median — too few samples for any tail — tail returns the median
// (q = 0.5).
func tail(xs []float64, q float64) (value, used float64) {
	n := len(xs)
	i := min(int(math.Ceil(q*float64(n)))-1, n-1-minBeyond) // nearest rank, 0-based
	if i < (n-1)/2 {
		return median(xs), 0.5
	}
	s := sortedCopy(xs)
	return s[i], float64(i+1) / float64(n)
}

// goodput counts the weight of the operations that completed within
// limit of their due time, per second of the measured span. A failed
// operation never counts, whatever its latency.
func goodput(samples []sample, limit, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	var w int
	for _, s := range samples {
		if s.err == nil && s.done.Sub(s.due) <= limit {
			w += s.weight
		}
	}
	return float64(w) / span.Seconds()
}

// interval is a closed time range.
type interval struct{ start, end time.Time }

// inWindows reports, for each op interval, whether it overlaps any of the
// windows. Windows must be sorted by start and must not overlap each
// other (the tick handler runs one tick at a time).
func inWindows(ops []interval, windows []interval) []bool {
	out := make([]bool, len(ops))
	for i, op := range ops {
		// First window ending at or after the op starts.
		j := sort.Search(len(windows), func(j int) bool { return !windows[j].end.Before(op.start) })
		out[i] = j < len(windows) && !windows[j].start.After(op.end)
	}
	return out
}

// layerDelta is the change of the always-on obs.Default instruments
// between two snapshots: counter increments and timer observation counts
// and totals.
type layerDelta struct {
	counters map[string]int64
	timerN   map[string]int64
	timerDur map[string]time.Duration
}

func newLayerDelta() layerDelta {
	return layerDelta{counters: map[string]int64{}, timerN: map[string]int64{}, timerDur: map[string]time.Duration{}}
}

// diff returns after − before. Instruments registered only in after
// count from zero.
func diff(before, after obs.Snapshot) layerDelta {
	d := newLayerDelta()
	for k, v := range after.Counters {
		if dv := v - before.Counters[k]; dv != 0 {
			d.counters[k] = dv
		}
	}
	for k, v := range after.Timers {
		b := before.Timers[k]
		if dn := v.Count - b.Count; dn != 0 {
			d.timerN[k] = dn
			d.timerDur[k] = v.Total - b.Total
		}
	}
	return d
}

// add accumulates o into d.
func (d layerDelta) add(o layerDelta) {
	for k, v := range o.counters {
		d.counters[k] += v
	}
	for k, v := range o.timerN {
		d.timerN[k] += v
	}
	for k, v := range o.timerDur {
		d.timerDur[k] += v
	}
}

// ms returns the accumulated time of a timer in milliseconds.
func (d layerDelta) ms(timer string) float64 { return msOf(d.timerDur[timer]) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB is the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	b, _ := obs.PeakRSSBytes()
	return float64(b) / (1 << 20)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
