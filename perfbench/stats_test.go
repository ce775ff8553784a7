package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"edgecache"
	"edgecache/internal/obs"
	"edgecache/internal/serve"
	"edgecache/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		value, use float64
	}{
		{1000, 0.99, 990, 0.99}, // 10 samples beyond p99: allowed as asked
		{100, 0.99, 90, 0.90},   // lowered until 10 lie beyond it
		{100, 0.5, 50, 0.5},
		{40, 0.9, 30, 0.75},
		{20, 0.9, 10, 0.5}, // the highest qualifying rank is the median's
		{15, 0.9, 8, 0.5},  // below the median: report the median
		{5, 0.99, 3, 0.5},
		{4, 0.9, 2.5, 0.5},
	}
	for _, c := range cases {
		v, used := tail(seq(c.n), c.q)
		if v != c.value || math.Abs(used-c.use) > 1e-12 {
			t.Errorf("tail(1..%d, %g) = %g at q=%g, want %g at q=%g", c.n, c.q, v, used, c.value, c.use)
		}
	}
	if v, _ := tail(nil, 0.99); v != 0 {
		t.Errorf("tail of no samples = %g, want 0", v)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %g, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatalf("median sorted its input: %v", xs)
	}
}

func TestGoodputCountsReportsWithinLimit(t *testing.T) {
	due := time.Unix(100, 0)
	at := func(ms float64, err error) sample {
		return sample{due: due, done: due.Add(time.Duration(ms * float64(time.Millisecond))), weight: 8, err: err}
	}
	samples := []sample{
		at(10, nil),
		at(49.9, nil),
		at(50, nil), // exactly at the limit counts
		at(50.001, nil),
		at(1, errors.New("refused")), // a failure never counts
	}
	if got := goodput(samples, 50*time.Millisecond, 2*time.Second); got != 12 {
		t.Fatalf("goodput = %g reports/s, want 12", got)
	}
	if got := goodput(samples, 50*time.Millisecond, 0); got != 0 {
		t.Fatalf("goodput over an empty span = %g, want 0", got)
	}
}

func TestInWindowsClassifiesOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	iv := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	windows := []interval{iv(10, 20), iv(30, 40)}
	ops := []interval{iv(0, 5), iv(5, 10), iv(15, 16), iv(21, 29), iv(25, 35), iv(40, 50), iv(41, 50), iv(0, 100)}
	want := []bool{false, true, true, false, true, true, false, true}
	got := inWindows(ops, windows)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d %v: in tick = %v, want %v", i, ops[i], got[i], want[i])
		}
	}
	if got := inWindows(ops[:1], nil); got[0] {
		t.Error("an op with no tick windows was classified as inside one")
	}
}

func snap(counters map[string]int64, timers map[string]obs.TimerStats) obs.Snapshot {
	return obs.Snapshot{Counters: counters, Timers: timers}
}

func TestDiffAndAddOverSnapshots(t *testing.T) {
	ms := time.Millisecond
	before := snap(
		map[string]int64{"core.iterations": 10, "serve.wal_appends": 4},
		map[string]obs.TimerStats{"core.p2_solve": {Count: 2, Total: 30 * ms}},
	)
	after := snap(
		map[string]int64{"core.iterations": 25, "serve.wal_appends": 4, "caching.p1_flow_solves": 3},
		map[string]obs.TimerStats{"core.p2_solve": {Count: 5, Total: 75 * ms}, "core.recover": {Count: 1, Total: 2 * ms}},
	)
	d := diff(before, after)
	if d.counters["core.iterations"] != 15 || d.counters["caching.p1_flow_solves"] != 3 {
		t.Errorf("counter deltas = %v", d.counters)
	}
	if _, ok := d.counters["serve.wal_appends"]; ok {
		t.Error("an unchanged counter appears in the delta")
	}
	if d.timerN["core.p2_solve"] != 3 || d.ms("core.p2_solve") != 45 || d.ms("core.recover") != 2 {
		t.Errorf("timer deltas: n=%v ms(p2)=%g ms(recover)=%g", d.timerN, d.ms("core.p2_solve"), d.ms("core.recover"))
	}

	sum := newLayerDelta()
	sum.add(d)
	sum.add(d)
	if sum.counters["core.iterations"] != 30 || sum.ms("core.p2_solve") != 90 || sum.timerN["core.recover"] != 2 {
		t.Errorf("accumulated: counters=%v p2=%g", sum.counters, sum.ms("core.p2_solve"))
	}
}

func TestSolverRowsRatios(t *testing.T) {
	d := newLayerDelta()
	d.counters["caching.p1_resolve_kept"] = 3
	d.counters["caching.p1_resolve_fresh"] = 1
	d.counters["loadbalance.p2_slot_skips"] = 1
	d.counters["loadbalance.p2_solves"] = 9
	d.counters["core.iterations"] = 40
	d.counters["solver.degraded"] = 2
	d.timerDur["loadbalance.p2_solve"] = 90 * time.Millisecond
	d.timerDur["core.p2_solve"] = 50 * time.Millisecond
	rows := newLayerRows()
	solverRows(rows, d, 4)
	want := map[string]float64{
		"caching.p1_resolve_kept_ratio":  0.75,
		"loadbalance.p2_slot_skip_ratio": 0.1,
		"loadbalance.p2_parallelism":     1.8,
		"core.iterations":                10, // per slot
		"core.p2_solve_ms":               12.5,
		"solver.degraded":                2, // a total, not per slot
		"core.recover_ms":                0, // no work: 0, not NaN
	}
	for k, v := range want {
		if math.Abs(rows[k]-v) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, rows[k], v)
		}
	}
}

func TestScheduleKeepsItsPaceWhenAnOpIsSlow(t *testing.T) {
	offs := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond}
	start := time.Now().Add(5 * time.Millisecond)
	samples := runSchedule(context.Background(), start, offs, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(35 * time.Millisecond)
		}
		return 1, nil
	})
	// Ops 1 and 2 were due while op 0 ran: sent late, charged from their
	// due time, and not counted as generator lateness.
	for _, i := range []int{1, 2} {
		s := samples[i]
		if s.idle || s.sent.Sub(s.due) < 10*time.Millisecond || s.latencyMs() < 10 {
			t.Errorf("op %d: idle=%v late=%s latency=%.1fms, want backlog charged from due time", i, s.idle, s.sent.Sub(s.due), s.latencyMs())
		}
	}
	// Op 3 is due after the backlog drained: the schedule did not shift.
	if s := samples[3]; !s.idle || s.sent.Before(s.due) {
		t.Errorf("op 3: idle=%v sent %s after due, want sent on schedule", s.idle, s.sent.Sub(s.due))
	}
	if late := lateMaxMs(samples); late > 30 {
		t.Errorf("generator lateness %.1fms counts backlog", late)
	}
}

// TestIngestScheduleIsTheTrace checks that connection A sends exactly
// the trace's reports, each slot's during that slot, in batches of at
// most batchSize spread over the slot.
func TestIngestScheduleIsTheTrace(t *testing.T) {
	base, _, err := edgecache.NewScenario(liveSBS, liveCatalogue, liveClasses, 6).
		WithCache(liveCache).WithBandwidth(liveBandwidth).WithDensity(liveDensity).WithSeed(instanceSeed).Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(base.Demand, 5)
	const slots = 5
	offs, batch := planIngest(tr, slots)
	sent := map[int][]serve.Request{}
	for i, off := range offs {
		if i > 0 && off < offs[i-1] {
			t.Fatalf("offset %d (%s) before offset %d (%s)", i, off, i-1, offs[i-1])
		}
		b := batch(i)
		if len(b) == 0 || len(b) > batchSize {
			t.Fatalf("batch %d carries %d reports", i, len(b))
		}
		slot := int(off / tickPeriod)
		sent[slot] = append(sent[slot], b...)
	}
	for s := 0; s < slots; s++ {
		want := slotReports(tr, s)
		if len(want) < 100 {
			t.Errorf("slot %d: %d reports at the paper's density, want a few hundred", s, len(want))
		}
		if !reflect.DeepEqual(sent[s], want) {
			t.Errorf("slot %d: sent %d reports during the slot, the trace has %d", s, len(sent[s]), len(want))
		}
	}
	if len(sent) != slots {
		t.Errorf("reports sent during %d slots, want %d", len(sent), slots)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload names the
// program prints in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for _, m := range declared {
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s %s: declared unit %q, printed %q (present %v)", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// TestIngestWALRunIsCorrect drives a short traced ingest-wal run end to
// end: restart, golden replay and every per-layer row.
func TestIngestWALRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live controller for two seconds")
	}
	dir := t.TempDir()
	out, err := runIngestWAL(context.Background(), runConfig{seed: 3, seconds: 2, traced: true, workDir: dir + "/run"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct || out.failed != 0 {
		t.Fatalf("correct=%v failed=%d: %v", out.correct, out.failed, out.lines)
	}
	for _, name := range []string{"op_p50_ms", "op_tail_ms", "slots_per_s", "setup_s", "peak_rss_mib"} {
		if v := out.e2e[name]; !(v > 0) {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	for _, name := range []string{"serve.ingest_handler_ms", "serve.tick_handler_ms", "serve.wal_appends", "serve.recover_ms", "core.solve_ms", "loadgen.offered"} {
		if v := out.layer[name]; !(v > 0) {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	if len(out.layer) != len(perLayer) {
		t.Errorf("%d per-layer rows, want %d", len(out.layer), len(perLayer))
	}
}
