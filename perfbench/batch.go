package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"edgecache"
	"edgecache/internal/sim"
	"edgecache/internal/workload"
)

// predictionNoise is the paper's forecast noise level η.
const predictionNoise = 0.1

// batchSlots is the horizon of the batch comparison: the paper-default
// instance (N=1, K=30, 30 classes) shortened so that one comparison of
// all five planners takes 5–8 s on a 2-core machine and a run repeats it
// several times (at T=48 one comparison takes about 21 s).
const batchSlots = 16

// batchPlanners are compared on every repetition, in this order; the
// key names the planner's sim.plan_ms row.
var batchPlanners = []struct {
	key string
	p   sim.Policy
}{
	{"offline", edgecache.Offline()},
	{"rhc", edgecache.RHC(6)},
	{"chc", edgecache.CHC(6, 3)},
	{"afhc", edgecache.AFHC(6)},
	{"lrfu", edgecache.LRFU()},
}

// batchSetupReps is how many times a run sets up; setup_s is the median.
const batchSetupReps = 9

// runBatchCompare repeats the five-planner comparison through sim.RunWith
// with the differential auditor on, back to back, for the run's seconds.
// Every run must audit clean, and every repetition must commit the same
// trajectories as the first.
func runBatchCompare(ctx context.Context, rc runConfig) (*outcome, error) {
	rec := newRecorder(rc.traced)
	// Set-up ends when the first plan exists: the instance and predictor
	// are built and the first planner has planned.
	var setups []float64
	var in *edgecache.Instance
	var pred *edgecache.Predictor
	for i := 0; i < batchSetupReps; i++ {
		t0 := time.Now()
		var err error
		in, _, err = edgecache.PaperScenario().WithHorizon(batchSlots).WithSeed(instanceSeed).Build()
		if err == nil {
			pred, err = workload.NewPredictor(in.Demand, predictionNoise, rc.seed)
		}
		if err == nil {
			_, err = sim.RunWith(ctx, in, pred, batchPlanners[0].p, sim.Config{})
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	out := &outcome{correct: true, e2e: map[string]float64{}, layer: newLayerRows()}
	digests := make([][sha256.Size]byte, len(batchPlanners))
	solver := newLayerDelta()
	planMs := make([]float64, len(batchPlanners))
	runs := make([]int, len(batchPlanners))
	var compareMs []float64
	var slots int
	var planned time.Duration

	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds) * time.Second)
	last := start
	// Comparisons run whole, at least twice so that each trajectory is
	// checked against a repetition, until the deadline has passed.
	for rep := 0; rep < 2 || last.Before(deadline); rep++ {
		c0 := time.Now()
		for i, bp := range batchPlanners {
			out.attempted++
			pre := rec.snapshot()
			t0 := time.Now()
			res, err := sim.RunWith(ctx, in, pred, bp.p, sim.Config{Audit: true})
			last = time.Now()
			rec.record(0, 0, "sim.run."+bp.key, t0, last)
			if rc.traced {
				d := diff(pre, rec.snapshot())
				solver.add(d)
				planMs[i] += d.ms("sim.plan")
				runs[i]++
				planned += d.timerDur["sim.plan"]
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				out.fail("%s: %v", bp.key, err)
				continue
			}
			if !res.Audit.OK() {
				out.fail("%s: audit: %v", bp.key, res.Audit.Err())
			}
			raw, err := json.Marshal(res.Trajectory)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(raw)
			if rep == 0 {
				digests[i] = sum
			} else if sum != digests[i] {
				out.fail("%s: repetition %d committed a different trajectory", bp.key, rep)
			}
			slots += len(res.Trajectory)
		}
		compareMs = append(compareMs, msOf(time.Since(c0)))
	}
	wall := last.Sub(start)
	rss := peakRSSMiB()

	// A 30 s run holds five to ten comparisons, too few for any tail:
	// tail() falls back to the median below 21 samples, so op_tail_ms
	// measures no tail on this workload.
	opTail, usedQ := tail(compareMs, 0.90)
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = median(compareMs)
	out.e2e["op_tail_ms"] = opTail
	out.e2e["slots_per_s"] = float64(slots) / wall.Seconds()
	out.e2e["peak_rss_mib"] = rss
	out.lines = append(out.lines,
		fmt.Sprintf("compare: T=%d, %d comparisons of %d planners, %d slots committed in %.2f s", batchSlots, len(compareMs), len(batchPlanners), slots, wall.Seconds()),
		fmt.Sprintf("end-to-end op = one comparison: p50 %.3f ms, p%.3g %.3f ms over %d samples", out.e2e["op_p50_ms"], usedQ*100, opTail, len(compareMs)))
	if !rc.traced {
		return out, nil
	}
	solverRows(out.layer, solver, float64(slots))
	for i, bp := range batchPlanners {
		out.layer["sim.plan_ms."+bp.key] = ratio(planMs[i], float64(runs[i]))
	}
	// Outside sim.plan: the audit, Evaluate, and the benchmark's loop.
	out.layer["trace.unexplained_share"] = 1 - ratio(float64(planned), float64(wall))
	out.layer["trace.overhead_pct"] = 100 * ratio(float64(rec.overheadTotal()), float64(wall))
	if err := rec.write(filepath.Join(filepath.Dir(rc.workDir), fmt.Sprintf("spans-batch-compare-%d.json", rc.seed))); err != nil {
		return nil, err
	}
	return out, nil
}
