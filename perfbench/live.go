package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"edgecache"
	"edgecache/internal/model"
	"edgecache/internal/online"
	"edgecache/internal/serve"
	"edgecache/internal/trace"
	"edgecache/internal/workload"
)

// The live workload, ingest-wal: a topology that is cheap to solve,
// served by serve.Open and serve.NewServer behind the benchmark's own
// listener with the WAL fsynced on every append, so HTTP decode,
// validation, the WAL append and Controller.mu carry the cost. It is
// driven over loopback HTTP by one process with two connections.
// Connection A sends each slot's trace reports during that slot, in
// batches; connection B sends ticks on a fixed period, reads the plan
// after each tick, and reads it at a fixed rate. The controller is
// restarted once, in the middle of a slot.
const (
	liveSBS, liveCatalogue, liveClasses, liveCache = 2, 20, 4, 4
	// liveDensity is the paper's own upper bound on a class's request
	// density, d_m ~ U[0, 100] (§V-B). The model's default, 4.0
	// (workload.PaperDefault), is calibrated to the solver's bandwidth
	// regime and yields about 13 reports per slot on this topology, too
	// few to read an ingest tail from; at the paper's density a slot
	// carries about 315.
	liveDensity = 100
	// liveBandwidth is B=10 at the default density, scaled by the same
	// factor as the density (×25), so that demand over bandwidth — and
	// with it the solver's work per slot — stays that of the small
	// topology at the default density. At B=10 the scaled demand would
	// saturate the SBSs sixteenfold and a window solve would take four
	// to seven times as long.
	liveBandwidth = 10 * liveDensity / 4
	// tickPeriod is connection B's tick period, one slot.
	tickPeriod = 250 * time.Millisecond
	// batchSize is the number of reports per ingest request.
	batchSize = 8
	// planRate is connection B's fixed plan-read rate in reads/s.
	planRate = 20
	// ingestTailQ is the tail percentile of the end-to-end ingest latency.
	ingestTailQ = 0.99
)

// liveOnline is the live controller's planner, RHC with a window of 2.
var liveOnline = online.RHC(2)

const (
	// A run sets up setupReps times, setupGap apart, and keeps the last
	// system; setup_s is the median. Spaced set-ups sample the machine
	// over two seconds instead of a few milliseconds, and each starts
	// from an idle process rather than right after the previous one.
	setupReps     = 101
	setupGap      = 20 * time.Millisecond
	goodputLimit  = 50 * time.Millisecond
	startLead     = 50 * time.Millisecond
	shutdownGrace = 10 * time.Second
)

// liveSystem is one running controller behind the benchmark's listener.
type liveSystem struct {
	base *model.Instance
	scfg serve.Config
	ctrl *serve.Controller
	fe   *frontend
	hs   *http.Server
	addr string
	done chan struct{}
}

// startLive builds the instance, opens the controller at genesis in dir,
// and serves it on a loopback listener; it returns once the first plan
// has been read back over HTTP.
func startLive(ctx context.Context, horizon int, dir string, rec *recorder) (*liveSystem, error) {
	base, _, err := edgecache.NewScenario(liveSBS, liveCatalogue, liveClasses, horizon).
		WithCache(liveCache).WithBandwidth(liveBandwidth).WithDensity(liveDensity).WithSeed(instanceSeed).Build()
	if err != nil {
		return nil, err
	}
	sys := &liveSystem{base: base, scfg: serve.Config{Online: liveOnline, StateDir: dir, WALFsync: serve.FsyncAlways}}
	if sys.ctrl, err = serve.Open(ctx, base, sys.scfg); err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.ServerConfig{Controller: sys.ctrl})
	if err != nil {
		sys.ctrl.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.ctrl.Close()
		return nil, err
	}
	sys.fe = newFrontend(srv.Handler(), rec)
	sys.hs = &http.Server{Handler: sys.fe}
	sys.addr = ln.Addr().String()
	sys.done = make(chan struct{})
	go func() {
		defer close(sys.done)
		_ = sys.hs.Serve(ln)
	}()
	cl := newClient(sys.addr)
	defer cl.close()
	var plan serve.Plan
	if err := cl.do(http.MethodGet, "/v1/plan", 0, nil, &plan); err != nil || plan.Slot != 0 {
		sys.stop()
		return nil, fmt.Errorf("first plan: slot %d, %v", plan.Slot, err)
	}
	return sys, nil
}

// restart closes the controller and reopens it from its state
// directory while the frontend holds new requests back; it returns the
// time from serve.Open to the new handler serving.
func (s *liveSystem) restart(ctx context.Context) (time.Duration, error) {
	var took time.Duration
	err := s.fe.swap(func() (http.Handler, error) {
		if err := s.ctrl.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		ctrl, err := serve.Open(ctx, s.base, s.scfg)
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(serve.ServerConfig{Controller: ctrl})
		if err != nil {
			ctrl.Close()
			return nil, err
		}
		s.ctrl = ctrl
		took = time.Since(t0)
		return srv.Handler(), nil
	})
	return took, err
}

// stop shuts the listener down and closes the controller.
func (s *liveSystem) stop() {
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	_ = s.hs.Shutdown(sctx)
	<-s.done
	s.ctrl.Close()
}

// ack is one acknowledged ingest: the batch index and the slot the
// service booked it under.
type ack struct{ slot, batch int }

// bOp is one scheduled operation of connection B.
type bOp struct {
	off  time.Duration
	tick int // the slot the tick closes, or -1 for a plan read
}

// tickObs is what connection B saw of one tick: its schedule index and
// op id, the slots it closed and opened, when the tick reply arrived,
// and (traced runs) the sizes of the state files it left behind.
type tickObs struct {
	i         int
	id        int64
	next      int
	posted    time.Time
	walBytes  int64
	snapBytes int64
}

func runIngestWAL(ctx context.Context, rc runConfig) (*outcome, error) {
	rec := newRecorder(rc.traced)
	// The run closes `slots` slots. The horizon has one slot more, left
	// open at the end, so a report delayed past the last tick (by a stall
	// the generator could not catch up from) is booked rather than refused.
	slots := max(8, int(time.Duration(rc.seconds)*time.Second/tickPeriod))
	horizon := slots + 1

	// Set up several times and keep the last system for the run.
	var sys *liveSystem
	stopped := false
	defer func() {
		if sys != nil && !stopped {
			sys.stop()
		}
	}()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(rc.workDir, fmt.Sprintf("state-%d", i))
		t0 := time.Now()
		s, err := startLive(ctx, horizon, dir, rec)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if sys != nil {
			sys.stop()
			os.RemoveAll(sys.scfg.StateDir)
		}
		sys = s
		if i < setupReps-1 {
			time.Sleep(setupGap)
		}
	}

	tr := trace.Generate(sys.base.Demand, rc.seed)
	if tr.Len() == 0 {
		return nil, errors.New("trace has no reports")
	}
	span := time.Duration(slots) * tickPeriod
	ingestOffs, batch := planIngest(tr, slots)
	var bOps []bOp
	for k := 1; k <= slots; k++ {
		bOps = append(bOps, bOp{time.Duration(k) * tickPeriod, k - 1})
	}
	for _, off := range evenOffsets(planRate, span) {
		bOps = append(bOps, bOp{off, -1})
	}
	sort.SliceStable(bOps, func(i, j int) bool { return bOps[i].off < bOps[j].off })
	bOffs := make([]time.Duration, len(bOps))
	for i, op := range bOps {
		bOffs[i] = op.off
	}
	restartOff := time.Duration(slots/2)*tickPeriod + tickPeriod/2

	clA, clB := newClient(sys.addr), newClient(sys.addr)
	defer clA.close()
	defer clB.close()

	var (
		wg         sync.WaitGroup
		aSamples   []sample
		bSamples   []sample
		acks       []ack
		ticks      []tickObs
		aIDs       []int64
		recoverDur time.Duration
		restartErr error
		replayed   int64
	)
	before := rec.snapshot()
	start := time.Now().Add(startLead)
	wg.Add(3)
	go func() {
		defer wg.Done()
		aIDs = make([]int64, len(ingestOffs))
		aSamples = runSchedule(ctx, start, ingestOffs, func(i int) (int, error) {
			reqs := batch(i)
			body, err := json.Marshal(serve.IngestRequest{Requests: reqs})
			if err != nil {
				return len(reqs), err
			}
			aIDs[i] = rec.id()
			sent := time.Now()
			var resp serve.IngestResponse
			err = clA.do(http.MethodPost, "/v1/requests", aIDs[i], body, &resp)
			rec.record(aIDs[i], 0, "loadgen.ingest", sent, time.Now())
			if err == nil && resp.Accepted != len(reqs) {
				err = fmt.Errorf("batch %d: %d of %d reports accepted", i, resp.Accepted, len(reqs))
			}
			if err == nil {
				acks = append(acks, ack{slot: resp.Slot, batch: i})
			}
			return len(reqs), err
		})
	}()
	go func() {
		defer wg.Done()
		bSamples = runSchedule(ctx, start, bOffs, func(i int) (int, error) {
			op := bOps[i]
			id := rec.id()
			sent := time.Now()
			defer func() { rec.record(id, 0, "loadgen.b", sent, time.Now()) }()
			if op.tick < 0 {
				return 1, clB.do(http.MethodGet, "/v1/plan", id, nil, nil)
			}
			var res serve.TickResult
			if err := clB.do(http.MethodPost, "/v1/tick", id, nil, &res); err != nil {
				return 1, err
			}
			posted := time.Now()
			if res.Slot != op.tick {
				return 1, fmt.Errorf("tick closed slot %d, want %d", res.Slot, op.tick)
			}
			var plan serve.Plan
			if err := clB.do(http.MethodGet, "/v1/plan", 0, nil, &plan); err != nil {
				return 1, err
			}
			if plan.Slot != res.NextSlot || plan.Done != res.Done {
				return 1, fmt.Errorf("after closing slot %d the plan is for slot %d", res.Slot, plan.Slot)
			}
			to := tickObs{i: i, id: id, next: res.NextSlot, posted: posted}
			if rec.on {
				to.walBytes = fileSize(filepath.Join(sys.scfg.StateDir, fmt.Sprintf("wal.%06d", res.Slot)))
				to.snapBytes = fileSize(filepath.Join(sys.scfg.StateDir, fmt.Sprintf("snap.%06d.json", res.NextSlot)))
			}
			ticks = append(ticks, to)
			return 1, nil
		})
	}()
	go func() {
		defer wg.Done()
		if restartErr = sleepUntil(ctx, start.Add(restartOff)); restartErr != nil {
			return
		}
		pre := rec.snapshot()
		t0 := time.Now()
		recoverDur, restartErr = sys.restart(ctx)
		rec.record(0, 0, "serve.restart", t0, time.Now())
		replayed = diff(pre, rec.snapshot()).counters["serve.wal_replayed"]
	}()
	wg.Wait()
	end := start
	for _, s := range append(append([]sample(nil), aSamples...), bSamples...) {
		if s.done.After(end) {
			end = s.done
		}
	}
	wall := end.Sub(start)
	whole := diff(before, rec.snapshot())
	rss := peakRSSMiB()

	// Outputs: the committed trajectory and the ingested count.
	var served []byte
	var stats serve.Stats
	trajErr := clB.do(http.MethodGet, "/v1/trajectory", 0, nil, &served)
	statsErr := clB.do(http.MethodGet, "/v1/stats", 0, nil, &stats)
	sys.stop()
	stopped = true
	os.RemoveAll(sys.scfg.StateDir)

	out := &outcome{correct: true, e2e: map[string]float64{}, layer: newLayerRows()}
	out.attempted = int64(len(aSamples) + len(bSamples) + 2) // + restart + trajectory check
	var ingestLat, tickLat, planLat []float64
	for _, s := range aSamples {
		if s.err != nil {
			out.fail("ingest due %s: %v", s.due.Sub(start), s.err)
			continue
		}
		ingestLat = append(ingestLat, s.latencyMs())
	}
	for i, s := range bSamples {
		if s.err != nil {
			out.fail("%s due %s: %v", opName(bOps[i].tick), s.due.Sub(start), s.err)
			continue
		}
		if bOps[i].tick >= 0 {
			tickLat = append(tickLat, s.latencyMs())
		} else {
			planLat = append(planLat, s.latencyMs())
		}
	}
	if restartErr != nil {
		out.fail("restart: %v", restartErr)
	}
	var acked int64
	for _, a := range acks {
		acked += int64(len(batch(a.batch)))
	}
	switch {
	case trajErr != nil:
		out.fail("read trajectory: %v", trajErr)
	case statsErr != nil:
		out.fail("read stats: %v", statsErr)
	case stats.Ingested != acked:
		out.fail("service ingested %d reports, %d were acknowledged", stats.Ingested, acked)
	default:
		want, err := goldenTrajectory(ctx, sys.base, sys.scfg, acks, batch, slots)
		if err != nil {
			return nil, fmt.Errorf("golden replay: %w", err)
		}
		if !bytes.Equal(bytes.TrimRight(served, "\n"), want) {
			out.fail("served trajectory differs from the replay of the acknowledged reports")
		}
	}

	opTail, usedQ := tail(ingestLat, ingestTailQ)
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = median(ingestLat)
	out.e2e["op_tail_ms"] = opTail
	out.e2e["slots_per_s"] = float64(len(tickLat)) / wall.Seconds()
	out.e2e["peak_rss_mib"] = rss
	out.lines = append(out.lines,
		fmt.Sprintf("ingest-wal: %d of T=%d slots closed, period %s, %d ingests (%d reports acked), %d ticks, %d plan reads, restart %.1f ms",
			slots, horizon, tickPeriod, len(aSamples), acked, len(tickLat), len(planLat), msOf(recoverDur)),
		fmt.Sprintf("end-to-end op = ingest latency from due time: p50 %.3f ms, p%.3g %.3f ms over %d samples",
			out.e2e["op_p50_ms"], usedQ*100, opTail, len(ingestLat)))

	if !rc.traced {
		return out, nil
	}
	liveLayers(out.layer, rec, sys.fe, wall, aSamples, aIDs, bSamples, bOps, ticks, whole, slots)
	out.layer["serve.recover_ms"] = msOf(recoverDur)
	out.layer["serve.wal_replayed"] = float64(replayed)
	if err := rec.write(filepath.Join(filepath.Dir(rc.workDir), fmt.Sprintf("spans-ingest-wal-%d.json", rc.seed))); err != nil {
		return nil, err
	}
	return out, nil
}

func opName(tick int) string {
	if tick < 0 {
		return "plan read"
	}
	return fmt.Sprintf("tick closing slot %d", tick)
}

// liveLayers computes the per-layer rows of a traced live run.
func liveLayers(rows map[string]float64, rec *recorder, fe *frontend, wall time.Duration,
	aSamples []sample, aIDs []int64, bSamples []sample, bOps []bOp, ticks []tickObs, whole layerDelta, slots int) {
	fe.tmu.Lock()
	handler := fe.handler
	tickRecs := fe.ticks
	fe.tmu.Unlock()

	// Load generator.
	var ingestLat, tickLat, planLat []float64
	for _, s := range aSamples {
		if s.err == nil {
			ingestLat = append(ingestLat, s.latencyMs())
		}
	}
	for i, s := range bSamples {
		switch {
		case s.err != nil:
		case bOps[i].tick >= 0:
			tickLat = append(tickLat, s.latencyMs())
		default:
			planLat = append(planLat, s.latencyMs())
		}
	}
	rows["loadgen.late_max_ms"] = max(lateMaxMs(aSamples), lateMaxMs(bSamples))
	rows["loadgen.offered"] = float64(len(aSamples)+len(bSamples)) / wall.Seconds()
	rows["loadgen.ingest_p50_ms"] = median(ingestLat)
	rows["loadgen.ingest_p99_ms"], _ = tail(ingestLat, 0.99)
	rows["loadgen.ingest_goodput_rps"] = goodput(aSamples, goodputLimit, wall)
	rows["loadgen.tick_p50_ms"] = median(tickLat)
	rows["loadgen.tick_p90_ms"], _ = tail(tickLat, 0.90)
	rows["loadgen.plan_p99_ms"], _ = tail(planLat, 0.99)

	// serve: ingest handler time, the queueing around it, and ingest
	// latency inside and outside tick handler windows.
	var handlerMs, queueMs, inTick, outTick []float64
	var ops []interval
	var opLat []float64
	for i, s := range aSamples {
		h, ok := handler[aIDs[i]]
		if s.err != nil || !ok {
			continue
		}
		handlerMs = append(handlerMs, msOf(h))
		queueMs = append(queueMs, msOf(s.done.Sub(s.sent)-h))
		ops = append(ops, interval{s.due, s.done})
		opLat = append(opLat, s.latencyMs())
	}
	windows := make([]interval, len(tickRecs))
	for i, t := range tickRecs {
		windows[i] = t.window
	}
	for i, in := range inWindows(ops, windows) {
		if in {
			inTick = append(inTick, opLat[i])
		} else {
			outTick = append(outTick, opLat[i])
		}
	}
	rows["serve.ingest_handler_ms"] = mean(handlerMs)
	rows["serve.queue_ms"] = mean(queueMs)
	rows["serve.ingest_in_tick_p99_ms"], _ = tail(inTick, 0.99)
	rows["serve.ingest_out_tick_p99_ms"], _ = tail(outTick, 0.99)

	// serve: tick handler, persistence (handler time outside the window
	// solves), and the solver layers below it, from the deltas taken
	// around each tick.
	byID := map[int64]tickRecord{}
	solver := newLayerDelta()
	var tickHandler, persist []float64
	for _, t := range tickRecs {
		byID[t.id] = t
		solver.add(t.delta)
		d := msOf(t.window.end.Sub(t.window.start))
		tickHandler = append(tickHandler, d)
		persist = append(persist, d-t.delta.ms("online.window_solve"))
	}
	rows["serve.tick_handler_ms"] = mean(tickHandler)
	rows["serve.persist_ms"] = mean(persist)
	solverRows(rows, solver, float64(len(tickRecs)))
	rows["serve.wal_appends"] = float64(whole.counters["serve.wal_appends"])
	var walBytes []float64
	for _, t := range ticks {
		if t.walBytes > 0 {
			walBytes = append(walBytes, float64(t.walBytes))
		}
		switch t.next {
		case slots / 4:
			rows["serve.snapshot_kb_q1"] = float64(t.snapBytes) / 1024
		case 3 * slots / 4:
			rows["serve.snapshot_kb_q3"] = float64(t.snapBytes) / 1024
		}
	}
	rows["serve.wal_bytes_per_slot"] = mean(walBytes)

	// Tick latency decomposed along its blocking path: generator wait,
	// HTTP queueing, serve persistence, the P1/P2/recovery solver phases
	// and the plan read that publishes the result. What is left is time
	// inside the online and core layers that no leaf row covers.
	var total, unexplained time.Duration
	for _, t := range ticks {
		s := bSamples[t.i]
		r, ok := byID[t.id]
		if s.err != nil || !ok {
			continue
		}
		lat := s.done.Sub(s.due)
		handlerDur := r.window.end.Sub(r.window.start)
		solve := r.delta.timerDur["online.window_solve"]
		leaves := r.delta.timerDur["core.p1_solve"] + r.delta.timerDur["core.p2_solve"] + r.delta.timerDur["core.recover"]
		explained := s.sent.Sub(s.due) + // generator wait
			t.posted.Sub(s.sent) - handlerDur + // HTTP queueing
			handlerDur - solve + // serve persistence
			leaves +
			s.done.Sub(t.posted) // plan read
		total += lat
		unexplained += lat - explained
	}
	rows["trace.unexplained_share"] = ratio(float64(unexplained), float64(total))
	rows["trace.overhead_pct"] = 100 * ratio(float64(rec.overheadTotal()), float64(wall))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// goldenTrajectory replays the acknowledged reports through online.Run
// with a fresh OnlineEstimator — what an unkilled, unserved controller
// commits for the same realised demand — and returns its first closed
// slots wire-encoded like the service's /v1/trajectory body. The
// estimator never reads a slot before it closes, so the decisions of the
// closed slots do not depend on the reports booked into the open one.
func goldenTrajectory(ctx context.Context, base *model.Instance, scfg serve.Config, acks []ack, batch func(int) []serve.Request, closed int) ([]byte, error) {
	d := model.NewDemand(base.T, base.Classes, base.K)
	for _, a := range acks {
		for _, r := range batch(a.batch) {
			d.Set(a.slot, r.SBS, r.Class, r.Content, d.At(a.slot, r.SBS, r.Class, r.Content)+1)
		}
	}
	in := *base
	in.Demand = d
	est, err := workload.NewOnlineEstimator(d, scfg.EstimatorAlpha, scfg.EstimatorFloor)
	if err != nil {
		return nil, err
	}
	res, err := online.Run(ctx, &in, est, scfg.Online)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Trajectory[:closed])
}

// planIngest lays out connection A's schedule: the due offsets, and a
// function returning the reports of batch i. Trace slot t's reports are
// sent during slot t (t < slots), the way an edge node reports its slot's
// traffic, cut into batches of batchSize spread evenly over the slot.
func planIngest(tr *trace.Trace, slots int) ([]time.Duration, func(i int) []serve.Request) {
	var offs []time.Duration
	var batches [][]serve.Request
	for t := 0; t < slots; t++ {
		reqs := slotReports(tr, t)
		n := (len(reqs) + batchSize - 1) / batchSize
		for i := 0; i < n; i++ {
			offs = append(offs, time.Duration(t)*tickPeriod+time.Duration(i)*tickPeriod/time.Duration(n))
			batches = append(batches, reqs[i*batchSize:min(len(reqs), (i+1)*batchSize)])
		}
	}
	return offs, func(i int) []serve.Request { return batches[i] }
}

// slotReports lists a trace slot's reports, SBS by SBS, in arrival order.
func slotReports(tr *trace.Trace, t int) []serve.Request {
	var out []serve.Request
	for n := 0; n < tr.N(); n++ {
		for _, r := range tr.Slot(t, n) {
			out = append(out, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
		}
	}
	return out
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
