package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"edgecache/internal/obs"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program.
type span struct {
	id, parent int64
	name       string
	start, end time.Time
}

// recorder keeps spans in memory while a traced run measures, and
// accounts the time it spends doing so — the tracing overhead. A
// disabled recorder records nothing and costs one branch per call.
type recorder struct {
	on bool
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	nextID   int64
	overhead time.Duration
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// id allocates a span id (0 when tracing is off).
func (r *recorder) id() int64 {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// record stores a finished span under a pre-allocated id (0 allocates
// one) and returns its id.
func (r *recorder) record(id, parent int64, name string, start, end time.Time) int64 {
	if !r.on {
		return 0
	}
	t := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	r.overhead += time.Since(t)
	return id
}

// snapshot reads the program's always-on instruments, charging the read
// to the tracing overhead. Untraced runs read nothing.
func (r *recorder) snapshot() obs.Snapshot {
	if !r.on {
		return obs.Snapshot{}
	}
	t := time.Now()
	s := obs.Default.Snapshot()
	r.mu.Lock()
	r.overhead += time.Since(t)
	r.mu.Unlock()
	return s
}

func (r *recorder) overheadTotal() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.overhead
}

// write dumps the spans as a Chrome trace (complete events, µs), which
// Perfetto and chrome://tracing open directly.
func (r *recorder) write(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Sub(r.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int64{"id": s.id, "parent": s.parent},
		}
	}
	r.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tickRecord is one tick handler call seen by the traced frontend, with
// the instrument deltas taken around it.
type tickRecord struct {
	id     int64
	window interval
	delta  layerDelta
}

// frontend is the benchmark's own HTTP handler in front of
// serve.Server.Handler(). It lets a restart swap the served handler
// while requests wait (they are delayed, not refused), and in a traced
// run it times every handler call and takes instrument deltas around
// each tick.
type frontend struct {
	rec *recorder

	mu sync.RWMutex // held shared by requests, exclusively by a restart
	h  http.Handler

	tmu     sync.Mutex
	handler map[int64]time.Duration // op id → handler time
	ticks   []tickRecord
}

func newFrontend(h http.Handler, rec *recorder) *frontend {
	return &frontend{rec: rec, h: h, handler: map[int64]time.Duration{}}
}

func (f *frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if !f.rec.on {
		f.h.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	tick := r.URL.Path == "/v1/tick"
	var before obs.Snapshot
	if tick {
		before = f.rec.snapshot()
	}
	start := time.Now()
	f.h.ServeHTTP(w, r)
	end := time.Now()
	f.rec.record(0, id, "serve"+r.URL.Path, start, end)
	var d layerDelta
	if tick {
		d = diff(before, f.rec.snapshot())
	}
	f.tmu.Lock()
	defer f.tmu.Unlock()
	if id != 0 {
		f.handler[id] = end.Sub(start)
	}
	if tick {
		f.ticks = append(f.ticks, tickRecord{id: id, window: interval{start, end}, delta: d})
	}
}

// swap replaces the served handler: it waits for in-flight requests,
// holds new ones while fn runs, and serves them with fn's handler.
func (f *frontend) swap(fn func() (http.Handler, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, err := fn()
	if err != nil {
		return err
	}
	f.h = h
	return nil
}
