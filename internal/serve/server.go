package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// DefaultMaxBody caps POST /v1/requests bodies when
// ServerConfig.MaxBodyBytes is zero.
const DefaultMaxBody = 1 << 20

// ServerConfig assembles a Server.
type ServerConfig struct {
	// Controller is the controller to serve. Required unless Boot is set.
	Controller *Controller
	// Boot, when set, builds the controller asynchronously after Start —
	// the listener comes up immediately while recovery (snapshot
	// verification + WAL replay) runs in the background; /v1/readyz
	// reports 503 and the data endpoints reply 503 Retry-After until Boot
	// returns. The server owns a boot-built controller and closes it on
	// Shutdown. Mutually exclusive with Controller.
	Boot func(ctx context.Context) (*Controller, error)
	// Clock drives the slot ticker (nil selects the wall clock). Tests
	// and the smoke harness inject a MockClock.
	Clock Clock
	// SlotDuration is the wall-clock length of one slot. Zero disables
	// the ticker; slots then advance only through POST /v1/tick.
	SlotDuration time.Duration
	// CatchUp is the missed-tick policy (default CatchUpSkip).
	CatchUp CatchUpPolicy
	// CatchUpBound caps one fast-forward burst (0 = DefaultCatchUpBound).
	CatchUpBound int
	// MaxBodyBytes caps POST /v1/requests bodies (0 = DefaultMaxBody).
	MaxBodyBytes int64
}

// Server exposes a Controller over HTTP/JSON:
//
//	POST /v1/requests    ingest a batch of demand reports
//	GET  /v1/plan        the published decision for the open slot
//	POST /v1/tick        close the open slot explicitly
//	GET  /v1/stats       live controller counters
//	GET  /v1/trajectory  committed decisions so far
//	GET  /v1/healthz     liveness: slot, completion and degradation state
//	GET  /v1/readyz      readiness: 503 until recovery completes and
//	                     while the controller is poisoned
//
// Every handler runs behind panic-recovery middleware (a handler panic
// becomes a 500 plus the serve.handler_panics counter, not a process
// death). With a SlotDuration the server also runs a ticker goroutine
// closing slots per the catch-up policy until the horizon completes.
// Shutdown stops the ticker first, then drains in-flight requests
// gracefully.
type Server struct {
	clock    Clock
	slotDur  time.Duration
	catchUp  CatchUpPolicy
	catchN   int
	maxBody  int64
	boot     func(ctx context.Context) (*Controller, error)
	ownsCtrl bool

	mux *http.ServeMux
	srv *http.Server

	mu         sync.Mutex
	ctrl       *Controller
	bootErr    error
	addr       string
	serveDone  chan struct{}
	bootCancel context.CancelFunc
	bootDone   chan struct{}
	tickStop   context.CancelFunc
	tickDone   chan struct{}
	closeOne   sync.Once
	closeErr   error
}

// NewServer builds a server around cfg. Start brings it up.
func NewServer(cfg ServerConfig) (*Server, error) {
	if (cfg.Controller == nil) == (cfg.Boot == nil) {
		return nil, fmt.Errorf("serve: exactly one of ServerConfig.Controller and ServerConfig.Boot is required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = RealClock()
	}
	catchN := cfg.CatchUpBound
	if catchN <= 0 {
		catchN = DefaultCatchUpBound
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	s := &Server{
		ctrl:     cfg.Controller,
		boot:     cfg.Boot,
		ownsCtrl: cfg.Boot != nil,
		clock:    clock,
		slotDur:  cfg.SlotDuration,
		catchUp:  cfg.CatchUp,
		catchN:   catchN,
		maxBody:  maxBody,
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/requests", s.handleRequests)
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/tick", s.handleTick)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/trajectory", s.handleTrajectory)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/readyz", s.handleReadyz)
	s.srv = &http.Server{Handler: s.recoverPanics(s.mux)}
	return s, nil
}

// Handler returns the service handler (panic middleware included) —
// usable without Start (httptest, or embedding into a larger server).
func (s *Server) Handler() http.Handler { return s.srv.Handler }

// recoverPanics converts a handler panic into a 500 and a counter
// increment instead of tearing the whole process (and every other
// in-flight request) down with it.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				httpError(w, http.StatusInternalServerError, "internal error: %v", p)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// controller returns the live controller, or nil while Boot is still
// recovering (or failed).
func (s *Server) controller() *Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl
}

// Controller returns the served controller once available (nil while a
// Boot recovery is still in flight or after it failed).
func (s *Server) Controller() *Controller { return s.controller() }

// BootErr returns the terminal error of an asynchronous Boot, if any.
func (s *Server) BootErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bootErr
}

// Start listens on addr (e.g. "localhost:0"), serves in the background,
// launches the asynchronous Boot recovery when configured, and — when
// SlotDuration is set — starts the slot ticker.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.mu.Lock()
	s.addr = ln.Addr().String()
	s.serveDone = make(chan struct{})
	s.mu.Unlock()
	go func() {
		defer close(s.serveDone)
		_ = s.srv.Serve(ln)
	}()
	if s.boot != nil {
		bctx, bcancel := context.WithCancel(context.Background())
		bootDone := make(chan struct{})
		s.mu.Lock()
		s.bootCancel = bcancel
		s.bootDone = bootDone
		s.mu.Unlock()
		go func() {
			defer close(bootDone)
			ctrl, err := s.boot(bctx)
			s.mu.Lock()
			if err != nil {
				s.bootErr = err
			} else {
				s.ctrl = ctrl
			}
			s.mu.Unlock()
		}()
	}
	if s.slotDur > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		// Register the ticker before returning so a test clock advanced
		// right after Start delivers its first tick.
		ticker := s.clock.Ticker(s.slotDur)
		s.mu.Lock()
		s.tickStop = cancel
		s.tickDone = make(chan struct{})
		s.mu.Unlock()
		go s.tickLoop(ctx, ticker)
	}
	return nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// tickLoop closes slots per the catch-up policy until the horizon
// completes, the context is cancelled, or a tick fails terminally. Due
// accounting runs off each tick's own timestamp against the first tick
// as anchor: a late-delivered or coalesced tick computes how many slot
// periods it owes; CatchUpSkip closes one and logs the rest missed,
// CatchUpFastForward closes up to the bound.
func (s *Server) tickLoop(ctx context.Context, ticker Ticker) {
	defer close(s.tickDone)
	defer ticker.Stop()
	period := s.slotDur
	var anchor time.Time
	anchored := false
	handled := 0
	for {
		var at time.Time
		select {
		case <-ctx.Done():
			return
		case at = <-ticker.C():
		}
		ctrl := s.controller()
		if ctrl == nil {
			// Boot recovery still in flight: the slot clock starts once the
			// controller lands, so recovery time never counts as missed.
			continue
		}
		if !anchored {
			anchor = at.Add(-period)
			anchored = true
		}
		// Half-period rounding absorbs delivery jitter of the real clock.
		due := int((at.Sub(anchor)+period/2)/period) - handled
		if due <= 0 {
			continue // stale duplicate of an already-handled period
		}
		n := 1
		if s.catchUp == CatchUpFastForward {
			n = due
			if n > s.catchN {
				n = s.catchN
			}
		}
		handled += due
		if missed := due - n; missed > 0 {
			mTicksMissed.Add(int64(missed))
		}
		for i := 0; i < n; i++ {
			// A started tick runs to completion (its close is durable
			// before the solve), so stop between ticks on shutdown.
			if ctx.Err() != nil || ctrl.Done() {
				return
			}
			if _, err := ctrl.Tick(ctx); err != nil {
				// A failed tick leaves the slot to the next period's retry
				// (transient snapshot I/O) rather than killing the service.
				break
			}
		}
		if ctrl.Done() {
			return
		}
	}
}

// Shutdown stops the boot recovery and the ticker, shuts the HTTP server
// down gracefully within ctx, and closes a boot-owned controller.
// Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOne.Do(func() {
		s.mu.Lock()
		bootCancel, bootDone := s.bootCancel, s.bootDone
		tickStop, tickDone, serveDone := s.tickStop, s.tickDone, s.serveDone
		s.mu.Unlock()
		if bootCancel != nil {
			bootCancel()
			<-bootDone
		}
		if tickStop != nil {
			tickStop()
			<-tickDone
		}
		if serveDone == nil {
			return // never started; nothing to drain
		}
		err := s.srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			err = s.srv.Close()
		}
		<-serveDone
		if s.ownsCtrl {
			if ctrl := s.controller(); ctrl != nil {
				if cerr := ctrl.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
		s.closeErr = err
	})
	return s.closeErr
}

// IngestRequest is the POST /v1/requests body.
type IngestRequest struct {
	Requests []Request `json:"requests"`
}

// IngestResponse acknowledges an ingested batch. In StateDir mode the
// acknowledgement implies durability: the batch is in the fsynced WAL
// (per the fsync policy) before this body is written.
type IngestResponse struct {
	// Slot is the open slot the batch was booked under.
	Slot int `json:"slot"`
	// Accepted is the number of reports booked.
	Accepted int `json:"accepted"`
}

// ErrorBody is the structured error payload of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// Index, Field and Reason locate a rejected report inside the batch
	// (400 responses to /v1/requests only).
	Index  int    `json:"index,omitempty"`
	Field  string `json:"field,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// retryAfter writes a Retry-After of roughly one slot (at least 1s).
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.slotDur / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// unavailable replies 503 while the controller is recovering or its WAL
// went unhealthy.
func (s *Server) unavailable(w http.ResponseWriter, format string, args ...any) {
	s.retryAfter(w)
	httpError(w, http.StatusServiceUnavailable, format, args...)
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctrl := s.controller()
	if ctrl == nil {
		s.unavailable(w, "controller recovering")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var body IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "decode body: %v", err)
		return
	}
	slot, err := ctrl.Ingest(body.Requests)
	if err != nil {
		var rerr *RequestError
		switch {
		case errors.As(err, &rerr):
			writeJSONStatus(w, http.StatusBadRequest, ErrorBody{
				Error: rerr.Error(), Index: rerr.Index, Field: rerr.Field, Reason: rerr.Reason,
			})
		case errors.Is(err, ErrBackpressure):
			s.retryAfter(w)
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrClosed), ctrl.Healthy() != nil:
			s.unavailable(w, "%v", err)
		case ctrl.Done():
			httpError(w, http.StatusConflict, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, IngestResponse{Slot: slot, Accepted: len(body.Requests)})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ctrl := s.controller()
	if ctrl == nil {
		s.unavailable(w, "controller recovering")
		return
	}
	writeJSON(w, ctrl.Plan())
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctrl := s.controller()
	if ctrl == nil {
		s.unavailable(w, "controller recovering")
		return
	}
	res, err := ctrl.Tick(r.Context())
	if err != nil {
		switch {
		case errors.Is(err, ErrClosed), ctrl.Healthy() != nil:
			s.unavailable(w, "%v", err)
		case ctrl.Done():
			httpError(w, http.StatusConflict, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ctrl := s.controller()
	if ctrl == nil {
		s.unavailable(w, "controller recovering")
		return
	}
	writeJSON(w, ctrl.Stats())
}

func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ctrl := s.controller()
	if ctrl == nil {
		s.unavailable(w, "controller recovering")
		return
	}
	writeJSON(w, ctrl.Trajectory())
}

// Health is the GET /v1/healthz body. The endpoint is liveness: it
// replies 200 whenever the process can serve HTTP; OK turns false while
// the service is degraded (recovering, or the WAL unhealthy).
type Health struct {
	OK   bool `json:"ok"`
	Slot int  `json:"slot"`
	Done bool `json:"done"`
	// Recovering is true while the asynchronous Boot has not delivered a
	// controller yet.
	Recovering bool `json:"recovering,omitempty"`
	// WALError surfaces the sticky failure (a WAL write or a slot solve)
	// poisoning the controller, if any.
	WALError string `json:"walError,omitempty"`
}

func (s *Server) health() Health {
	ctrl := s.controller()
	if ctrl == nil {
		h := Health{Recovering: true}
		if err := s.BootErr(); err != nil {
			h.WALError = err.Error()
			h.Recovering = false
		}
		return h
	}
	h := Health{OK: true}
	st := ctrl.Stats()
	h.Slot, h.Done = st.Slot, st.Done
	if err := ctrl.Healthy(); err != nil {
		h.OK = false
		h.WALError = err.Error()
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, s.health())
}

// handleReadyz gates readiness on recovery completion and WAL write
// health: 200 once the controller is live and durable, 503 otherwise —
// a load balancer keeps traffic away until replay has finished and
// stops sending it once the disk went bad.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	h := s.health()
	if !h.OK {
		s.retryAfter(w)
		writeJSONStatus(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, h)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSONStatus(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}
