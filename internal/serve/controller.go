package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/online"
	"edgecache/internal/workload"
)

// Request is one ingested demand report: Count requests (default 1) of
// class Class for content Content at SBS SBS, arriving in the open slot.
type Request struct {
	SBS     int     `json:"sbs"`
	Class   int     `json:"class"`
	Content int     `json:"content"`
	Count   float64 `json:"count,omitempty"`
}

// ErrBackpressure is returned by Ingest when the open slot's report
// buffer is saturated (Config.PendingLimit); the HTTP layer maps it to
// 429 with a Retry-After of one slot.
var ErrBackpressure = errors.New("serve: open-slot report buffer is full")

// ErrClosed is returned by mutating methods after Close.
var ErrClosed = errors.New("serve: controller closed")

// RequestError rejects one report of an Ingest batch; the whole batch is
// refused and nothing is applied (ingestion is all-or-nothing, so a WAL
// record always describes a fully applied batch).
type RequestError struct {
	Index  int    `json:"index"`
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("serve: request %d: %s %s", e.Index, e.Field, e.Reason)
}

// Config tunes a Controller beyond the topology instance.
type Config struct {
	// Online is the controller configuration (algorithm, window,
	// commitment, retry policy, …). Its Faults field arms solver faults;
	// topology faults must be materialised into the instance by the
	// caller (cmd/jocserve does both from one schedule).
	Online online.Config
	// EstimatorAlpha is the EWMA weight of the newest slot (0 selects
	// workload.DefaultEstimatorAlpha).
	EstimatorAlpha float64
	// EstimatorFloor is the clamped-decay floor (< 0 selects
	// workload.DefaultEstimatorFloor; 0 disables).
	EstimatorFloor float64
	// StateDir, when non-empty, enables the crash-safe durability layer
	// (DESIGN.md §14): every acknowledged Ingest batch is written to an
	// append-only WAL before the acknowledgement, snapshots are kept as
	// checksummed generations rotated at slot close, and Open recovers
	// from the newest verifiable generation plus an idempotent WAL
	// replay — extending restart equivalence from "kill at slot
	// boundaries" to "kill -9 at any byte".
	StateDir string
	// WALFsync is the WAL flush policy ("" selects FsyncAlways).
	WALFsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (0 selects 100ms).
	FsyncEvery time.Duration
	// SnapKeep is how many snapshot generations to retain (0 selects 3;
	// minimum 2 — corruption fallback needs a predecessor).
	SnapKeep int
	// PendingLimit caps the number of report entries bookable into one
	// open slot; Ingest returns ErrBackpressure beyond it. 0 = unlimited.
	PendingLimit int64
	// DiskFaults arms torn-write/bit-flip injection on the durability
	// files (chaos harnesses only).
	DiskFaults *fault.DiskFaults
	// Faults is the full fault schedule. Its prediction-corruption arm is
	// hooked into the forecast feed here (reading the live tensor; the
	// realised rates are never touched) and its solver faults should also
	// ride in Online.Faults; topology injectors must be materialised into
	// the instance by the caller (MaterializeFaults).
	Faults *fault.Schedule
}

func (cfg *Config) snapKeep() int {
	if cfg.SnapKeep <= 0 {
		return 3
	}
	if cfg.SnapKeep < 2 {
		return 2
	}
	return cfg.SnapKeep
}

// Always-on lock instruments (DESIGN.md §14): how long Ingest waits for
// Controller.mu, and how long a tick holds it to close the slot.
var (
	mIngestLockWait = obs.Default.Timer("serve.ingest_lock_wait")
	mTickClose      = obs.Default.Timer("serve.tick_close")
)

// Controller is the serving-side state machine around an online.Stream:
// it owns the live demand tensor (filled slot by slot from ingested
// requests), the oracle-free forecaster reading it, and the snapshot/WAL
// persistence. All methods are safe for concurrent use.
//
// Two locks split ingestion from solving. mu guards the ingest side: the
// open slot's accumulator, the WAL and the counters. tick serialises
// ticks and guards the solve side: the stream, the live tensor and the
// spare accumulator. A tick holds mu only to close the slot (close
// marker, WAL rotation, accumulator swap), then solves and publishes
// under tick alone, so Ingest books into the next slot while the closed
// one is being solved. Lock order: tick before mu.
type Controller struct {
	tick sync.Mutex
	mu   sync.Mutex
	base *model.Instance // caller's topology; its demand tensor is ignored
	in   *model.Instance // live instance: base with the realised tensor
	cfg  Config

	// Solve side (tick).
	live   *model.Demand
	stream *online.Stream
	spare  [][]float64 // zeroed accumulator swapped in at the next close

	// Ingest side (mu).
	open        int         // the slot Ingest books into
	pending     [][]float64 // [n][m*K+k] accumulated counts for the open slot
	total       int64       // requests ingested over the controller's lifetime
	openReports int64       // report entries booked into the open slot
	wal         *wal
	err         error  // sticky: a failed WAL write or slot solve poisons the controller
	lastSeq     uint64 // last appended WAL sequence number
	closed      bool

	// Boundary bookkeeping, written by a tick under both locks and so
	// readable under either: the sequence of the last close marker (the
	// envelope watermark) and the total at that close (envelope Ingested).
	walSeqClosed   uint64
	ingestedClosed int64

	// tickHook, when set, is called at each phase of a tick's tail
	// (tests park a tick there).
	tickHook func(tickPhase)
}

// tickPhase names the points of a tick's tail after the slot closed.
type tickPhase int

const (
	phaseSolve   tickPhase = iota // mu released; the window solve is next
	phasePublish                  // solved; the generation publish is next
)

// New starts a fresh controller over the topology of base (its demand
// tensor is replaced by an empty realised tensor — a live controller has
// no future to peek at). The start-up windows are solved immediately, so
// the slot-0 plan is published on return. New never touches disk; use
// Open for the persistent mode.
func New(ctx context.Context, base *model.Instance, cfg Config) (*Controller, error) {
	c, f, err := prepare(base, cfg)
	if err != nil {
		return nil, err
	}
	c.stream, err = online.NewStream(ctx, c.in, f, cfg.Online)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Open restores the controller from its state directory when one holds
// state and starts fresh otherwise — so a killed-and-restarted service
// re-runs the same command line and continues where it stopped. With
// StateDir set this is full crash recovery: newest verifiable snapshot
// generation (falling back past torn or bit-flipped ones), idempotent WAL
// replay beyond its watermark, torn-tail truncation, and a repair
// snapshot when the newest generation was missing or damaged. Without
// StateDir, Open is New.
func Open(ctx context.Context, base *model.Instance, cfg Config) (*Controller, error) {
	if cfg.StateDir == "" {
		return New(ctx, base, cfg)
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create state dir: %w", err)
	}
	rs, err := recoverState(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	var c *Controller
	if rs.env == nil {
		c, err = New(ctx, base, cfg)
	} else {
		c, err = Restore(ctx, base, cfg, rs.env)
	}
	if err != nil {
		return nil, err
	}
	if rs.env != nil {
		c.walSeqClosed = rs.env.WalSeq
	}

	// Idempotent replay: every record past the watermark, in sequence.
	// Reports re-validate (they were validated before their WAL append,
	// so a failure here means disk-level damage the CRC missed) and
	// closes re-run the deterministic slot commit.
	for _, rec := range rs.records {
		if rec.Slot != c.open {
			return nil, fmt.Errorf("serve: wal record %d (%s) is for slot %d but slot %d is open", rec.Seq, rec.Kind, rec.Slot, c.open)
		}
		switch rec.Kind {
		case walKindReports:
			if rerr := c.validateLocked(rec.Reqs); rerr != nil {
				return nil, fmt.Errorf("serve: wal record %d: %w", rec.Seq, rerr)
			}
			c.applyLocked(rec.Reqs)
		case walKindClose:
			t, buf := c.swapOpenLocked()
			if _, err := c.commitSlot(ctx, t, buf); err != nil {
				return nil, fmt.Errorf("serve: replay close of slot %d: %w", rec.Slot, err)
			}
			c.walSeqClosed = rec.Seq
		default:
			return nil, fmt.Errorf("serve: wal record %d has unknown kind %q", rec.Seq, rec.Kind)
		}
	}
	mWALReplayed.Add(int64(len(rs.records)))
	c.lastSeq = rs.lastSeq

	w, err := openWALSegment(segPath(cfg.StateDir, rs.appendSeg), rs.appendLen, cfg.WALFsync, cfg.FsyncEvery, cfg.DiskFaults)
	if err != nil {
		return nil, err
	}
	c.wal = w

	// Repair the generation chain: at genesis publish generation 0, and
	// after a fallback (or a close replayed past the newest generation)
	// re-publish the generation the crash destroyed — so the next startup
	// does not depend on the same fallback chain again. A newly created
	// append segment forces the save too: its directory sync makes the
	// segment's entry durable before any report is acknowledged into it.
	if rs.newSeg || rs.fallbacks > 0 || c.open != rs.gen {
		if err := saveGeneration(cfg.StateDir, c.envelope(), cfg.DiskFaults); err != nil {
			c.wal.close()
			return nil, err
		}
	}
	if err := pruneStateDir(cfg.StateDir, cfg.snapKeep()); err != nil {
		c.wal.close()
		return nil, err
	}
	return c, nil
}

// Restore reconstructs a controller from a snapshot envelope taken under
// the same topology and configuration: the realised rows are replayed
// into a fresh tensor and the stream state restored, after which the
// controller is indistinguishable from one that was never stopped
// (online.RestoreStream's restart-equivalence contract).
func Restore(ctx context.Context, base *model.Instance, cfg Config, env *Envelope) (*Controller, error) {
	c, f, err := prepare(base, cfg)
	if err != nil {
		return nil, err
	}
	if len(env.Rows) != env.Controller.Slot {
		return nil, fmt.Errorf("serve: snapshot carries %d realised rows for slot %d", len(env.Rows), env.Controller.Slot)
	}
	for t, row := range env.Rows {
		if len(row) != base.N {
			return nil, fmt.Errorf("serve: snapshot row %d covers %d SBSs, want %d", t, len(row), base.N)
		}
		for n, flat := range row {
			if len(flat) != base.Classes[n]*base.K {
				return nil, fmt.Errorf("serve: snapshot row %d SBS %d has %d entries, want %d",
					t, n, len(flat), base.Classes[n]*base.K)
			}
			for i, v := range flat {
				if v != 0 {
					c.live.Set(t, n, i/base.K, i%base.K, v)
				}
			}
		}
	}
	c.total, c.ingestedClosed = env.Ingested, env.Ingested
	c.stream, err = online.RestoreStream(ctx, c.in, f, cfg.Online, env.Controller)
	if err != nil {
		return nil, err
	}
	c.open = c.stream.Slot()
	return c, nil
}

// prepare builds the live instance, tensor and forecaster shared by New
// and Restore.
func prepare(base *model.Instance, cfg Config) (*Controller, workload.Forecaster, error) {
	if err := base.Validate(); err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	live := model.NewDemand(base.T, base.Classes, base.K)
	in := *base
	in.Demand = live
	est, err := workload.NewOnlineEstimator(live, cfg.EstimatorAlpha, cfg.EstimatorFloor)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	c := &Controller{
		base:    base,
		in:      &in,
		live:    live,
		cfg:     cfg,
		pending: make([][]float64, base.N),
		spare:   make([][]float64, base.N),
	}
	for n := range c.pending {
		c.pending[n] = make([]float64, base.Classes[n]*base.K)
		c.spare[n] = make([]float64, base.Classes[n]*base.K)
	}
	return c, workload.Corrupt(est, cfg.Faults.Corruptor(live)), nil
}

// validateLocked checks a batch without applying anything: index ranges
// and finite, non-negative counts. Validation is two-phase so a rejected
// batch leaves no partial state behind.
func (c *Controller) validateLocked(reqs []Request) *RequestError {
	for i, r := range reqs {
		if r.SBS < 0 || r.SBS >= c.base.N {
			return &RequestError{Index: i, Field: "sbs", Reason: fmt.Sprintf("%d outside [0, %d)", r.SBS, c.base.N)}
		}
		if r.Class < 0 || r.Class >= c.base.Classes[r.SBS] {
			return &RequestError{Index: i, Field: "class", Reason: fmt.Sprintf("%d outside [0, %d)", r.Class, c.base.Classes[r.SBS])}
		}
		if r.Content < 0 || r.Content >= c.base.K {
			return &RequestError{Index: i, Field: "content", Reason: fmt.Sprintf("%d outside [0, %d)", r.Content, c.base.K)}
		}
		if math.IsNaN(r.Count) || math.IsInf(r.Count, 0) {
			return &RequestError{Index: i, Field: "count", Reason: fmt.Sprintf("%g is not finite", r.Count)}
		}
		if r.Count < 0 {
			return &RequestError{Index: i, Field: "count", Reason: fmt.Sprintf("%g < 0", r.Count)}
		}
	}
	return nil
}

// applyLocked folds a validated batch into the open slot's accumulators.
func (c *Controller) applyLocked(reqs []Request) {
	for _, r := range reqs {
		count := r.Count
		if count == 0 {
			count = 1
		}
		c.pending[r.SBS][r.Class*c.base.K+r.Content] += count
		c.total++
		c.openReports++
	}
}

// Ingest accumulates a batch of requests into the open slot's empirical
// rates. It returns the slot the batch was booked under. The batch is
// all-or-nothing: validation happens before any state changes, and in
// StateDir mode the batch is durably logged to the WAL before it is
// applied — an acknowledged batch survives kill -9 at any later byte.
// Ingest takes only mu, so it never waits for a tick's solve or
// snapshot publish: a batch that arrives while slot t is being solved is
// booked into slot t+1.
func (c *Controller) Ingest(reqs []Request) (slot int, err error) {
	start := time.Now()
	c.mu.Lock()
	mIngestLockWait.Observe(time.Since(start))
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if c.err != nil {
		return 0, fmt.Errorf("serve: controller unhealthy, ingestion refused: %w", c.err)
	}
	if c.open >= c.base.T {
		return c.open, fmt.Errorf("serve: horizon complete, ingestion closed")
	}
	if rerr := c.validateLocked(reqs); rerr != nil {
		return 0, rerr
	}
	if c.cfg.PendingLimit > 0 && c.openReports+int64(len(reqs)) > c.cfg.PendingLimit {
		return 0, fmt.Errorf("%w: %d booked, %d offered, limit %d", ErrBackpressure, c.openReports, len(reqs), c.cfg.PendingLimit)
	}
	if c.wal != nil {
		rec := walRecord{Seq: c.lastSeq + 1, Kind: walKindReports, Slot: c.open, Reqs: reqs}
		if err := c.wal.append(rec, false); err != nil {
			c.err = err
			return 0, err
		}
		c.lastSeq++
	}
	c.applyLocked(reqs)
	return c.open, nil
}

// swapOpenLocked closes the open slot on the ingest side: the filled
// accumulator is handed out for the solve, the zeroed spare takes its
// place, and Ingest moves on to the next slot (backpressure lifts here).
// c.mu must be held, and c.tick too unless the controller is not yet
// shared (WAL replay).
func (c *Controller) swapOpenLocked() (t int, buf [][]float64) {
	t, buf = c.open, c.pending
	c.pending, c.spare = c.spare, nil
	c.open++
	c.openReports = 0
	c.ingestedClosed = c.total
	return t, buf
}

// commitSlot writes the closed slot's accumulated counts into the live
// tensor as its final rates, recycles the zeroed buffer as the spare,
// and commits the slot through the stream. Shared by Tick and WAL
// replay — both sides of the restart-equivalence contract run exactly
// this code. c.tick must be held once the controller is shared.
func (c *Controller) commitSlot(ctx context.Context, t int, buf [][]float64) (model.SlotDecision, error) {
	for n, flat := range buf {
		for i, v := range flat {
			if v != 0 {
				c.live.Set(t, n, i/c.base.K, i%c.base.K, v)
				flat[i] = 0
			}
		}
	}
	c.spare = buf
	return c.stream.CloseSlot(ctx)
}

// TickResult is one closed slot's outcome.
type TickResult struct {
	// Slot is the slot that was closed.
	Slot int `json:"slot"`
	// X and Y are the committed decision.
	X model.CachePlan `json:"x"`
	Y model.LoadPlan  `json:"y"`
	// NextSlot is the now-open slot; Done reports horizon completion.
	NextSlot int  `json:"nextSlot"`
	Done     bool `json:"done"`
}

// Tick closes the open slot: the accumulated request counts become the
// slot's final empirical rates (requests per slot), the stream commits
// the slot's decision against them and advances, and in StateDir mode
// the next snapshot generation is published before Tick returns.
//
// The close happens first, in a short critical section on mu: the close
// marker is appended and fsynced to the WAL (regardless of fsync policy),
// the WAL rotates to the next slot's segment, and the accumulator is
// swapped. From then on the close is durable and Ingest books into the
// next slot; the solve and the publish run under the tick lock only. A
// crash anywhere after the marker recovers to the identical post-Tick
// state by replaying it from an older generation (DESIGN.md §14).
//
// Because the close is durable before the solve starts, a tick is not
// cancellable: ctx contributes its values (span tracing), not its
// deadline. A solve that fails anyway poisons the controller like a
// failed WAL write — Healthy reports it and a restart replays the close.
func (c *Controller) Tick(ctx context.Context) (*TickResult, error) {
	c.tick.Lock()
	defer c.tick.Unlock()
	c.mu.Lock()
	start := time.Now()
	t, buf, prev, err := c.closeSlotLocked()
	mTickClose.Observe(time.Since(start))
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if prev != nil {
		// The forced marker append already synced every record of the
		// previous segment; closing it only releases the file.
		_ = prev.close()
	}
	c.hook(phaseSolve)
	dec, err := c.commitSlot(context.WithoutCancel(ctx), t, buf)
	if err != nil {
		c.poison(err)
		return nil, err
	}
	if c.cfg.StateDir != "" {
		c.hook(phasePublish)
		if err := c.publish(); err != nil {
			if errors.Is(err, fault.ErrCrash) {
				c.poison(err)
			}
			// A failed generation save (other than an injected crash) is
			// not fatal: the close marker is durable, so recovery from an
			// older generation replays it. The next Tick saves again.
			return nil, err
		}
	}
	return &TickResult{
		Slot:     t,
		X:        dec.X,
		Y:        dec.Y,
		NextSlot: c.stream.Slot(),
		Done:     c.stream.Done(),
	}, nil
}

// closeSlotLocked is a tick's critical section on mu (DESIGN.md §14,
// steps 1–3): close marker, rotation to a segment whose directory entry
// is synced before any report can be acknowledged into it, accumulator
// swap. It returns the closed slot, its filled accumulator and the
// previous WAL segment for the caller to close off the lock. c.tick and
// c.mu must be held.
func (c *Controller) closeSlotLocked() (t int, buf [][]float64, prev *wal, err error) {
	switch {
	case c.closed:
		return 0, nil, nil, ErrClosed
	case c.err != nil:
		return 0, nil, nil, fmt.Errorf("serve: controller unhealthy, tick refused: %w", c.err)
	case c.open >= c.base.T:
		return 0, nil, nil, fmt.Errorf("serve: horizon complete at slot %d", c.open)
	}
	if c.wal != nil {
		rec := walRecord{Seq: c.lastSeq + 1, Kind: walKindClose, Slot: c.open}
		if err := c.wal.append(rec, true); err != nil {
			// Nothing advanced in memory, but a torn or failed marker leaves
			// the WAL tail undefined: refuse further appends until a restart
			// recovers from disk.
			c.err = err
			return 0, nil, nil, err
		}
		c.lastSeq++
		// The marker is durable: from here a failure to rotate must also
		// stop acknowledgements, or memory would run ahead of the WAL.
		next, err := openWALSegment(segPath(c.cfg.StateDir, c.open+1), 0, c.cfg.WALFsync, c.cfg.FsyncEvery, c.cfg.DiskFaults)
		if err == nil {
			if err = syncDir(c.cfg.StateDir); err != nil {
				next.close()
			}
		}
		if err != nil {
			c.err = err
			return 0, nil, nil, err
		}
		prev, c.wal = c.wal, next
		c.walSeqClosed = c.lastSeq
	}
	t, buf = c.swapOpenLocked()
	return t, buf, prev, nil
}

// publish saves the boundary generation and prunes; c.tick must be held
// and the close marker must already be durable.
func (c *Controller) publish() error {
	if err := saveGeneration(c.cfg.StateDir, c.envelope(), c.cfg.DiskFaults); err != nil {
		return err
	}
	return pruneStateDir(c.cfg.StateDir, c.cfg.snapKeep())
}

// poison makes err sticky: Ingest and Tick refuse from now on and
// Healthy reports it.
func (c *Controller) poison(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

func (c *Controller) hook(p tickPhase) {
	if c.tickHook != nil {
		c.tickHook(p)
	}
}

// envelope assembles the persistence envelope; c.tick must be held. An
// envelope always describes the last slot boundary: Ingested and WalSeq
// come from the boundary bookkeeping, so open-slot reports (which live
// in the WAL, not the envelope) are never counted as covered.
func (c *Controller) envelope() *Envelope {
	slot := c.stream.Slot()
	rows := make([][][]float64, slot)
	for t := 0; t < slot; t++ {
		rows[t] = make([][]float64, c.base.N)
		for n := 0; n < c.base.N; n++ {
			rows[t][n] = c.live.CopySlot(nil, t, n)
		}
	}
	return &Envelope{
		FormatVersion: SnapshotFormatVersion,
		Algorithm:     c.cfg.Online.Name(),
		Slot:          slot,
		Ingested:      c.ingestedClosed,
		WalSeq:        c.walSeqClosed,
		Rows:          rows,
		Controller:    c.stream.Snapshot(),
	}
}

// Snapshot returns the controller's persistence envelope (deep copy).
func (c *Controller) Snapshot() *Envelope {
	c.tick.Lock()
	defer c.tick.Unlock()
	return c.envelope()
}

// Healthy returns nil while the controller can keep its durability
// contract, and the sticky error once a WAL append or a slot solve
// failed — from then on Ingest and Tick refuse to run (acknowledging
// state a recovery would not rebuild would break the contract) and
// /readyz reports the controller unready. Healthy never waits for a
// tick's solve.
func (c *Controller) Healthy() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close releases the WAL once any in-flight tick has finished.
// Idempotent and safe to race with in-flight calls; operations after
// Close return ErrClosed.
func (c *Controller) Close() error {
	c.tick.Lock()
	defer c.tick.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.wal != nil {
		return c.wal.close()
	}
	return nil
}

// Plan is the published decision for the open slot.
type Plan struct {
	Slot    int             `json:"slot"`
	Horizon int             `json:"horizon"`
	Done    bool            `json:"done"`
	X       model.CachePlan `json:"x,omitempty"`
	// Y is the provisional split; nil in reactive load mode (the final
	// split needs the slot's realised demand) and after completion.
	Y model.LoadPlan `json:"y,omitempty"`
}

// Plan returns the provisionally published decision for the open slot.
// The plans are deep copies, safe to hand to encoders.
func (c *Controller) Plan() Plan {
	c.tick.Lock()
	defer c.tick.Unlock()
	slot, x, y := c.stream.Plan()
	p := Plan{Slot: slot, Horizon: c.base.T, Done: c.stream.Done()}
	if x != nil {
		p.X = x.Clone()
	}
	if y != nil {
		p.Y = y.Clone()
	}
	return p
}

// Stats are the controller's live counters.
type Stats struct {
	online.StreamStats
	Slot     int   `json:"slot"`
	Horizon  int   `json:"horizon"`
	Done     bool  `json:"done"`
	Ingested int64 `json:"ingested"`
}

// Stats returns the live counters. Like Plan, Trajectory, Result and
// Done it reads the stream, so it waits for an in-flight tick to finish.
func (c *Controller) Stats() Stats {
	c.tick.Lock()
	defer c.tick.Unlock()
	c.mu.Lock()
	total := c.total
	c.mu.Unlock()
	return Stats{
		StreamStats: c.stream.Stats(),
		Slot:        c.stream.Slot(),
		Horizon:     c.base.T,
		Done:        c.stream.Done(),
		Ingested:    total,
	}
}

// Done reports whether every slot of the horizon has been closed.
func (c *Controller) Done() bool {
	c.tick.Lock()
	defer c.tick.Unlock()
	return c.stream.Done()
}

// Trajectory returns a deep copy of the committed decisions so far.
func (c *Controller) Trajectory() model.Trajectory {
	c.tick.Lock()
	defer c.tick.Unlock()
	traj := c.stream.Trajectory()
	out := make(model.Trajectory, len(traj))
	for t, dec := range traj {
		out[t] = model.SlotDecision{X: dec.X.Clone(), Y: dec.Y.Clone()}
	}
	return out
}

// Result assembles the completed run (errors while slots remain open).
func (c *Controller) Result() (*online.Result, error) {
	c.tick.Lock()
	defer c.tick.Unlock()
	return c.stream.Result()
}

// MaterializeFaults applies a schedule's topology injectors to base —
// the serving twin of sim.RunWith's materialisation — returning the
// effective instance to hand to New/Open. The corruption and solver
// arms of the same schedule ride in Config.Faults and
// Config.Online.Faults respectively.
func MaterializeFaults(base *model.Instance, sched *fault.Schedule) (*model.Instance, error) {
	if sched.Empty() {
		return base, nil
	}
	out, err := sched.Materialize(base, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return out, nil
}
