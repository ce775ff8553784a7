package serve

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"edgecache/internal/online"
	"edgecache/internal/trace"
)

// TestCancelledTickRecovers pins the cancelled-tick regression: a Tick
// whose context is already cancelled (an HTTP client that hung up) must
// still close its slot durably, so a later tick succeeds, the state
// directory recovers, and the run finishes identical to an uninterrupted
// one.
func TestCancelledTickRecovers(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 43)
	cfg := Config{Online: online.RHC(4), EstimatorFloor: -1, StateDir: t.TempDir()}
	want := goldenResult(t, cfg, tr)

	c, err := Open(ctx, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestSlot(t, c, tr, 0)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Tick(cancelled); err != nil {
		t.Fatalf("tick with a cancelled context: %v", err)
	}
	ingestSlot(t, c, tr, 1)
	if _, err := c.Tick(ctx); err != nil {
		t.Fatalf("tick after the cancelled one: %v", err)
	}
	if err := c.Healthy(); err != nil {
		t.Fatalf("controller unhealthy after a cancelled tick: %v", err)
	}
	c.Close()

	c, err = Open(ctx, base, cfg)
	if err != nil {
		t.Fatalf("recover after a cancelled tick: %v", err)
	}
	defer c.Close()
	if got := c.Stats().Slot; got != 2 {
		t.Fatalf("recovered slot %d, want 2", got)
	}
	driveToCompletion(t, c, tr)
	got, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Trajectory, got.Trajectory) {
		t.Fatal("trajectory after a cancelled tick diverges from the uninterrupted run")
	}
}

// parkTick runs Tick in the background and returns once it is parked
// at phase; release lets it finish and returns its error.
func parkTick(t *testing.T, c *Controller, phase tickPhase) (done <-chan error, release func() error) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	c.tickHook = func(p tickPhase) {
		if p == phase {
			close(parked)
			<-unpark
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Tick(context.Background())
		errc <- err
	}()
	select {
	case <-parked:
	case err := <-errc:
		t.Fatalf("tick finished (%v) without reaching phase %d", err, phase)
	}
	return errc, func() error {
		close(unpark)
		err := <-errc
		c.tickHook = nil
		return err
	}
}

// TestIngestDoesNotWaitForTick pins the point of the two-lock split: an
// Ingest issued while a Tick is parked inside its solve or its publish
// returns — booked into the next slot and durable in the next WAL
// segment — before that Tick returns.
func TestIngestDoesNotWaitForTick(t *testing.T) {
	for _, phase := range []tickPhase{phaseSolve, phasePublish} {
		ctx := context.Background()
		base := testInstance(t)
		tr := trace.Generate(base.Demand, 47)
		dir := t.TempDir()
		c, err := Open(ctx, base, Config{Online: online.CHC(4, 2), EstimatorFloor: -1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		booked := ingestSlot(t, c, tr, 0)
		tickDone, release := parkTick(t, c, phase)

		type result struct {
			slot int
			err  error
		}
		ingested := make(chan result, 1)
		go func() {
			slot, err := c.Ingest([]Request{{SBS: 0, Class: 1, Content: 2, Count: 3}})
			ingested <- result{slot, err}
		}()
		select {
		case r := <-ingested:
			if r.err != nil || r.slot != 1 {
				t.Fatalf("phase %d: ingest during the tick: slot %d, %v; want slot 1", phase, r.slot, r.err)
			}
		case err := <-tickDone:
			t.Fatalf("phase %d: tick returned (%v) while parked", phase, err)
		case <-time.After(time.Minute):
			t.Fatalf("phase %d: ingest blocked behind the parked tick", phase)
		}
		if err := c.Healthy(); err != nil {
			t.Fatalf("phase %d: healthy during the tick: %v", phase, err)
		}
		recs, _, _, err := readWALSegment(segPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Kind != walKindReports || recs[0].Slot != 1 {
			t.Fatalf("phase %d: segment 1 holds %+v, want the one slot-1 report batch", phase, recs)
		}
		if err := release(); err != nil {
			t.Fatalf("phase %d: parked tick: %v", phase, err)
		}
		if st := c.Stats(); st.Slot != 1 || st.Ingested != int64(booked)+1 {
			t.Fatalf("phase %d: after the tick: slot %d ingested %d", phase, st.Slot, st.Ingested)
		}
		c.Close()
	}
}

// copyStateDir copies the regular files of src into a new directory —
// the disk image a kill -9 at this instant leaves behind (every
// acknowledged record is already fsynced).
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// assertEveryGenerationRecovers opens a copy of dir once per kept
// generation, with every newer generation deleted, and requires each to
// recover the same slot and ingestion count: pruning never removed a
// WAL segment a kept generation needs.
func assertEveryGenerationRecovers(t *testing.T, cfg Config, slot int, ingested int64) {
	t.Helper()
	gens, _, err := listStateDir(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		alt := cfg
		alt.StateDir = copyStateDir(t, cfg.StateDir)
		for _, newer := range gens[i+1:] {
			if err := os.Remove(genPath(alt.StateDir, newer)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := Open(context.Background(), testInstance(t), alt)
		if err != nil {
			t.Fatalf("recovery from generation %d alone: %v", g, err)
		}
		st := c.Stats()
		c.Close()
		if st.Slot != slot || st.Ingested != ingested {
			t.Fatalf("recovery from generation %d: slot %d ingested %d, want %d and %d", g, st.Slot, st.Ingested, slot, ingested)
		}
	}
}

// TestDurableKillInTickWindow is TestDurableKillLoop's sibling for the
// window the two-lock tick opens: every slot's incarnation is killed
// after the close marker and the WAL rotation, with reports of the next
// slot already acknowledged into the new segment, but before the next
// generation is published. Recovery must replay the close, repair the
// missing generation, keep every acknowledged report, and leave every
// kept generation recoverable; the run must finish identical to an
// uninterrupted one.
func TestDurableKillInTickWindow(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 53)
	cfg := Config{Online: online.CHC(4, 2), EstimatorFloor: -1, StateDir: t.TempDir(), SnapKeep: 2}
	want := goldenResult(t, cfg, tr)
	batches := traceBatches(tr, base.T)

	acked := int64(0)
	next := 0 // batches of the open slot already acknowledged
	kills := 0
	var res *online.Result
	for slot := 0; ; slot++ {
		c, err := Open(ctx, base, cfg)
		if err != nil {
			t.Fatalf("slot %d: open: %v", slot, err)
		}
		st := c.Stats()
		if st.Slot != slot || st.Ingested != acked {
			t.Fatalf("slot %d: recovered slot %d ingested %d, want %d", slot, st.Slot, st.Ingested, acked)
		}
		if _, err := loadGeneration(cfg.StateDir, slot); err != nil {
			t.Fatalf("slot %d: generation not repaired: %v", slot, err)
		}
		assertEveryGenerationRecovers(t, cfg, slot, acked)
		if c.Done() {
			if res, err = c.Result(); err != nil {
				t.Fatal(err)
			}
			c.Close()
			break
		}
		for _, b := range batches[slot][next:] {
			if _, err := c.Ingest(b); err != nil {
				t.Fatal(err)
			}
			acked += int64(len(b))
		}
		phase := []tickPhase{phaseSolve, phasePublish}[slot%2]
		_, release := parkTick(t, c, phase)
		next = 0
		if slot+1 < base.T && len(batches[slot+1]) > 0 {
			b := batches[slot+1][0]
			if got, err := c.Ingest(b); err != nil || got != slot+1 {
				t.Fatalf("slot %d: ingest into the next slot: booked %d, %v", slot, got, err)
			}
			acked += int64(len(b))
			next = 1
		}
		image := copyStateDir(t, cfg.StateDir)
		if _, err := os.Stat(genPath(image, slot+1)); err == nil {
			t.Fatalf("slot %d: generation %d already published inside the window", slot, slot+1)
		}
		if err := release(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		cfg.StateDir = image // the kill: the next incarnation sees only the image
		kills++
	}
	if kills != base.T {
		t.Fatalf("%d kills, want one per slot (%d)", kills, base.T)
	}
	if acked != int64(tr.Len()) {
		t.Fatalf("acknowledged %d reports, trace has %d", acked, tr.Len())
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatal("kill-in-tick-window result diverges from the uninterrupted run")
	}
}
