package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// sample is one scheduled operation's outcome. Latency is done − due:
// an operation sent late because the one before it was slow still pays
// for the wait, so a server stall counts against every request queued
// behind it (open loop without coordinated omission).
type sample struct {
	due, sent, done time.Time
	// weight is the number of reports an ingest carried (1 otherwise).
	weight int
	// idle is true when the generator had nothing in flight as the
	// operation came due: only then is sent − due the generator's own
	// lateness rather than backlog.
	idle bool
	err  error
}

func (s sample) latencyMs() float64 { return msOf(s.done.Sub(s.due)) }

// runSchedule performs op i at start+offsets[i], in order, on the calling
// goroutine. The schedule is fixed up front and never slows down: when an
// operation is still in flight at the next one's due time, the next one
// is sent as soon as the previous completes. offsets must be ascending.
func runSchedule(ctx context.Context, start time.Time, offsets []time.Duration, op func(i int) (weight int, err error)) []sample {
	out := make([]sample, 0, len(offsets))
	var prevDone time.Time
	for i, off := range offsets {
		due := start.Add(off)
		if err := sleepUntil(ctx, due); err != nil {
			out = append(out, sample{due: due, sent: due, done: due, weight: 1, err: err})
			continue
		}
		s := sample{due: due, sent: time.Now(), idle: !prevDone.After(due)}
		s.weight, s.err = op(i)
		s.done = time.Now()
		prevDone = s.done
		out = append(out, s)
	}
	return out
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// lateMaxMs is the generator's worst wake-up lateness over the samples it
// sent while idle.
func lateMaxMs(samples []sample) float64 {
	var late time.Duration
	for _, s := range samples {
		if s.idle && s.err == nil {
			late = max(late, s.sent.Sub(s.due))
		}
	}
	return msOf(late)
}

// evenOffsets returns the due offsets of an operation sent at a fixed
// rate (per second) over [0, span).
func evenOffsets(rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	step := float64(time.Second) / rate
	for i := 0; ; i++ {
		off := time.Duration(float64(i) * step)
		if off >= span {
			return out
		}
		out = append(out, off)
	}
}

// opHeader carries an operation's id from the load generator to the
// traced handler wrapper, pairing a client round trip with its handler
// time.
const opHeader = "X-Perfbench-Op"

// client is one load-generating connection: a dedicated transport
// limited to a single TCP connection, used from one goroutine.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request tagged with op id (0 = untagged) and decodes a 200
// reply into out (nil discards it). Any other status is an error.
func (c *client) do(method, path string, id int64, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
