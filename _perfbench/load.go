package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
)

// issuer sends one membership query and reports the answer and the
// epoch that served it (0 for epoch-less queries).
type issuer func(ctx context.Context, c *cluster.LCAClient, item int) (bool, engine.EpochID, error)

func pointQuery(ctx context.Context, c *cluster.LCAClient, item int) (bool, engine.EpochID, error) {
	in, err := c.InSolution(ctx, item)
	return in, 0, err
}

func currentEpochQuery(ctx context.Context, c *cluster.LCAClient, item int) (bool, engine.EpochID, error) {
	return c.InSolutionEpoch(ctx, engine.EpochCurrent, item)
}

// answer is one served answer, kept for the correctness check.
type answer struct {
	item  int32
	epoch uint32
	in    bool
}

// answerLog appends answers in fixed-size chunks, so recording costs
// one allocation per 64Ki answers.
type answerLog struct{ chunks [][]answer }

func (l *answerLog) add(a answer) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		l.chunks = append(l.chunks, make([]answer, 0, 1<<16))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, a)
}

func (l *answerLog) each(fn func(answer)) {
	for _, c := range l.chunks {
		for _, a := range c {
			fn(a)
		}
	}
}

// tally is what the workers of one phase saw.
type tally struct {
	sent, ok, failed, sloMiss int
	// lat is each open-loop slot's latency from its scheduled send time,
	// in slot order (-1 for a failed request); lag is how late a worker
	// woke for a slot it had been waiting for.
	lat, lag []time.Duration
	answers  answerLog
	elapsed  time.Duration
	firstErr error
	// windows counts closed-loop completions per rateWindow.
	windows []int
}

// add folds in o's counts, lateness samples, answers and first error.
func (t *tally) add(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	t.sloMiss += o.sloMiss
	t.lag = append(t.lag, o.lag...)
	t.answers.chunks = append(t.answers.chunks, o.answers.chunks...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// then appends o, a later phase of the same kind: slot latencies and
// throughput windows follow t's, and the elapsed times add up.
func (t *tally) then(o *tally) {
	t.add(o)
	t.lat = append(t.lat, o.lat...)
	t.windows = append(t.windows, o.windows...)
	t.elapsed += o.elapsed
}

// driver issues queries on a fixed set of client connections, one
// worker per connection.
type driver struct {
	clients []*cluster.LCAClient
	keys    *keyStream
	issue   issuer
	slo     time.Duration
	// rec, when set, roots a client span per request (the traced phase).
	rec *recorder
	// seen, when set, is told the epoch and completion time of every
	// answer (rollover detection).
	seen func(engine.EpochID, time.Time)
}

// once sends one query and records it in t. It returns the request's
// latency, counted from the earlier of due and the actual send (from
// the send when due is zero), or -1 when the request failed.
func (d *driver) once(ctx context.Context, c *cluster.LCAClient, due time.Time, t *tally) time.Duration {
	item, err := d.keys.next()
	if err != nil {
		t.sent++
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return -1
	}
	var s span
	if d.rec != nil {
		ctx, s = d.rec.root(ctx)
	}
	sent := time.Now()
	in, ep, err := d.issue(ctx, c, item)
	done := time.Now()
	if d.rec != nil {
		s.Start, s.End = d.rec.ns(sent), d.rec.ns(done)
		d.rec.add(s)
	}
	t.sent++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return -1
	}
	t.ok++
	t.answers.add(answer{item: int32(item), epoch: uint32(ep), in: in})
	if d.seen != nil {
		d.seen(ep, done)
	}
	if due.IsZero() || sent.Before(due) {
		return done.Sub(sent)
	}
	return done.Sub(due)
}

// openLoop sends requests on a fixed schedule — one every 1/rate
// seconds for dur — whatever the responses do. A worker takes the next
// slot as soon as its previous request completes; a slot whose time has
// passed is sent at once, and its latency, counted from the scheduled
// time, includes the wait (no coordinated omission). The returned
// tally's lat is in slot order.
func (d *driver) openLoop(ctx context.Context, rate float64, dur time.Duration) *tally {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(dur / interval)
	start := time.Now().Add(time.Millisecond)
	var slot atomic.Int64
	lat := make([]time.Duration, n)
	tallies := make([]*tally, len(d.clients))
	var wg sync.WaitGroup
	for w, c := range d.clients {
		t := &tally{lag: make([]time.Duration, 0, n)}
		tallies[w] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			early := 50 * time.Microsecond
			for {
				k := slot.Add(1) - 1
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if time.Now().Before(due) {
					t.lag = append(t.lag, max(sleepUntil(due, &early).Sub(due), 0))
				}
				lat[k] = d.once(ctx, c, due, t)
				if lat[k] < 0 || lat[k] > d.slo {
					t.sloMiss++
				}
			}
		}()
	}
	wg.Wait()
	out := mergeTallies(tallies, time.Since(start))
	out.lat = lat
	return out
}

// rateWindow is the closed loop's throughput window.
const rateWindow = 500 * time.Millisecond

// closedLoop sends back to back on every connection for dur: each
// worker's next request waits for its previous response. Completions
// are counted per rateWindow.
func (d *driver) closedLoop(ctx context.Context, dur time.Duration) *tally {
	start := time.Now()
	deadline := start.Add(dur)
	tallies := make([]*tally, len(d.clients))
	var wg sync.WaitGroup
	for w, c := range d.clients {
		t := &tally{windows: make([]int, dur/rateWindow)}
		tallies[w] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lat := d.once(ctx, c, time.Time{}, t)
				if k := int(time.Since(start) / rateWindow); lat >= 0 && k < len(t.windows) {
					t.windows[k]++
				}
			}
		}()
	}
	wg.Wait()
	return mergeTallies(tallies, time.Since(start))
}

// mergeTallies combines the tallies of one phase's concurrent workers.
func mergeTallies(ts []*tally, elapsed time.Duration) *tally {
	out := &tally{elapsed: elapsed}
	for _, t := range ts {
		out.add(t)
		for len(out.windows) < len(t.windows) {
			out.windows = append(out.windows, 0)
		}
		for k, n := range t.windows {
			out.windows[k] += n
		}
	}
	return out
}

// sleepUntil blocks until about t and returns when it woke. The Go
// runtime's timers wake up to a millisecond late when the process is
// idle, which would be counted as latency on a cached query taking tens
// of microseconds, so the wait is a nanosleep system call, which wakes
// tens of microseconds late. *early, the worker's running estimate of
// that lateness (doubled), is subtracted from the target, so most slots
// are sent a few microseconds before their time; the caller counts
// latency from the earlier of the scheduled and the actual send, so an
// early send is never credited.
func sleepUntil(t time.Time, early *time.Duration) time.Time {
	target := t.Add(-*early)
	if d := time.Until(target); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// An interrupted sleep only ends early.
		_ = syscall.Nanosleep(&ts, nil)
	}
	woke := time.Now()
	if over := woke.Sub(target); over > 0 && over < time.Millisecond {
		*early += (2*over - *early) / 8
	}
	return woke
}
