package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// rounds is how many rounds an untraced run has. Each round builds a
// fresh stack, runs the open loop and then the closed loop on it, and
// tears it down: a stack's figures shift with where its goroutines,
// connections and heap happened to land, so the medians over rounds,
// and over windows spread across the rounds, sample several stacks and
// the whole run rather than one stretch of one process. A traced run
// has a single round: half of --seconds in an untraced open loop (the
// baseline of trace.overhead_frac and the runtime figures), half in the
// same open loop traced.
const rounds = 16

// minTailSamples is the open-loop sample count below which lat_p99_ms
// would have fewer than ten samples beyond it.
const minTailSamples = 1000

// quiesceTimeout bounds the wait, after the load stops, for replica
// work still in flight (hedge losers) to finish before reconciling.
const quiesceTimeout = 10 * time.Second

// session accumulates one invocation's rounds.
type session struct {
	cfg config
	in  *inputs
	rec *recorder
	res *result

	setupTimes []float64
	// stackHeap is, per round, the live heap (MB) the set-up added to
	// the benchmark's own: the stack's, inputs excluded.
	stackHeap []float64
	ph        phases
	// total is what the servers counted over every timed phase.
	total served
	// checked answers against the reference, mismatched of them.
	checked, mismatched int
	// rollovers are the rollover times (ms) of every sealed epoch a
	// client saw; sealed counts the epochs sealed.
	rollovers []float64
	sealed    int
}

// phases is what the timed phases saw, over all rounds.
type phases struct {
	// open is the untraced open loop, traced the traced one, closed the
	// closed loop; all sums every phase.
	open, traced, closed, all *tally
	// openDur is one round's open-loop duration.
	openDur time.Duration
	// rt covers the untraced open loop of a traced run.
	rt runtimeDelta
	// tracedServed is what the servers counted over the traced phase.
	tracedServed served
}

func bench(ctx context.Context, cfg config) (*result, error) {
	w := cfg.w
	r := &session{cfg: cfg, rec: newRecorder(), res: &result{cfg: cfg},
		ph: phases{open: &tally{}, traced: &tally{}, closed: &tally{}, all: &tally{}}}
	in, violations, err := newInputs(ctx, w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("derive inputs: %w", err)
	}
	r.in = in
	r.res.violations = append(r.res.violations, violations...)
	r.res.note("instance: %s n=%d eps=%v; canonical solution holds %d items (%.2f%%)",
		family, itemCount, epsilon, in.inRef, 100*float64(in.inRef)/float64(itemCount))

	n := rounds
	if cfg.traced {
		n = 1
	}
	r.ph.openDur = time.Duration(w.openShare * float64(cfg.seconds) / rounds)
	for k := 0; k < n; k++ {
		if err := r.round(ctx, k); err != nil {
			return nil, err
		}
	}
	r.summarize()
	if !cfg.traced {
		r.endToEnd()
	}
	return r.res, nil
}

// round builds a fresh stack, drives it, checks what it served, and
// tears it down.
func (r *session) round(ctx context.Context, k int) (err error) {
	cfg, w := r.cfg, r.cfg.w
	dir := filepath.Join(cfg.workdir, "run", fmt.Sprintf("%s-seed%d-trace%t", w.name, cfg.seed, cfg.traced))
	heap0 := liveHeap()
	start := time.Now()
	s, err := startStack(ctx, cfg, r.in, r.rec, dir)
	if err != nil {
		return fmt.Errorf("set up: %w", err)
	}
	r.setupTimes = append(r.setupTimes, time.Since(start).Seconds())
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear down: %w", cerr)
		}
	}()

	issue := pointQuery
	if w.churn {
		issue = currentEpochQuery
	}
	d := &driver{clients: s.clients, keys: r.in.keys, issue: issue, slo: w.slo}
	var ch *churner
	stopChurn := make(chan struct{})
	churnDone := make(chan error, 1)
	if w.churn {
		ch = newChurner(s, cfg.seed)
		d.seen = ch.observe
	}
	// Warm-up hedge losers may still be running on the replicas; they
	// must not count as timed-phase engine queries.
	if _, err := s.quiesce(served{}); err != nil {
		r.res.violate("round %d warm-up: %v", k, err)
	}
	r.stackHeap = append(r.stackHeap, float64(int64(liveHeap())-int64(heap0))/(1<<20))
	hold, err := holdCPUs()
	if err != nil {
		return fmt.Errorf("hold idle CPUs: %w", err)
	}
	before := s.served()
	if ch != nil {
		go func() { churnDone <- ch.run(ctx, w.churnEvery, stopChurn) }()
	}
	// first is the round's untraced open loop; second its closed loop,
	// or the traced open loop of a traced run.
	var first, second *tally
	if cfg.traced {
		half := cfg.seconds / 2
		r.ph.rt.start()
		first = d.openLoop(ctx, w.rate, half)
		r.ph.rt.stop(first.sent)
		// Replica work of the untraced phase ends before tracing starts,
		// so every engine span belongs to a traced request.
		tracedFrom, qerr := s.quiesce(served{})
		if qerr != nil {
			r.res.violate("round %d: %v", k, qerr)
		}
		r.rec.on.Store(true)
		td := *d
		td.clients, td.rec = s.tracedClients, r.rec
		second = td.openLoop(ctx, w.rate, half)
		r.rec.on.Store(false)
		tracedTo, qerr := s.quiesce(tracedFrom)
		if qerr != nil {
			r.res.violate("round %d: %v", k, qerr)
		}
		r.ph.tracedServed = tracedTo
		err = hold.release()
	} else {
		first = d.openLoop(ctx, w.rate, r.ph.openDur)
		if err = hold.release(); err == nil {
			second = d.closedLoop(ctx, cfg.seconds/rounds-r.ph.openDur)
		}
	}
	if err != nil {
		return fmt.Errorf("release idle CPUs: %w", err)
	}
	seen := &tally{}
	seen.add(first)
	seen.add(second)
	var rolls []rollover
	if ch != nil {
		close(stopChurn)
		if err := <-churnDone; err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		rolls = ch.sealed()
		r.rollovers = append(r.rollovers, ch.rolloverTimes()...)
		r.sealed += len(rolls)
	}
	delta, err := s.quiesce(before)
	if err != nil {
		r.res.violate("round %d: %v", k, err)
	}
	if err := reconcile(seen, delta); err != nil {
		r.res.violate("round %d reconciliation: %v", k, err)
	}
	r.total = r.total.plus(delta, 1)
	r.checkAnswers(ctx, k, seen, rolls)
	// The answers are checked; only the counts and latencies go on.
	seen.answers, first.answers, second.answers = answerLog{}, answerLog{}, answerLog{}
	r.ph.all.add(seen)
	r.ph.open.then(first)
	if cfg.traced {
		r.ph.traced.then(second)
	} else {
		r.ph.closed.then(second)
	}
	if cfg.traced {
		perLayer(r.res, s, r.rec, r.ph, delta, rolls, r.rollovers)
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := r.rec.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		r.res.note("spans: %d written to %s", len(r.rec.spans), path)
	}
	return nil
}

// checkAnswers compares every answer one round served with the
// canonical reference. Answers recomputed by replicas may legitimately
// differ (Lemma 4.9); summarize gates their share. A churn round's
// answers are checked against each sealed epoch's own canonical
// solution, replayed independently of the stack.
func (r *session) checkAnswers(ctx context.Context, k int, seen *tally, rolls []rollover) {
	checked, mismatched := 0, 0
	if r.cfg.w.churn {
		var violations []string
		var err error
		checked, mismatched, violations, err = verifyEpochs(ctx, r.in, rolls, &seen.answers)
		if err != nil {
			r.res.violate("round %d: verify epochs: %v", k, err)
		}
		r.res.violations = append(r.res.violations, violations...)
	} else {
		seen.answers.each(func(a answer) {
			checked++
			if r.in.ref[a.item] != a.in {
				mismatched++
			}
		})
	}
	if checked != seen.ok {
		r.res.violate("round %d: checked %d answers but %d requests succeeded", k, checked, seen.ok)
	}
	r.checked += checked
	r.mismatched += mismatched
}

// reconcile cross-checks the client's view of one round against the
// gateway's and the replicas' counters.
func reconcile(seen *tally, d served) error {
	var problems []error
	if int64(seen.sent) != d.queries {
		problems = append(problems, fmt.Errorf("client sent %d requests, gateway accepted %d queries", seen.sent, d.queries))
	}
	if int64(seen.ok+seen.failed) != d.hits+d.misses {
		problems = append(problems, fmt.Errorf("client saw %d ok + %d failed, gateway made %d cache lookups", seen.ok, seen.failed, d.hits+d.misses))
	}
	if int64(seen.failed) != d.errors {
		problems = append(problems, fmt.Errorf("client saw %d failures, gateway reported %d errors", seen.failed, d.errors))
	}
	if d.attempts != d.engines {
		problems = append(problems, fmt.Errorf("gateway made %d replica attempts, replicas ran %d engine queries", d.attempts, d.engines))
	}
	return errors.Join(problems...)
}

// summarize reports the checks over all rounds.
func (r *session) summarize() {
	w, res, all, t := r.cfg.w, r.res, r.ph.all, r.total
	res.attempted, res.failed = all.sent, all.failed
	if all.firstErr != nil {
		res.note("first failure: %v", all.firstErr)
	}
	res.note("fail_frac %.6g (%d of %d requests)", float64(all.failed)/float64(max(all.sent, 1)), all.failed, all.sent)
	res.note("slo_miss_frac %.6g (limit %v, untraced open loop)", float64(r.ph.open.sloMiss)/float64(max(r.ph.open.sent, 1)), w.slo)
	lag := percentile(all.lag, 0.99)
	res.note("loadgen lag p99 %v over %d waited-for slots (validity threshold %v)", lag, len(all.lag), w.maxLag)
	if lag > w.maxLag {
		res.violate("invalid run: the load generator sent its p99 request %v late, over the %v threshold", lag, w.maxLag)
	}
	if r.cfg.traced {
		res.add("loadgen.lag_p99_ms", "ms", ms(lag))
	}

	share := float64(r.mismatched) / float64(max(r.checked, 1))
	res.note("correctness: %d of %d answers differ from the canonical reference (share %.6g, bound %v)",
		r.mismatched, r.checked, share, w.maxMismatch)
	if share > w.maxMismatch {
		res.violate("%d of %d answers differ from the canonical reference, over the %v bound", r.mismatched, r.checked, w.maxMismatch)
	}

	hit := float64(t.hits) / float64(max(t.hits+t.misses, 1))
	res.note("reconciliation: sent=%d ok=%d failed=%d; gateway queries=%d lookups=%d hits=%d errors=%d attempts=%d; replica engine queries=%d",
		all.sent, all.ok, all.failed, t.queries, t.hits+t.misses, t.hits, t.errors, t.attempts, t.engines)
	switch w.name {
	case "hit_zipf":
		if hit < 0.99 {
			res.violate("hit_zipf cache hit ratio %.4f is under 0.99", hit)
		}
		if t.engines != 0 {
			res.violate("hit_zipf ran %d replica engine queries in the timed phases; the replicas should stay idle", t.engines)
		}
	case "miss_uniform":
		if hit > 0.01 {
			res.violate("miss_uniform cache hit ratio %.4f is over 0.01", hit)
		}
	}
	if w.churn {
		res.note("rollover_ms %.6g ms: median over %d of %d sealed epochs", median(r.rollovers), len(r.rollovers), r.sealed)
	}
}

// endToEnd fills the end-to-end metrics of an untraced run.
func (r *session) endToEnd() {
	w, res, ph := r.cfg.w, r.res, r.ph
	res.add("setup_s", "s", median(r.setupTimes))
	res.add("mem_mb", "MB", median(r.stackHeap))
	// The p50 is the median of the rounds' p50s; the p99 needs larger
	// windows to have ten samples beyond it.
	p50 := windowed(ph.open.lat, 0.50, rounds)
	windows := max(min(latWindows, len(ph.open.lat)/minTailSamples), 1)
	p99 := windowed(ph.open.lat, 0.99, windows)
	res.add("lat_p50_ms", "ms", ms(p50))
	var rates []float64
	for _, n := range ph.closed.windows {
		rates = append(rates, float64(n)/rateWindow.Seconds())
	}
	res.add("peak_qps", "1/s", median(rates))

	sorted := append([]float64(nil), r.setupTimes...)
	sort.Float64s(sorted)
	res.note("setup_s: median of %d set-ups (fastest %.4gs, slowest %.4gs)", len(sorted), sorted[0], sorted[len(sorted)-1])
	ok := succeeded(ph.open.lat)
	res.note("mem_mb: median over the %d rounds of the live heap set-up added: %.4g", len(r.stackHeap), r.stackHeap)
	res.note("open loop: %.0f req/s offered for %d × %v, %d latency samples; p50 is the median of the %d rounds' p50s, p99 the median over %d windows of %d slots (whole-phase p50 %v, p99 %v)",
		w.rate, rounds, ph.openDur, len(ok), rounds, windows, len(ph.open.lat)/windows, percentile(ok, 0.5), percentile(ok, 0.99))
	var perRound []string
	for k := 0; k < rounds; k++ {
		perRound = append(perRound, fmt.Sprintf("%.4g", ms(windowed(ph.open.lat[k*len(ph.open.lat)/rounds:(k+1)*len(ph.open.lat)/rounds], 0.5, 1))))
	}
	res.note("lat_p50_ms per round: %s", strings.Join(perRound, " "))
	res.note("lat_p99_ms %.6g ms", ms(p99))
	res.note("closed loop: %d × %v, %d completed (%.6g/s overall; peak_qps is the median of %d windows of %v)",
		rounds, r.cfg.seconds/rounds-ph.openDur, ph.closed.ok, float64(ph.closed.ok)/ph.closed.elapsed.Seconds(), len(rates), rateWindow)
	if len(ok) < minTailSamples*windows {
		res.violate("only %d open-loop latency samples over %d windows; lat_p99_ms needs %d per window to have ten beyond it", len(ok), windows, minTailSamples)
	}
}

// liveHeap returns the heap in use after a forced collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runtimeDelta measures allocation and GC CPU over one phase.
type runtimeDelta struct {
	mem0, mem1  runtime.MemStats
	cpu0, cpu1  []metrics.Sample
	allocPerReq float64
	gcCPUFrac   float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() []metrics.Sample {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func (r *runtimeDelta) start() {
	runtime.ReadMemStats(&r.mem0)
	r.cpu0 = readCPU()
}

func (r *runtimeDelta) stop(requests int) {
	r.cpu1 = readCPU()
	runtime.ReadMemStats(&r.mem1)
	r.allocPerReq = float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / float64(max(requests, 1))
	gc := r.cpu1[0].Value.Float64() - r.cpu0[0].Value.Float64()
	total := r.cpu1[1].Value.Float64() - r.cpu0[1].Value.Float64()
	if total > 0 {
		r.gcCPUFrac = gc / total
	}
}
