package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/gateway"
	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanClient  = "client.request"  // the load worker's round trip
	spanBackend = "gateway.backend" // inside the Backend the wire server resolved
	spanEngine  = "engine.query"    // inside the replica engine's Querier
)

// span is one timed call at a layer boundary. Spans of one request
// share Trace, the ID LCAClient carries in the wire frame; Parent is
// the ID of the enclosing span (0 for the client's root span). Engine
// spans also carry the request's oracle accounting: time inside the
// oracle.Access calls, weighted samples and item probes (Definition 2.2
// accesses).
type span struct {
	Trace    uint64 `json:"trace"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	OracleNs int64  `json:"oracle_ns,omitempty"`
	Samples  int64  `json:"samples,omitempty"`
	Probes   int64  `json:"item_probes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced phase in memory. While off, the
// replica-side wrappers only count queries.
type recorder struct {
	on    atomic.Bool
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) newID() uint64        { return r.ids.Add(1) }
func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// root opens a client span: a fresh trace whose context rides the
// request's wire frame.
func (r *recorder) root(ctx context.Context) (context.Context, span) {
	s := span{Trace: r.newID(), ID: r.newID(), Name: spanClient}
	return obs.ContextWithSpan(ctx, obs.SpanContext{Trace: obs.TraceID(s.Trace), Span: obs.SpanID(s.ID)}), s
}

// child opens a span under the one ctx carries and makes it the parent
// of whatever the callee propagates further.
func (r *recorder) child(ctx context.Context, name string) (context.Context, span) {
	parent, _ := obs.SpanFromContext(ctx)
	s := span{Trace: uint64(parent.Trace), ID: r.newID(), Parent: uint64(parent.Span), Name: name}
	return obs.ContextWithSpan(ctx, obs.SpanContext{Trace: parent.Trace, Span: obs.SpanID(s.ID)}), s
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedGateway mounts a gateway on a wire server through the
// gateway's own resolution seams, wrapping the Backend each frame
// resolves to in a timer. The wire server serves the traced phase
// only; untraced traffic reaches the gateway directly.
type tracedGateway struct {
	g   *gateway.Gateway
	rec *recorder
}

var _ cluster.EpochBackend = tracedGateway{}

func (t tracedGateway) Resolve(ctx context.Context, q cluster.TenantQuery) (cluster.Backend, error) {
	b, err := t.g.Resolve(ctx, q)
	if err != nil {
		return nil, err
	}
	return timedBackend{b, t.rec}, nil
}

func (t tracedGateway) ResolveEpoch(ctx context.Context, q cluster.TenantQuery) (cluster.Backend, engine.EpochID, error) {
	b, ep, err := t.g.ResolveEpoch(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	return timedBackend{b, t.rec}, ep, nil
}

// timedBackend records a gateway.backend span around every call.
type timedBackend struct {
	inner cluster.Backend
	rec   *recorder
}

func (b timedBackend) InSolution(ctx context.Context, i int) (bool, error) {
	ctx, s := b.rec.child(ctx, spanBackend)
	s.Start = b.rec.ns(time.Now())
	in, err := b.inner.InSolution(ctx, i)
	s.End = b.rec.ns(time.Now())
	b.rec.add(s)
	return in, err
}

func (b timedBackend) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	ctx, s := b.rec.child(ctx, spanBackend)
	s.Start = b.rec.ns(time.Now())
	out, err := b.inner.InSolutionBatch(ctx, indices)
	s.End = b.rec.ns(time.Now())
	b.rec.add(s)
	return out, err
}

// engineQuerier adapts an Engine to the Querier seam, so an epoch
// factory's engine can be wrapped like a core.LCAKP.
type engineQuerier struct{ eng *engine.Engine }

func (q engineQuerier) Query(ctx context.Context, i int) (bool, error) {
	in, _, err := q.eng.Query(ctx, i)
	return in, err
}

func (q engineQuerier) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	out, _, err := q.eng.QueryBatch(ctx, indices)
	return out, err
}

// timedQuerier sits between a replica's Engine and its Querier. It
// counts every query — the replica-side figure the gateway's attempt
// count reconciles against — and, while tracing, records an engine
// span carrying the query's oracle accounting.
type timedQuerier struct {
	inner   engine.Querier
	rec     *recorder
	queries *engineCount
}

// engineCount counts one replica's engine queries: started since the
// replica started, and running now.
type engineCount struct {
	started, running atomic.Int64
}

// oracleAcct accumulates one engine query's oracle accesses. A query
// runs its accesses sequentially, so the fields need no locking.
type oracleAcct struct {
	ns, samples, probes int64
}

type acctKey struct{}

func (q timedQuerier) Query(ctx context.Context, i int) (bool, error) {
	// Read the switch before counting: once a quiesce has seen this
	// query counted, it has decided whether to record a span.
	on := q.rec.on.Load()
	q.queries.running.Add(1)
	defer q.queries.running.Add(-1)
	q.queries.started.Add(1)
	if !on {
		return q.inner.Query(ctx, i)
	}
	ctx, end := q.begin(ctx)
	in, err := q.inner.Query(ctx, i)
	end()
	return in, err
}

func (q timedQuerier) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	on := q.rec.on.Load()
	q.queries.running.Add(1)
	defer q.queries.running.Add(-1)
	q.queries.started.Add(1)
	if !on {
		return q.inner.QueryBatch(ctx, indices)
	}
	ctx, end := q.begin(ctx)
	out, err := q.inner.QueryBatch(ctx, indices)
	end()
	return out, err
}

func (q timedQuerier) begin(ctx context.Context) (context.Context, func()) {
	ctx, s := q.rec.child(ctx, spanEngine)
	acct := &oracleAcct{}
	ctx = context.WithValue(ctx, acctKey{}, acct)
	s.Start = q.rec.ns(time.Now())
	return ctx, func() {
		s.End = q.rec.ns(time.Now())
		s.OracleNs, s.Samples, s.Probes = acct.ns, acct.samples, acct.probes
		q.rec.add(s)
	}
}

// timedAccess times the oracle accesses of traced engine queries,
// waits for the shared instance connection included.
type timedAccess struct {
	inner oracle.Access
	rec   *recorder
}

func (a timedAccess) N() int            { return a.inner.N() }
func (a timedAccess) Capacity() float64 { return a.inner.Capacity() }

func (a timedAccess) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	if !a.rec.on.Load() {
		return a.inner.QueryItem(ctx, i)
	}
	acct, _ := ctx.Value(acctKey{}).(*oracleAcct)
	if acct == nil {
		return a.inner.QueryItem(ctx, i)
	}
	start := time.Now()
	it, err := a.inner.QueryItem(ctx, i)
	acct.ns += int64(time.Since(start))
	acct.probes++
	return it, err
}

func (a timedAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	if !a.rec.on.Load() {
		return a.inner.Sample(ctx, src)
	}
	acct, _ := ctx.Value(acctKey{}).(*oracleAcct)
	if acct == nil {
		return a.inner.Sample(ctx, src)
	}
	start := time.Now()
	i, it, err := a.inner.Sample(ctx, src)
	acct.ns += int64(time.Since(start))
	acct.samples++
	return i, it, err
}

// stages is the per-layer view of a traced phase, built from the span
// tree of every client request.
type stages struct {
	requests, orphans int
	// backends counts gateway.backend spans, fetched those with an
	// engine child, and unlinked the engine spans whose parent is no
	// recorded gateway.backend span (the trace header was lost on the
	// gateway→replica hop).
	backends, fetched, unlinked int
	// Per request: the client round trip, the wire (round trip minus
	// the gateway Backend), the Backend, the gateway's own time (the
	// Backend minus the first replica engine span to finish), and that
	// engine span's core self time and oracle time (0 without one).
	rtt, wire, backend, gwSelf, coreSelf, oracle []time.Duration
	// Per engine span (hedge losers included).
	engine, engineSelf, engineOracle []time.Duration
	samples, probes                  int64
}

func analyze(spans []span) stages {
	var st stages
	children := make(map[uint64][]*span)
	backends := make(map[uint64]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.Name == spanBackend {
			backends[s.ID] = s
		}
	}
	st.backends = len(backends)
	for _, b := range backends {
		for _, c := range children[b.ID] {
			if c.Name == spanEngine {
				st.fetched++
				break
			}
		}
	}
	for i := range spans {
		if s := &spans[i]; s.Name == spanEngine {
			if backends[s.Parent] == nil {
				st.unlinked++
			}
			st.engine = append(st.engine, s.dur())
			st.engineSelf = append(st.engineSelf, s.dur()-time.Duration(s.OracleNs))
			st.engineOracle = append(st.engineOracle, time.Duration(s.OracleNs))
			st.samples += s.Samples
			st.probes += s.Probes
		}
	}
	for i := range spans {
		r := &spans[i]
		if r.Name != spanClient {
			continue
		}
		var b *span
		for _, c := range children[r.ID] {
			if c.Name == spanBackend {
				b = c
			}
		}
		if b == nil {
			st.orphans++
			continue
		}
		st.requests++
		var first *span
		for _, c := range children[b.ID] {
			if c.Name == spanEngine && (first == nil || c.End < first.End) {
				first = c
			}
		}
		gw, self, orc := b.dur(), time.Duration(0), time.Duration(0)
		if first != nil {
			gw -= first.dur()
			orc = time.Duration(first.OracleNs)
			self = first.dur() - orc
		}
		st.rtt = append(st.rtt, r.dur())
		st.wire = append(st.wire, r.dur()-b.dur())
		st.backend = append(st.backend, b.dur())
		st.gwSelf = append(st.gwSelf, gw)
		st.coreSelf = append(st.coreSelf, self)
		st.oracle = append(st.oracle, orc)
	}
	return st
}

// stageTolerance is how far the sum of the stage medians may fall from
// the client round-trip median, as a share of the latter.
const stageTolerance = 0.10

// reconcile reports the client round-trip median, the sum of the stage
// medians, and the unexplained remainder as a share of the former.
func (st *stages) reconcile() (client, sum time.Duration, frac float64, err error) {
	if st.requests == 0 {
		return 0, 0, 0, fmt.Errorf("no traced request has a gateway span")
	}
	client = percentile(st.rtt, 0.5)
	for _, d := range [][]time.Duration{st.wire, st.gwSelf, st.coreSelf, st.oracle} {
		sum += percentile(d, 0.5)
	}
	frac = float64(client-sum) / float64(client)
	return client, sum, frac, nil
}
