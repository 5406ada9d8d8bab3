package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// DefaultTimeout bounds each RPC round trip.
const DefaultTimeout = 10 * time.Second

// ErrConnBroken marks a connection that suffered a transport or
// framing failure mid-RPC. The request/response protocol is strictly
// alternating, so after a partial write or a half-read frame the
// stream position is unknowable; every subsequent call on the same
// connection fails fast with this error instead of desyncing. Callers
// (the gateway pool above all) test with errors.Is and re-dial.
var ErrConnBroken = errors.New("cluster: connection broken")

// conn is a mutex-serialized framed connection with per-RPC deadlines.
type conn struct {
	mu      sync.Mutex
	netConn net.Conn
	timeout time.Duration
	// brokenErr records the first transport failure; once set, all
	// later round trips fail fast with ErrConnBroken wrapping it.
	brokenErr error
	// wbuf and rbuf are frame scratch buffers reused across RPCs under
	// mu, so a steady-state round trip allocates nothing for framing. A
	// response frame's payload aliases rbuf, so roundTrip decodes it
	// before releasing mu.
	wbuf, rbuf []byte
}

// dial connects to addr with the given per-RPC timeout (0 selects
// DefaultTimeout). ctx bounds the dial itself in addition to the
// timeout (constructors pass context.Background for the old
// fixed-timeout behavior).
//
//lint:coldpath connection establishment, amortized over the connection's RPC lifetime
func dial(ctx context.Context, addr string, timeout time.Duration) (*conn, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	dialer := net.Dialer{Timeout: timeout}
	netConn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return &conn{netConn: netConn, timeout: timeout}, nil
}

// roundTrip sends one request, reads its response and runs decode on
// it. The response payload aliases the connection's read buffer, which
// the next RPC on the connection overwrites, so decode runs under the
// connection lock, must copy out whatever outlives it, and must not
// issue another RPC on the connection. A remote error frame, or a
// response of another type than the request's, fails the call without
// reaching decode; a nil decode accepts any payload.
// The RPC is bounded by the earlier of the connection's per-RPC
// timeout and the context's deadline; a context that fires mid-RPC
// surfaces as a wrapped ctx.Err(). Any transport error poisons the
// connection (see ErrConnBroken).
func (c *conn) roundTrip(ctx context.Context, req frame, decode func(resp frame) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: round trip aborted: %w", err)
	}
	if sc, ok := obs.SpanFromContext(ctx); ok {
		// Carry the caller's trace across the hop so the server-side
		// span joins the same trace (v2 framing; untraced stays v1).
		req.trace = sc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.brokenErr != nil {
		return fmt.Errorf("%w: %v", ErrConnBroken, c.brokenErr)
	}
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.netConn.SetDeadline(deadline); err != nil {
		c.brokenErr = err
		return fmt.Errorf("cluster: set deadline: %w", err)
	}
	wbuf, err := appendFrame(c.wbuf[:0], req)
	c.wbuf = wbuf
	if err == nil {
		_, err = c.netConn.Write(wbuf)
	}
	if err != nil {
		c.brokenErr = err
		return c.rpcErr(ctx, "write request", err)
	}
	var resp frame
	resp, c.rbuf, err = readFrameInto(c.netConn, c.rbuf)
	if err != nil {
		// A failed or partial response read leaves the stream position
		// unknown even when the write succeeded.
		c.brokenErr = err
		return c.rpcErr(ctx, "read response", err)
	}
	if err := decodeMaybeErr(resp, req.msgType); err != nil {
		return err
	}
	if decode == nil {
		return nil
	}
	return decode(resp)
}

// broken reports whether the connection has been poisoned by a
// transport failure.
func (c *conn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brokenErr != nil
}

// rpcErr attributes an I/O failure to the context when its deadline
// (or cancellation) caused it, so callers can errors.Is against
// context.DeadlineExceeded / context.Canceled instead of parsing
// net timeouts.
func (c *conn) rpcErr(ctx context.Context, op string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("cluster: %s: %w (%v)", op, ctxErr, err)
	}
	return fmt.Errorf("cluster: %s: %w", op, err)
}

// close closes the underlying connection.
func (c *conn) close() error { return c.netConn.Close() }

// RemoteAccess is an oracle.Access backed by a remote InstanceServer.
// It lets an unmodified core.LCAKP run against an instance held
// elsewhere — the "massive input" deployment of the LCA model.
// Instance info (n, capacity) is fetched once at dial time; samples
// are fetched in batches to amortize round trips.
type RemoteAccess struct {
	conn     *conn
	n        int
	capacity float64

	// batch is the sample prefetch size.
	batch int

	mu sync.Mutex
	// streams tracks one prefetch buffer per caller source. Sources
	// are per-run ephemerals, so the map is cleared when it grows past
	// a small bound rather than tracking lifetimes.
	streams map[*rng.Source]*sampleStream
}

// sampleStream is the prefetch state of one caller sampling stream.
// Consumption is by index rather than by reslicing so a refill reuses
// pending's full backing array instead of the already-consumed tail.
type sampleStream struct {
	seed     uint64 // stream identity drawn once from the caller source
	batchNum uint64 // next batch ordinal; batches use independent seeds
	pending  []sampleEntry
	next     int // first unconsumed entry of pending
}

// sampleEntry is one prefetched weighted sample: the drawn index and
// the item it revealed.
type sampleEntry struct {
	idx  int
	item knapsack.Item
}

// maxStreams bounds the per-source stream map.
const maxStreams = 128

var _ oracle.Access = (*RemoteAccess)(nil)

// DialInstance connects to an InstanceServer. batch controls sample
// prefetching (0 selects 4096). The dial is bounded by timeout alone;
// use DialInstanceContext to also bound it by a context.
func DialInstance(addr string, timeout time.Duration, batch int) (*RemoteAccess, error) {
	return DialInstanceContext(context.Background(), addr, timeout, batch)
}

// DialInstanceContext is DialInstance bounded by ctx: both the TCP
// connect and the dial-time info fetch abort when ctx fires, so a
// caller managing many backends (the gateway pool pattern) can cap
// total connection-establishment time.
func DialInstanceContext(ctx context.Context, addr string, timeout time.Duration, batch int) (*RemoteAccess, error) {
	if batch <= 0 {
		batch = 4096
	}
	c, err := dial(ctx, addr, timeout)
	if err != nil {
		return nil, err
	}
	var n uint64
	var capacity float64
	err = c.roundTrip(ctx, frame{msgType: msgInfo}, func(resp frame) error {
		var err error
		if n, err = getU64(resp.payload, 0); err != nil {
			return err
		}
		capacity, err = getF64(resp.payload, 8)
		return err
	})
	if err != nil {
		_ = c.close()
		return nil, err
	}
	return &RemoteAccess{
		conn:     c,
		n:        int(n),
		capacity: capacity,
		batch:    batch,
		streams:  make(map[*rng.Source]*sampleStream),
	}, nil
}

// N returns the remote instance's item count.
func (r *RemoteAccess) N() int { return r.n }

// Capacity returns the remote instance's weight limit.
func (r *RemoteAccess) Capacity() float64 { return r.capacity }

// QueryItem fetches one item's profit and weight.
func (r *RemoteAccess) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	var it knapsack.Item
	//lint:alloc measured: the decode closure does not escape roundTrip, so it stays on the stack (BenchmarkRemoteQueryItem pins 3 allocs/op)
	err := r.conn.roundTrip(ctx, frame{msgType: msgQuery, payload: putU64(nil, uint64(i))}, func(resp frame) error {
		var err error
		if it.Profit, err = getF64(resp.payload, 0); err != nil {
			return err
		}
		it.Weight, err = getF64(resp.payload, 8)
		return err
	})
	if err != nil {
		return knapsack.Item{}, err
	}
	return it, nil
}

// Sample draws one profit-weighted index. The caller's source is
// compressed into a stream seed (drawn once per source) sent to the
// server, which draws the actual samples; batches are prefetched per
// stream to amortize round trips. Distinct sources get statistically
// independent streams, preserving the fresh-per-run discipline.
func (r *RemoteAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	stream, ok := r.streams[src]
	if !ok {
		if len(r.streams) >= maxStreams {
			// Sources are per-run ephemerals; reset wholesale instead
			// of tracking lifetimes.
			r.streams = make(map[*rng.Source]*sampleStream) //lint:alloc stream-table reset at the maxStreams bound, amortized over the table's lifetime
		}
		stream = &sampleStream{seed: src.Uint64()} //lint:alloc one stream record per caller source, not per sample
		r.streams[src] = stream
	}

	if stream.next >= len(stream.pending) {
		stream.pending = stream.pending[:0]
		stream.next = 0
		// Each batch gets an independent server-side seed derived from
		// the stream identity and batch ordinal.
		batchSeed := stream.seed ^ (stream.batchNum * 0x9e3779b97f4a7c15)
		stream.batchNum++
		payload := putU64(nil, uint64(r.batch)) //lint:alloc request payload, two words per batch RPC against a wire round trip
		payload = putU64(payload, batchSeed)
		//lint:alloc measured: the decode closure does not escape roundTrip, so it stays on the stack (BenchmarkRemoteQueryItem pins 3 allocs/op)
		err := r.conn.roundTrip(ctx, frame{msgType: msgSample, payload: payload}, func(resp frame) error {
			if len(resp.payload)%24 != 0 || len(resp.payload) == 0 {
				return fmt.Errorf("%w: sample payload %d bytes", ErrBadMessage, len(resp.payload))
			}
			for off := 0; off < len(resp.payload); off += 24 {
				idx, err := getU64(resp.payload, off)
				if err != nil {
					return err
				}
				profit, err := getF64(resp.payload, off+8)
				if err != nil {
					return err
				}
				weight, err := getF64(resp.payload, off+16)
				if err != nil {
					return err
				}
				stream.pending = append(stream.pending, sampleEntry{
					idx:  int(idx),
					item: knapsack.Item{Profit: profit, Weight: weight},
				})
			}
			return nil
		})
		if err != nil {
			return 0, knapsack.Item{}, err
		}
	}
	entry := stream.pending[stream.next]
	stream.next++
	return entry.idx, entry.item, nil
}

// Ping performs a health-check round trip.
func (r *RemoteAccess) Ping(ctx context.Context) error {
	return r.conn.roundTrip(ctx, frame{msgType: msgPing}, nil)
}

// Close releases the connection.
func (r *RemoteAccess) Close() error { return r.conn.close() }

// LCAClient queries a remote LCA replica (or anything speaking the
// membership protocol — a gateway, a multi-tenant server).
//
// A client is untenanted by default and emits frames byte-identical
// to pre-v3 builds. SetTenant/SetAPIKey install connection-level
// defaults applied to every subsequent frame; the *Tenant call
// variants override the namespace per call — the shape a gateway
// needs, where one pooled connection carries many tenants' queries.
type LCAClient struct {
	conn *conn
	addr string

	// defaults guards the connection-level tenant and API key; they
	// are read on every call and settable at any time.
	defaults sync.Mutex
	tenant   *engine.TenantID
	apiKey   []byte
}

// DialLCA connects to an LCAServer. The dial is bounded by timeout
// alone; use DialLCAContext to also bound it by a context.
func DialLCA(addr string, timeout time.Duration) (*LCAClient, error) {
	return DialLCAContext(context.Background(), addr, timeout)
}

// DialLCAContext is DialLCA with the TCP connect additionally bounded
// by ctx.
//
//lint:coldpath connection establishment, amortized over the connection's RPC lifetime
func DialLCAContext(ctx context.Context, addr string, timeout time.Duration) (*LCAClient, error) {
	c, err := dial(ctx, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &LCAClient{conn: c, addr: addr}, nil
}

// Addr returns the replica address this client talks to.
func (c *LCAClient) Addr() string { return c.addr }

// SetTenant namespaces every subsequent frame to id (v3 framing). Use
// it when the process serves exactly one tenant end to end; gateways
// multiplexing tenants over pooled connections use the per-call
// *Tenant variants instead.
func (c *LCAClient) SetTenant(id engine.TenantID) {
	c.defaults.Lock()
	defer c.defaults.Unlock()
	c.tenant = &id
}

// SetAPIKey attaches key to every subsequent frame (v3 framing); an
// empty key detaches. Keys longer than 255 bytes fail at send time.
func (c *LCAClient) SetAPIKey(key string) {
	c.defaults.Lock()
	defer c.defaults.Unlock()
	if key == "" {
		c.apiKey = nil
		return
	}
	c.apiKey = []byte(key)
}

// request builds a frame carrying the connection defaults, with id
// (when non-nil) overriding the default tenant.
func (c *LCAClient) request(msgType uint8, payload []byte, id *engine.TenantID) frame {
	f := frame{msgType: msgType, payload: payload}
	c.defaults.Lock()
	if id == nil {
		id = c.tenant
	}
	if id != nil {
		f.tenant = *id
		f.hasTenant = true
	}
	f.authKey = c.apiKey
	c.defaults.Unlock()
	return f
}

// Broken reports whether the client's connection has been poisoned by
// a transport failure; a broken client answers every call with
// ErrConnBroken and must be replaced by re-dialing. Connection pools
// use this to discard dead connections on check-in.
func (c *LCAClient) Broken() bool { return c.conn.broken() }

// InSolution asks the replica whether item i is in the solution. ctx
// bounds the round trip; pair it with the server's request timeout for
// end-to-end deadlines.
func (c *LCAClient) InSolution(ctx context.Context, i int) (bool, error) {
	return c.inSolution(ctx, i, nil)
}

// InSolutionTenant is InSolution addressed to tenant id, overriding
// any connection-level default for this call.
func (c *LCAClient) InSolutionTenant(ctx context.Context, id engine.TenantID, i int) (bool, error) {
	return c.inSolution(ctx, i, &id)
}

func (c *LCAClient) inSolution(ctx context.Context, i int, id *engine.TenantID) (bool, error) {
	var in bool
	//lint:alloc measured: the decode closure does not escape roundTrip, so it stays on the stack (BenchmarkRemoteQueryItem pins 3 allocs/op)
	err := c.conn.roundTrip(ctx, c.request(msgInSol, putU64(nil, uint64(i)), id), func(resp frame) error {
		if len(resp.payload) != 1 {
			return fmt.Errorf("%w: InSolution payload %d bytes", ErrBadMessage, len(resp.payload))
		}
		in = resp.payload[0] == 1
		return nil
	})
	return in, err
}

// InSolutionBatch asks the replica about several items in one RPC and
// one replica-side pipeline run: answers within a batch are mutually
// consistent with certainty (they share one rule computation), and the
// per-answer amortized cost drops by the batch size.
func (c *LCAClient) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	return c.inSolutionBatch(ctx, indices, nil)
}

// InSolutionBatchTenant is InSolutionBatch addressed to tenant id,
// overriding any connection-level default for this call. It is the
// gateway's fan-out RPC: one pooled connection serves every tenant,
// with each frame naming its namespace.
func (c *LCAClient) InSolutionBatchTenant(ctx context.Context, id engine.TenantID, indices []int) ([]bool, error) {
	return c.inSolutionBatch(ctx, indices, &id)
}

func (c *LCAClient) inSolutionBatch(ctx context.Context, indices []int, id *engine.TenantID) ([]bool, error) {
	if len(indices) == 0 {
		return nil, nil
	}
	payload := make([]byte, 0, 8*len(indices)) //lint:alloc one exactly-sized request payload per batch RPC against a wire round trip
	for _, i := range indices {
		payload = putU64(payload, uint64(i))
	}
	var answers []bool
	//lint:alloc measured: the decode closure does not escape roundTrip, so it stays on the stack (BenchmarkRemoteQueryItem pins 3 allocs/op)
	err := c.conn.roundTrip(ctx, c.request(msgInSolBatch, payload, id), func(resp frame) error {
		var err error
		answers, err = decodeBatchAnswers(resp, len(indices))
		return err
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// decodeBatchAnswers decodes a batch response of one byte per queried
// item into a fresh slice the caller owns.
func decodeBatchAnswers(resp frame, queried int) ([]bool, error) {
	if len(resp.payload) != queried {
		return nil, fmt.Errorf("%w: batch response %d answers for %d queries",
			ErrBadMessage, len(resp.payload), queried)
	}
	answers := make([]bool, queried) //lint:alloc escapes to the caller, which owns the answers
	for k, b := range resp.payload {
		answers[k] = b == 1
	}
	return answers, nil
}

// Ping performs a health-check round trip.
func (c *LCAClient) Ping(ctx context.Context) error {
	return c.conn.roundTrip(ctx, frame{msgType: msgPing}, nil)
}

// FetchArtifact retrieves tenant id's complete materialized artifact
// (internal/store encoding) from a peer that serves MsgStoreFetch —
// the transfer half of gateway peer-fill. The returned bytes are a
// fresh copy owned by the caller, who must validate them through
// store.Decode (the trailer checksum catches any corruption the
// transport missed) before serving or persisting them. Peers without
// an artifact for id (or without artifact serving at all) answer with
// ErrRemote.
//
//lint:coldpath artifact fetches run once per (peer, tenant) residency, not per query
func (c *LCAClient) FetchArtifact(ctx context.Context, id engine.TenantID) ([]byte, error) {
	return c.fetch(ctx, c.request(msgStoreFetch, nil, &id))
}

// fetch runs a MsgStoreFetch round trip and copies the artifact bytes
// out of the connection's read buffer.
//
//lint:coldpath artifact fetches run once per (peer, tenant, epoch) residency, not per query
func (c *LCAClient) fetch(ctx context.Context, req frame) ([]byte, error) {
	var data []byte
	err := c.conn.roundTrip(ctx, req, func(resp frame) error {
		data = append([]byte(nil), resp.payload...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ScrapeMetrics fetches the server's Prometheus-text metrics snapshot
// over the query connection — the same wire a client already holds, so
// a fleet can be scraped without exposing a separate HTTP port per
// replica. Servers without a registry attached answer with ErrRemote.
// Note the process-wide scrape is deliberately untenanted even when a
// default tenant is set: it reads the whole server, not one namespace.
func (c *LCAClient) ScrapeMetrics(ctx context.Context) (string, error) {
	return c.scrapeMetrics(ctx, nil)
}

// ScrapeTenantMetrics fetches the metrics snapshot of one resident
// tenant from a multi-tenant server. Non-resident tenants answer with
// an ErrRemote wrapping "unknown tenant".
func (c *LCAClient) ScrapeTenantMetrics(ctx context.Context, id engine.TenantID) (string, error) {
	return c.scrapeMetrics(ctx, &id)
}

func (c *LCAClient) scrapeMetrics(ctx context.Context, id *engine.TenantID) (string, error) {
	f := frame{msgType: msgMetrics}
	if id != nil {
		f = c.request(msgMetrics, nil, id)
	} else {
		// Untenanted scrape stays byte-identical to pre-v3 builds; only
		// the API key (when set) upgrades the frame.
		c.defaults.Lock()
		f.authKey = c.apiKey
		c.defaults.Unlock()
	}
	var text string
	err := c.conn.roundTrip(ctx, f, func(resp frame) error {
		text = string(resp.payload)
		return nil
	})
	return text, err
}

// Close releases the connection.
func (c *LCAClient) Close() error { return c.conn.close() }
