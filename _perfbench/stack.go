package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/epoch"
	"lcakp/internal/gateway"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// clientTimeout bounds each client round trip; a request that takes
// longer counts as failed.
const clientTimeout = 5 * time.Second

// stack is one in-process serving stack on loopback ephemeral ports.
type stack struct {
	gw      *gateway.Gateway
	tenant  engine.TenantID
	clients []*cluster.LCAClient
	// tracedClients reach the same gateway through a wire server that
	// times the gateway Backend (traced runs only).
	tracedClients []*cluster.LCAClient
	// engineQueries counts each replica's engine queries.
	engineQueries []*engineCount
	// Epoch-versioned fleet and store-backed gateway (churn only).
	mgr    *epoch.Manager
	st     *store.Store
	tables []*engine.TenantTable
	// closers release everything, run last to first.
	closers []func() error
}

// startStack builds the stack a workload runs against, from instance
// generation to the warmed cache: everything setup_s times.
func startStack(ctx context.Context, cfg config, in *inputs, rec *recorder, dir string) (_ *stack, err error) {
	gen, err := workload.Generate(instanceSpec(cfg.seed))
	if err != nil {
		return nil, err
	}
	inst := gen.Float
	params := lcaParams(cfg.seed)
	s := &stack{tenant: engine.TenantID{Instance: instanceHash, Seed: params.Seed}}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()

	var addrs []string
	if cfg.w.churn {
		addrs, err = s.startEpochFleet(ctx, inst, params, rec, dir)
	} else {
		addrs, err = s.startRemoteFleet(ctx, inst, params, rec)
	}
	if err != nil {
		return nil, err
	}
	s.gw, err = gateway.New(gateway.Options{Replicas: addrs, Instance: instanceHash, Seed: params.Seed, Store: s.st})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, s.gw.Close)
	if s.clients, err = s.serve(s.gw); err != nil {
		return nil, err
	}
	if cfg.traced {
		if s.tracedClients, err = s.serve(tracedGateway{g: s.gw, rec: rec}); err != nil {
			return nil, err
		}
	}
	if cfg.w.warm {
		if _, err := s.gw.Warm(ctx, in.hot); err != nil {
			return nil, fmt.Errorf("warm the answer cache: %w", err)
		}
	}
	return s, nil
}

// startRemoteFleet starts an instance server and the replicas, each
// reading the instance through its own cluster.RemoteAccess, as
// lcaserver -role lca does.
func (s *stack) startRemoteFleet(ctx context.Context, inst *knapsack.Instance, params core.Params, rec *recorder) ([]string, error) {
	acc, err := oracle.NewSliceOracle(inst)
	if err != nil {
		return nil, err
	}
	isrv, err := cluster.NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, isrv.Close)
	var addrs []string
	for r := 0; r < replicaCount; r++ {
		remote, err := cluster.DialInstanceContext(ctx, isrv.Addr(), 0, 0)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, remote.Close)
		lca, err := core.NewLCAKP(engine.Wrap(timedAccess{inner: remote, rec: rec}), params)
		if err != nil {
			return nil, err
		}
		n := new(engineCount)
		srv, err := cluster.NewLCAServer("127.0.0.1:0", engine.New(timedQuerier{inner: lca, rec: rec, queries: n}))
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, srv.Close)
		s.engineQueries = append(s.engineQueries, n)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, nil
}

// startEpochFleet builds the epoch manager, materializes epoch 0 into a
// fresh store, and starts epoch-aware multi-tenant replicas over the
// manager's factory, as the fallback behind the store tier.
func (s *stack) startEpochFleet(ctx context.Context, inst *knapsack.Instance, params core.Params, rec *recorder, dir string) ([]string, error) {
	mgr, err := epoch.NewManager(ctx, s.tenant, inst, params, 0)
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.New(dir, 0)
	if err != nil {
		return nil, err
	}
	s.st = st
	s.closers = append(s.closers, func() error { return errors.Join(st.Close(), os.RemoveAll(dir)) })
	snap, _ := mgr.Snapshot(0)
	acc, err := oracle.NewSliceOracle(snap.Instance)
	if err != nil {
		return nil, err
	}
	art, err := store.Materialize(ctx, acc, snap.Rule, instanceHash, params.Seed)
	if err != nil {
		return nil, err
	}
	if err := st.Put(ctx, art); err != nil {
		return nil, err
	}
	base := mgr.Factory()
	var addrs []string
	for r := 0; r < replicaCount; r++ {
		n := new(engineCount)
		factory := func(ctx context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
			ts, err := base(ctx, vt)
			if err != nil {
				return ts, err
			}
			ts.Engine = engine.New(timedQuerier{inner: engineQuerier{ts.Engine}, rec: rec, queries: n})
			return ts, nil
		}
		table := engine.NewVersionedTenantTable(factory, 0)
		s.closers = append(s.closers, table.Close)
		srv, err := cluster.NewMultiLCAServer("127.0.0.1:0", table)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, srv.Close)
		srv.SetDefaultTenant(s.tenant)
		s.tables = append(s.tables, table)
		s.engineQueries = append(s.engineQueries, n)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, nil
}

// serve starts a wire server resolving frames through backends and
// dials the client connections to it.
func (s *stack) serve(backends cluster.TenantBackend) ([]*cluster.LCAClient, error) {
	srv, err := cluster.NewTenantQueryServer("127.0.0.1:0", backends)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, srv.Close)
	var clients []*cluster.LCAClient
	for c := 0; c < min(maxConns, runtime.NumCPU()); c++ {
		cl, err := cluster.DialLCA(srv.Addr(), clientTimeout)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, cl.Close)
		clients = append(clients, cl)
	}
	return clients, nil
}

// close releases the stack, last started first.
func (s *stack) close() error {
	var errs []error
	for k := len(s.closers) - 1; k >= 0; k-- {
		errs = append(errs, s.closers[k]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// served is a snapshot of the server-side counters a run reconciles
// against, or the difference of two snapshots.
type served struct {
	queries, hits, misses, shared, attempts, retries, hedges, errors, storeServes int64
	engines, storeLookups, storeOpens                                             int64
	// running is the engine queries in progress at the snapshot (a
	// gauge; plus leaves it out).
	running int64
}

func (s *stack) served() served {
	m := s.gw.Metrics()
	v := served{
		queries: m.Queries, hits: m.CacheHits, misses: m.CacheMisses, shared: m.FlightsShared,
		attempts: m.Attempts, retries: m.Retries, hedges: m.Hedges,
		errors: m.Errors, storeServes: m.StoreServes,
	}
	for _, n := range s.engineQueries {
		v.engines += n.started.Load()
		v.running += n.running.Load()
	}
	if s.st != nil {
		st := s.st.Stats()
		v.storeLookups, v.storeOpens = st.Lookups, st.Opens
	}
	return v
}

// plus returns a + sign·b field by field.
func (a served) plus(b served, sign int64) served {
	return served{
		queries: a.queries + sign*b.queries, hits: a.hits + sign*b.hits, misses: a.misses + sign*b.misses,
		shared:   a.shared + sign*b.shared,
		attempts: a.attempts + sign*b.attempts, retries: a.retries + sign*b.retries, hedges: a.hedges + sign*b.hedges,
		errors: a.errors + sign*b.errors, storeServes: a.storeServes + sign*b.storeServes,
		engines: a.engines + sign*b.engines, storeLookups: a.storeLookups + sign*b.storeLookups,
		storeOpens: a.storeOpens + sign*b.storeOpens,
	}
}

// quiesce waits until every replica attempt the gateway made since
// before has reached its replica's engine and no engine query is
// running, then returns the counters' change.
func (s *stack) quiesce(before served) (served, error) {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		now := s.served()
		d := now.plus(before, -1)
		if d.attempts == d.engines && now.running == 0 {
			return d, nil
		}
		if time.Now().After(deadline) {
			return d, fmt.Errorf("replica engine queries (%d, %d still running) still differ from gateway attempts (%d) %v after the load stopped",
				d.engines, now.running, d.attempts, quiesceTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
