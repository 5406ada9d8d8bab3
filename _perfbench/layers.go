package main

// perLayer fills the per-layer metrics of a traced run: span-derived
// stage times of the traced phase, server counters d over both phases,
// churn timings, and runtime figures of the untraced phase.
func perLayer(res *result, s *stack, rec *recorder, ph phases, d served, rolls []rollover, rollovers []float64) {
	rec.mu.Lock()
	st := analyze(rec.spans)
	rec.mu.Unlock()

	res.add("cluster.wire_us", "us", us(percentile(st.wire, 0.5)))
	res.add("gateway.backend_us", "us", us(percentile(st.backend, 0.5)))
	res.add("gateway.self_us", "us", us(percentile(st.gwSelf, 0.5)))

	res.add("gateway.cache_hit_ratio", "ratio", float64(d.hits)/float64(max(d.hits+d.misses, 1)))
	fetchMs := 0.0
	if lat := s.gw.Latency(); lat.Count > 0 {
		fetchMs = ms(lat.Sum) / float64(lat.Count)
	}
	res.add("gateway.fetch_ms", "ms", fetchMs)
	res.add("gateway.attempts", "count", float64(d.attempts))
	res.add("gateway.retries", "count", float64(d.retries))
	res.add("gateway.hedges", "count", float64(d.hedges))
	res.add("gateway.errors", "count", float64(d.errors))
	res.add("gateway.store_serves", "count", float64(d.storeServes))

	res.add("engine.query_ms", "ms", ms(percentile(st.engine, 0.5)))
	res.add("engine.queries", "count", float64(len(st.engine)))
	res.add("core.self_ms", "ms", ms(percentile(st.engineSelf, 0.5)))
	res.add("oracle.ms_per_query", "ms", ms(percentile(st.engineOracle, 0.5)))
	perQuery := func(n int64) float64 { return float64(n) / float64(max(len(st.engine), 1)) }
	res.add("core.samples_per_query", "count", perQuery(st.samples))
	res.add("core.item_probes_per_query", "count", perQuery(st.probes))

	var seal, derive, mat, put, bytes []float64
	for _, r := range rolls {
		seal = append(seal, ms(r.seal))
		derive = append(derive, ms(r.derive))
		mat = append(mat, ms(r.materialize))
		put = append(put, ms(r.put))
		bytes = append(bytes, float64(r.bytes))
	}
	res.add("epoch.seal_ms", "ms", median(seal))
	res.add("epoch.derive_ms", "ms", median(derive))
	res.add("store.materialize_ms", "ms", median(mat))
	res.add("store.put_ms", "ms", median(put))
	res.add("store.artifact_bytes", "bytes", median(bytes))
	res.add("epoch.rollover_ms", "ms", median(rollovers))
	res.add("store.lookups", "count", float64(d.storeLookups))
	res.add("store.opens", "count", float64(d.storeOpens))

	res.add("runtime.alloc_bytes_per_query", "bytes", ph.rt.allocPerReq)
	res.add("runtime.gc_cpu_frac", "ratio", ph.rt.gcCPUFrac)

	base := percentile(succeeded(ph.open.lat), 0.5)
	res.add("trace.overhead_frac", "ratio", float64(percentile(succeeded(ph.traced.lat), 0.5)-base)/float64(base))

	client, sum, frac, err := st.reconcile()
	if err != nil {
		res.violate("stage reconciliation: %v", err)
	} else {
		res.note("stages: client round trip p50 %v; wire %v + gateway self %v + core self %v + oracle %v = %v; unexplained %.4f (tolerance %v)",
			client, percentile(st.wire, 0.5), percentile(st.gwSelf, 0.5), percentile(st.coreSelf, 0.5), percentile(st.oracle, 0.5), sum, frac, stageTolerance)
		if frac > stageTolerance || frac < -stageTolerance {
			res.violate("stage reconciliation: stage medians sum to %v against a client p50 of %v (unexplained %.4f, tolerance %v)", sum, client, frac, stageTolerance)
		}
	}
	res.add("stage.client_p50_us", "us", us(client))
	res.add("stage.unexplained_frac", "ratio", frac)
	// The span tree must cover what the servers counted over the traced
	// phase: one gateway.backend span per cache lookup, and an engine
	// child on every lookup the gateway sent on to the replicas (misses
	// neither joined to another request's flight nor served by the
	// store). Without these links the stage times above could still add
	// up, with the replica time hidden in the gateway's.
	t := ph.tracedServed
	toReplicas := t.misses - t.shared - t.storeServes
	res.note("traced phase: %d requests, %d without a gateway span; %d gateway spans (%d lookups counted), %d with an engine child (%d sent to replicas); %d engine spans, %d without a gateway parent",
		st.requests, st.orphans, st.backends, t.hits+t.misses, st.fetched, toReplicas, len(st.engine), st.unlinked)
	if st.orphans > 0 {
		res.violate("%d traced requests have no gateway span", st.orphans)
	}
	if int64(st.backends) != t.hits+t.misses {
		res.violate("%d gateway spans for %d cache lookups in the traced phase", st.backends, t.hits+t.misses)
	}
	if int64(st.fetched) != toReplicas {
		res.violate("%d gateway spans have an engine child, but the gateway sent %d lookups to replicas", st.fetched, toReplicas)
	}
	if st.unlinked > 0 {
		res.violate("%d engine spans have no gateway span as parent", st.unlinked)
	}
}
