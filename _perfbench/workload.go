package main

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// The served instance: the zipf family at n = 100 000 and ε = 0.2. At
// this size about 6% of the items are in the solution, so answers are
// not trivially false, and one rule computation stays in the
// milliseconds (ε = 0.1 costs about five times as much per rule, too
// slow to collect a p99 of replica recomputes in a short run).
const (
	family       = "zipf"
	itemCount    = 100_000
	epsilon      = 0.2
	instanceHash = 1
	// hotKeys is the key set of the Zipf streams: small enough for the
	// gateway's default 65 536-entry answer cache to hold it whole.
	hotKeys   = 8192
	zipfAlpha = 1.1
	// streamLen is the length of a precomputed Zipf stream; longer runs
	// wrap around it.
	streamLen = 1 << 19
	// replicaCount replicas serve every workload; maxConns caps the
	// client connections (at most one per CPU).
	replicaCount = 2
	maxConns     = 2
)

// keyShape selects how a workload picks the item of each query.
type keyShape int

const (
	// zipfHot draws Zipf(α) ranks over a seeded hot-key set.
	zipfHot keyShape = iota
	// uniformOnce walks a seeded permutation of all items, so no item
	// repeats within a run.
	uniformOnce
)

// mix is one workload: a traffic mix and the stack it runs against.
type mix struct {
	name string
	keys keyShape
	// rate is the open-loop offered rate in requests per second, and
	// slo the per-request latency limit slo_miss_frac counts against.
	rate float64
	slo  time.Duration
	// openShare is the share of an untraced run spent in the open loop;
	// the rest goes to the closed loop.
	openShare float64
	// maxLag is the generator validity threshold: a run whose open-loop
	// generator sent its p99 request later than this after its
	// scheduled time measured the client's scheduling, not the program.
	maxLag time.Duration
	// warm preloads the gateway cache with the whole hot-key set.
	warm bool
	// churn serves from an epoch-versioned fleet with a store-backed
	// gateway, sealing a new epoch every churnEvery.
	churn      bool
	churnEvery time.Duration
	// maxMismatch is the highest tolerated share of served answers that
	// differ from the canonical reference: ε for answers replicas
	// recompute (Lemma 4.9: two runs agree on the rule with probability
	// at least 1 − ε), 0 where answers come from sealed epochs'
	// canonical rules.
	maxMismatch float64
}

var mixes = map[string]*mix{
	"hit_zipf": {
		name: "hit_zipf", keys: zipfHot, rate: 4000, openShare: 0.5,
		slo: 10 * time.Millisecond, maxLag: 20 * time.Millisecond,
		warm: true, maxMismatch: epsilon,
	},
	"miss_uniform": {
		name: "miss_uniform", keys: uniformOnce, rate: 45, openShare: 0.75,
		slo: 100 * time.Millisecond, maxLag: 50 * time.Millisecond,
		maxMismatch: epsilon,
	},
	"churn_store": {
		name: "churn_store", keys: zipfHot, rate: 4000, openShare: 0.5,
		slo: 10 * time.Millisecond, maxLag: 20 * time.Millisecond,
		churn: true, churnEvery: 500 * time.Millisecond, maxMismatch: 0,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(mixes))
	for n := range mixes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// instanceSpec is the generation spec of the served instance.
func instanceSpec(seed uint64) workload.Spec {
	return workload.Spec{Name: family, N: itemCount, Seed: seed}
}

// lcaParams derives the shared LCA seed r from the workload seed.
func lcaParams(seed uint64) core.Params {
	return core.Params{Epsilon: epsilon, Seed: rng.New(seed).Derive("perfbench", "lca").Uint64()}
}

// inputs is everything the benchmark derives from the seed before any
// timing starts: the canonical reference answers and the query stream.
type inputs struct {
	inst   *knapsack.Instance
	params core.Params
	ref    []bool
	inRef  int
	hot    []int
	keys   *keyStream
}

func newInputs(ctx context.Context, w *mix, seed uint64) (*inputs, []string, error) {
	gen, err := workload.Generate(instanceSpec(seed))
	if err != nil {
		return nil, nil, err
	}
	in := &inputs{inst: gen.Float, params: lcaParams(seed)}
	ref, weight, err := canonical(ctx, in.inst, in.params)
	if err != nil {
		return nil, nil, err
	}
	var violations []string
	if weight > in.inst.Capacity {
		violations = append(violations, fmt.Sprintf("canonical solution weighs %v, over the capacity %v", weight, in.inst.Capacity))
	}
	in.ref = ref
	for _, b := range ref {
		if b {
			in.inRef++
		}
	}
	src := rng.New(seed).Derive("perfbench", "keys")
	perm := src.Perm(itemCount)
	switch w.keys {
	case uniformOnce:
		in.keys = &keyStream{items: perm, once: true}
	case zipfHot:
		in.hot = perm[:hotKeys]
		z := rng.NewZipf(hotKeys, zipfAlpha)
		stream := make([]int, streamLen)
		for k := range stream {
			stream[k] = in.hot[z.Draw(src)-1]
		}
		in.keys = &keyStream{items: stream}
	}
	return in, violations, nil
}

// canonical derives the canonical solution of (inst, r) — the rule of
// the materialization randomness stream, evaluated on every item — and
// returns it with its total weight.
func canonical(ctx context.Context, inst *knapsack.Instance, params core.Params) ([]bool, float64, error) {
	acc, err := oracle.NewSliceOracle(inst)
	if err != nil {
		return nil, 0, err
	}
	lca, err := core.NewLCAKP(acc, params)
	if err != nil {
		return nil, 0, err
	}
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		return nil, 0, err
	}
	art, err := store.Materialize(ctx, acc, rule, instanceHash, params.Seed)
	if err != nil {
		return nil, 0, err
	}
	answers := art.Answers()
	weight := 0.0
	for i, in := range answers {
		if in {
			weight += inst.Items[i].Weight
		}
	}
	return answers, weight, nil
}

// keyStream hands out the items of successive queries, shared by all
// load workers.
type keyStream struct {
	items  []int
	once   bool
	cursor atomic.Int64
}

// next returns the next query's item; a once-stream fails instead of
// repeating an item.
func (k *keyStream) next() (int, error) {
	c := int(k.cursor.Add(1) - 1)
	if c >= len(k.items) {
		if k.once {
			return 0, fmt.Errorf("uniform key stream exhausted after %d distinct items", len(k.items))
		}
		c %= len(k.items)
	}
	return k.items[c], nil
}
