package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/repro"
	"lcakp/internal/rng"
)

// LCAKP is the paper's LCA for Knapsack (Algorithm 2). It is safe for
// concurrent use: queries share no mutable state beyond an atomic
// nonce used to give each run fresh sampling randomness, mirroring the
// model in which every run draws fresh weighted samples while the seed
// r is shared and read-only.
type LCAKP struct {
	params Params
	access oracle.Access
	domain *repro.Domain

	// sharedRoot derives the internal randomness streams that must be
	// identical across runs and replicas (Definition 2.5's r).
	sharedRoot *rng.Source

	// freshBase seeds per-run sampling randomness; runNonce makes
	// successive runs use distinct streams. Consistency never relies
	// on these (that is the whole point of the construction), so any
	// values work; tests vary them adversarially.
	freshBase *rng.Source
	runNonce  atomic.Uint64
}

// NewLCAKP builds an LCA over the given access with the given
// parameters. The instance behind access must have total profit
// normalized to 1 and every item weight at most the capacity
// (Definition 2.2); violations degrade the approximation guarantee but
// are not detectable through sublinear access, so they are the
// caller's contract.
func NewLCAKP(access oracle.Access, params Params) (*LCAKP, error) {
	norm, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	domain, err := norm.Domain()
	if err != nil {
		return nil, err
	}
	root := rng.New(norm.Seed)
	return &LCAKP{
		params:     norm,
		access:     access,
		domain:     domain,
		sharedRoot: root.Derive("lcakp", "shared"),
		freshBase:  root.Derive("lcakp", "fresh"),
	}, nil
}

// Params returns the normalized parameters in use.
func (l *LCAKP) Params() Params { return l.params }

// Query reports whether item i belongs to the solution C(I, seed) the
// LCA answers according to. Each call is an independent run: it draws
// fresh samples, recomputes the decision rule, and answers — no state
// survives between calls. ctx cancels or deadline-bounds the run; an
// aborted run returns a wrapped ctx.Err() and leaves the LCA fully
// reusable (there is no state to corrupt).
func (l *LCAKP) Query(ctx context.Context, i int) (bool, error) {
	fresh := l.freshBase.DeriveIndex("run", int(l.runNonce.Add(1)))
	return l.QueryWithRandomness(ctx, i, fresh)
}

// QueryWithRandomness is Query with caller-controlled fresh sampling
// randomness, used by tests and experiments to drive many runs with
// explicitly distinct (or deliberately re-used) randomness.
func (l *LCAKP) QueryWithRandomness(ctx context.Context, i int, fresh *rng.Source) (bool, error) {
	rule, err := l.ComputeRule(ctx, fresh)
	if err != nil {
		return false, err
	}
	it, err := l.access.QueryItem(ctx, i)
	if err != nil {
		return false, fmt.Errorf("core: query item %d: %w", i, err)
	}
	return rule.Decide(i, it), nil
}

// QueryBatch answers several membership queries from a single run of
// the pipeline: one rule computation, then one local decision per
// index. Within a batch this is sound by construction — every answer
// comes from the same run, so batch answers are mutually consistent
// with certainty, not just w.h.p. Across batches the usual stateless
// guarantees apply. The per-answer amortized access cost drops by a
// factor of len(indices).
func (l *LCAKP) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	fresh := l.freshBase.DeriveIndex("batch", int(l.runNonce.Add(1)))
	rule, err := l.ComputeRule(ctx, fresh)
	if err != nil {
		return nil, err
	}
	answers := make([]bool, len(indices))
	for k, i := range indices {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: batch aborted at index %d: %w", k, err)
		}
		it, err := l.access.QueryItem(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("core: query item %d: %w", i, err)
		}
		answers[k] = rule.Decide(i, it)
	}
	return answers, nil
}

// ComputeRule executes one full run of Algorithm 2 up to (and
// including) CONVERT-GREEDY and returns the local decision rule.
// fresh provides this run's sampling randomness; the reproducible
// internal randomness comes from the LCA's shared seed. Cancellation
// and deadline expiry are checked at every sampling-loop iteration, so
// an aborted run stops within one access of ctx firing.
func (l *LCAKP) ComputeRule(ctx context.Context, fresh *rng.Source) (Rule, error) {
	eps := l.params.Epsilon

	// Line 1-3: collect the large items. Sampling proportionally to
	// profit finds every item with profit > ε² w.h.p. (Lemma 4.2).
	large, largeMass, err := l.collectLarge(ctx, fresh.Derive("large"))
	if err != nil {
		return Rule{}, err
	}

	// Lines 4-17: estimate the Equally Partitioning Sequence when the
	// small+garbage mass is non-negligible.
	var thresholds []float64
	var guard *weightGuard
	if 1-largeMass >= eps {
		var smallEffs []float64
		var totalDraws int
		thresholds, smallEffs, totalDraws, err = l.estimateEPS(ctx, fresh.Derive("eps"), largeMass)
		if err != nil {
			return Rule{}, err
		}
		guard = newWeightGuard(smallEffs, totalDraws, eps, l.access.Capacity(),
			l.sharedRoot.Derive("weight-guard"))
	}

	// Line 18: construct Ĩ from the collected large items and the EPS.
	tilde := l.buildTilde(large, thresholds)

	// Line 19: CONVERT-GREEDY extracts the decision rule.
	rule := convertGreedy(tilde, thresholds, eps, guard)
	rule.LargeMass = largeMass
	return rule, nil
}

// collectLarge draws the large-item sample R̄ and assembles the set M.
// In the default (paper) mode it keeps every sampled item with profit
// above ε², de-duplicated by original index (Lemma 4.2 guarantees
// completeness w.h.p.). With UseHeavyHitters it instead runs the
// reproducible heavy-hitters selector over the sample, whose output
// set is identical across runs w.h.p. It returns the collected items
// and their total (distinct) profit mass.
func (l *LCAKP) collectLarge(ctx context.Context, fresh *rng.Source) (map[int]knapsack.Item, float64, error) {
	eps2 := l.params.Eps2()
	large := make(map[int]knapsack.Item)
	seenItems := make(map[int]knapsack.Item)
	ids := make([]int, 0, l.params.LargeSamples)
	mass := 0.0
	for s := 0; s < l.params.LargeSamples; s++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("core: large-item sampling aborted at sample %d: %w", s, err)
		}
		idx, it, err := l.access.Sample(ctx, fresh)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: large-item sample %d: %w", ErrSampling, s, err)
		}
		if l.params.UseHeavyHitters {
			ids = append(ids, idx)
			seenItems[idx] = it
			continue
		}
		if _, seen := large[idx]; seen {
			continue
		}
		if it.Profit > eps2 {
			large[idx] = it
			mass += it.Profit
		}
	}
	if !l.params.UseHeavyHitters {
		return large, mass, nil
	}

	hh := repro.HeavyHitters{Threshold: eps2}
	hits, err := hh.Hits(ids, l.sharedRoot.Derive("heavy-hitters"))
	if err != nil {
		return nil, 0, fmt.Errorf("core: heavy hitters: %w", err)
	}
	for _, idx := range hits {
		it := seenItems[idx]
		large[idx] = it
		mass += it.Profit
	}
	return large, mass, nil
}

// estimateEPS draws the quantile sample Q̄, keeps the efficiencies of
// non-large items, and computes the EPS thresholds ẽ_1 ≥ … ≥ ẽ_t' with
// the configured reproducible quantile estimator. The estimator's
// internal randomness is derived from the shared seed per threshold
// index, so independent runs reconstruct identical random choices.
// It also returns the efficiencies of the sampled SMALL items plus the
// total draw count, the inputs of the degenerate-case weight guard.
func (l *LCAKP) estimateEPS(ctx context.Context, fresh *rng.Source, largeMass float64) ([]float64, []float64, int, error) {
	eps := l.params.Epsilon
	eps2 := l.params.Eps2()

	q := (eps + eps2/2) / (1 - largeMass)
	if q <= 0 || q >= 1 {
		// Small mass below ε + ε²/2: a single band (or none) suffices.
		return nil, nil, 0, nil
	}
	t := int(1 / q)
	if t == 0 {
		return nil, nil, 0, nil
	}

	// Draw the sample and keep the efficiencies of small+garbage items
	// as domain indices (for the quantile estimator) and of small items
	// as raw values (for the weight guard).
	sampleSrc := fresh.Derive("draw")
	indices := make([]int, 0, l.params.QuantileSamples)
	smallEffs := make([]float64, 0, l.params.QuantileSamples)
	for s := 0; s < l.params.QuantileSamples; s++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, fmt.Errorf("core: EPS sampling aborted at sample %d: %w", s, err)
		}
		_, it, err := l.access.Sample(ctx, sampleSrc)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%w: EPS sample %d: %w", ErrSampling, s, err)
		}
		if it.Profit > eps2 {
			continue
		}
		eff := it.Efficiency()
		indices = append(indices, l.domain.Index(eff))
		if eff >= eps2 {
			smallEffs = append(smallEffs, eff)
		}
	}
	if len(indices) == 0 {
		return nil, nil, 0, nil
	}
	// One sample, sorted once, serves every threshold's quantile.
	sample, err := repro.NewSample(indices, l.domain.Size())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: EPS sample: %w", err)
	}

	thresholds := make([]float64, 0, t)
	for k := 1; k <= t; k++ {
		p := 1 - float64(float64(k)*q)
		if p < 0 {
			p = 0
		}
		shared := l.sharedRoot.DeriveIndex("eps-threshold", k)
		freshK := fresh.DeriveIndex("estimator", k)
		idx, err := l.params.Estimator.Quantile(sample, p, shared, freshK)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("core: EPS quantile %d: %w", k, err)
		}
		v := l.domain.Value(idx)
		// Enforce the non-increasing invariant against estimator
		// wobble; the clamp is deterministic, so it preserves
		// cross-run consistency.
		if n := len(thresholds); n > 0 && v > thresholds[n-1] {
			v = thresholds[n-1]
		}
		thresholds = append(thresholds, v)
	}

	// Lines 11-14: if the last threshold fell below ε² it lies inside
	// garbage territory; drop it (t' = t-1).
	if n := len(thresholds); n > 0 && thresholds[n-1] < eps2 {
		thresholds = thresholds[:n-1]
	}
	return thresholds, smallEffs, l.params.QuantileSamples, nil
}

// buildTilde constructs the proxy instance Ĩ (step 3 of the
// Ĩ-construction algorithm): all collected large items verbatim, plus
// ⌊1/ε⌋ copies of the representative (ε², ε²/ẽ_{k+1}) per EPS band.
func (l *LCAKP) buildTilde(large map[int]knapsack.Item, thresholds []float64) *tildeInstance {
	eps := l.params.Epsilon
	eps2 := l.params.Eps2()
	copies := int(1 / eps)

	tilde := &tildeInstance{capacity: l.access.Capacity()}
	// Every item of Ĩ is known up front: the large items plus `copies`
	// band representatives per threshold.
	tilde.items = make([]tildeItem, 0, len(large)+len(thresholds)*copies)
	// Large items enter Ĩ in sorted original-index order. The later
	// sortByEfficiency re-establishes a total order anyway, but
	// building from a map range would make every intermediate state
	// depend on runtime-random iteration order — the exact leak the
	// mapiter analyzer forbids on the solver path.
	indices := make([]int, 0, len(large))
	for idx := range large {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	for _, idx := range indices {
		it := large[idx]
		tilde.items = append(tilde.items, tildeItem{
			item: it,
			eff:  it.Efficiency(),
			tag:  tildeTag{origIndex: idx, band: -1},
		})
	}
	for band, e := range thresholds {
		if e <= 0 {
			continue
		}
		rep := knapsack.Item{Profit: eps2, Weight: eps2 / e}
		for c := 0; c < copies; c++ {
			tilde.items = append(tilde.items, tildeItem{
				item: rep,
				eff:  e,
				tag:  tildeTag{origIndex: -1, band: band},
			})
		}
	}
	return tilde
}

// Solve materializes the full solution C(I, seed) by computing one
// rule and applying it to every item of the instance (MAPPING-GREEDY).
// It requires the in-memory instance and exists for validation,
// experiments, and baselines — not for LCA use.
func (l *LCAKP) Solve(ctx context.Context, in *knapsack.Instance) (*knapsack.Solution, Rule, error) {
	fresh := l.freshBase.DeriveIndex("solve", int(l.runNonce.Add(1)))
	rule, err := l.ComputeRule(ctx, fresh)
	if err != nil {
		return nil, Rule{}, err
	}
	return rule.MappingGreedy(in), rule, nil
}
