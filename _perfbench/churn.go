package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/epoch"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/store"
)

// Each sealed epoch applies one mutation batch: churnReprices profit
// changes of up to ±25% and churnReplaces remove-then-add pairs that
// move an item to a new index. Both keep the total profit close to 1,
// so the instance stays within Definition 2.2's normalization.
const (
	churnReprices = 48
	churnReplaces = 8
	// maxEpochs bounds the epochs one run can seal.
	maxEpochs = 1 << 12
)

// rollover is one sealed epoch, as the churner timed it.
type rollover struct {
	epoch engine.EpochID
	start time.Time
	// seal is the timed Manager.Seal (Apply plus rule derivation),
	// derive the snapshot's SealWall (rule derivation alone).
	seal, derive, materialize, put time.Duration
	bytes                          int
	log                            []epoch.Mutation
}

// churner seals a new epoch on a fixed cadence beside the read traffic:
// stage a seeded mutation batch, Seal, materialize the epoch into the
// gateway's store, then roll the gateway and the replicas forward.
type churner struct {
	s    *stack
	seed uint64

	mu    sync.Mutex
	rolls []rollover
	// firstServed[e] is when a client first got an answer served at
	// epoch e (UnixNano, 0 until then).
	firstServed [maxEpochs]atomic.Int64
}

func newChurner(s *stack, seed uint64) *churner { return &churner{s: s, seed: seed} }

// run seals an epoch every interval until stop closes.
func (c *churner) run(ctx context.Context, every time.Duration, stop <-chan struct{}) error {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
			if err := c.roll(ctx); err != nil {
				return err
			}
		}
	}
}

func (c *churner) roll(ctx context.Context) error {
	mgr, st := c.s.mgr, c.s.st
	start := time.Now()
	cur, ok := mgr.Snapshot(mgr.Current())
	if !ok {
		return fmt.Errorf("current epoch %d not retained", mgr.Current())
	}
	next := cur.Epoch + 1
	if next >= maxEpochs {
		return fmt.Errorf("more than %d epochs in one run", maxEpochs)
	}
	if err := mgr.StageAll(mutationBatch(rng.New(c.seed).DeriveIndex("churn", int(next)), cur.Instance)); err != nil {
		return err
	}
	t := time.Now()
	snap, err := mgr.Seal(ctx)
	if err != nil {
		return err
	}
	r := rollover{epoch: snap.Epoch, start: start, seal: time.Since(t), derive: snap.SealWall, log: snap.Log}
	acc, err := oracle.NewSliceOracle(snap.Instance)
	if err != nil {
		return err
	}
	t = time.Now()
	art, err := store.MaterializeEpoch(ctx, acc, snap.Rule, instanceHash, c.s.tenant.Seed, uint64(snap.Epoch))
	if err != nil {
		return err
	}
	r.materialize = time.Since(t)
	r.bytes = art.Size()
	t = time.Now()
	if err := st.Put(ctx, art); err != nil {
		return err
	}
	r.put = time.Since(t)
	// Gateway first, replicas after: the gateway pins the new epoch on
	// every fallback frame, which replicas derive whatever their own
	// current epoch.
	if err := c.s.gw.SetTenantEpoch(c.s.tenant, snap.Epoch); err != nil {
		return err
	}
	for _, table := range c.s.tables {
		if err := table.SetCurrentEpoch(c.s.tenant, snap.Epoch); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.rolls = append(c.rolls, r)
	c.mu.Unlock()
	return nil
}

// mutationBatch draws one epoch's mutations against the current
// instance. Removed items (profit 0) are neither repriced nor copied.
func mutationBatch(src *rng.Source, inst *knapsack.Instance) []epoch.Mutation {
	muts := make([]epoch.Mutation, 0, churnReprices+2*churnReplaces)
	for k := 0; k < churnReprices; k++ {
		i := src.Intn(itemCount)
		if it := inst.Items[i]; it.Profit > 0 {
			muts = append(muts, epoch.Mutation{Op: epoch.OpReprice, Index: uint32(i),
				Profit: it.Profit * src.Uniform(0.8, 1.25), Weight: it.Weight})
		}
	}
	for k := 0; k < churnReplaces; k++ {
		i := src.Intn(itemCount)
		if it := inst.Items[i]; it.Profit > 0 {
			muts = append(muts, epoch.Mutation{Op: epoch.OpRemove, Index: uint32(i)},
				epoch.Mutation{Op: epoch.OpAdd, Profit: it.Profit, Weight: it.Weight})
		}
	}
	return muts
}

// observe notes that a client got an answer served at epoch ep.
func (c *churner) observe(ep engine.EpochID, at time.Time) {
	if ep == 0 || ep >= maxEpochs {
		return
	}
	if f := &c.firstServed[ep]; f.Load() == 0 {
		f.CompareAndSwap(0, at.UnixNano())
	}
}

// sealed returns the epochs sealed so far.
func (c *churner) sealed() []rollover {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]rollover(nil), c.rolls...)
}

// rolloverTimes returns, per sealed epoch some client saw, the time
// from staging its mutations to the first answer served at it.
func (c *churner) rolloverTimes() []float64 {
	var out []float64
	for _, r := range c.sealed() {
		if at := c.firstServed[r.epoch].Load(); at != 0 {
			out = append(out, ms(time.Duration(at-r.start.UnixNano())))
		}
	}
	return out
}

// verifyEpochs replays the sealed logs over the base instance and
// derives each epoch's canonical solution independently of the serving
// stack; every recorded answer must equal its epoch's canonical bit,
// and every canonical solution must fit the capacity. It returns the
// number of answers checked and of mismatches.
func verifyEpochs(ctx context.Context, in *inputs, rolls []rollover, answers *answerLog) (checked, mismatched int, violations []string, err error) {
	byEpoch := make(map[uint32][]answer)
	answers.each(func(a answer) { byEpoch[a.epoch] = append(byEpoch[a.epoch], a) })
	inst, ref := in.inst, in.ref
	for e := 0; ; e++ {
		for _, a := range byEpoch[uint32(e)] {
			checked++
			if ref[a.item] != a.in {
				mismatched++
			}
		}
		delete(byEpoch, uint32(e))
		if e == len(rolls) {
			break
		}
		if inst, err = epoch.Apply(inst, rolls[e].log); err != nil {
			return 0, 0, nil, fmt.Errorf("replay epoch %d: %w", e+1, err)
		}
		var weight float64
		if ref, weight, err = canonical(ctx, inst, in.params); err != nil {
			return 0, 0, nil, fmt.Errorf("derive epoch %d: %w", e+1, err)
		}
		if weight > inst.Capacity {
			violations = append(violations, fmt.Sprintf("epoch %d canonical solution weighs %v, over the capacity %v", e+1, weight, inst.Capacity))
		}
	}
	for e, as := range byEpoch {
		violations = append(violations, fmt.Sprintf("%d answers served at epoch %d, which was never sealed", len(as), e))
	}
	return checked, mismatched, violations, nil
}
