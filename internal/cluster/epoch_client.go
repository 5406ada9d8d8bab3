package cluster

import (
	"context"
	"fmt"

	"lcakp/internal/engine"
)

// Epoch-aware client calls (protocol v4). Every method returns the
// epoch the server actually served alongside the answers: a request
// pinning a concrete epoch gets it echoed verbatim (the server either
// serves exactly that version or errors), and a request sent with
// engine.EpochCurrent learns which epoch "current" resolved to — the
// key the caller needs to cache, compare, or re-pin the answers under.

// requestEpoch is request plus the v4 epoch header.
func (c *LCAClient) requestEpoch(msgType uint8, payload []byte, id *engine.TenantID, ep engine.EpochID) frame {
	f := c.request(msgType, payload, id)
	f.epoch = ep
	f.hasEpoch = true
	return f
}

// InSolutionEpoch asks whether item i is in the solution of one sealed
// epoch of the connection's default tenant.
func (c *LCAClient) InSolutionEpoch(ctx context.Context, ep engine.EpochID, i int) (bool, engine.EpochID, error) {
	return c.inSolutionEpoch(ctx, i, nil, ep)
}

// InSolutionEpochTenant is InSolutionEpoch addressed to tenant id,
// overriding any connection-level default for this call.
func (c *LCAClient) InSolutionEpochTenant(ctx context.Context, id engine.TenantID, ep engine.EpochID, i int) (bool, engine.EpochID, error) {
	return c.inSolutionEpoch(ctx, i, &id, ep)
}

func (c *LCAClient) inSolutionEpoch(ctx context.Context, i int, id *engine.TenantID, ep engine.EpochID) (bool, engine.EpochID, error) {
	var in bool
	var served engine.EpochID
	err := c.conn.roundTrip(ctx, c.requestEpoch(msgInSol, putU64(nil, uint64(i)), id, ep), func(resp frame) error {
		if len(resp.payload) != 1 {
			return fmt.Errorf("%w: InSolution payload %d bytes", ErrBadMessage, len(resp.payload))
		}
		in, served = resp.payload[0] == 1, respEpoch(resp, ep)
		return nil
	})
	if err != nil {
		return false, 0, err
	}
	return in, served, nil
}

// InSolutionBatchEpoch is InSolutionBatch against one sealed epoch of
// the connection's default tenant.
func (c *LCAClient) InSolutionBatchEpoch(ctx context.Context, ep engine.EpochID, indices []int) ([]bool, engine.EpochID, error) {
	return c.inSolutionBatchEpoch(ctx, indices, nil, ep)
}

// InSolutionBatchEpochTenant is the gateway's epoch-pinned fan-out
// RPC: one pooled connection serves every (tenant, epoch), with each
// frame naming its full consistency key.
func (c *LCAClient) InSolutionBatchEpochTenant(ctx context.Context, id engine.TenantID, ep engine.EpochID, indices []int) ([]bool, engine.EpochID, error) {
	return c.inSolutionBatchEpoch(ctx, indices, &id, ep)
}

func (c *LCAClient) inSolutionBatchEpoch(ctx context.Context, indices []int, id *engine.TenantID, ep engine.EpochID) ([]bool, engine.EpochID, error) {
	if len(indices) == 0 {
		return nil, ep, nil
	}
	payload := make([]byte, 0, 8*len(indices)) //lint:alloc one exactly-sized request payload per batch RPC against a wire round trip
	for _, i := range indices {
		payload = putU64(payload, uint64(i))
	}
	var answers []bool
	var served engine.EpochID
	//lint:alloc measured: the decode closure does not escape roundTrip, so it stays on the stack (BenchmarkRemoteQueryItem pins 3 allocs/op)
	err := c.conn.roundTrip(ctx, c.requestEpoch(msgInSolBatch, payload, id, ep), func(resp frame) error {
		var err error
		answers, err = decodeBatchAnswers(resp, len(indices))
		served = respEpoch(resp, ep)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return answers, served, nil
}

// respEpoch extracts the served-epoch echo, falling back to the
// requested epoch when a (nominally impossible) epoch-less response
// arrives for an epoch-flagged request.
func respEpoch(resp frame, requested engine.EpochID) engine.EpochID {
	if resp.hasEpoch {
		return resp.epoch
	}
	return requested
}

// FetchArtifactEpoch retrieves one sealed epoch's materialized
// artifact: (tenant, epoch) is the content address. Epoch 0 is the
// pre-epoch address and stays fetchable from old peers through
// FetchArtifact.
//
//lint:coldpath artifact fetches run once per (peer, tenant, epoch) residency, not per query
func (c *LCAClient) FetchArtifactEpoch(ctx context.Context, id engine.TenantID, ep engine.EpochID) ([]byte, error) {
	if ep == 0 {
		return c.FetchArtifact(ctx, id)
	}
	return c.fetch(ctx, c.requestEpoch(msgStoreFetch, nil, &id, ep))
}

// PushArtifact proactively replicates an encoded artifact to the peer
// (MsgStorePush): the bytes are self-addressing, so no tenant header
// travels. The receiver checksum-verifies and installs them without
// re-pushing — one hop, owner to successor.
//
//lint:coldpath artifact pushes run once per materialized epoch, not per query
func (c *LCAClient) PushArtifact(ctx context.Context, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty artifact push", ErrBadMessage)
	}
	return c.conn.roundTrip(ctx, frame{msgType: msgStorePush, payload: data}, nil)
}
