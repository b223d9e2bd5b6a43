package fleet

import (
	"context"
	"fmt"
	"time"

	"nora/internal/core"
	"nora/internal/engine"
)

// Scriptable failure scenarios. Two production situations the fleet layer
// exists to simulate:
//
//   - Chip failure mid-traffic: Drain (stop routing new work, let in-flight
//     finish) or Fail (hard down), then Restore. The router excludes any
//     replica with a non-up chip, so traffic shifts to survivors with zero
//     dropped in-flight requests on a drain.
//   - Rolling re-programming: each chip in turn drains, goes down for a
//     program-verify cycle, and comes back with a fresh fault realization
//     (Reprogram / RollingReprogram). Re-programming re-keys the chip's
//     deployments with a bumped salt, so the new hardware state is a new —
//     but still deterministic — draw.

// Drain stops routing new requests to the chip; in-flight work completes.
func (f *Fleet) Drain(id string) error { return f.setState(id, ChipDraining) }

// Fail marks the chip hard-down (crash, power loss). In-flight requests on
// a simulated chip still complete — the simulation has no way to kill a
// forward pass — but no new work routes to it.
func (f *Fleet) Fail(id string) error { return f.setState(id, ChipDown) }

// Restore returns a drained/failed chip to service.
func (f *Fleet) Restore(id string) error { return f.setState(id, ChipUp) }

func (f *Fleet) setState(id string, st ChipState) error {
	c := f.Chip(id)
	if c == nil {
		return fmt.Errorf("fleet: unknown chip %q", id)
	}
	c.state.Store(int32(st))
	return nil
}

// awaitIdle blocks until the chip has no in-flight requests (poll-based;
// the simulated chip has no completion signal) or ctx ends.
func (f *Fleet) awaitIdle(ctx context.Context, c *Chip) error {
	for c.Inflight() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Reprogram cycles one chip through program-verify downtime: drain, wait
// for in-flight work to finish, go down, re-program every replica hosted
// on the chip (a fresh fault/drift/G_max realization via a bumped
// deployment salt), then return to service. Traffic shifts to the surviving
// replicas for the duration; new acquisitions see the re-programmed
// hardware.
func (f *Fleet) Reprogram(ctx context.Context, id string) error {
	c := f.Chip(id)
	if c == nil {
		return fmt.Errorf("fleet: unknown chip %q", id)
	}
	if err := f.Drain(id); err != nil {
		return err
	}
	if err := f.awaitIdle(ctx, c); err != nil {
		return err
	}
	c.state.Store(int32(ChipDown))
	gen := c.reprograms.Add(1)
	for _, g := range f.Groups() {
		for _, r := range g.Replicas() {
			if r.chip == c {
				r.reprogram(f.eng, gen)
			}
		}
	}
	c.state.Store(int32(ChipUp))
	return nil
}

// RollingReprogram re-programs every currently-up chip, one at a time, so
// the fleet keeps serving from survivors throughout.
func (f *Fleet) RollingReprogram(ctx context.Context) error {
	for _, c := range f.chips {
		if c.State() != ChipUp {
			continue
		}
		if err := f.Reprogram(ctx, c.Spec.ID); err != nil {
			return err
		}
	}
	return nil
}

// reprogram rebuilds the replica's deployment with a salt bumped by its
// chip's re-program generation, swapping the new hardware state (and
// recomputed health) in atomically. Digital replicas have no analog
// hardware to re-program.
func (r *Replica) reprogram(eng *engine.Engine, gen int64) {
	if r.req.Mode == core.DeployDigital {
		return
	}
	req := r.req
	req.Salt = fmt.Sprintf("%s/reprog%d", req.Salt, gen)
	dep := eng.Deploy(req)
	health := healthOf(dep)

	r.mu.Lock()
	r.dep, r.health = dep, health
	r.mu.Unlock()
}
