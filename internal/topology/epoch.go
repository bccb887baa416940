package topology

import (
	"fmt"

	"sinrmac/internal/geom"
	"sinrmac/internal/sinr"
)

// This file implements the epoch-based mobility API of Deployment: nodes
// move, and the node set stays fixed.
//
// # Epoch lifecycle
//
// Moves are batched: MoveNode queues a move, and CommitEpoch applies the
// whole batch atomically. The commit revalidates the unit-distance
// invariant for every moved node against the candidate layout and, on any
// error, leaves the deployment completely unchanged (the queued batch is
// cleared either way, so callers can rebuild and retry a rejected epoch).
//
// A successful commit invalidates every cached derived quantity — the
// strong and approximation graphs and Λ are re-induced lazily from the
// post-epoch positions — and returns a sinr.EpochDelta describing the
// change: downstream consumers apply it to live SINR evaluators
// (sinr.FastChannel.ApplyEpoch patches its indices incrementally) and to a
// running simulation (sim.Engine.ApplyEpoch, where every automaton keeps
// its id and state). The delta owns a copy of the post-epoch positions, so
// it stays valid across later epochs.
//
// CommitEpoch must not race with concurrent readers of the deployment;
// between epochs concurrent use remains safe.

type epochMove struct {
	id  int
	pos geom.Point
}

// MoveNode queues moving node id to p for the next CommitEpoch.
func (d *Deployment) MoveNode(id int, p geom.Point) {
	d.pending = append(d.pending, epochMove{id: id, pos: p})
}

// CommitEpoch applies the queued moves, rejects non-finite or out-of-range
// targets, revalidates the unit-distance invariant for every moved node,
// invalidates the cached derived quantities and returns the delta
// describing the epoch. Each node may be moved at most once per epoch. On
// error the deployment is unchanged. The queued batch is consumed either
// way.
func (d *Deployment) CommitEpoch() (*sinr.EpochDelta, error) {
	moves := d.pending
	d.pending = d.pending[:0]
	if len(moves) == 0 {
		return nil, fmt.Errorf("topology: CommitEpoch on %q with no queued mutations", d.Name)
	}
	n := len(d.Positions)
	cand := append([]geom.Point(nil), d.Positions...)
	touched := make(map[int]bool, len(moves))
	for _, m := range moves {
		if m.id < 0 || m.id >= n {
			return nil, fmt.Errorf("topology: epoch on %q references node %d of %d", d.Name, m.id, n)
		}
		if touched[m.id] {
			return nil, fmt.Errorf("topology: epoch on %q touches node %d twice", d.Name, m.id)
		}
		touched[m.id] = true
		cand[m.id] = m.pos
	}
	// Dirty = every node whose position changed; a move onto the node's
	// own position is a no-op.
	var dirty []int
	for i := range cand {
		if cand[i] != d.Positions[i] {
			dirty = append(dirty, i)
		}
	}
	// The spacing check cannot catch a NaN (every comparison with it is
	// false), so the moved positions first go through the channel's bounds.
	if err := (&sinr.EpochDelta{Dirty: dirty, Positions: cand}).Validate(n); err != nil {
		return nil, fmt.Errorf("topology: epoch on %q: %w", d.Name, err)
	}
	if err := validateEpochSpacing(d.Name, cand, dirty); err != nil {
		return nil, err
	}

	// Commit: swap the layout in and drop every cached derived quantity.
	d.Positions = cand
	d.cacheMu.Lock()
	d.strong, d.approx = nil, nil
	d.lambda, d.lambdaOK = 0, false
	d.cacheMu.Unlock()
	return &sinr.EpochDelta{Dirty: dirty, Positions: append([]geom.Point(nil), cand...)}, nil
}

// validateEpochSpacing checks the near-field normalisation for an epoch:
// every changed node must keep unit distance (with Validate's tolerance) to
// every other node of the candidate layout. Only pairs involving a changed
// node can newly violate, so only the dirty nodes' neighbourhoods are
// scanned, through a geom.Buckets grid: O(n + changed · local density)
// rather than a full pairwise rescan. The error names the first violating
// node in dirty order and its lowest-numbered violating partner.
func validateEpochSpacing(name string, cand []geom.Point, dirty []int) error {
	if len(dirty) == 0 {
		return nil
	}
	grid := geom.NewBuckets(geom.BoundingBox(cand), 1, len(cand))
	grid.Fill(cand)
	var near []int32
	for _, id := range dirty {
		p := cand[id]
		bad, badDist := -1, 0.0
		near = grid.AppendNear(p, near[:0])
		for _, j := range near {
			if int(j) == id || (bad >= 0 && int(j) > bad) {
				continue
			}
			if dist := p.Dist(cand[j]); dist < 1-1e-9 {
				bad, badDist = int(j), dist
			}
		}
		if bad >= 0 {
			return fmt.Errorf("topology: epoch on %q violates the near-field bound: nodes %d and %d at distance %v < 1",
				name, id, bad, badDist)
		}
	}
	return nil
}

// Clone returns an independent deployment with the same name, parameters
// and a private copy of the positions. Cached derived quantities and queued
// epoch operations are not carried over (they are re-derived lazily).
// Churn experiments clone the shared per-sweep-point deployment so each
// trial can commit its own epochs.
func (d *Deployment) Clone() *Deployment {
	return &Deployment{
		Name:      d.Name,
		Positions: append([]geom.Point(nil), d.Positions...),
		Params:    d.Params,
	}
}
