// Package sinr implements the physical (SINR) interference model of the
// paper, Section 4.2.
//
// A transmission from v is received at u iff
//
//	SINR_u(v) = (P / d(v,u)^α) / (Σ_{w∈S\{u,v}} P / d(w,u)^α + N) >= β
//
// where S is the set of concurrently transmitting nodes, P the uniform
// transmission power, N the ambient noise and α the path-loss exponent.
// The transmission range is R = (P/(βN))^{1/α}; R_a = a·R for a ∈ (0,1]
// defines the strong-connectivity radii R_{1-ε} and R_{1-2ε} used by the
// induced graphs G_{1-ε} and G_{1-2ε}.
//
// Two slot evaluators implement the predicate: the naive reference
// (Channel.SlotReceptions) and FastChannel, which runs one regime at every
// deployment size: the cell lattice (shard.go), whose memory is
// O(occupied cells + nodes) with no per-pair state. It indexes the
// deployment with one geom.CellIndex; a lattice too stretched for its
// offset tables builds none and declines the certificates. Each slot
// dispatches further: the sender-centric sparse path when the
// transmitters' estimated ball coverage is low, an O(k) short-circuit on
// all-transmit slots, the certified bounds (bounds.go) when the
// transmitter count dwarfs the occupied cells, and the exact dense scan
// otherwise. All paths are decision-exact: because β > 1 at most one sender
// can decode at a receiver, so the only output is a discrete decision, and
// the optimised paths either prove their decision identical to the
// reference's floating-point arithmetic (conservative culling slack;
// interference bounds widened by a Θ(k)·ulp rounding slack, which are also
// what crosses shard boundaries, so shards never read each other's
// per-receiver state) or fall back to it.
// The evaluator oracle (oracle_test.go) holds every path bit-identical to
// the reference at any stripe partition and worker count.
//
// # Pow-free arithmetic
//
// The hot paths never call math.Pow or math.Hypot. Params.ReceivedPower
// evaluates the integer path-loss exponents α ∈ {3, 4} by plain
// multiplication — bit-identical to math.Pow for those exponents (see the
// doc of ReceivedPower for the argument, and TestReceivedPowerPowFree for
// the pin) — and distances come from a fused Sqrt(dx²+dy²) over a
// structure-of-arrays coordinate mirror. FastChannel computes every power
// with one row kernel (FastChannel.powerRow, pinned bit-identical to the
// ReceivedPower(Point.Dist) composition, total included, by
// TestPairPowerKernelBitIdentical): one call fills a receiver's powers
// from a whole coordinate row, with the exponent switch outside the loops,
// one loop body per case, because a per-pair function holding the switch
// is too large for the inliner and would cost every pair a call.
// Threshold comparisons in the sparse path and the lattice stay in the
// squared-distance domain (DistSq ≤ r², shared with the geom range
// queries), which is exact because Sqrt is monotone and correctly rounded;
// received powers themselves are always computed from the rounded
// distance, never from its square, so no decision moves.
//
// Nodes may move: committed topology epochs (sinr.EpochDelta), batches of
// moves over the fixed node set, are applied to live evaluators via
// ApplyEpoch — the naive channel copies the new positions, FastChannel
// patches its indices incrementally (see churn.go for the epoch lifecycle
// and the per-index patch rules) — and the evaluator oracle holds the
// patched evaluator bit-identical to the naive channel.
package sinr

import (
	"errors"
	"fmt"
	"math"

	"sinrmac/internal/geom"
)

// Params holds the physical-layer constants of the SINR model.
type Params struct {
	// Alpha is the path-loss exponent. The paper assumes Alpha > 2
	// (typically in (2, 6]).
	Alpha float64
	// Beta is the minimum SINR threshold required for successful
	// reception, Beta > 1.
	Beta float64
	// Noise is the ambient noise power N > 0.
	Noise float64
	// Power is the uniform transmission power P > 0 used by all nodes.
	Power float64
	// Epsilon is the strong-connectivity slack ε ∈ (0, 1/2): reliable
	// local broadcast is provided on G_{1-ε} and approximate progress is
	// measured on G_{1-2ε}.
	Epsilon float64
}

// DefaultParams returns a parameter set with α = 3, β = 1.5, unit noise and
// ε = 0.1, with the power chosen so that the transmission range R is the
// given value. These are the defaults used by examples and experiments.
//
//sinrlint:allow powfree construction-time parameter derivation, runs once per experiment
func DefaultParams(transmissionRange float64) Params {
	p := Params{
		Alpha:   3,
		Beta:    1.5,
		Noise:   1,
		Epsilon: 0.1,
	}
	// R = (P/(βN))^{1/α}  =>  P = βN R^α.
	p.Power = p.Beta * p.Noise * math.Pow(transmissionRange, p.Alpha)
	return p
}

// Validate reports whether the parameters satisfy the model assumptions of
// Section 4.6 of the paper.
func (p Params) Validate() error {
	switch {
	case p.Alpha <= 2:
		return fmt.Errorf("sinr: path-loss exponent alpha = %v must exceed 2", p.Alpha)
	case p.Beta <= 1:
		return fmt.Errorf("sinr: SINR threshold beta = %v must exceed 1", p.Beta)
	case p.Noise <= 0:
		return fmt.Errorf("sinr: noise = %v must be positive", p.Noise)
	case p.Power <= 0:
		return fmt.Errorf("sinr: power = %v must be positive", p.Power)
	case p.Epsilon <= 0 || p.Epsilon >= 0.5:
		return fmt.Errorf("sinr: epsilon = %v must lie in (0, 0.5)", p.Epsilon)
	}
	return nil
}

// Range returns the transmission range R = (P/(βN))^{1/α}: the maximum
// distance at which a message can be received when no other node transmits.
//
//sinrlint:allow powfree construction-time derived quantity, never on a slot path
func (p Params) Range() float64 {
	return math.Pow(p.Power/(p.Beta*p.Noise), 1/p.Alpha)
}

// RangeA returns R_a = a · R.
func (p Params) RangeA(a float64) float64 {
	return a * p.Range()
}

// StrongRange returns R_{1-ε}, the radius of the reliable-broadcast graph
// G_{1-ε}.
func (p Params) StrongRange() float64 {
	return p.RangeA(1 - p.Epsilon)
}

// ReceivedPower returns the power received over distance d, applying the
// near-field clamp of the paper: distances below 1 are treated as 1 so that
// a receiver never observes more power than was transmitted.
//
// The integer path-loss exponents a valid channel can have (Validate
// requires α > 2) take a multiplication fast path that is bit-identical to
// math.Pow. math.Pow(d, k) for k ∈ {3, 4} reduces (via Frexp
// renormalisation, whose doublings are exact) to the same repeated
// squaring sequence — (d·d)·d, (d·d)·(d·d) — with one IEEE rounding per
// multiply, and floating-point rounding is scale-invariant, so the
// products below reproduce Pow's result on every finite d ≥ 1, including
// the overflow threshold (the intermediates are monotone in d). The
// differential suite (TestReceivedPowerPowFree) pins this equality; the
// exponent dispatch is two float compares, which FastChannel hoists out of
// its pair loops entirely (its row kernel switches once per row on a
// precomputed case).
//
//sinrlint:allow powfree generic-α reference fallback; integer α ∈ {3,4} takes the multiplication cases above it
func (p Params) ReceivedPower(d float64) float64 {
	if d < 1 {
		d = 1
	}
	switch p.Alpha {
	case 3:
		return p.Power / (d * d * d)
	case 4:
		dd := d * d
		return p.Power / (dd * dd)
	}
	return p.Power / math.Pow(d, p.Alpha)
}

// ErrMismatchedPositions is returned by NewChannel when the position slice
// is empty.
var ErrMismatchedPositions = errors.New("sinr: channel requires at least one node position")

// MaxCoordinate bounds the magnitude of every node coordinate a channel
// accepts. Cells of the fast evaluator's index are at least one unit wide,
// so lattice cell coordinates, spans and offsets then stay far inside the
// int range, and positions keep a resolution of about 1e-4 units.
const MaxCoordinate = 1e12

// checkPosition rejects non-finite coordinates and magnitudes beyond
// MaxCoordinate for node i at p.
func checkPosition(i int, p geom.Point) error {
	// The negated form also rejects NaN, which fails every comparison.
	if !(math.Abs(p.X) <= MaxCoordinate && math.Abs(p.Y) <= MaxCoordinate) {
		return fmt.Errorf("sinr: node %d at %v: coordinates must be finite with magnitude at most %g", i, p, MaxCoordinate)
	}
	return nil
}

// Channel evaluates the SINR reception predicate for a fixed deployment of
// nodes. It owns the node positions; protocol automata never access them,
// matching the paper's assumption that locations are unknown to nodes.
type Channel struct {
	params Params
	pos    []geom.Point
}

// NewChannel returns a channel for the given parameters and node positions.
// Node i is located at pos[i]; every coordinate must be finite with
// magnitude at most MaxCoordinate.
func NewChannel(params Params, pos []geom.Point) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(pos) == 0 {
		return nil, ErrMismatchedPositions
	}
	for i, p := range pos {
		if err := checkPosition(i, p); err != nil {
			return nil, err
		}
	}
	cp := make([]geom.Point, len(pos))
	copy(cp, pos)
	return &Channel{params: params, pos: cp}, nil
}

// Params returns the channel's physical parameters.
func (c *Channel) Params() Params { return c.params }

// NumNodes returns the number of nodes in the deployment.
func (c *Channel) NumNodes() int { return len(c.pos) }

// Positions returns a copy of the node positions. It is intended for
// analysis code (graph induction, experiment reporting), not for protocols.
func (c *Channel) Positions() []geom.Point {
	cp := make([]geom.Point, len(c.pos))
	copy(cp, c.pos)
	return cp
}

// Dist returns the Euclidean distance between nodes u and v.
func (c *Channel) Dist(u, v int) float64 {
	return c.pos[u].Dist(c.pos[v])
}

// Interference returns the total interference power observed at node recv
// from every node in transmitters except recv itself and the excluded
// sender (pass sender < 0 to include all transmitters).
func (c *Channel) Interference(recv int, transmitters []int, sender int) float64 {
	total := 0.0
	for _, w := range transmitters {
		if w == recv || w == sender {
			continue
		}
		total += c.params.ReceivedPower(c.Dist(w, recv))
	}
	return total
}

// SINR returns the signal-to-interference-plus-noise ratio at node recv for
// the transmission of node sender, given the full set of concurrent
// transmitters.
func (c *Channel) SINR(recv, sender int, transmitters []int) float64 {
	signal := c.params.ReceivedPower(c.Dist(sender, recv))
	interference := c.Interference(recv, transmitters, sender)
	return signal / (interference + c.params.Noise)
}

// Decodes reports whether node recv successfully decodes the transmission
// of node sender when the nodes in transmitters transmit concurrently.
// A node that is itself transmitting never decodes (half-duplex), and a
// node never decodes its own transmission.
func (c *Channel) Decodes(recv, sender int, transmitters []int) bool {
	if recv == sender {
		return false
	}
	for _, w := range transmitters {
		if w == recv {
			return false // half-duplex: a transmitting node cannot receive
		}
	}
	return c.SINR(recv, sender, transmitters) >= c.params.Beta
}

// Reception describes the outcome of one slot at one listening node.
type Reception struct {
	// Sender is the index of the node whose frame was decoded, or -1 if
	// nothing was decoded this slot.
	Sender int
}

// ChannelEvaluator evaluates the SINR reception predicate for one
// communication slot. Two implementations exist: the naive reference scan on
// *Channel itself and the arena-backed, worker-parallel *FastChannel. Both
// produce identical Reception slices for the same deployment and transmitter
// set; the evaluator oracle (TestEvaluatorOracle, FuzzEvaluatorOracle) keeps
// them in lock-step.
//
// Callers select a path explicitly: simulation drivers that only need the
// reference semantics pass the *Channel, performance-sensitive drivers wrap
// it with NewFastChannel.
type ChannelEvaluator interface {
	// Params returns the physical-layer parameters of the deployment.
	Params() Params
	// NumNodes returns the deployment size.
	NumNodes() int
	// SlotReceptions evaluates one slot: given the transmitting node ids it
	// returns, for every node, the sender it decodes (or -1). The returned
	// slice is indexed by node id, has length NumNodes(), and is only
	// guaranteed valid until the next SlotReceptions call (implementations
	// may reuse it as scratch); callers that retain it must copy.
	//
	// Slot-input perturbation contract: the transmitter list need not come
	// from protocol automata — a fault layer (sim.FaultHook, internal/fault)
	// may append adversarially injected ids before evaluation. Injected
	// transmitters are physically indistinguishable from real ones: they
	// contribute interference at every receiver and are half-duplex (an
	// injected node decodes nothing that slot). Every id must be a valid
	// node index. Duplicates are legal, and every occurrence counts: each
	// adds the node's power to the total a receiver hears, so a repeated
	// sender interferes with its own signal (the evaluator oracle's slot
	// sets repeat ids and pin this for every evaluator). Callers may
	// mutate the returned slice (e.g. scrubbing entries to Sender = -1) —
	// implementations reset every entry on the next call.
	SlotReceptions(transmitters []int) []Reception
}

// ParallelEvaluator is implemented by evaluators whose receiver scan can run
// on multiple goroutines. The simulation engine wires its worker count into
// any evaluator implementing this interface.
type ParallelEvaluator interface {
	ChannelEvaluator
	// SetWorkers bounds the number of goroutines used per slot evaluation.
	// Zero or negative restores the default (GOMAXPROCS).
	SetWorkers(workers int)
}

var _ ChannelEvaluator = (*Channel)(nil)

// SlotReceptions evaluates one communication slot: given the set of
// transmitting nodes, it returns for every node the sender it decodes (or
// -1). Because β > 1, at most one sender can satisfy the SINR condition at
// any receiver, so the result is unambiguous; the implementation still
// scans all transmitters and keeps the decodable one.
//
// The returned slice is indexed by node id and has length NumNodes().
//
// This is the naive O(n·k) reference evaluator: it allocates fresh result
// and scratch storage on every call and recomputes every received power. It
// is deliberately kept simple — FastChannel is differentially tested against
// it — and remains the default path of sim.Engine.
func (c *Channel) SlotReceptions(transmitters []int) []Reception {
	out := make([]Reception, len(c.pos))
	for i := range out {
		out[i].Sender = -1
	}
	if len(transmitters) == 0 {
		return out
	}
	transmitting := make(map[int]bool, len(transmitters))
	for _, t := range transmitters {
		transmitting[t] = true
	}
	// Precompute total received power at every node from all transmitters;
	// then SINR for sender s at receiver r is P_s / (total - P_s + N).
	totals := make([]float64, len(c.pos))
	for r := range c.pos {
		if transmitting[r] {
			continue
		}
		for _, s := range transmitters {
			totals[r] += c.params.ReceivedPower(c.Dist(s, r))
		}
	}
	for r := range c.pos {
		if transmitting[r] {
			continue
		}
		for _, s := range transmitters {
			signal := c.params.ReceivedPower(c.Dist(s, r))
			if signal/(totals[r]-signal+c.params.Noise) >= c.params.Beta {
				out[r].Sender = s
				break
			}
		}
	}
	return out
}

// MaxContentionBound returns the paper's coarse bound 4Λ² on the number of
// nodes within transmission range R₁ of any node, given Λ (the ratio of
// R_{1-ε} to the minimum pairwise distance). It is used by the
// acknowledgment algorithm, which only knows a polynomial bound on Λ.
func MaxContentionBound(lambda float64) float64 {
	return 4 * lambda * lambda
}

// Lambda returns Λ = R_{1-ε} / dmin for the given deployment: the ratio of
// the strong-connectivity radius to the minimum pairwise node distance.
// It returns 1 when the deployment has fewer than two nodes.
func Lambda(params Params, pos []geom.Point) float64 {
	dmin := geom.MinPairwiseDist(pos)
	if math.IsInf(dmin, 1) || dmin <= 0 {
		return 1
	}
	l := params.StrongRange() / dmin
	if l < 1 {
		return 1
	}
	return l
}
