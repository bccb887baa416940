// Package core defines the paper's primary contribution as a reusable Go
// abstraction: the probabilistic abstract MAC layer (absMAC) for the SINR
// model, extended with the approximate-progress specification of
// Definition 7.1.
//
// The package contains three things:
//
//   - the event vocabulary and interfaces through which higher-level
//     protocols (global broadcast, consensus) use a MAC implementation:
//     bcast/ack/rcv/abort (Section 4.4);
//   - the timing/error-probability parameters (f_ack, f_prog, f_approg and
//     ε_ack, ε_prog, ε_approg) together with the closed-form bounds proven
//     in Theorems 5.1 and 9.1, used both to parameterise implementations
//     and to compare measured behaviour against theory;
//   - a trace recorder and specification checker that verify an execution
//     against the absMAC guarantees with respect to the strong graph
//     G := G_{1-ε} and the approximation graph G̃ := G_{1-2ε}, and measure
//     the empirical acknowledgment/progress/approximate-progress latencies
//     that the experiment harness reports.
package core

import (
	"fmt"
	"math"

	"sinrmac/internal/rng"
)

// MessageID identifies one bcast-message. Higher layers must use unique ids
// (the paper assumes w.l.o.g. that all local broadcast messages are unique).
type MessageID uint64

// Message is a local-broadcast message handed to the MAC layer.
type Message struct {
	// ID uniquely identifies the message.
	ID MessageID
	// Origin is the node at which the bcast event occurred.
	Origin int
	// Payload is the opaque application payload. The MAC layer treats
	// messages as black boxes that cannot be combined (Section 4.5).
	Payload interface{}
}

// EventKind enumerates the absMAC interface events.
type EventKind int

// The absMAC event kinds of Section 4.4.
const (
	// EventBcast marks a bcast(m)_i input from the environment to node i.
	EventBcast EventKind = iota + 1
	// EventRcv marks a rcv(m)_j output: node j received message m.
	EventRcv
	// EventAck marks an ack(m)_i output: node i's broadcast of m completed.
	EventAck
	// EventAbort marks an abort(m)_i input: node i aborted broadcasting m.
	EventAbort
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventBcast:
		return "bcast"
	case EventRcv:
		return "rcv"
	case EventAck:
		return "ack"
	case EventAbort:
		return "abort"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timestamped absMAC interface event.
type Event struct {
	// Kind is the event type.
	Kind EventKind
	// Node is the node at which the event occurred.
	Node int
	// Msg is the message the event refers to.
	Msg Message
	// Slot is the simulation slot at which the event occurred.
	Slot int64
}

// MAC is the downward-facing interface of one node's abstract MAC layer.
// Implementations are also sim.Node automata; higher layers call Bcast and
// Abort and receive OnRcv/OnAck callbacks on the Layer they registered.
type MAC interface {
	// Bcast starts the acknowledged local broadcast of m. The enhanced
	// absMAC allows at most one outstanding broadcast per node; callers
	// must wait for the ack (or abort) before broadcasting again.
	Bcast(slot int64, m Message)
	// Abort cancels an in-progress broadcast. No ack will be delivered.
	Abort(slot int64, id MessageID)
	// SetLayer registers the upward event consumer. It must be called
	// before the simulation starts.
	SetLayer(l Layer)
	// Busy reports whether the node has an ongoing broadcast.
	Busy() bool
}

// Layer is a higher-level protocol instance running on top of the MAC at
// one node (e.g. the global broadcast protocols of Section 12 or the
// consensus protocol of Section 5.1). Layers are driven by the MAC: the MAC
// attaches itself at initialisation, ticks the layer once per slot (the
// enhanced absMAC gives nodes access to time), and forwards rcv and ack
// events as they occur.
//
// Layer implementations must confine their state to one node, like
// sim.Node implementations.
type Layer interface {
	// Attach is called once before the simulation starts with the node id,
	// the node's MAC endpoint and a private random source.
	Attach(node int, mac MAC, src *rng.Source)
	// OnSlot is called once per simulation slot before the MAC's own work
	// for the slot. Layers typically use it to issue Bcast calls.
	OnSlot(slot int64)
	// OnRcv is invoked when the MAC layer delivers a received message.
	OnRcv(slot int64, m Message)
	// OnAck is invoked when a previously bcast message completes its
	// acknowledged local broadcast.
	OnAck(slot int64, m Message)
}

// NopLayer is a Layer that ignores every callback. It is embedded by layers
// that only need a subset of the callbacks and used directly when a MAC is
// driven manually (e.g. by tests).
type NopLayer struct{}

// Attach implements Layer.
func (NopLayer) Attach(int, MAC, *rng.Source) {}

// OnSlot implements Layer.
func (NopLayer) OnSlot(int64) {}

// OnRcv implements Layer.
func (NopLayer) OnRcv(int64, Message) {}

// OnAck implements Layer.
func (NopLayer) OnAck(int64, Message) {}

// Params collects the probabilistic absMAC parameters: the error
// probabilities requested by the user of the layer (Section 4.4, "The
// Probabilistic Abstract MAC Layer").
type Params struct {
	// EpsAck bounds the probability that an acknowledgment is not
	// delivered within f_ack.
	EpsAck float64
	// EpsProg bounds the probability that progress is not made within
	// f_prog.
	EpsProg float64
	// EpsApprog bounds the probability that approximate progress (w.r.t.
	// G̃ = G_{1-2ε}) is not made within f_approg.
	EpsApprog float64
}

// DefaultParams returns the error probabilities used by the examples:
// ε_ack = ε_prog = ε_approg = 0.1.
func DefaultParams() Params {
	return Params{EpsAck: 0.1, EpsProg: 0.1, EpsApprog: 0.1}
}

// Validate checks that all probabilities lie in (0, 1).
func (p Params) Validate() error {
	check := func(name string, v float64) error {
		if v <= 0 || v >= 1 {
			return fmt.Errorf("core: %s = %v must lie in (0, 1)", name, v)
		}
		return nil
	}
	if err := check("EpsAck", p.EpsAck); err != nil {
		return err
	}
	if err := check("EpsProg", p.EpsProg); err != nil {
		return err
	}
	return check("EpsApprog", p.EpsApprog)
}

// LogStar returns the iterated logarithm log*(x): the number of times log₂
// must be applied before the value drops to at most 1. LogStar(x) = 0 for
// x <= 1.
func LogStar(x float64) float64 {
	n := 0.0
	for x > 1 {
		x = math.Log2(x)
		n++
		if n > 64 { // defensive: log* of any representable float is tiny
			break
		}
	}
	return n
}

// log2c returns log₂(x) clamped below at 1, matching the convention that
// logarithmic factors in the bounds never vanish.
func log2c(x float64) float64 {
	if x <= 2 {
		return 1
	}
	return math.Log2(x)
}

// TheoreticalFack returns the Theorem 5.1 acknowledgment bound
//
//	O(Δ_{G_{1-ε}} · log(Λ/ε_ack) + log(Λ)·log(Λ/ε_ack))
//
// with unit constants. It is used to size timeouts and to report the
// predicted scaling next to measured values.
func TheoreticalFack(maxDegree int, lambda, epsAck float64) float64 {
	l := log2c(lambda / epsAck)
	return float64(maxDegree)*l + log2c(lambda)*l
}

// TheoreticalFapprog returns the Theorem 9.1 approximate-progress bound
//
//	O((log^α(Λ) + log*(1/ε_approg)) · log(Λ) · log(1/ε_approg))
//
// with unit constants.
func TheoreticalFapprog(lambda, alpha, epsApprog float64) float64 {
	invEps := 1 / epsApprog
	return (math.Pow(log2c(lambda), alpha) + LogStar(invEps)) * log2c(lambda) * log2c(invEps)
}

// TheoreticalFprogLowerBound returns the Theorem 6.1 lower bound on the
// progress delay of any absMAC implementation in the SINR model:
// f_prog >= Δ_{G_{1-ε}}.
func TheoreticalFprogLowerBound(maxDegree int) float64 {
	return float64(maxDegree)
}

// TheoreticalSMB returns the Theorem 12.7 global single-message broadcast
// bound O((D_{G_{1-2ε}} + log(n/ε_SMB)) · log^{α+1}(Λ)) with unit constants.
func TheoreticalSMB(diamApprox int, n int, lambda, alpha, epsSMB float64) float64 {
	return (float64(diamApprox) + log2c(float64(n)/epsSMB)) * math.Pow(log2c(lambda), alpha+1)
}

// TheoreticalMMB returns the Theorem 12.7 global multi-message broadcast
// bound with unit constants:
//
//	O(D_{G_{1-2ε}}·log^{α+1}(Λ) + k·(Δ_{G_{1-ε}} + polylog(nkΛ/ε))·log(nk/ε)).
func TheoreticalMMB(diamApprox, maxDegree, n, k int, lambda, alpha, epsMMB float64) float64 {
	nk := float64(n * k)
	polylog := math.Pow(log2c(nk*lambda/epsMMB), 2)
	return float64(diamApprox)*math.Pow(log2c(lambda), alpha+1) +
		float64(k)*(float64(maxDegree)+polylog)*log2c(nk/epsMMB)
}

// TheoreticalCons returns the Corollary 5.5 consensus bound
//
//	O(D_{G_{1-ε}}·(Δ_{G_{1-ε}} + log Λ)·log(nΛ/ε_CONS))
//
// with unit constants.
func TheoreticalCons(diamStrong, maxDegree, n int, lambda, epsCons float64) float64 {
	return float64(diamStrong) * (float64(maxDegree) + log2c(lambda)) * log2c(float64(n)*lambda/epsCons)
}
