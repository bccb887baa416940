// Package consensus implements network-wide binary consensus on top of the
// abstract MAC layer, reproducing the shape of Corollary 5.5 of the paper:
// consensus in O(D_{G_{1-ε}} · f_ack) time using only the acknowledgment
// guarantee of the MAC layer.
//
// The paper obtains its consensus result by plugging the f_ack bound of
// Theorem 5.1 into the wPAXOS algorithm of Newport [44], whose running time
// depends only on f_ack (not f_prog). This package substitutes a simpler
// absMAC-based algorithm with the same structure and the same complexity:
// leader-value flooding. Every node repeatedly performs acknowledged local
// broadcasts of the highest node identifier it has heard of together with
// that node's initial value; after R rounds of acknowledged broadcasts
// (where R is an upper bound on the diameter of G_{1-ε}, knowledge the
// paper also grants to [44] via "knowledge of the network size"), the node
// decides the value associated with the highest identifier. Agreement
// follows because after i rounds every node within i hops of the maximum-id
// node knows its value; validity holds because only initial values are ever
// flooded; termination is by round counting.
package consensus

import (
	"fmt"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
)

// Value is a binary consensus input/output.
type Value uint8

// The two possible consensus values.
const (
	// Zero is the consensus value 0.
	Zero Value = 0
	// One is the consensus value 1.
	One Value = 1
)

// Payload is the application payload flooded by the consensus layer.
type Payload struct {
	// Leader is the highest node id the sender has heard of.
	Leader int
	// Value is the initial value of that node.
	Value Value
	// Round is the sender's current round number (for observability).
	Round int
}

// Config holds the consensus parameters.
type Config struct {
	// Rounds is the number of acknowledged broadcast rounds every node
	// performs before deciding. It must be at least the diameter of
	// G_{1-ε} for agreement to hold with the stated probability.
	Rounds int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("consensus: Rounds = %d must be positive", c.Rounds)
	}
	return nil
}

// Node is the per-node consensus layer. It implements core.Layer.
type Node struct {
	cfg     Config
	initial Value

	node int
	mac  core.MAC

	leader      int
	leaderValue Value
	round       int
	inFlight    bool
	decided     bool
	decision    Value
	decidedSlot int64
}

var _ core.Layer = (*Node)(nil)

// New returns a consensus layer with the given initial value.
func New(cfg Config, initial Value) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if initial != Zero && initial != One {
		return nil, fmt.Errorf("consensus: initial value %d is not binary", initial)
	}
	return &Node{cfg: cfg, initial: initial, leader: -1}, nil
}

// Attach implements core.Layer.
func (n *Node) Attach(node int, mac core.MAC, src *rng.Source) {
	n.node = node
	n.mac = mac
	n.leader = node
	n.leaderValue = n.initial
}

// msgID builds a unique message id from the node id and round number.
func (n *Node) msgID() core.MessageID {
	return core.MessageID(uint64(n.node+1)<<32 | uint64(n.round+1))
}

// OnSlot implements core.Layer: while undecided and idle, broadcast the
// current (leader, value) belief; once the round budget is exhausted,
// decide.
func (n *Node) OnSlot(slot int64) {
	if n.decided || n.mac == nil {
		return
	}
	if n.round >= n.cfg.Rounds {
		n.decided = true
		n.decision = n.leaderValue
		n.decidedSlot = slot
		return
	}
	if n.inFlight || n.mac.Busy() {
		return
	}
	n.inFlight = true
	n.mac.Bcast(slot, core.Message{
		ID:      n.msgID(),
		Origin:  n.node,
		Payload: Payload{Leader: n.leader, Value: n.leaderValue, Round: n.round},
	})
}

// OnRcv implements core.Layer: adopt the highest leader id seen so far.
func (n *Node) OnRcv(slot int64, m core.Message) {
	p, ok := m.Payload.(Payload)
	if !ok {
		return
	}
	if p.Leader > n.leader {
		n.leader = p.Leader
		n.leaderValue = p.Value
	}
}

// OnAck implements core.Layer: an acknowledged broadcast completes the
// node's current round.
func (n *Node) OnAck(slot int64, m core.Message) {
	if !n.inFlight {
		return
	}
	n.inFlight = false
	n.round++
}

// Decided reports whether the node has decided and, if so, on which value
// and at which slot.
func (n *Node) Decided() (bool, Value, int64) {
	return n.decided, n.decision, n.decidedSlot
}

// Round returns the node's current round number.
func (n *Node) Round() int { return n.round }

// Leader returns the node's current leader belief.
func (n *Node) Leader() int { return n.leader }

// CheckAgreement verifies the three consensus properties over a set of
// finished nodes with the given initial values: termination (all decided),
// agreement (all decisions equal) and validity (the decision was someone's
// initial value). It returns a descriptive error when a property fails.
func CheckAgreement(nodes []*Node, initials []Value) error {
	if len(nodes) == 0 {
		return nil
	}
	var first Value
	for i, n := range nodes {
		ok, v, _ := n.Decided()
		if !ok {
			return fmt.Errorf("consensus: node %d has not decided (termination violated)", i)
		}
		if i == 0 {
			first = v
			continue
		}
		if v != first {
			return fmt.Errorf("consensus: node %d decided %d but node 0 decided %d (agreement violated)", i, v, first)
		}
	}
	for _, init := range initials {
		if init == first {
			return nil
		}
	}
	return fmt.Errorf("consensus: decision %d is not any node's initial value (validity violated)", first)
}

// DecisionSlot returns the largest decision slot over all nodes and whether
// every node has decided.
func DecisionSlot(nodes []*Node) (int64, bool) {
	var last int64
	for _, n := range nodes {
		ok, _, slot := n.Decided()
		if !ok {
			return 0, false
		}
		if slot > last {
			last = slot
		}
	}
	return last, true
}

// FaultReport is the fault-mode counterpart of CheckAgreement: under crash
// and Byzantine faults the consensus properties are only owed to the
// correct (non-faulty) nodes, and the interesting output is how badly they
// degrade rather than a single pass/fail. QuorumIntact records the quorum
// assumption the PoDC-style analysis rests on: a correct majority.
type FaultReport struct {
	// Total, Crashed, Byzantine and Correct partition the nodes (a node
	// both crashed and Byzantine counts once, as faulty).
	Total     int
	Crashed   int
	Byzantine int
	Correct   int
	// Decided and Undecided partition the correct nodes by termination.
	Decided   int
	Undecided int
	// AgreementBreaches counts decided correct nodes whose decision
	// differs from the first decided correct node's.
	AgreementBreaches int
	// ValidityBreaches counts decided correct nodes whose decision is not
	// any correct node's initial value — the signature of a Byzantine
	// forgery winning the flood.
	ValidityBreaches int
	// QuorumIntact reports whether correct nodes outnumber faulty ones
	// (Correct > Total/2). When false, breaches above are expected rather
	// than anomalous.
	QuorumIntact bool
}

// CheckFaulty audits the consensus properties over a possibly-faulty
// execution. crashed and byzantine flag the faulty nodes (either may be
// nil); properties are checked among the correct nodes only, so crashed
// nodes that never decide are counted in the report but are not violations.
func CheckFaulty(nodes []*Node, initials []Value, crashed, byzantine []bool) FaultReport {
	rep := FaultReport{Total: len(nodes)}
	faulty := func(i int) bool {
		c := crashed != nil && crashed[i]
		b := byzantine != nil && byzantine[i]
		return c || b
	}
	var reference Value
	haveRef := false
	for i, n := range nodes {
		if crashed != nil && crashed[i] {
			rep.Crashed++
		}
		if byzantine != nil && byzantine[i] {
			rep.Byzantine++
		}
		if faulty(i) {
			continue
		}
		rep.Correct++
		ok, v, _ := n.Decided()
		if !ok {
			rep.Undecided++
			continue
		}
		rep.Decided++
		if !haveRef {
			reference, haveRef = v, true
		} else if v != reference {
			rep.AgreementBreaches++
		}
		valid := false
		for j := range nodes {
			if !faulty(j) && j < len(initials) && initials[j] == v {
				valid = true
				break
			}
		}
		if !valid {
			rep.ValidityBreaches++
		}
	}
	rep.QuorumIntact = rep.Correct > rep.Total/2
	return rep
}
