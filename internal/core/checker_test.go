package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sinrmac/internal/graphs"
	"sinrmac/internal/rng"
)

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(n int) *graphs.Graph {
	g := graphs.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func msg(id MessageID, origin int) Message {
	return Message{ID: id, Origin: origin, Payload: nil}
}

func TestCheckAcksHappyPath(t *testing.T) {
	g := pathGraph(3) // neighbours of 1 are 0 and 2
	events := []Event{
		{Kind: EventBcast, Node: 1, Msg: msg(1, 1), Slot: 0},
		{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 3},
		{Kind: EventRcv, Node: 2, Msg: msg(1, 1), Slot: 4},
		{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 6},
	}
	rep := CheckAcks(events, g)
	if rep.Acked != 1 || rep.Unacked != 0 || rep.Aborted != 0 || rep.Violations != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MaxLatency != 6 || rep.MeanLatency != 6 {
		t.Fatalf("latency = %d/%v", rep.MaxLatency, rep.MeanLatency)
	}
	if len(rep.Records) != 1 || len(rep.Records[0].MissedNeighbors) != 0 {
		t.Fatalf("records = %+v", rep.Records)
	}
}

func TestCheckAcksDetectsMissedNeighbor(t *testing.T) {
	g := pathGraph(3)
	events := []Event{
		{Kind: EventBcast, Node: 1, Msg: msg(1, 1), Slot: 0},
		{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 3},
		// node 2 never receives, but the ack fires anyway.
		{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 6},
	}
	rep := CheckAcks(events, g)
	if rep.Violations != 1 {
		t.Fatalf("violations = %d, want 1", rep.Violations)
	}
	if got := rep.Records[0].MissedNeighbors; len(got) != 1 || got[0] != 2 {
		t.Fatalf("missed neighbours = %v", got)
	}
}

func TestCheckAcksLateRcvCountsAsMissed(t *testing.T) {
	g := pathGraph(2)
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
		{Kind: EventAck, Node: 0, Msg: msg(1, 0), Slot: 5},
		{Kind: EventRcv, Node: 1, Msg: msg(1, 0), Slot: 9}, // after the ack
	}
	rep := CheckAcks(events, g)
	if rep.Violations != 1 {
		t.Fatalf("late rcv not flagged: %+v", rep)
	}
}

func TestCheckAcksUnackedAndAborted(t *testing.T) {
	g := pathGraph(4)
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
		{Kind: EventBcast, Node: 2, Msg: msg(2, 2), Slot: 0},
		{Kind: EventAbort, Node: 2, Msg: msg(2, 2), Slot: 7},
	}
	rep := CheckAcks(events, g)
	if rep.Unacked != 1 || rep.Aborted != 1 || rep.Acked != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCheckAcksMultipleMessagesMeanLatency(t *testing.T) {
	g := pathGraph(2)
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
		{Kind: EventRcv, Node: 1, Msg: msg(1, 0), Slot: 1},
		{Kind: EventAck, Node: 0, Msg: msg(1, 0), Slot: 2},
		{Kind: EventBcast, Node: 1, Msg: msg(2, 1), Slot: 10},
		{Kind: EventRcv, Node: 0, Msg: msg(2, 1), Slot: 14},
		{Kind: EventAck, Node: 1, Msg: msg(2, 1), Slot: 16},
	}
	rep := CheckAcks(events, g)
	if rep.Acked != 2 || rep.Violations != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MaxLatency != 6 || rep.MeanLatency != 4 {
		t.Fatalf("latencies = %d/%v", rep.MaxLatency, rep.MeanLatency)
	}
}

func TestMeasureProgressSatisfied(t *testing.T) {
	g := pathGraph(3)
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
		{Kind: EventRcv, Node: 1, Msg: msg(1, 0), Slot: 4},
		{Kind: EventAck, Node: 0, Msg: msg(1, 0), Slot: 10},
	}
	rep := MeasureProgress(events, g, g, 100)
	// Node 1 is the only trigger-graph neighbour of node 0.
	if len(rep.Samples) != 1 {
		t.Fatalf("samples = %+v", rep.Samples)
	}
	s := rep.Samples[0]
	if !s.Satisfied || s.Receiver != 1 || s.Latency != 4 || s.RcvSlot != 4 {
		t.Fatalf("sample = %+v", s)
	}
	if rep.SatisfactionRate() != 1 {
		t.Fatalf("satisfaction rate = %v", rep.SatisfactionRate())
	}
}

func TestMeasureProgressAnyNeighborMessageCounts(t *testing.T) {
	// Node 1 has neighbours 0 and 2. Node 0 broadcasts m1 but node 1 only
	// ever receives m2 from node 2: progress is still satisfied because the
	// paper's progress property accepts any message from a G-neighbour.
	g := pathGraph(3)
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
		{Kind: EventBcast, Node: 2, Msg: msg(2, 2), Slot: 0},
		{Kind: EventRcv, Node: 1, Msg: msg(2, 2), Slot: 3},
		{Kind: EventAck, Node: 0, Msg: msg(1, 0), Slot: 20},
		{Kind: EventAck, Node: 2, Msg: msg(2, 2), Slot: 20},
	}
	rep := MeasureProgress(events, g, g, 100)
	for _, s := range rep.Samples {
		if s.Receiver == 1 && !s.Satisfied {
			t.Fatalf("progress at node 1 not satisfied by neighbour message: %+v", s)
		}
	}
}

func TestMeasureProgressNonNeighborMessageIgnored(t *testing.T) {
	// The reliable graph g has no edge (1,3): a rcv of node 3's message at
	// node 1 must not count as progress.
	g := graphs.New(4)
	g.AddEdge(0, 1)
	trigger := g.Clone()
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
		{Kind: EventRcv, Node: 1, Msg: msg(7, 3), Slot: 2}, // from non-neighbour 3
		{Kind: EventAck, Node: 0, Msg: msg(1, 0), Slot: 9},
	}
	rep := MeasureProgress(events, g, trigger, 100)
	if len(rep.Samples) != 1 {
		t.Fatalf("samples = %+v", rep.Samples)
	}
	s := rep.Samples[0]
	if s.Satisfied {
		t.Fatalf("non-neighbour reception counted as progress: %+v", s)
	}
	if s.Latency != 9 { // censored at the ack slot
		t.Fatalf("censored latency = %d, want 9", s.Latency)
	}
	if rep.SatisfactionRate() != 0 {
		t.Fatalf("satisfaction rate = %v", rep.SatisfactionRate())
	}
}

func TestMeasureProgressDifferentTriggerGraph(t *testing.T) {
	// g is a path 0-1-2; trigger graph only contains the edge 0-1. Only the
	// (0 broadcasts, 1 listens) pair opens a window.
	g := pathGraph(3)
	trigger := graphs.New(3)
	trigger.AddEdge(0, 1)
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
		{Kind: EventBcast, Node: 2, Msg: msg(2, 2), Slot: 0},
		{Kind: EventRcv, Node: 1, Msg: msg(1, 0), Slot: 5},
		{Kind: EventAck, Node: 0, Msg: msg(1, 0), Slot: 8},
		{Kind: EventAck, Node: 2, Msg: msg(2, 2), Slot: 8},
	}
	rep := MeasureProgress(events, g, trigger, 100)
	// Triggers: msg1 opens a window at node 1; msg2 opens none (node 2 has
	// no trigger-graph neighbours).
	if len(rep.Samples) != 1 {
		t.Fatalf("samples = %+v", rep.Samples)
	}
	if rep.Samples[0].Receiver != 1 || !rep.Samples[0].Satisfied {
		t.Fatalf("sample = %+v", rep.Samples[0])
	}
}

func TestMeasureProgressHorizonCensoring(t *testing.T) {
	g := pathGraph(2)
	events := []Event{
		{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 10},
		// no rcv, no ack
	}
	rep := MeasureProgress(events, g, g, 50)
	if len(rep.Samples) != 1 {
		t.Fatalf("samples = %+v", rep.Samples)
	}
	s := rep.Samples[0]
	if s.Satisfied || s.EndSlot != 50 || s.Latency != 40 {
		t.Fatalf("sample = %+v", s)
	}
}

func TestMeasureProgressEmptyTrace(t *testing.T) {
	g := pathGraph(3)
	rep := MeasureProgress(nil, g, g, 100)
	if len(rep.Samples) != 0 || rep.SatisfactionRate() != 1 {
		t.Fatalf("empty trace report = %+v", rep)
	}
	ackRep := CheckAcks(nil, g)
	if len(ackRep.Records) != 0 || ackRep.MeanLatency != 0 {
		t.Fatalf("empty trace ack report = %+v", ackRep)
	}
}

// The map-based checkers that CheckAcks, MeasureProgress and
// CheckDeadlines replaced, kept as the reference: TestCheckersMatchReference
// and FuzzCheckers hold the indexed checkers to them report for report.

// checkAcksReference is the map-based CheckAcks the indexed one replaced,
// kept verbatim as the reference the checkers are compared with. It verifies the acknowledgment part of the absMAC specification
// against a trace: every acknowledged broadcast should have delivered a rcv
// to every G-neighbour of its origin before the ack fired, and it measures
// the empirical acknowledgment latency f_ack.
func checkAcksReference(events []Event, g *graphs.Graph) AckReport {
	type msgState struct {
		rec      AckRecord
		rcvSlots map[int]int64 // receiver -> first rcv slot
	}
	states := make(map[MessageID]*msgState)
	var order []MessageID
	for _, ev := range events {
		switch ev.Kind {
		case EventBcast:
			if _, ok := states[ev.Msg.ID]; !ok {
				states[ev.Msg.ID] = &msgState{
					rec:      AckRecord{Msg: ev.Msg, BcastSlot: ev.Slot, AckSlot: -1},
					rcvSlots: make(map[int]int64),
				}
				order = append(order, ev.Msg.ID)
			}
		case EventRcv:
			if st, ok := states[ev.Msg.ID]; ok {
				if _, seen := st.rcvSlots[ev.Node]; !seen {
					st.rcvSlots[ev.Node] = ev.Slot
				}
			}
		case EventAck:
			if st, ok := states[ev.Msg.ID]; ok && st.rec.AckSlot < 0 {
				st.rec.AckSlot = ev.Slot
				st.rec.Latency = ev.Slot - st.rec.BcastSlot
			}
		case EventAbort:
			if st, ok := states[ev.Msg.ID]; ok {
				st.rec.Aborted = true
			}
		}
	}

	var report AckReport
	var latencySum int64
	for _, id := range order {
		st := states[id]
		rec := st.rec
		switch {
		case rec.AckSlot >= 0:
			report.Acked++
			latencySum += rec.Latency
			if rec.Latency > report.MaxLatency {
				report.MaxLatency = rec.Latency
			}
			for _, nbr := range g.Neighbors(rec.Msg.Origin) {
				slot, got := st.rcvSlots[nbr]
				if !got || slot > rec.AckSlot {
					rec.MissedNeighbors = append(rec.MissedNeighbors, nbr)
				}
			}
			if len(rec.MissedNeighbors) > 0 {
				report.Violations++
			}
		case rec.Aborted:
			report.Aborted++
		default:
			report.Unacked++
		}
		report.Records = append(report.Records, rec)
	}
	if report.Acked > 0 {
		report.MeanLatency = float64(latencySum) / float64(report.Acked)
	}
	return report
}

// measureProgressReference is the map-based MeasureProgress the indexed one
// replaced, kept verbatim as a reference. It measures the (approximate)
// progress latency of a trace.
//
// g is the reliable-communication graph G := G_{1-ε}: a reception counts
// only if the received message originates at a G-neighbour of the receiver
// (the paper's rcv semantics). trigger selects which broadcasting
// neighbours open an observation window at a receiver: passing G measures
// the classic progress bound f_prog, passing G̃ := G_{1-2ε} measures the
// approximate-progress bound f_approg of Definition 7.1. horizon caps the
// observation window of broadcasts that never completed.
func measureProgressReference(events []Event, g, trigger *graphs.Graph, horizon int64) ProgressReport {
	// Index per-message lifecycle and per-receiver qualifying receptions.
	type life struct {
		origin int
		start  int64
		end    int64
	}
	lives := make(map[MessageID]*life)
	var msgOrder []MessageID
	rcvByNode := make(map[int][]Event)
	for _, ev := range events {
		switch ev.Kind {
		case EventBcast:
			if _, ok := lives[ev.Msg.ID]; !ok {
				lives[ev.Msg.ID] = &life{origin: ev.Msg.Origin, start: ev.Slot, end: horizon}
				msgOrder = append(msgOrder, ev.Msg.ID)
			}
		case EventAck, EventAbort:
			if l, ok := lives[ev.Msg.ID]; ok && l.end == horizon {
				l.end = ev.Slot
			}
		case EventRcv:
			rcvByNode[ev.Node] = append(rcvByNode[ev.Node], ev)
		}
	}
	for _, evs := range rcvByNode {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Slot < evs[j].Slot })
	}

	var report ProgressReport
	var latencySum int64
	for _, id := range msgOrder {
		l := lives[id]
		for _, j := range trigger.Neighbors(l.origin) {
			sample := ProgressSample{
				Receiver:   j,
				Trigger:    l.origin,
				TriggerMsg: id,
				StartSlot:  l.start,
				EndSlot:    l.end,
				RcvSlot:    -1,
			}
			for _, rcv := range rcvByNode[j] {
				if rcv.Slot < l.start {
					continue
				}
				if rcv.Slot > l.end {
					break
				}
				// Qualifying receptions originate at a G-neighbour of j.
				if g.HasEdge(j, rcv.Msg.Origin) {
					sample.RcvSlot = rcv.Slot
					break
				}
			}
			if sample.RcvSlot >= 0 {
				sample.Satisfied = true
				sample.Latency = sample.RcvSlot - sample.StartSlot
				report.Satisfied++
			} else {
				sample.Latency = sample.EndSlot - sample.StartSlot
				report.Unsatisfied++
			}
			if sample.Latency > report.MaxLatency {
				report.MaxLatency = sample.Latency
			}
			latencySum += sample.Latency
			report.Samples = append(report.Samples, sample)
		}
	}
	if len(report.Samples) > 0 {
		report.MeanLatency = float64(latencySum) / float64(len(report.Samples))
	}
	return report
}

// checkDeadlinesReference is the CheckDeadlines the counting one replaced,
// kept verbatim as a reference. It runs the acknowledgment and progress checkers over a trace
// and folds their measurements into deadline-miss counts. g is the reliable
// communication graph (also used as the progress trigger graph); horizon
// caps unfinished observation windows as in MeasureProgress.
func checkDeadlinesReference(events []Event, g *graphs.Graph, ackDeadline, progressDeadline, horizon int64) DeadlineReport {
	rep := DeadlineReport{AckDeadline: ackDeadline, ProgressDeadline: progressDeadline}
	acks := checkAcksReference(events, g)
	rep.Bcasts = len(acks.Records)
	rep.NiceViolations = acks.Violations
	for _, r := range acks.Records {
		switch {
		case r.Aborted && r.AckSlot < 0:
			rep.Aborted++
		case r.AckSlot < 0:
			if r.BcastSlot+ackDeadline <= horizon {
				rep.NeverAcked++
			}
		case r.Latency > ackDeadline:
			rep.LateAcks++
		}
	}
	rep.AckMisses = rep.LateAcks + rep.NeverAcked
	prog := measureProgressReference(events, g, g, horizon)
	rep.ProgressWindows = len(prog.Samples)
	for _, s := range prog.Samples {
		switch {
		case !s.Satisfied:
			if s.StartSlot+progressDeadline <= horizon {
				rep.ProgressMisses++
			}
		case s.Latency > progressDeadline:
			rep.ProgressMisses++
		}
	}
	return rep
}

// checkerCase is one trace the checkers are compared on.
type checkerCase struct {
	events        []Event
	g, trigger    *graphs.Graph
	horizon       int64
	ackDL, progDL int64
}

// compareCheckers holds every checker to its reference on one case.
func compareCheckers(t *testing.T, c checkerCase) {
	t.Helper()
	if got, want := CheckAcks(c.events, c.g), checkAcksReference(c.events, c.g); !reflect.DeepEqual(got, want) {
		t.Fatalf("CheckAcks = %+v\nwant %+v\ntrace %+v", got, want, c.events)
	}
	if got, want := MeasureProgress(c.events, c.g, c.trigger, c.horizon), measureProgressReference(c.events, c.g, c.trigger, c.horizon); !reflect.DeepEqual(got, want) {
		t.Fatalf("MeasureProgress(horizon %d) = %+v\nwant %+v\ntrace %+v", c.horizon, got, want, c.events)
	}
	if got, want := CheckDeadlines(c.events, c.g, c.ackDL, c.progDL, c.horizon), checkDeadlinesReference(c.events, c.g, c.ackDL, c.progDL, c.horizon); got != want {
		t.Fatalf("CheckDeadlines(%d, %d, %d) = %+v\nwant %+v\ntrace %+v", c.ackDL, c.progDL, c.horizon, got, want, c.events)
	}
}

// decodeTrace turns fuzz bytes into a trace over n nodes, four bytes an
// event: kind, node, message and slot. Message k of a pool of 12 has a
// fixed origin; a bcast happens at its origin and so does an ack or abort
// with an odd node byte, elsewhere otherwise. Messages that are never
// broadcast give acks, aborts and rcvs of unknown ids, and a small pool
// gives duplicate bcasts; slots are in byte order, so a trace is out of
// slot order unless sorted, and sorting it as sinrbench does — by slot,
// node, kind and id — puts a lower node's rcv before a bcast in the same
// slot. A bcast's payload is its position in the trace, so a report that
// keeps the wrong bcast of a duplicated id differs from the reference.
func decodeTrace(n int, origins []int, data []byte, sorted bool) []Event {
	var events []Event
	for ; len(data) >= 4; data = data[4:] {
		k := int(data[2]) % len(origins)
		ev := Event{
			Kind: EventKind(1 + data[0]%4),
			Node: int(data[1]) % n,
			Msg:  Message{ID: MessageID(100 + k), Origin: origins[k]},
			Slot: int64(data[3] % 64),
		}
		switch ev.Kind {
		case EventBcast:
			ev.Node = ev.Msg.Origin
			ev.Msg.Payload = len(events)
		case EventAck, EventAbort:
			if data[1]%2 == 1 {
				ev.Node = ev.Msg.Origin
			}
		}
		events = append(events, ev)
	}
	if sorted {
		slices.SortStableFunc(events, func(a, b Event) int {
			switch {
			case a.Slot != b.Slot:
				return int(a.Slot - b.Slot)
			case a.Node != b.Node:
				return a.Node - b.Node
			case a.Kind != b.Kind:
				return int(a.Kind - b.Kind)
			}
			return int(a.Msg.ID) - int(b.Msg.ID)
		})
	}
	return events
}

// randomCheckerCase draws the graphs, message origins and deadlines of a
// case from seed: G is a random graph on n nodes and the trigger graph is
// G itself (mode 0), a random subgraph of it (mode 1, like G_{1-2ε} ⊆
// G_{1-ε}) or an unrelated random graph (mode 2).
func randomCheckerCase(seed uint64, n, mode int, data []byte, sorted bool, horizon int64) checkerCase {
	src := rng.New(seed)
	p := src.Float64()
	g, trigger, other := graphs.New(n), graphs.New(n), graphs.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Bernoulli(p) {
				g.AddEdge(u, v)
				if src.Bernoulli(0.6) {
					trigger.AddEdge(u, v)
				}
			}
			if src.Bernoulli(p) {
				other.AddEdge(u, v)
			}
		}
	}
	switch mode % 3 {
	case 0:
		trigger = g
	case 2:
		trigger = other
	}
	origins := make([]int, 12)
	for k := range origins {
		origins[k] = src.Intn(n)
	}
	return checkerCase{
		events:  decodeTrace(n, origins, data, sorted),
		g:       g,
		trigger: trigger,
		horizon: horizon,
		ackDL:   int64(src.Intn(40)),
		progDL:  int64(src.Intn(40)),
	}
}

// TestCheckersMatchReference holds CheckAcks, MeasureProgress and
// CheckDeadlines to the map-based reference on the order cases the index
// must keep and on random traces.
func TestCheckersMatchReference(t *testing.T) {
	g := pathGraph(4) // 0-1-2-3
	fixed := []struct {
		name    string
		events  []Event
		horizon int64
	}{
		{"empty", nil, 10},
		{"rcv-before-bcast-same-slot", []Event{
			{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 3},
			{Kind: EventBcast, Node: 1, Msg: msg(1, 1), Slot: 3},
			{Kind: EventRcv, Node: 2, Msg: msg(1, 1), Slot: 4},
			{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 6},
		}, 20},
		{"duplicate-bcast-ids", []Event{
			{Kind: EventBcast, Node: 1, Msg: Message{ID: 1, Origin: 1, Payload: "first"}, Slot: 0},
			{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 1},
			{Kind: EventBcast, Node: 2, Msg: Message{ID: 1, Origin: 2, Payload: "second"}, Slot: 2},
			{Kind: EventRcv, Node: 2, Msg: msg(1, 1), Slot: 3},
			{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 5},
		}, 20},
		{"ack-abort-unknown-ids", []Event{
			{Kind: EventAck, Node: 3, Msg: msg(9, 3), Slot: 1},
			{Kind: EventAbort, Node: 2, Msg: msg(8, 2), Slot: 2},
			{Kind: EventRcv, Node: 1, Msg: msg(7, 2), Slot: 2},
			{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 3},
		}, 20},
		{"ack-before-bcast", []Event{
			{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 2},
			{Kind: EventAbort, Node: 1, Msg: msg(1, 1), Slot: 2},
			{Kind: EventBcast, Node: 1, Msg: msg(1, 1), Slot: 4},
			{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 5},
			{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 9},
			{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 11},
		}, 20},
		{"out-of-slot-order-rcvs", []Event{
			{Kind: EventBcast, Node: 1, Msg: msg(1, 1), Slot: 5},
			{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 12},
			{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 7},
			{Kind: EventRcv, Node: 2, Msg: msg(1, 1), Slot: 2},
			{Kind: EventRcv, Node: 2, Msg: msg(1, 1), Slot: 8},
			{Kind: EventAck, Node: 1, Msg: msg(1, 1), Slot: 10},
		}, 20},
		{"rcvs-from-non-neighbours", []Event{
			{Kind: EventBcast, Node: 3, Msg: msg(2, 3), Slot: 0},
			{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 0},
			{Kind: EventRcv, Node: 1, Msg: msg(2, 3), Slot: 1},
			{Kind: EventRcv, Node: 1, Msg: msg(1, 0), Slot: 4},
			{Kind: EventAck, Node: 0, Msg: msg(1, 0), Slot: 6},
		}, 20},
		{"horizon-cuts-windows", []Event{
			{Kind: EventBcast, Node: 1, Msg: msg(1, 1), Slot: 2},
			{Kind: EventRcv, Node: 0, Msg: msg(1, 1), Slot: 9},
			{Kind: EventBcast, Node: 2, Msg: msg(2, 2), Slot: 3},
			{Kind: EventAck, Node: 2, Msg: msg(2, 2), Slot: 6},
			{Kind: EventAck, Node: 2, Msg: msg(2, 2), Slot: 4},
		}, 6},
	}
	for _, tc := range fixed {
		t.Run(tc.name, func(t *testing.T) {
			for _, trigger := range []*graphs.Graph{g, pathGraph(4).Clone(), graphs.New(4)} {
				compareCheckers(t, checkerCase{events: tc.events, g: g, trigger: trigger, horizon: tc.horizon, ackDL: 3, progDL: 4})
			}
		})
	}
	src := rng.New(26)
	for i := 0; i < 300; i++ {
		n := 1 + src.Intn(12)
		data := make([]byte, 4*src.Intn(80))
		for j := range data {
			data[j] = byte(src.Uint64())
		}
		seed, mode, sorted, horizon := src.Uint64(), src.Intn(3), src.Bernoulli(0.5), int64(src.Intn(70))
		t.Run(fmt.Sprintf("random/%d/n%d/mode%d/sorted=%v", i, n, mode, sorted), func(t *testing.T) {
			compareCheckers(t, randomCheckerCase(seed, n, mode, data, sorted, horizon))
		})
	}
}

// FuzzCheckers draws the graphs, the trace bytes, the sort and the horizon
// and holds the indexed checkers to the reference.
func FuzzCheckers(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), []byte{1, 0, 0, 3, 2, 1, 0, 3, 3, 1, 0, 5}, true, uint8(4))
	f.Add(uint64(2), uint8(9), uint8(1), []byte{0, 3, 1, 9, 1, 4, 1, 2, 1, 5, 1, 2, 2, 3, 1, 60, 3, 7, 1, 1}, false, uint8(60))
	f.Add(uint64(3), uint8(1), uint8(2), []byte{2, 0, 5, 0, 3, 0, 6, 1, 1, 0, 5, 2}, true, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, mode uint8, data []byte, sorted bool, horizon uint8) {
		compareCheckers(t, randomCheckerCase(seed, 1+int(n)%16, int(mode), data, sorted, int64(horizon%70)))
	})
}
