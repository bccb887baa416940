package core

import (
	"math"
	"slices"

	"sinrmac/internal/graphs"
)

// traceIndex is the one indexed pass over a trace that CheckAcks,
// MeasureProgress and CheckDeadlines read. Messages get dense ids in the
// order of their first bcast event, through the only map the checkers
// keep; everything else is a slice indexed by message or node.
type traceIndex struct {
	msgs []msgLife
	// rcvStart and rcvPos form a CSR array: the rcvs of message m that
	// follow its first bcast in the slice are events[p] for p in
	// rcvPos[rcvStart[m]:rcvStart[m+1]], in slice order.
	rcvStart []int32
	rcvPos   []int32
}

// msgLife is one message's lifecycle as the checkers see it.
type msgLife struct {
	msg       Message
	bcastSlot int64
	// ackSlot and latency come from the first ack after the bcast;
	// ackSlot is -1 without one.
	ackSlot int64
	latency int64
	aborted bool
	// end closes the message's progress windows: the slot of the first ack
	// or abort after the bcast whose slot differs from the horizon, or the
	// horizon when there is none.
	end int64
}

// indexTrace numbers the trace's messages, replays their lifecycle and
// groups their rcvs; a rcv, ack or abort counts only when it follows the
// message's first bcast in the slice.
func indexTrace(events []Event, horizon int64) *traceIndex {
	if len(events) > math.MaxInt32 {
		panic("core: trace too long to index")
	}
	ids := make(map[MessageID]int32)
	nrcv := 0
	for i := range events {
		if events[i].Kind == EventRcv {
			nrcv++
		}
	}
	ix := &traceIndex{rcvPos: make([]int32, 0, nrcv)}
	rcvMsg := make([]int32, 0, nrcv)
	for i, ev := range events {
		if ev.Kind == EventBcast {
			if _, ok := ids[ev.Msg.ID]; !ok {
				ids[ev.Msg.ID] = int32(len(ix.msgs))
				ix.msgs = append(ix.msgs, msgLife{msg: ev.Msg, bcastSlot: ev.Slot, ackSlot: -1, end: horizon})
			}
			continue
		}
		m, ok := ids[ev.Msg.ID]
		if !ok {
			continue
		}
		l := &ix.msgs[m]
		switch ev.Kind {
		case EventRcv:
			rcvMsg = append(rcvMsg, m)
			ix.rcvPos = append(ix.rcvPos, int32(i))
		case EventAck:
			if l.ackSlot < 0 {
				l.ackSlot = ev.Slot
				l.latency = ev.Slot - l.bcastSlot
			}
			if l.end == horizon {
				l.end = ev.Slot
			}
		case EventAbort:
			l.aborted = true
			if l.end == horizon {
				l.end = ev.Slot
			}
		}
	}
	ix.rcvStart, ix.rcvPos = groupCSR(len(ix.msgs), rcvMsg, ix.rcvPos)
	return ix
}

// groupCSR groups values by key, stably: the values with key k are
// out[start[k]:start[k+1]], in input order. Every key lies in [0, nkeys).
func groupCSR[V any](nkeys int, keys []int32, vals []V) (start []int32, out []V) {
	start = make([]int32, nkeys+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := 0; k < nkeys; k++ {
		start[k+1] += start[k]
	}
	cursor := slices.Clone(start[:nkeys])
	out = make([]V, len(vals))
	for i, k := range keys {
		out[cursor[k]] = vals[i]
		cursor[k]++
	}
	return start, out
}

// firstRcv holds, per node, the slot of the node's first rcv of one
// message. A stamp marks which message an entry belongs to, so moving on to
// the next message needs no clearing.
type firstRcv struct {
	stamp []int32 // message index + 1
	slot  []int64
}

func newFirstRcv(n int) *firstRcv {
	return &firstRcv{stamp: make([]int32, n), slot: make([]int64, n)}
}

// missedNeighbors returns the G-neighbours of acknowledged message m's
// origin whose first rcv of m (after the bcast, in slice order) is missing
// or later than the ack, in ascending order. Unless all is set it stops at
// the first one, which is enough to count a violation.
func (ix *traceIndex) missedNeighbors(events []Event, m int, g *graphs.Graph, first *firstRcv, all bool) []int {
	l := &ix.msgs[m]
	stamp := int32(m + 1)
	for _, p := range ix.rcvPos[ix.rcvStart[m]:ix.rcvStart[m+1]] {
		ev := &events[p]
		if ev.Node >= 0 && ev.Node < len(first.stamp) && first.stamp[ev.Node] != stamp {
			first.stamp[ev.Node] = stamp
			first.slot[ev.Node] = ev.Slot
		}
	}
	var missed []int
	for _, nbr := range g.Neighbors(l.msg.Origin) {
		if first.stamp[nbr] != stamp || first.slot[nbr] > l.ackSlot {
			missed = append(missed, nbr)
			if !all {
				break
			}
		}
	}
	return missed
}

// qualifying is the CSR array of the slots at which each node received a
// message originating at one of its G-neighbours: node j's are
// slot[start[j]:start[j+1]], ascending. Every rcv event counts, whatever
// its position relative to its message's bcast.
type qualifying struct {
	start []int32
	slot  []int64
}

// indexQualifying counts each node's rcvs, places them by receiver, then
// stamps each receiver's G-neighbourhood once and keeps, in place, the
// rcvs whose origin carries the stamp.
func indexQualifying(events []Event, g *graphs.Graph) qualifying {
	n := g.NumNodes()
	inRange := func(ev *Event) bool {
		return ev.Kind == EventRcv && ev.Node >= 0 && ev.Node < n && ev.Msg.Origin >= 0 && ev.Msg.Origin < n
	}
	q := qualifying{start: make([]int32, n+1)}
	for i := range events {
		if ev := &events[i]; inRange(ev) {
			q.start[ev.Node+1]++
		}
	}
	for j := 0; j < n; j++ {
		q.start[j+1] += q.start[j]
	}
	// cursor[j] is where node j's next rcv goes; origin parallels slot.
	cursor := slices.Clone(q.start[:n])
	q.slot = make([]int64, q.start[n])
	origin := make([]int32, q.start[n])
	for i := range events {
		if ev := &events[i]; inRange(ev) {
			c := cursor[ev.Node]
			q.slot[c], origin[c] = ev.Slot, int32(ev.Msg.Origin)
			cursor[ev.Node]++
		}
	}
	stamp := make([]int32, n) // receiver + 1 on that receiver's neighbours
	kept := int32(0)
	for j := 0; j < n; j++ {
		lo, hi := q.start[j], q.start[j+1]
		q.start[j] = kept
		if lo == hi {
			continue
		}
		for _, nbr := range g.Neighbors(j) {
			stamp[nbr] = int32(j + 1)
		}
		from := kept
		for c := lo; c < hi; c++ {
			if stamp[origin[c]] == int32(j+1) {
				q.slot[kept] = q.slot[c]
				kept++
			}
		}
		slices.Sort(q.slot[from:kept])
	}
	q.start[n] = kept
	q.slot = q.slot[:kept]
	return q
}

// first returns the earliest qualifying rcv slot of node j in
// [start, end], or -1 when there is none.
func (q qualifying) first(j int, start, end int64) int64 {
	if j >= len(q.start)-1 {
		return -1
	}
	slots := q.slot[q.start[j]:q.start[j+1]]
	if i, _ := slices.BinarySearch(slots, start); i < len(slots) && slots[i] <= end {
		return slots[i]
	}
	return -1
}

// eachWindow calls f with the progress sample of every (message, trigger
// neighbour of its origin) pair, messages in first-bcast order and
// receivers ascending.
func (ix *traceIndex) eachWindow(trigger *graphs.Graph, q qualifying, f func(ProgressSample)) {
	for _, l := range ix.msgs {
		for _, j := range trigger.Neighbors(l.msg.Origin) {
			sample := ProgressSample{
				Receiver:   j,
				Trigger:    l.msg.Origin,
				TriggerMsg: l.msg.ID,
				StartSlot:  l.bcastSlot,
				EndSlot:    l.end,
				RcvSlot:    q.first(j, l.bcastSlot, l.end),
			}
			if sample.RcvSlot >= 0 {
				sample.Satisfied = true
				sample.Latency = sample.RcvSlot - sample.StartSlot
			} else {
				sample.Latency = sample.EndSlot - sample.StartSlot
			}
			f(sample)
		}
	}
}

// AckRecord describes the fate of one bcast in a trace.
type AckRecord struct {
	// Msg is the broadcast message.
	Msg Message
	// BcastSlot is the slot of the bcast event.
	BcastSlot int64
	// AckSlot is the slot of the ack event, or -1 when no ack was recorded.
	AckSlot int64
	// Aborted reports whether an abort event was recorded for the message.
	Aborted bool
	// Latency is AckSlot - BcastSlot for acknowledged broadcasts, 0
	// otherwise.
	Latency int64
	// MissedNeighbors lists the G-neighbours of the origin that had no rcv
	// event for the message before the ack (only populated for
	// acknowledged broadcasts). An acknowledged broadcast with missed
	// neighbours violates the "nice execution" property of Definition 12.2
	// and counts towards AckReport.Violations.
	MissedNeighbors []int
}

// AckReport summarises acknowledgment behaviour over a whole trace.
type AckReport struct {
	// Records holds one entry per bcast event, in bcast order.
	Records []AckRecord
	// Acked counts acknowledged broadcasts.
	Acked int
	// Unacked counts broadcasts that were neither acknowledged nor aborted.
	Unacked int
	// Aborted counts aborted broadcasts.
	Aborted int
	// Violations counts acknowledged broadcasts for which some G-neighbour
	// never received the message before the ack.
	Violations int
	// MaxLatency and MeanLatency summarise acknowledgment latencies over
	// the acknowledged broadcasts (0 when none).
	MaxLatency  int64
	MeanLatency float64
}

// CheckAcks verifies the acknowledgment part of the absMAC specification
// against a trace: every acknowledged broadcast should have delivered a rcv
// to every G-neighbour of its origin before the ack fired, and it measures
// the empirical acknowledgment latency f_ack.
//
// A message's record opens at its first bcast event; a rcv, ack or abort
// that appears in the slice before that bcast is ignored, and the first
// rcv at each node after it (in slice order) is the one compared with the
// ack slot.
func CheckAcks(events []Event, g *graphs.Graph) AckReport {
	ix := indexTrace(events, 0)
	var report AckReport
	if len(ix.msgs) > 0 {
		report.Records = make([]AckRecord, len(ix.msgs))
	}
	var latencySum int64
	first := newFirstRcv(g.NumNodes())
	for m := range ix.msgs {
		l := &ix.msgs[m]
		rec := AckRecord{Msg: l.msg, BcastSlot: l.bcastSlot, AckSlot: l.ackSlot, Aborted: l.aborted, Latency: l.latency}
		switch {
		case rec.AckSlot >= 0:
			report.Acked++
			latencySum += rec.Latency
			if rec.Latency > report.MaxLatency {
				report.MaxLatency = rec.Latency
			}
			rec.MissedNeighbors = ix.missedNeighbors(events, m, g, first, true)
			if len(rec.MissedNeighbors) > 0 {
				report.Violations++
			}
		case rec.Aborted:
			report.Aborted++
		default:
			report.Unacked++
		}
		report.Records[m] = rec
	}
	if report.Acked > 0 {
		report.MeanLatency = float64(latencySum) / float64(report.Acked)
	}
	return report
}

// ProgressSample measures one (receiver, triggering broadcast) pair: the
// time from the start of a neighbour's broadcast until the receiver
// received *some* message originating at one of its G-neighbours.
type ProgressSample struct {
	// Receiver is the listening node j.
	Receiver int
	// Trigger is the broadcasting neighbour i (in the trigger graph).
	Trigger int
	// TriggerMsg is the message i was broadcasting.
	TriggerMsg MessageID
	// StartSlot is the slot of the triggering bcast event.
	StartSlot int64
	// EndSlot is the end of the observation window: the trigger's ack or
	// abort slot, or the horizon when the broadcast never completed.
	EndSlot int64
	// RcvSlot is the slot of the first qualifying rcv at the receiver at or
	// after StartSlot, or -1 when none occurred within the window.
	RcvSlot int64
	// Latency is RcvSlot-StartSlot when satisfied, EndSlot-StartSlot
	// otherwise (a censored measurement).
	Latency int64
	// Satisfied reports whether a qualifying rcv occurred within the window.
	Satisfied bool
}

// ProgressReport summarises progress measurements over a trace.
type ProgressReport struct {
	// Samples holds one entry per (receiver, triggering broadcast) pair.
	Samples []ProgressSample
	// Satisfied and Unsatisfied count samples with and without a
	// qualifying reception inside the observation window.
	Satisfied   int
	Unsatisfied int
	// MaxLatency and MeanLatency summarise latencies over all samples
	// (censored samples contribute their window length).
	MaxLatency  int64
	MeanLatency float64
}

// SatisfactionRate returns the fraction of samples whose window contained a
// qualifying reception (1 when there are no samples).
func (r ProgressReport) SatisfactionRate() float64 {
	total := r.Satisfied + r.Unsatisfied
	if total == 0 {
		return 1
	}
	return float64(r.Satisfied) / float64(total)
}

// MeasureProgress measures the (approximate) progress latency of a trace.
//
// g is the reliable-communication graph G := G_{1-ε}: a reception counts
// only if the received message originates at a G-neighbour of the receiver
// (the paper's rcv semantics). trigger selects which broadcasting
// neighbours open an observation window at a receiver: passing G measures
// the classic progress bound f_prog, passing G̃ := G_{1-2ε} measures the
// approximate-progress bound f_approg of Definition 7.1. horizon caps the
// observation window of broadcasts that never completed.
//
// Every rcv event counts, wherever it sits in the slice relative to its
// message's bcast: a window is satisfied by the earliest qualifying rcv
// slot within it.
func MeasureProgress(events []Event, g, trigger *graphs.Graph, horizon int64) ProgressReport {
	ix := indexTrace(events, horizon)
	q := indexQualifying(events, g)
	total := 0
	for _, l := range ix.msgs {
		total += trigger.Degree(l.msg.Origin)
	}
	var report ProgressReport
	if total > 0 {
		report.Samples = make([]ProgressSample, 0, total)
	}
	var latencySum int64
	ix.eachWindow(trigger, q, func(sample ProgressSample) {
		if sample.Satisfied {
			report.Satisfied++
		} else {
			report.Unsatisfied++
		}
		if sample.Latency > report.MaxLatency {
			report.MaxLatency = sample.Latency
		}
		latencySum += sample.Latency
		report.Samples = append(report.Samples, sample)
	})
	if len(report.Samples) > 0 {
		report.MeanLatency = float64(latencySum) / float64(len(report.Samples))
	}
	return report
}

// DeadlineReport is the fault-mode violation accounting layered on top of
// CheckAcks and MeasureProgress: under fault injection the absolute spec
// properties may legitimately fail (a crashed neighbour never receives, a
// jammed slot delays an ack), so instead of a boolean verdict the checker
// counts deadline misses — broadcasts not acknowledged within AckDeadline
// and progress windows not satisfied within ProgressDeadline.
type DeadlineReport struct {
	// AckDeadline and ProgressDeadline are the slot budgets checked.
	AckDeadline      int64
	ProgressDeadline int64
	// Bcasts counts broadcasts observed; Aborted the ones the MAC aborted
	// (excluded from deadline accounting — an abort is an explicit signal,
	// not a silent miss).
	Bcasts  int
	Aborted int
	// LateAcks counts broadcasts acknowledged after AckDeadline and
	// NeverAcked the ones with no ack whose deadline expired before the
	// horizon (still-in-flight broadcasts near the end of the trace are
	// censored, not counted as misses); AckMisses is their sum.
	LateAcks   int
	NeverAcked int
	AckMisses  int
	// NiceViolations counts acknowledged broadcasts missing a G-neighbour
	// delivery (AckReport.Violations): under crash faults these are the
	// expected signature of acks racing a neighbour's death.
	NiceViolations int
	// ProgressWindows counts progress observation windows and
	// ProgressMisses the ones unsatisfied or satisfied past
	// ProgressDeadline.
	ProgressWindows int
	ProgressMisses  int
}

// CheckDeadlines folds the acknowledgment and progress measurements of a
// trace into deadline-miss counts: it reads the same index as CheckAcks and
// MeasureProgress but counts records and progress windows without building
// them. g is the reliable communication graph (also used as the progress
// trigger graph); horizon caps unfinished observation windows as in
// MeasureProgress.
func CheckDeadlines(events []Event, g *graphs.Graph, ackDeadline, progressDeadline, horizon int64) DeadlineReport {
	rep := DeadlineReport{AckDeadline: ackDeadline, ProgressDeadline: progressDeadline}
	ix := indexTrace(events, horizon)
	rep.Bcasts = len(ix.msgs)
	first := newFirstRcv(g.NumNodes())
	for m, l := range ix.msgs {
		switch {
		case l.aborted && l.ackSlot < 0:
			rep.Aborted++
		case l.ackSlot < 0:
			if l.bcastSlot+ackDeadline <= horizon {
				rep.NeverAcked++
			}
		case l.latency > ackDeadline:
			rep.LateAcks++
		}
		if l.ackSlot >= 0 && len(ix.missedNeighbors(events, m, g, first, false)) > 0 {
			rep.NiceViolations++
		}
	}
	rep.AckMisses = rep.LateAcks + rep.NeverAcked
	ix.eachWindow(g, indexQualifying(events, g), func(s ProgressSample) {
		rep.ProgressWindows++
		switch {
		case !s.Satisfied:
			if s.StartSlot+progressDeadline <= horizon {
				rep.ProgressMisses++
			}
		case s.Latency > progressDeadline:
			rep.ProgressMisses++
		}
	})
	return rep
}
