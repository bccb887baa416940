package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if r.Len() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	r.Record(Event{Kind: EventRcv, Node: 1, Msg: msg(1, 0), Slot: 5})
	r.Record(Event{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 2})
	evs := r.Events()
	if len(evs) != 2 || r.Len() != 2 {
		t.Fatalf("Len/Events mismatch: %d/%d", r.Len(), len(evs))
	}
	if evs[0].Slot != 2 || evs[1].Slot != 5 {
		t.Fatalf("events not sorted by slot: %+v", evs)
	}
	if got := r.EventsOfKind(EventBcast); len(got) != 1 || got[0].Kind != EventBcast {
		t.Fatalf("EventsOfKind = %+v", got)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset did not clear events")
	}
}

func TestRecorderEventsIsCopy(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: EventBcast, Node: 0, Msg: msg(1, 0), Slot: 1})
	evs := r.Events()
	evs[0].Slot = 99
	if r.Events()[0].Slot != 1 {
		t.Fatal("Events exposed internal storage")
	}
}

// TestRecorderSlotOrder records traces long enough to span several blocks,
// in slot order and out of it, and requires Events to equal a stable sort
// by slot of the insertion order and EventsOfKind to equal its filter. Each
// trace follows a Reset that discards an earlier event.
func TestRecorderSlotOrder(t *testing.T) {
	const n = 3*recorderMaxBlock + 17
	kinds := []EventKind{EventBcast, EventRcv, EventAck, EventAbort}
	for _, tc := range []struct {
		name string
		slot func(i int) int64
	}{
		{"in-order", func(i int) int64 { return int64(i / 5) }},
		{"one-late-event", func(i int) int64 {
			if i == n-1 {
				return 0
			}
			return int64(i / 5)
		}},
		{"descending", func(i int) int64 { return int64((n - i) / 3) }},
		{"interleaved", func(i int) int64 { return int64(i%7*1000 + i/100) }},
		{"negative-first", func(i int) int64 { return int64(i) - 10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			r.Record(Event{Kind: EventBcast, Slot: 1 << 40}) // discarded by Reset
			r.Reset()
			want := make([]Event, n)
			for i := range want {
				want[i] = Event{Kind: kinds[i*7%len(kinds)], Node: i % 13, Msg: msg(MessageID(i), i%11), Slot: tc.slot(i)}
				r.Record(want[i])
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].Slot < want[j].Slot })
			if got := r.Events(); !reflect.DeepEqual(got, want) {
				t.Fatal("Events differs from the stable sort of the insertion order")
			}
			for _, k := range kinds {
				var wantK []Event
				for _, ev := range want {
					if ev.Kind == k {
						wantK = append(wantK, ev)
					}
				}
				if got := r.EventsOfKind(k); !reflect.DeepEqual(got, wantK) {
					t.Fatalf("EventsOfKind(%v) differs from the filtered sorted trace", k)
				}
			}
		})
	}
}

// TestRecorderBlocks checks the block sizes: doubling from
// recorderFirstBlock to recorderMaxBlock, every block but the last full, so
// the slack is under one block.
func TestRecorderBlocks(t *testing.T) {
	r := NewRecorder()
	const n = 5*recorderMaxBlock + 3
	for i := 0; i < n; i++ {
		r.Record(Event{Slot: int64(i)})
	}
	size, total := recorderFirstBlock, 0
	for k, b := range r.blocks {
		if cap(b) != size || (k < len(r.blocks)-1 && len(b) != cap(b)) {
			t.Fatalf("block %d holds %d of %d events, want capacity %d and full unless last", k, len(b), cap(b), size)
		}
		total += len(b)
		size = min(2*size, recorderMaxBlock)
	}
	if total != n {
		t.Fatalf("blocks hold %d events, want %d", total, n)
	}
}

// TestRecorderConcurrentRecord records from eight goroutines, enough events
// to span several blocks, and requires every event exactly once.
func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const goroutines, perG = 8, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Record(Event{Kind: EventRcv, Node: g, Msg: msg(MessageID(i), g), Slot: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != goroutines*perG {
		t.Fatalf("lost events: %d", r.Len())
	}
	var seen [goroutines][perG]int
	for _, ev := range r.Events() {
		if ev.Msg.ID != MessageID(ev.Slot) {
			t.Fatalf("corrupted event %+v", ev)
		}
		seen[ev.Node][ev.Slot]++
	}
	for g := range seen {
		for i, c := range seen[g] {
			if c != 1 {
				t.Fatalf("event (%d, %d) recorded %d times", g, i, c)
			}
		}
	}
}
