package macnode

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"sinrmac/internal/core"
)

// checkIDSet applies ids to a fresh idSet and a map, requiring every add to
// report what the map reports, the table to stay at most half full, and
// every id to be present at the end.
func checkIDSet(t *testing.T, ids []core.MessageID) {
	t.Helper()
	var s idSet
	ref := map[core.MessageID]bool{}
	for i, id := range ids {
		if got, want := s.add(id), !ref[id]; got != want {
			t.Fatalf("op %d: add(%#x) = %v, want %v", i, uint64(id), got, want)
		}
		ref[id] = true
		if 2*s.n > len(s.table) {
			t.Fatalf("op %d: %d ids in a table of %d", i, s.n, len(s.table))
		}
	}
	size := s.n
	if s.zero {
		size++
	}
	if size != len(ref) {
		t.Fatalf("set holds %d ids, want %d", size, len(ref))
	}
	for id := range ref {
		if s.add(id) {
			t.Fatalf("id %#x missing after %d adds", uint64(id), len(ids))
		}
	}
}

// idSetHashInv is the inverse of idSetHashMul modulo 2^64: adding it to an
// id adds one to the id's hash.
const idSetHashInv = 0xF1DE83E19937733D

// collidingIDs returns k nonzero ids whose home slot in a table of the
// given size is the same.
func collidingIDs(size, k int) []core.MessageID {
	probe := idSet{table: make([]core.MessageID, size)}
	probe.shift = uint(64 - bits.TrailingZeros(uint(size)))
	var ids []core.MessageID
	home := -1
	for id := core.MessageID(1); len(ids) < k; id++ {
		if h := probe.slot(id); home < 0 || h == home {
			home = h
			ids = append(ids, id)
		}
	}
	return ids
}

func TestIDSet(t *testing.T) {
	if mul, inv := uint64(idSetHashMul), uint64(idSetHashInv); mul*inv != 1 {
		t.Fatal("idSetHashInv is not the inverse of idSetHashMul")
	}
	seq := func(n int, f func(i int) core.MessageID) []core.MessageID {
		ids := make([]core.MessageID, n)
		for i := range ids {
			ids[i] = f(i)
		}
		return ids
	}
	collide := collidingIDs(idSetMinSize, 7)
	for _, tc := range []struct {
		name string
		ids  []core.MessageID
	}{
		{"empty", nil},
		{"zero-and-max", []core.MessageID{0, math.MaxUint64, 0, math.MaxUint64, 1, math.MaxUint64 - 1, 1}},
		{"colliding", append(append(collide, collide...), 0)},
		{"colliding-across-growth", append(collidingIDs(64, 40), collidingIDs(64, 40)...)},
		{"rehash", append(seq(1000, func(i int) core.MessageID { return core.MessageID(i) }),
			seq(1000, func(i int) core.MessageID { return core.MessageID(999 - i) })...)},
		{"node-seq", seq(3000, func(i int) core.MessageID { return core.MessageID(uint64(i%7)<<32 | uint64(i%500)) })},
		{"high-bits", seq(600, func(i int) core.MessageID { return core.MessageID(uint64(i%300) << 48) })},
	} {
		t.Run(tc.name, func(t *testing.T) { checkIDSet(t, tc.ids) })
	}
}

func TestIDSetClear(t *testing.T) {
	var s idSet
	for id := core.MessageID(0); id < 100; id++ {
		s.add(id)
	}
	size := len(s.table)
	s.clear()
	if s.n != 0 || s.zero || len(s.table) != size {
		t.Fatalf("clear left n=%d zero=%v table %d (want 0, false, %d)", s.n, s.zero, len(s.table), size)
	}
	for id := core.MessageID(0); id < 100; id++ {
		if !s.add(id) {
			t.Fatalf("id %d still present after clear", id)
		}
	}
}

// FuzzIDSet decodes data into ids (one byte picks 0, math.MaxUint64, a
// small id that repeats, an id colliding with the last, or the next eight
// bytes as an id) and holds the set to a map.
func FuzzIDSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 1, 1, 2, 9, 2, 9, 3, 3, 3})
	f.Add(make([]byte, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ids []core.MessageID
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op % 5 {
			case 0:
				ids = append(ids, 0)
			case 1:
				ids = append(ids, math.MaxUint64)
			case 2:
				ids = append(ids, core.MessageID(op/5))
			case 3:
				// The hash of the new id is one more than the last id's,
				// so both almost always share a home slot.
				if len(ids) > 0 {
					ids = append(ids, ids[len(ids)-1]+idSetHashInv)
				}
			case 4:
				var b [8]byte
				data = data[copy(b[:], data):]
				ids = append(ids, core.MessageID(binary.LittleEndian.Uint64(b[:])))
			}
		}
		checkIDSet(t, ids)
	})
}
