package macnode

import (
	"math/bits"

	"sinrmac/internal/core"
)

// idSet is the set of message ids a node has delivered upward: open
// addressing over a power-of-two table with linear probing, grown to twice
// its size whenever an insertion would fill more than half of it. A table
// entry of 0 marks an empty slot, so id 0 lives in its own flag; every
// other id, math.MaxUint64 included, lives in the table as itself.
type idSet struct {
	table []core.MessageID
	shift uint // 64 − log2(len(table))
	n     int  // ids in table
	zero  bool // whether id 0 is in the set
}

const (
	// idSetMinSize is the table size of the first insertion.
	idSetMinSize = 16
	// idSetHashMul is 2^64/φ rounded to odd, the Fibonacci hash multiplier.
	idSetHashMul = 0x9E3779B97F4A7C15
)

// slot returns the home slot of id: the top bits of a Fibonacci hash, so
// ids that differ only in their high bits (node<<32 | seq) spread too.
func (s *idSet) slot(id core.MessageID) int {
	return int(uint64(id) * idSetHashMul >> s.shift)
}

// add inserts id and reports whether it was absent.
func (s *idSet) add(id core.MessageID) bool {
	if id == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	if 2*(s.n+1) > len(s.table) {
		s.grow()
	}
	mask := len(s.table) - 1
	for i := s.slot(id); ; i = (i + 1) & mask {
		switch s.table[i] {
		case id:
			return false
		case 0:
			s.table[i] = id
			s.n++
			return true
		}
	}
}

// grow doubles the table (or allocates the first one) and reinserts every
// id.
func (s *idSet) grow() {
	old := s.table
	size := max(2*len(old), idSetMinSize)
	s.table, s.n = make([]core.MessageID, size), 0
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, id := range old {
		if id != 0 {
			s.add(id)
		}
	}
}

// clear empties the set and keeps its table.
func (s *idSet) clear() {
	clear(s.table)
	s.n = 0
	s.zero = false
}
