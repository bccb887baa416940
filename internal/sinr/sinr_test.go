package sinr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

func testParams() Params { return DefaultParams(10) }

func TestDefaultParamsRange(t *testing.T) {
	for _, r := range []float64{1, 5, 10, 42.5, 100} {
		p := DefaultParams(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("DefaultParams(%v) invalid: %v", r, err)
		}
		if got := p.Range(); math.Abs(got-r) > 1e-9*r {
			t.Fatalf("Range = %v, want %v", got, r)
		}
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"valid", func(p *Params) {}, false},
		{"alpha too small", func(p *Params) { p.Alpha = 2 }, true},
		{"beta too small", func(p *Params) { p.Beta = 1 }, true},
		{"zero noise", func(p *Params) { p.Noise = 0 }, true},
		{"negative power", func(p *Params) { p.Power = -1 }, true},
		{"epsilon zero", func(p *Params) { p.Epsilon = 0 }, true},
		{"epsilon half", func(p *Params) { p.Epsilon = 0.5 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := testParams()
			tc.mutate(&p)
			err := p.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate error = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestRangeOrdering(t *testing.T) {
	p := testParams()
	if !(p.StrongRange() < p.Range()) {
		t.Fatalf("range ordering violated: %v %v", p.StrongRange(), p.Range())
	}
	if got, want := p.StrongRange(), (1-p.Epsilon)*p.Range(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("StrongRange = %v, want %v", got, want)
	}
}

func TestReceivedPowerNearFieldClamp(t *testing.T) {
	p := testParams()
	if got, want := p.ReceivedPower(0.1), p.ReceivedPower(1); got != want {
		t.Fatalf("near-field clamp missing: %v != %v", got, want)
	}
	if p.ReceivedPower(2) >= p.ReceivedPower(1) {
		t.Fatal("received power does not decay with distance")
	}
}

func TestNewChannelErrors(t *testing.T) {
	if _, err := NewChannel(Params{}, []geom.Point{{X: 0, Y: 0}}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := NewChannel(testParams(), nil); err == nil {
		t.Fatal("empty deployment accepted")
	}
	for _, bad := range []geom.Point{
		{X: math.NaN()}, {Y: math.Inf(1)}, {X: math.Inf(-1)}, {X: 1e300}, {Y: -2 * MaxCoordinate},
	} {
		if _, err := NewChannel(testParams(), []geom.Point{{}, bad}); err == nil ||
			!strings.Contains(err.Error(), "finite") {
			t.Errorf("position %v: NewChannel error = %v, want a finite-range error", bad, err)
		}
	}
	if _, err := NewChannel(testParams(), []geom.Point{{X: -MaxCoordinate, Y: MaxCoordinate}}); err != nil {
		t.Fatalf("position at the MaxCoordinate bound rejected: %v", err)
	}
}

func TestChannelPositionsCopied(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	ch, err := NewChannel(testParams(), pos)
	if err != nil {
		t.Fatal(err)
	}
	pos[0] = geom.Point{X: 100, Y: 100}
	if ch.Dist(0, 1) != 1 {
		t.Fatal("channel shares caller's position slice")
	}
	got := ch.Positions()
	got[1] = geom.Point{X: 50, Y: 50}
	if ch.Dist(0, 1) != 1 {
		t.Fatal("Positions exposes internal slice")
	}
}

func TestSingleTransmitterInRange(t *testing.T) {
	// Two nodes at distance well inside R: a lone transmission must decode.
	p := testParams()
	ch, err := NewChannel(p, []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Decodes(1, 0, []int{0}) {
		t.Fatal("lone in-range transmission not decoded")
	}
	if ch.Decodes(0, 0, []int{0}) {
		t.Fatal("node decoded its own transmission")
	}
}

func TestSingleTransmitterOutOfRange(t *testing.T) {
	p := testParams()
	ch, err := NewChannel(p, []geom.Point{{X: 0, Y: 0}, {X: p.Range() * 1.01, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Decodes(1, 0, []int{0}) {
		t.Fatal("out-of-range transmission decoded")
	}
}

func TestRangeIsExactThreshold(t *testing.T) {
	p := testParams()
	r := p.Range()
	ch, err := NewChannel(p, []geom.Point{{X: 0, Y: 0}, {X: r * 0.999, Y: 0}, {X: 0, Y: r * 1.001}})
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Decodes(1, 0, []int{0}) {
		t.Fatal("transmission just inside R not decoded")
	}
	if ch.Decodes(2, 0, []int{0}) {
		t.Fatal("transmission just outside R decoded")
	}
}

func TestHalfDuplex(t *testing.T) {
	p := testParams()
	ch, err := NewChannel(p, []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Decodes(1, 0, []int{0, 1}) {
		t.Fatal("transmitting node decoded a concurrent transmission")
	}
}

func TestInterferenceBlocksReception(t *testing.T) {
	// Receiver between two equidistant transmitters: with β > 1 neither can
	// be decoded because signal == interference.
	p := testParams()
	ch, err := NewChannel(p, []geom.Point{{X: -3, Y: 0}, {X: 3, Y: 0}, {X: 0, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Decodes(2, 0, []int{0, 1}) || ch.Decodes(2, 1, []int{0, 1}) {
		t.Fatal("reception succeeded despite symmetric interference")
	}
	// Without the interferer the same link works.
	if !ch.Decodes(2, 0, []int{0}) {
		t.Fatal("link broken without interference")
	}
}

func TestCaptureEffect(t *testing.T) {
	// A very close transmitter should be decodable despite a far interferer.
	p := testParams()
	ch, err := NewChannel(p, []geom.Point{{X: 1.5, Y: 0}, {X: 9.5, Y: 0}, {X: 0, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Decodes(2, 0, []int{0, 1}) {
		t.Fatal("close transmitter not captured over far interferer")
	}
	if ch.Decodes(2, 1, []int{0, 1}) {
		t.Fatal("far transmitter decoded despite strong close interferer")
	}
}

func TestInterferenceAdditive(t *testing.T) {
	p := testParams()
	pos := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}, {X: 2, Y: 2}}
	ch, err := NewChannel(p, pos)
	if err != nil {
		t.Fatal(err)
	}
	i12 := ch.Interference(3, []int{1}, -1)
	i13 := ch.Interference(3, []int{2}, -1)
	both := ch.Interference(3, []int{1, 2}, -1)
	if math.Abs(both-(i12+i13)) > 1e-9 {
		t.Fatalf("interference not additive: %v + %v != %v", i12, i13, both)
	}
	// Excluding the sender removes its contribution.
	if got := ch.Interference(3, []int{1, 2}, 1); math.Abs(got-i13) > 1e-9 {
		t.Fatalf("sender exclusion wrong: %v != %v", got, i13)
	}
	// The receiver itself never contributes.
	if got := ch.Interference(3, []int{3}, -1); got != 0 {
		t.Fatalf("receiver contributed interference %v to itself", got)
	}
}

func TestSINRMonotoneInInterferers(t *testing.T) {
	p := testParams()
	ch, err := NewChannel(p, []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 6, Y: 0}, {X: 9, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	s1 := ch.SINR(1, 0, []int{0})
	s2 := ch.SINR(1, 0, []int{0, 2})
	s3 := ch.SINR(1, 0, []int{0, 2, 3})
	if !(s1 > s2 && s2 > s3) {
		t.Fatalf("SINR not monotone decreasing in interferers: %v %v %v", s1, s2, s3)
	}
}

func TestSlotReceptionsMatchesDecodes(t *testing.T) {
	p := testParams()
	src := rng.New(4)
	pos := make([]geom.Point, 40)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 30, Y: src.Float64() * 30}
	}
	ch, err := NewChannel(p, pos)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		var tx []int
		for i := range pos {
			if src.Bernoulli(0.2) {
				tx = append(tx, i)
			}
		}
		rec := ch.SlotReceptions(tx)
		for r := range pos {
			// Find expected sender via Decodes.
			want := -1
			for _, s := range tx {
				if ch.Decodes(r, s, tx) {
					want = s
					break
				}
			}
			if rec[r].Sender != want {
				t.Fatalf("trial %d node %d: SlotReceptions sender %d, Decodes says %d",
					trial, r, rec[r].Sender, want)
			}
		}
	}
}

func TestSlotReceptionsEmpty(t *testing.T) {
	ch, err := NewChannel(testParams(), []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rec := ch.SlotReceptions(nil)
	for i, r := range rec {
		if r.Sender != -1 {
			t.Fatalf("node %d decoded sender %d with no transmitters", i, r.Sender)
		}
	}
}

// Property: at most one sender can be decoded per receiver per slot when
// β > 1 (the paper's uniqueness argument).
func TestQuickAtMostOneDecodablePerSlot(t *testing.T) {
	p := testParams()
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 5 + src.Intn(30)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * 40, Y: src.Float64() * 40}
		}
		ch, err := NewChannel(p, pos)
		if err != nil {
			return false
		}
		var tx []int
		for i := 0; i < n; i++ {
			if src.Bernoulli(0.3) {
				tx = append(tx, i)
			}
		}
		for r := 0; r < n; r++ {
			decodable := 0
			for _, s := range tx {
				if ch.Decodes(r, s, tx) {
					decodable++
				}
			}
			if decodable > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLambda(t *testing.T) {
	p := testParams()
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 5, Y: 0}}
	want := p.StrongRange() / 1.0
	if got := Lambda(p, pos); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Lambda = %v, want %v", got, want)
	}
	if got := Lambda(p, []geom.Point{{X: 0, Y: 0}}); got != 1 {
		t.Fatalf("Lambda(single node) = %v, want 1", got)
	}
	// Very sparse deployment: Λ clamps at 1.
	sparse := []geom.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}}
	if got := Lambda(p, sparse); got != 1 {
		t.Fatalf("Lambda(sparse) = %v, want 1", got)
	}
}

func TestMaxContentionBound(t *testing.T) {
	if got := MaxContentionBound(3); got != 36 {
		t.Fatalf("MaxContentionBound(3) = %v", got)
	}
	if got := MaxContentionBound(1); got != 4 {
		t.Fatalf("MaxContentionBound(1) = %v", got)
	}
}

func BenchmarkSlotReceptions200(b *testing.B) {
	p := testParams()
	src := rng.New(8)
	pos := make([]geom.Point, 200)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 60, Y: src.Float64() * 60}
	}
	ch, err := NewChannel(p, pos)
	if err != nil {
		b.Fatal(err)
	}
	var tx []int
	for i := range pos {
		if i%5 == 0 {
			tx = append(tx, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SlotReceptions(tx)
	}
}
