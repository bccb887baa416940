package sinr

// The evaluator oracle: every configuration of FastChannel — shard count,
// dispatch pin, worker count, forks and mobility epochs — must
// decide every slot exactly as the naive Channel.SlotReceptions does, at
// the same positions, and its certified-tier counters must account for
// each slot. TestEvaluatorOracle runs a fixed table of scenarios in named
// groups and FuzzEvaluatorOracle draws them. Epochs are built as EpochDelta
// values directly, so the harness needs no topology round trip.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// The scenario axes the fuzz target draws from. An empty pin is the
// adaptive dispatch, an empty fork mode takes no fork. The table's shard
// counts are the default (0) and S ∈ {1, 4, 8, defaultShardCount}; the
// fuzz target passes any int as FastOptions.Shards.
var (
	oracleLayouts = slices.Concat(randomLayouts, thresholdLayouts,
		[]string{"lone-transmitter-ring", "interference-knife-edge", "cull-boundary", "subrange", "beta-guard"})
	randomLayouts = []string{"uniform-sparse", "uniform", "uniform-dense", "line", "clusters", "outlier"}
	// thresholdLayouts put receivers on the range, near-field and
	// half-duplex edges.
	thresholdLayouts = []string{"exactly-at-range", "just-inside", "just-outside", "range-ring",
		"near-field-clamp", "coincident-nodes", "symmetric-tie", "half-duplex-pair", "strong-range-line"}
	oracleAlphas  = []float64{3, 4, 2.5}
	oraclePins    = []string{"", "sparse", "certified", "dense"}
	oracleWorkers = []int{1, 2, 4}
	oracleForks   = []string{"", "pre", "post", "concurrent"}
)

// oracleScenario is one evaluator configuration over one deployment.
type oracleScenario struct {
	layout  string  // a random layout, or a planted one (see deploy)
	n       int     // node count of the random layouts; planted layouts fix their own
	seed    uint64  // layout, range, epoch and slot seed
	offset  float64 // cluster distance of the outlier layout
	alpha   float64 // path-loss exponent; 0 means 3
	shards  int     // FastOptions.Shards: ≤ 0 is defaultShardCount
	pin     string  // the dispatch FastOptions pins: sparse, certified, dense, or adaptive
	workers int     // SetWorkers
	fork    string  // pre: forked at construction; post: forked afresh after every epoch; concurrent: pre, run beside the parent
	epochs  int     // move epochs between the legs, 0..4
	escape  float64 // the first epoch also sends one node this far beyond the bounding box
	tables  string  // built or none: the lattice's offset tables in the last leg; empty asserts nothing
}

func (sc oracleScenario) String() string {
	s := sc.layout
	if sc.offset != 0 {
		s += fmt.Sprintf("%g", sc.offset)
	}
	if sc.n != 0 {
		s += fmt.Sprintf("/n%d", sc.n)
	}
	if sc.seed != 0 {
		s += fmt.Sprintf("/seed%d", sc.seed)
	}
	if a := cmp.Or(sc.alpha, 3); a != 3 {
		s += fmt.Sprintf("/a%g", a)
	}
	// Rows at the default shard count are named "matrix", after the n×n
	// power-matrix regime that served small deployments before the lattice
	// served every size; the name keeps their test ids stable.
	regime := "matrix"
	if sc.shards > 0 {
		regime = fmt.Sprintf("s%d", sc.shards)
	}
	s += fmt.Sprintf("/%s/%s/w%d", regime, cmp.Or(sc.pin, "auto"), sc.workers)
	if sc.fork != "" {
		s += "/fork=" + sc.fork
	}
	if sc.epochs != 0 {
		s += fmt.Sprintf("/e%d", sc.epochs)
	}
	if sc.escape != 0 {
		s += fmt.Sprintf("/escape%g", sc.escape)
	}
	return s
}

// options maps the shard count and pin onto FastOptions.
func (sc oracleScenario) options() FastOptions {
	opts := map[string]FastOptions{"sparse": {SparseFactor: 1},
		"certified": {SparseFactor: -1, BoundsFactor: 1}, "dense": {SparseFactor: -1, BoundsFactor: -1}}[sc.pin]
	opts.Shards = sc.shards
	return opts
}

// oracleParams returns DefaultParams(r) with path-loss exponent alpha and,
// when beta is positive, SINR threshold beta, the power rescaled so that
// the range stays r.
func oracleParams(r, alpha, beta float64) Params {
	p := DefaultParams(r)
	p.Alpha = alpha
	if beta > 0 {
		p.Beta = beta
	}
	p.Power = p.Beta * p.Noise * math.Pow(r, alpha)
	return p
}

// deployment is a scenario's deployment and the slots its layout plants.
type deployment struct {
	params Params
	pos    []geom.Point
	// planted are the transmitter sets the planted layouts are built for,
	// evaluated first, before any epoch.
	planted [][]int
	// refine counts the receivers of planted[0] that sit exactly on the
	// SINR threshold: certified slots must refine at least these.
	refine int
}

// deploy lays out the scenario. The random layouts are uniform at three
// densities (range drawn from [5, 25)), a spacing-2 line, four clusters,
// and two clusters offset apart; the others plant nodes on the decision
// boundaries the optimised paths must not misjudge.
func (sc oracleScenario) deploy() deployment {
	src := rng.New(sc.seed)
	alpha := cmp.Or(sc.alpha, 3)
	p := oracleParams(10, alpha, 0)
	r, sr := p.Range(), p.StrongRange()
	pts := func(xy ...float64) []geom.Point {
		pos := make([]geom.Point, len(xy)/2)
		for i := range pos {
			pos[i] = geom.Point{X: xy[2*i], Y: xy[2*i+1]}
		}
		return pos
	}
	switch sc.layout {
	case "uniform-sparse", "uniform", "uniform-dense":
		side := map[string]float64{"uniform-sparse": 8, "uniform": 4, "uniform-dense": 2}[sc.layout] * math.Sqrt(float64(sc.n))
		p = oracleParams(5+20*src.Float64(), alpha, 0)
		pos := make([]geom.Point, sc.n)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
		}
		return deployment{params: p, pos: pos}
	case "line":
		pos := make([]geom.Point, sc.n)
		for i := range pos {
			pos[i] = geom.Point{X: 2 * float64(i)}
		}
		return deployment{params: p, pos: pos}
	case "clusters":
		var centres [4]geom.Point
		for c := range centres {
			centres[c] = geom.Point{X: src.Float64() * 80, Y: src.Float64() * 80}
		}
		pos := make([]geom.Point, sc.n)
		for i := range pos {
			c := centres[i%4]
			pos[i] = geom.Point{X: c.X + 6*src.Float64(), Y: c.Y + 6*src.Float64()}
		}
		return deployment{params: p, pos: pos}
	case "outlier":
		// The first half uniform in a square of density ~1/9, the second
		// half the same shape shifted by offset along x.
		half := (sc.n + 1) / 2
		side := 3 * math.Sqrt(float64(half))
		pos := make([]geom.Point, sc.n)
		for i := range pos[:half] {
			pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
		}
		for i := half; i < sc.n; i++ {
			pos[i] = geom.Point{X: pos[i-half].X + sc.offset, Y: pos[i-half].Y}
		}
		return deployment{params: p, pos: pos}
	// Receivers at, just inside and just outside the range of a lone
	// transmitter, inside the near-field clamp, on a coincident node, at a
	// symmetric interference tie, a half-duplex pair, and a line at the
	// strong range.
	case "exactly-at-range":
		return deployment{params: p, pos: pts(0, 0, r, 0), planted: [][]int{{0}}}
	case "just-inside":
		return deployment{params: p, pos: pts(0, 0, r*0.999999, 0), planted: [][]int{{0}}}
	case "just-outside":
		return deployment{params: p, pos: pts(0, 0, r*1.000001, 0), planted: [][]int{{0}}}
	case "range-ring":
		return deployment{params: p, pos: pts(0, 0, r, 0, -r, 0, 0, r, 0, -r), planted: [][]int{{0}}}
	case "near-field-clamp":
		return deployment{params: p, pos: pts(0, 0, 0.25, 0, 0.5, 0), planted: [][]int{{0}}}
	case "coincident-nodes":
		return deployment{params: p, pos: pts(3, 3, 3, 3, 5, 3), planted: [][]int{{0}}}
	case "symmetric-tie":
		return deployment{params: p, pos: pts(-3, 0, 3, 0, 0, 0), planted: [][]int{{0, 1}}}
	case "half-duplex-pair":
		return deployment{params: p, pos: pts(0, 0, 2, 0), planted: [][]int{{0, 1}}}
	case "strong-range-line":
		return deployment{params: p, pos: pts(0, 0, sr, 0, 2*sr, 0), planted: [][]int{{0, 2}}}
	case "lone-transmitter-ring":
		// One transmitter and four receivers exactly at range R: with no
		// interference their SINR is exactly β. The others certify: two
		// decode, three stay silent.
		return deployment{params: p, pos: pts(0, 0, r, 0, -r, 0, 0, r, 0, -r,
			r/2, 0, 0, r/3, 2*r, 0, 2*r, 2*r, -2*r, r/2), planted: [][]int{{0}}, refine: 4}
	case "interference-knife-edge":
		// The receiver at the origin hears tx1 at R/2, and tx2 sits where
		// its interference puts the exact SINR on β. The far listeners
		// certify silence without detuning the edge.
		signal := p.Power / math.Pow(r/2, alpha)
		d2 := math.Pow(p.Power/(signal/p.Beta-p.Noise), 1/alpha)
		return deployment{params: p, pos: pts(0, 0, r/2, 0, -d2, 0, r/4, 100, 100, 100, 100+r/3, 100),
			planted: [][]int{{1, 2}}, refine: 1}
	case "cull-boundary":
		// The lone transmitter's culling-radius circle (where the r²-domain
		// predicates decide membership), one ulp either side of it, the
		// range R and the near-field clamp distance 1 the same way, and one
		// far node. A second transmitter there adds interference without
		// moving the boundary points; then two boundary nodes transmit.
		p = oracleParams(12, alpha, 0)
		cr := math.Max(p.Range(), 1) * (1 + cullSlack)
		r := p.Range()
		up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
		down := func(x float64) float64 { return math.Nextafter(x, 0) }
		return deployment{params: p, pos: pts(0, 0, cr, 0, up(cr), 0, down(cr), 0, -cr, 0, 0, cr,
			cr/math.Sqrt2, cr/math.Sqrt2, up(cr/math.Sqrt2), up(cr/math.Sqrt2), r, 0, up(r), 0, down(r), 0,
			-r/math.Sqrt2, r/math.Sqrt2, 1, 0, up(1), 0, down(1), 0, 0.25, 0, 40, 40),
			planted: [][]int{{0}, {0, 16}, {0, 1, 8}}}
	case "subrange":
		// R < 1: the candidate radius must not collapse below the
		// near-field clamp distance.
		return deployment{params: oracleParams(0.9, alpha, 0), pos: pts(0, 0, 0.5, 0, 2, 0), planted: [][]int{{0}, {0, 2}}}
	case "beta-guard":
		// β − 1 below boundsBetaMin: the certificates must decline.
		pos := make([]geom.Point, 80)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * 40, Y: src.Float64() * 40}
		}
		var tx []int
		for i := 0; i < len(pos); i += 2 {
			tx = append(tx, i)
		}
		return deployment{params: oracleParams(10, alpha, 1+1e-12), pos: pos, planted: [][]int{tx}}
	}
	panic("unknown oracle layout " + sc.layout)
}

// moves draws the scenario's epochs from the initial positions. Each epoch
// jitters a quarter of the nodes by up to half a range (half of them on odd
// epochs, a storm), mirrors one node across the bounding box on x (which
// crosses every stripe boundary), sends one node anywhere in the box
// widened by half its extent (it may leave the cell lattice), and returns
// one node to its initial position. The first epoch also sends one node
// escape beyond the box.
func (sc oracleScenario) moves(pos []geom.Point, r float64) []*EpochDelta {
	src := rng.New(sc.seed ^ 0x6d6f766573)
	n := len(pos)
	box := geom.BoundingBox(pos)
	w, h := box.Width(), box.Height()
	cur := slices.Clone(pos)
	deltas := make([]*EpochDelta, 0, sc.epochs)
	for e := 0; e < sc.epochs; e++ {
		prev := slices.Clone(cur)
		movers := max(1, n/4)
		if e%2 == 1 {
			movers = max(1, n/2)
		}
		for k := 0; k < movers; k++ {
			id := src.Intn(n)
			cur[id].X += r * (src.Float64() - 0.5)
			cur[id].Y += r * (src.Float64() - 0.5)
		}
		id := src.Intn(n)
		cur[id].X = box.Min.X + box.Max.X - cur[id].X
		cur[src.Intn(n)] = geom.Point{X: box.Min.X - w/4 + 1.5*w*src.Float64(), Y: box.Min.Y - h/4 + 1.5*h*src.Float64()}
		if e == 0 && sc.escape > 0 {
			cur[src.Intn(n)] = geom.Point{X: box.Max.X + sc.escape, Y: box.Max.Y + sc.escape}
		}
		id = src.Intn(n)
		cur[id] = pos[id]
		d := &EpochDelta{Positions: slices.Clone(cur)}
		for i := range cur {
			if cur[i] != prev[i] {
				d.Dirty = append(d.Dirty, i)
			}
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// oracleSlotSets draws one leg's transmitter sets over n nodes: k = 0, a
// lone transmitter, densities 1/32 and 1/4 (the latter with a quarter of
// its ids repeated), all nodes but one (k = n − 1), and every node in
// random order with one id repeated (k = n).
func oracleSlotSets(src *rng.Source, n int) [][]int {
	var sparse, dense []int
	for i := 0; i < n; i++ {
		if src.Bernoulli(1.0 / 32) {
			sparse = append(sparse, i)
		}
		if src.Bernoulli(0.25) {
			dense = append(dense, i)
		}
	}
	dense = append(dense, dense[:(len(dense)+3)/4]...)
	skip := src.Intn(n)
	butOne := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != skip {
			butOne = append(butOne, i)
		}
	}
	all := src.Perm(n)
	all = append(all, all[src.Intn(n)])
	return [][]int{nil, {src.Intn(n)}, sparse, dense, butOne, all}
}

// oracleLeg is the stretch of slots between two epochs.
type oracleLeg struct {
	delta *EpochDelta // applied before the leg; nil for the first
	tx    [][]int
	want  [][]Reception // the naive channel's receptions
}

// oracleRef is a deployment's slot schedule and its naive receptions.
type oracleRef struct {
	deployment
	legs []oracleLeg
}

// deploymentKey clears the fields that configure the evaluator, leaving
// those that determine the deployment, its epochs and its slots.
func (sc oracleScenario) deploymentKey() oracleScenario {
	return oracleScenario{layout: sc.layout, n: sc.n, seed: sc.seed, offset: sc.offset,
		alpha: sc.alpha, epochs: sc.epochs, escape: sc.escape}
}

// reference evaluates the scenario's slots on the naive channel.
func (sc oracleScenario) reference(t testing.TB) *oracleRef {
	t.Helper()
	ref := &oracleRef{deployment: sc.deploy()}
	ch, err := NewChannel(ref.params, ref.pos)
	if err != nil {
		t.Fatalf("%v: %v", sc, err)
	}
	deltas := sc.moves(ref.pos, ref.params.Range())
	src := rng.New(sc.seed ^ 0x736c6f7473)
	for l := 0; l <= sc.epochs; l++ {
		var leg oracleLeg
		if l > 0 {
			leg.delta = deltas[l-1]
			if err := ch.ApplyEpoch(leg.delta); err != nil {
				t.Fatalf("%v: epoch %d: %v", sc, l, err)
			}
		} else {
			leg.tx = append(leg.tx, ref.planted...)
		}
		leg.tx = append(leg.tx, oracleSlotSets(src, len(ref.pos))...)
		for _, tx := range leg.tx {
			leg.want = append(leg.want, ch.SlotReceptions(tx))
		}
		ref.legs = append(ref.legs, leg)
	}
	return ref
}

// checkOracle runs sc against its naive reference, memoised in refs by
// deployment, and fails on the first difference.
func checkOracle(t testing.TB, sc oracleScenario, refs map[oracleScenario]*oracleRef) {
	t.Helper()
	key := sc.deploymentKey()
	ref, ok := refs[key]
	if !ok {
		ref = key.reference(t)
		refs[key] = ref
	}
	ch, err := NewChannel(ref.params, ref.pos)
	if err != nil {
		t.Fatalf("%v: %v", sc, err)
	}
	f := NewFastChannel(ch, sc.options())
	defer f.Close()
	f.SetWorkers(sc.workers)
	shards := f.Shards()
	if want := cmp.Or(max(sc.shards, 0), defaultShardCount); shards != want {
		t.Fatalf("%v: %d shards, want %d", sc, shards, want)
	}
	var g *FastChannel
	defer func() {
		if g != nil {
			g.Close()
		}
	}()
	fork := func() {
		t.Helper()
		if g != nil {
			g.Close()
		}
		g = f.Fork()
		if g.bidx == nil || g.bidx != f.bidx || g.Shards() != shards || g.BoundsStats() != (BoundsStats{}) {
			t.Fatalf("%v: a fork must share the parent's index and start with zero counters, got %+v", sc, g.BoundsStats())
		}
	}
	if sc.fork == "pre" || sc.fork == "concurrent" {
		fork()
	}
	for l, leg := range ref.legs {
		if leg.delta != nil {
			for _, m := range []*FastChannel{f, g} {
				if m != nil {
					if err := m.ApplyEpoch(leg.delta); err != nil {
						t.Fatalf("%v: epoch %d: %v", sc, l, err)
					}
				}
			}
		}
		if sc.fork == "post" {
			fork()
		}
		bi := f.bidx
		switch {
		case f.Shards() != shards:
			t.Fatalf("%v: leg %d: %d shards, %d at construction", sc, l, f.Shards(), shards)
		case g != nil && g.bidx != bi:
			t.Fatalf("%v: leg %d: the fork no longer shares the parent's index", sc, l)
		case bi == nil || bi.shardCells == nil:
			t.Fatalf("%v: leg %d: the evaluator does not hold the lattice's index", sc, l)
		case l == sc.epochs && sc.tables != "" && (bi.pwUB != nil) != (sc.tables == "built"):
			t.Fatalf("%v: offset tables built = %v in the last leg, want %s", sc, bi.pwUB != nil, sc.tables)
		}
		sc.runLeg(t, ref, l, f, g)
		if l == sc.epochs && sc.tables == "none" {
			// The dense slot of the leg's random sets, on warm scratch.
			tx := leg.tx[len(leg.tx)-3]
			if allocs := testing.AllocsPerRun(10, func() { f.SlotReceptions(tx) }); allocs != 0 {
				t.Errorf("%v: a lattice without tables allocates %.1f objects per slot, want 0", sc, allocs)
			}
		}
	}
}

// runLeg evaluates one leg on the parent f and, when the scenario forks,
// on g in reverse slot order: interleaved, so each member's receptions
// must survive the other's next slot, or concurrently with the parent.
func (sc oracleScenario) runLeg(t testing.TB, ref *oracleRef, l int, f, g *FastChannel) {
	t.Helper()
	m := len(ref.legs[l].tx)
	if sc.fork == "concurrent" {
		errs := make(chan string, 2)
		for _, member := range []*FastChannel{f, g} {
			go func() {
				for i := 0; i < m; i++ {
					j := i
					if member == g {
						j = m - 1 - i
					}
					before := member.BoundsStats()
					got := member.SlotReceptions(ref.legs[l].tx[j])
					if msg := sc.verify(ref, l, j, member, got, before); msg != "" {
						errs <- msg
						return
					}
				}
				errs <- ""
			}()
		}
		for range 2 {
			if msg := <-errs; msg != "" {
				t.Fatal(msg)
			}
		}
		return
	}
	for j := 0; j < m; j++ {
		var gotG []Reception
		var beforeG BoundsStats
		before := f.BoundsStats()
		if g != nil {
			beforeG = g.BoundsStats()
		}
		got := f.SlotReceptions(ref.legs[l].tx[j])
		if g != nil {
			gotG = g.SlotReceptions(ref.legs[l].tx[m-1-j])
			if msg := sc.verify(ref, l, m-1-j, g, gotG, beforeG); msg != "" {
				t.Fatal(msg)
			}
		}
		if msg := sc.verify(ref, l, j, f, got, before); msg != "" {
			t.Fatal(msg)
		}
	}
}

// verify checks one member's slot: its receptions against the naive ones,
// and its certified-tier counters since before. An empty and an
// all-transmit slot count nothing; a certified slot counts
// every listener once; the certified pin engages exactly when the lattice
// has its offset tables and β − 1 ≥ boundsBetaMin, the sparse and dense
// pins never; and a planted threshold slot refines at least its planted
// receivers but not all of them.
func (sc oracleScenario) verify(ref *oracleRef, l, j int, m *FastChannel, got []Reception, before BoundsStats) string {
	tx, want := ref.legs[l].tx[j], ref.legs[l].want[j]
	where := fmt.Sprintf("%v: leg %d slot %d (k=%d)", sc, l, j, len(tx))
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d receptions, want %d", where, len(got), len(want))
	}
	for r := range want {
		if got[r] != want[r] {
			return fmt.Sprintf("%s: node %d decoded %d, the naive channel %d", where, r, got[r].Sender, want[r].Sender)
		}
	}
	now := m.BoundsStats()
	d := BoundsStats{Slots: now.Slots - before.Slots, Receivers: now.Receivers - before.Receivers, Refined: now.Refined - before.Refined}
	n := len(got)
	distinct := len(slices.Compact(slices.Sorted(slices.Values(tx))))
	listeners := uint64(n - distinct)
	eligible := m.bidx.pwUB != nil && m.beta-1 >= boundsBetaMin
	switch {
	case distinct == 0 || distinct == n:
		if d != (BoundsStats{}) {
			return fmt.Sprintf("%s: an empty or all-transmit slot counted %+v", where, d)
		}
	case d.Slots > 1 || (d.Slots == 0 && d != BoundsStats{}) || (d.Slots == 1 && (d.Receivers != listeners || d.Refined > d.Receivers)):
		return fmt.Sprintf("%s: counted %+v for %d listeners", where, d, listeners)
	case sc.pin == "certified" && eligible && d.Slots == 0:
		return fmt.Sprintf("%s: the certified pin did not engage", where)
	case d.Slots == 1 && (!eligible || sc.pin == "dense" || (sc.pin == "sparse" && len(tx) <= n)):
		return fmt.Sprintf("%s: the certified tier engaged (tables %v, β %v)", where, m.bidx.pwUB != nil, m.beta)
	case l == 0 && j == 0 && ref.refine > 0 && sc.pin == "certified" && eligible &&
		(d.Refined < uint64(ref.refine) || d.Refined >= d.Receivers):
		return fmt.Sprintf("%s: refined %d of %d receivers, want at least the %d planted on the threshold and not all",
			where, d.Refined, d.Receivers, ref.refine)
	}
	return ""
}

// cross returns a row per layout and configuration: each configuration
// row supplies everything but the layout.
func cross(layouts []string, configs ...oracleScenario) []oracleScenario {
	var rows []oracleScenario
	for _, l := range layouts {
		for _, c := range configs {
			c.layout = l
			rows = append(rows, c)
		}
	}
	return rows
}

// oracleGroups are the table scenarios, grouped by what they pin down.
var oracleGroups = []struct {
	name string
	rows []oracleScenario
}{
	// Random deployments at three densities.
	{"uniform", []oracleScenario{
		{layout: "uniform-sparse", n: 90, seed: 1, shards: 4, workers: 2},
		{layout: "uniform", n: 100, seed: 2, shards: defaultShardCount, pin: "certified", workers: 4},
		{layout: "uniform-dense", n: 110, seed: 3, shards: 1, pin: "dense", workers: 1},
		{layout: "uniform-sparse", n: 120, seed: 4, workers: 1},
		{layout: "uniform", n: 60, seed: 5, pin: "dense", workers: 4},
		{layout: "uniform-dense", n: 70, seed: 6, shards: 8, pin: "sparse", workers: 2},
		{layout: "line", n: 40, seed: 7, shards: 4, pin: "certified", workers: 2},
		{layout: "clusters", n: 96, seed: 8, shards: 8, pin: "certified", workers: 4},
		{layout: "clusters", n: 96, seed: 8, workers: 2},
	}},
	// The sender-centric sparse path at one and four workers. Shards 0
	// resolves to defaultShardCount, so the two pairs run one
	// configuration under both spellings.
	{"sparse", []oracleScenario{
		{layout: "uniform", n: 120, seed: 9, pin: "sparse", workers: 1},
		{layout: "uniform", n: 120, seed: 9, pin: "sparse", workers: 4},
		{layout: "uniform", n: 120, seed: 9, shards: defaultShardCount, pin: "sparse", workers: 1},
		{layout: "uniform", n: 120, seed: 9, shards: defaultShardCount, pin: "sparse", workers: 4},
	}},
	// Forks of a cold or warm parent, interleaved and concurrent.
	{"fork", []oracleScenario{
		{layout: "uniform", n: 120, seed: 10, workers: 2, fork: "concurrent"},
		{layout: "uniform", n: 120, seed: 10, shards: defaultShardCount, workers: 2, fork: "pre"},
		{layout: "uniform", n: 120, seed: 10, shards: 1, pin: "certified", workers: 2, fork: "post", epochs: 1},
		{layout: "uniform", n: 120, seed: 10, shards: defaultShardCount, pin: "certified", workers: 2, fork: "concurrent"},
		{layout: "uniform", n: 500, seed: 11, shards: 4, pin: "certified", workers: 2, fork: "concurrent"},
	}},
	// Receivers on the range, near-field and half-duplex edges.
	{"threshold", cross(thresholdLayouts,
		oracleScenario{workers: 1},
		oracleScenario{shards: 1, pin: "certified", workers: 2},
		oracleScenario{shards: 8, pin: "sparse", workers: 4},
		oracleScenario{shards: defaultShardCount, pin: "dense", workers: 1},
	)},
	// The culling-radius boundary and a range below the near-field clamp.
	{"planted", cross([]string{"cull-boundary", "subrange"},
		oracleScenario{pin: "dense", workers: 2},
		oracleScenario{shards: 4, pin: "certified", workers: 1},
		oracleScenario{shards: 8, pin: "sparse", workers: 4},
		oracleScenario{shards: 1, workers: 2, epochs: 1},
	)},
	// The default shard count under move epochs, adaptive and with the
	// certified tier pinned.
	{"matrix", []oracleScenario{
		{layout: "uniform", n: 120, seed: 12, workers: 2, epochs: 2},
		{layout: "uniform", n: 120, seed: 12, pin: "certified", workers: 1, epochs: 2},
	}},
	// The certified tier on dense slots.
	{"bounds", []oracleScenario{
		{layout: "uniform", n: 400, seed: 13, shards: 1, pin: "certified", workers: 1},
		{layout: "uniform", n: 400, seed: 13, shards: 4, pin: "certified", workers: 4},
	}},
	// Planted threshold receivers refine; the rest certify.
	{"refine", []oracleScenario{
		{layout: "lone-transmitter-ring", shards: 1, pin: "certified", workers: 1},
		{layout: "interference-knife-edge", shards: 4, pin: "certified", workers: 4},
	}},
	{"beta-guard", []oracleScenario{
		{layout: "beta-guard", seed: 3, shards: 1, pin: "certified", workers: 1},
		{layout: "beta-guard", seed: 3, shards: 4, pin: "certified", workers: 4},
		{layout: "beta-guard", seed: 3, shards: 4, pin: "certified", workers: 1},
	}},
	// Every shard count on the certified, dense, sparse and adaptive paths.
	{"shards", []oracleScenario{
		{layout: "uniform", n: 400, seed: 14, shards: 1, pin: "certified", workers: 1},
		{layout: "uniform", n: 400, seed: 14, shards: 4, pin: "certified", workers: 4},
		{layout: "uniform", n: 400, seed: 14, shards: 8, pin: "certified", workers: 4},
		{layout: "uniform", n: 400, seed: 14, shards: defaultShardCount, workers: 2},
		{layout: "uniform", n: 400, seed: 14, shards: 4, pin: "dense", workers: 1},
		{layout: "uniform", n: 400, seed: 14, shards: 8, pin: "dense", workers: 4},
		{layout: "uniform", n: 400, seed: 14, shards: 4, pin: "sparse", workers: 2},
	}},
	{"shard-refine", []oracleScenario{
		{layout: "lone-transmitter-ring", shards: 8, pin: "certified", workers: 1},
		{layout: "interference-knife-edge", shards: 8, pin: "certified", workers: 1},
		{layout: "lone-transmitter-ring", shards: defaultShardCount, pin: "certified", workers: 2},
		{layout: "interference-knife-edge", shards: 1, pin: "certified", workers: 2},
	}},
	// Clusters too far apart for the offset tables; at 3e10 the cell span
	// exceeds the int32 range, on both axes once a node escapes that far.
	{"outlier", []oracleScenario{
		{layout: "outlier", n: 80, seed: 15, offset: 1e6, shards: 4, workers: 2, epochs: 1, escape: 3e10, tables: "none"},
		{layout: "outlier", n: 80, seed: 15, offset: 1e6, shards: 8, pin: "certified", workers: 4, tables: "none"},
		{layout: "outlier", n: 80, seed: 15, offset: 3e10, shards: 8, pin: "sparse", workers: 1, tables: "none"},
		{layout: "outlier", n: 80, seed: 15, offset: 1e6, pin: "sparse", workers: 4},
		{layout: "outlier", n: 80, seed: 15, offset: 3e10, pin: "dense", workers: 1},
		{layout: "outlier", n: 40, seed: 16, offset: 1e4, shards: 4, pin: "certified", workers: 2, epochs: 2, tables: "none"},
		{layout: "outlier", n: 40, seed: 16, offset: 100, shards: 4, pin: "certified", workers: 2, tables: "built"},
	}},
	// Hundreds of occupied cells and several supercell rows; skipped in
	// -short.
	{"medium", []oracleScenario{
		{layout: "uniform", n: 20000, seed: 5, shards: 8, pin: "certified", workers: 4},
		{layout: "uniform", n: 20000, seed: 5, shards: 1, workers: 2},
	}},
	// The row kernel's integer-exponent loops (α = 3, 4) and its math.Pow
	// loop (α = 2.5), each on every path that calls it: the sparse path,
	// the certified pipeline and the dense fallback, before and after a
	// move epoch.
	{"alpha", cross([]string{"uniform"},
		oracleScenario{n: 90, seed: 17, alpha: 2.5, shards: 4, pin: "certified", workers: 2, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 3, workers: 1, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 4, shards: 8, pin: "sparse", workers: 4, epochs: 1},
		oracleScenario{n: 90, seed: 18, alpha: 2.5, pin: "dense", workers: 4},
		oracleScenario{n: 90, seed: 18, alpha: 4, shards: 1, pin: "certified", workers: 1},
		oracleScenario{n: 90, seed: 18, alpha: 2.5, shards: defaultShardCount, workers: 2},
		oracleScenario{n: 90, seed: 17, alpha: 2.5, shards: 8, pin: "sparse", workers: 1, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 2.5, shards: 4, pin: "dense", workers: 2, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 2.5, workers: 2, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 3, shards: 4, pin: "sparse", workers: 2, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 3, shards: 8, pin: "certified", workers: 4, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 3, shards: 1, pin: "dense", workers: 1, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 4, shards: 4, pin: "dense", workers: 2, epochs: 1},
		oracleScenario{n: 90, seed: 17, alpha: 4, workers: 4, epochs: 1},
	)},
	// Mobility epochs on every configuration, storms included.
	{"churn", []oracleScenario{
		{layout: "uniform", n: 64, seed: 19, workers: 2, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, pin: "sparse", workers: 2, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, pin: "dense", workers: 1, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, shards: defaultShardCount, workers: 4, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, shards: 4, workers: 2, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, shards: 1, pin: "certified", workers: 2, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, shards: 1, pin: "certified", workers: 1, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, shards: 4, pin: "dense", workers: 1, epochs: 4},
		{layout: "uniform", n: 64, seed: 19, shards: 8, pin: "sparse", workers: 2, epochs: 4},
	}},
	// Pre-epoch forks patched beside the parent and post-epoch forks.
	{"churn-fork", []oracleScenario{
		{layout: "uniform", n: 40, seed: 20, workers: 2, fork: "pre", epochs: 4},
		{layout: "uniform", n: 40, seed: 20, shards: defaultShardCount, workers: 2, fork: "post", epochs: 4},
		{layout: "uniform", n: 40, seed: 20, shards: 1, pin: "certified", workers: 2, fork: "concurrent", epochs: 4},
	}},
	// A node leaves the lattice rectangle and a pre-epoch fork follows the
	// parent. TestChurnShardLatticeEscape covers the sharded outcomes.
	{"escape", []oracleScenario{
		{layout: "line", n: 25, seed: 21, shards: 1, pin: "certified", workers: 1, fork: "pre", epochs: 1, escape: 100},
	}},
	// Mirror moves carry nodes across every stripe boundary.
	{"stripes", []oracleScenario{
		{layout: "line", n: 96, seed: 22, shards: 2, pin: "certified", workers: 2, fork: "pre", epochs: 4},
		{layout: "line", n: 96, seed: 22, shards: 4, workers: 2, fork: "post", epochs: 4},
		{layout: "line", n: 96, seed: 22, shards: 4, pin: "dense", workers: 2, epochs: 4},
		{layout: "line", n: 96, seed: 22, shards: 8, pin: "certified", workers: 1, fork: "pre", epochs: 4},
	}},
}

// oracleShortMaxN is the largest node count a table row may have under
// -short; the medium group's rows exceed it.
const oracleShortMaxN = 2048

// TestEvaluatorOracle holds every table scenario to the naive channel.
func TestEvaluatorOracle(t *testing.T) {
	refs := map[oracleScenario]*oracleRef{}
	for _, g := range oracleGroups {
		t.Run(g.name, func(t *testing.T) {
			for _, sc := range g.rows {
				t.Run(sc.String(), func(t *testing.T) {
					if sc.n > oracleShortMaxN && testing.Short() {
						t.Skip("n > oracleShortMaxN skipped in -short")
					}
					checkOracle(t, sc, refs)
				})
			}
		})
	}
}

// FuzzEvaluatorOracle draws scenarios and holds each to the naive channel.
// The decoding caps the node count at 128, the epochs at 4 and the offset
// and escape distances within MaxCoordinate; the shard count is passed to
// FastOptions as drawn.
func FuzzEvaluatorOracle(f *testing.F) {
	add := func(sc oracleScenario) {
		f.Add(sc.seed, uint8(max(sc.n-1, 0)), uint8(slices.Index(oracleLayouts, sc.layout)), sc.offset,
			uint8(slices.Index(oracleAlphas, cmp.Or(sc.alpha, 3))), sc.shards, uint8(slices.Index(oraclePins, sc.pin)),
			uint8(slices.Index(oracleWorkers, sc.workers)), uint8(slices.Index(oracleForks, sc.fork)),
			uint8(sc.epochs), sc.escape)
	}
	add(oracleScenario{layout: "clusters", n: 20, seed: 3, shards: math.MaxInt, workers: 1})
	add(oracleScenario{layout: "outlier", n: 40, seed: 16, offset: 1e4, shards: 8, pin: "certified", workers: 2, fork: "concurrent", epochs: 2})
	add(oracleScenario{layout: "interference-knife-edge", alpha: 2.5, shards: 4, pin: "certified", workers: 4, fork: "post", epochs: 3})
	add(oracleScenario{layout: "uniform-dense", n: 128, seed: 4, alpha: 4, pin: "sparse", workers: 2, fork: "pre", epochs: 4, escape: 50})
	add(oracleScenario{layout: "line", n: 1, seed: 5, shards: 1, workers: 4, epochs: 1})
	f.Fuzz(func(t *testing.T, seed uint64, n, layout uint8, offset float64, alpha uint8, shards int,
		pin, workers, fork, epochs uint8, escape float64) {
		dist := func(x, limit float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(math.Abs(x), limit)
		}
		sc := oracleScenario{
			layout:  oracleLayouts[int(layout)%len(oracleLayouts)],
			seed:    seed,
			alpha:   oracleAlphas[int(alpha)%len(oracleAlphas)],
			shards:  shards,
			pin:     oraclePins[int(pin)%len(oraclePins)],
			workers: oracleWorkers[int(workers)%len(oracleWorkers)],
			fork:    oracleForks[int(fork)%len(oracleForks)],
			epochs:  int(epochs) % 5,
			escape:  dist(escape, MaxCoordinate/4),
		}
		if slices.Contains(randomLayouts, sc.layout) {
			sc.n = 1 + int(n)%128
		}
		if sc.layout == "outlier" {
			sc.offset = dist(offset, MaxCoordinate/2)
		}
		checkOracle(t, sc, map[oracleScenario]*oracleRef{})
	})
}
