package topology

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// epochTestDeployment is a 4×4 unit-grid-at-spacing-2 deployment, roomy
// enough that jittered epochs keep the unit-distance invariant.
func epochTestDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := Grid(4, 4, 2, sinr.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCommitEpochMoves commits a batch of moves: node ids and the node
// count stay fixed, and the delta lists exactly the nodes that moved.
func TestCommitEpochMoves(t *testing.T) {
	d := epochTestDeployment(t)
	orig := append([]geom.Point(nil), d.Positions...)
	n := d.NumNodes() // 16

	near := geom.Point{X: orig[2].X + 0.5, Y: orig[2].Y + 0.5}
	far := geom.Point{X: -4, Y: -4}
	d.MoveNode(5, far)
	d.MoveNode(2, near)
	d.MoveNode(9, orig[9]) // a move onto the node's own position is a no-op
	delta, err := d.CommitEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitEpoch(); err == nil {
		t.Fatal("pending ops survived the commit")
	}
	if d.NumNodes() != n || len(delta.Positions) != n {
		t.Fatalf("NumNodes = %d, delta positions = %d, want %d", d.NumNodes(), len(delta.Positions), n)
	}
	if err := delta.Validate(n); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		want := orig[i]
		switch i {
		case 2:
			want = near
		case 5:
			want = far
		}
		if d.Positions[i] != want || delta.Positions[i] != want {
			t.Fatalf("node %d at %v (delta %v), want %v", i, d.Positions[i], delta.Positions[i], want)
		}
	}
	// Dirty is sorted and is exactly the moved nodes: the no-op move of
	// node 9 is not listed.
	want := []int{2, 5}
	if len(delta.Dirty) != len(want) {
		t.Fatalf("dirty = %v, want %v", delta.Dirty, want)
	}
	for i, id := range want {
		if delta.Dirty[i] != id {
			t.Fatalf("dirty = %v, want %v", delta.Dirty, want)
		}
	}
	// The delta owns its positions: later epochs must not mutate them.
	snapshot := append([]geom.Point(nil), delta.Positions...)
	d.MoveNode(0, geom.Point{X: orig[0].X + 0.3, Y: orig[0].Y})
	if _, err := d.CommitEpoch(); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if delta.Positions[i] != snapshot[i] {
			t.Fatal("a later epoch mutated an earlier delta's positions")
		}
	}
}

func TestCommitEpochValidation(t *testing.T) {
	cases := []struct {
		name  string
		queue func(d *Deployment)
		want  string
	}{
		{"empty", func(d *Deployment) {}, "no queued mutations"},
		{"bad id", func(d *Deployment) { d.MoveNode(99, geom.Point{X: 100, Y: 100}) }, "references node"},
		{"negative id", func(d *Deployment) { d.MoveNode(-1, geom.Point{}) }, "references node"},
		{"double touch", func(d *Deployment) {
			d.MoveNode(3, geom.Point{X: 100, Y: 100})
			d.MoveNode(3, geom.Point{X: 200, Y: 200})
		}, "twice"},
		{"spacing", func(d *Deployment) {
			d.MoveNode(0, geom.Point{X: d.Positions[1].X + 0.2, Y: d.Positions[1].Y})
		}, "near-field"},
		{"NaN", func(d *Deployment) { d.MoveNode(0, geom.Point{X: math.NaN()}) }, "finite"},
		{"+Inf", func(d *Deployment) { d.MoveNode(0, geom.Point{Y: math.Inf(1)}) }, "finite"},
		{"1e300", func(d *Deployment) { d.MoveNode(0, geom.Point{X: -1e300}) }, "finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := epochTestDeployment(t)
			before := append([]geom.Point(nil), d.Positions...)
			tc.queue(d)
			_, err := d.CommitEpoch()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CommitEpoch error = %v, want %q", err, tc.want)
			}
			if _, err := d.CommitEpoch(); err == nil || !strings.Contains(err.Error(), "no queued mutations") {
				t.Fatalf("failed commit left ops queued: %v", err)
			}
			if len(d.Positions) != len(before) {
				t.Fatalf("failed commit resized the deployment to %d", len(d.Positions))
			}
			for i := range before {
				if d.Positions[i] != before[i] {
					t.Fatal("failed commit mutated the deployment")
				}
			}
		})
	}
}

// epochSpacingReference is the rule validateEpochSpacing implements, as a
// pairwise scan: the first dirty node, in dirty order, closer than unit
// distance (with Validate's tolerance) to any other node, paired with the
// lowest such node id.
func epochSpacingReference(name string, cand []geom.Point, dirty []int) error {
	for _, id := range dirty {
		for j, q := range cand {
			if dist := cand[id].Dist(q); j != id && dist < 1-1e-9 {
				return fmt.Errorf("topology: epoch on %q violates the near-field bound: nodes %d and %d at distance %v < 1",
					name, id, j, dist)
			}
		}
	}
	return nil
}

// TestEpochSpacingMatchesPairwise pins validateEpochSpacing to the pairwise
// rule on jittered unit-spaced layouts: the same epochs are accepted, and a
// rejected one names the same first violating dirty node (in dirty order,
// which need not be ascending) and partner, at the same distance.
func TestEpochSpacingMatchesPairwise(t *testing.T) {
	src := rng.New(8)
	rejected := 0
	for trial := 0; trial < 300; trial++ {
		side := 1 + src.Intn(12)
		cand := make([]geom.Point, 0, side*side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				cand = append(cand, geom.Point{X: float64(i)*1.3 - 4, Y: float64(j)*1.3 - 4})
			}
		}
		dirty := src.Perm(len(cand))[:1+src.Intn(len(cand))]
		jitter := 0.05 + 0.6*src.Float64()
		for _, id := range dirty {
			cand[id].X += jitter * (2*src.Float64() - 1)
			cand[id].Y += jitter * (2*src.Float64() - 1)
		}
		if src.Bernoulli(0.2) {
			// A node exactly at unit distance, and one at the tolerance.
			a, b := dirty[0], dirty[len(dirty)-1]
			cand[b] = geom.Point{X: cand[a].X + 1, Y: cand[a].Y}
			if src.Bernoulli(0.5) {
				cand[b].X -= 1e-9
			}
		}
		got, want := validateEpochSpacing("t", cand, dirty), epochSpacingReference("t", cand, dirty)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (dirty %v): got %v, want %v", trial, dirty, got, want)
		}
		if want != nil {
			rejected++
		}
	}
	if rejected < 30 || rejected > 270 {
		t.Fatalf("%d of 300 epochs rejected; the layouts do not exercise both outcomes", rejected)
	}
	// Dirty order, not id order, picks the node the error names.
	cand := []geom.Point{{X: 0}, {X: 0.5}, {X: 5}, {X: 5.5}}
	err := validateEpochSpacing("t", cand, []int{3, 0})
	if err == nil || !strings.Contains(err.Error(), "nodes 3 and 2") {
		t.Fatalf("error = %v, want it to name nodes 3 and 2", err)
	}
}

// TestValidateAfterBreakingEpoch drives Deployment.Validate directly over a
// layout an epoch would have produced had it skipped validation: the same
// invariant guards both paths.
func TestValidateAfterBreakingEpoch(t *testing.T) {
	d := epochTestDeployment(t)
	d.Positions[0] = geom.Point{X: d.Positions[1].X + 0.1, Y: d.Positions[1].Y}
	if err := d.Validate(false); err == nil || !strings.Contains(err.Error(), "near-field") {
		t.Fatalf("Validate = %v, want near-field violation", err)
	}
}

func TestCommitEpochInvalidatesCaches(t *testing.T) {
	d := epochTestDeployment(t)
	strong0, approx0 := d.StrongGraph(), d.ApproxGraph()
	lambda0 := d.Lambda()
	// Caching satellite: repeated calls return the identical induced graph.
	if d.StrongGraph() != strong0 || d.ApproxGraph() != approx0 {
		t.Fatal("derived graphs are re-induced per call")
	}
	// Node 3 moves far out of range, leaving the strong graph.
	d.MoveNode(3, geom.Point{X: 1000, Y: 1000})
	if _, err := d.CommitEpoch(); err != nil {
		t.Fatal(err)
	}
	if d.StrongGraph() == strong0 || d.ApproxGraph() == approx0 {
		t.Fatal("CommitEpoch kept a stale derived graph")
	}
	if got := d.StrongGraph().NumNodes(); got != 16 {
		t.Fatalf("post-epoch strong graph has %d nodes, want 16", got)
	}
	if deg := d.StrongGraph().Degree(3); deg != 0 {
		t.Fatalf("node 3 moved out of range but keeps %d strong neighbours", deg)
	}
	// Λ changes when the minimum spacing changes.
	d.MoveNode(0, geom.Point{X: d.Positions[0].X + 0.9, Y: d.Positions[0].Y})
	if _, err := d.CommitEpoch(); err != nil {
		t.Fatal(err)
	}
	if d.Lambda() == lambda0 {
		t.Fatal("CommitEpoch kept a stale Λ")
	}
}

func TestDeploymentClone(t *testing.T) {
	d := epochTestDeployment(t)
	c := d.Clone()
	c.MoveNode(0, geom.Point{X: d.Positions[0].X + 0.5, Y: d.Positions[0].Y + 0.5})
	if _, err := c.CommitEpoch(); err != nil {
		t.Fatal(err)
	}
	if d.Positions[0] == c.Positions[0] {
		t.Fatal("epoch on the clone leaked into the base deployment")
	}
}
