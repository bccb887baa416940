package exp

import (
	"fmt"
	"math"

	"sinrmac/internal/bcastproto"
	"sinrmac/internal/core"
	"sinrmac/internal/geom"
	"sinrmac/internal/mac"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/stats"
	"sinrmac/internal/topology"
)

// Experiment E8-churn: global single-message broadcast latency under
// per-slot mobility churn.
//
// The paper states its guarantees for a fixed node set; this experiment
// measures how much a dynamic deployment degrades them. Every churnInterval
// slots an epoch of node moves is committed on the trial's private copy of
// the deployment — each mover jitters inside a small disc, preserving the
// unit-distance invariant (rejected epochs are re-drawn) — and applied to
// the running engine via sim.Engine.ApplyEpoch, which patches the fast
// evaluator incrementally and keeps every automaton's id and protocol
// state. The sweep varies the per-slot churn rate (fraction of nodes moved
// per slot, amortised over the interval); rate 0 is the static baseline the
// other points are normalised against.

// churnInterval is the number of slots between committed mobility epochs.
const churnInterval = 10

// churnJitter is the radius of the per-move jitter disc. Small relative to
// the strong range (10.8 at the global experiments' parameters), so single
// epochs perturb link quality without routinely disconnecting G_{1-ε}.
const churnJitter = 0.5

// churnEpochAttempts caps how often one epoch is re-drawn when a jitter
// lands two nodes within unit distance.
const churnEpochAttempts = 8

// churnTrialResult is one E8 trial: the completion slot, how many epochs
// and node moves were applied, and the point's deployment statistics.
type churnTrialResult struct {
	latency float64
	done    bool
	epochs  int
	moved   int
	diam    int
	lambda  float64
}

// ChurnLatency is experiment E8-churn (see the file comment).
func ChurnLatency(cfg Config) (Table, error) {
	table := Table{
		ID:    "E8-churn",
		Title: "Dynamic deployments: global broadcast latency vs per-slot mobility churn rate",
		Columns: []string{
			"churn_rate", "n", "diam0", "lambda0", "epochs", "moved", "latency", "vs_static", "completed",
		},
	}
	rates := []float64{0, 0.002, 0.01, 0.05}
	n := 40
	if cfg.Quick {
		rates = []float64{0, 0.01}
		n = 24
	}
	trials := cfg.trials(2)

	res, err := runTrials(cfg, "E8-churn", len(rates), trials, func(tc *TrialContext) (churnTrialResult, error) {
		rate := rates[tc.Point]
		// Every sweep point starts from the SAME topology draw (a fixed
		// label off the experiment seed, deliberately not the point-derived
		// source): the sweep varies only the churn rate, so vs_static
		// compares latencies on one deployment instead of mixing topology
		// randomness into the ratio.
		base, err := tc.Deployment(func(*rng.Source) (*topology.Deployment, error) {
			return buildUniform(n, rng.New(cfg.Seed).SplitLabeled(rng.Label("E8-churn-deploy")))
		})
		if err != nil {
			return churnTrialResult{}, err
		}
		// Static statistics come from the shared pre-churn deployment; the
		// trial then churns a private clone (epochs mutate positions and
		// caches in place, so nothing churned may be shared across trials).
		diam := base.StrongGraph().Diameter()
		delta := base.StrongGraph().MaxDegree()
		lambda := base.Lambda()
		d := base.Clone()
		ch, err := d.Channel()
		if err != nil {
			return churnTrialResult{}, err
		}
		fast := sinr.NewFastChannel(ch)
		defer fast.Close()

		msg := core.Message{ID: 1, Origin: 0, Payload: "churn"}
		macCfg := mac.SimConfig(lambda, 3, core.DefaultParams())
		layers := make([]*bcastproto.BMMB, d.NumNodes())
		nodes := make([]sim.Node, d.NumNodes())
		for i := range nodes {
			var initial []core.Message
			if msg.Origin == i {
				initial = append(initial, msg)
			}
			layers[i] = bcastproto.NewBMMB(initial...)
			node := mac.New(macCfg, nil)
			node.SetLayer(layers[i])
			nodes[i] = node
		}
		eng, err := tc.PrivateEngine(ch, nodes, fast, nil)
		if err != nil {
			return churnTrialResult{}, err
		}

		movedPerEpoch := int(math.Round(rate * churnInterval * float64(n)))
		if rate > 0 && movedPerEpoch < 1 {
			movedPerEpoch = 1
		}
		ids := bcastproto.MessageIDs([]core.Message{msg})
		done := func() bool { return bcastproto.AllDelivered(layers, ids) }
		deadline := int64(core.TheoreticalFack(delta, lambda, 0.1)) * int64(diam+5) * 100

		epochs, moved := 0, 0
		for eng.Slot() < deadline && !done() {
			budget := deadline - eng.Slot()
			if budget > churnInterval {
				budget = churnInterval
			}
			eng.Run(budget, done)
			if done() || movedPerEpoch == 0 || eng.Slot() >= deadline {
				continue
			}
			epochDelta, err := commitMobilityEpoch(d, movedPerEpoch, tc.Src)
			if err != nil {
				return churnTrialResult{}, err
			}
			if epochDelta == nil {
				continue // every redraw collided; skip this epoch
			}
			if err := eng.ApplyEpoch(epochDelta, nil); err != nil {
				return churnTrialResult{}, err
			}
			epochs++
			moved += len(epochDelta.Dirty)
		}
		slot, ok := bcastproto.CompletionSlot(layers, ids)
		latency := float64(deadline)
		if ok {
			latency = float64(slot)
		}
		return churnTrialResult{
			latency: latency, done: ok, epochs: epochs, moved: moved,
			diam: diam, lambda: lambda,
		}, nil
	})
	if err != nil {
		return table, err
	}

	static := 0.0
	for pi, rate := range rates {
		var lat []float64
		epochs, moved := 0, 0
		completed := true
		for _, r := range res[pi] {
			lat = append(lat, r.latency)
			epochs += r.epochs
			moved += r.moved
			if !r.done {
				completed = false
			}
		}
		med := stats.Median(lat)
		if pi == 0 {
			static = med
		}
		vsStatic := 1.0
		if static > 0 {
			vsStatic = med / static
		}
		table.AddRow(fmt.Sprintf("%.3f", rate), n, res[pi][0].diam, res[pi][0].lambda,
			float64(epochs)/float64(len(res[pi])), float64(moved)/float64(len(res[pi])), med, vsStatic, completed)
	}
	table.AddNote("epochs of %d-slot cadence; each epoch moves rate·interval·n nodes by ≤%.1f jitter; vs_static is the latency ratio against the rate-0 baseline on the same topology draw", churnInterval, churnJitter)
	return table, nil
}

// commitMobilityEpoch commits one epoch of movedPerEpoch jittered node
// moves on d, re-drawing the whole epoch (fresh movers and jitters) when
// the unit-distance invariant rejects it. It returns nil when every attempt
// collided — the caller skips the epoch rather than failing the trial.
func commitMobilityEpoch(d *topology.Deployment, movedPerEpoch int, src *rng.Source) (*sinr.EpochDelta, error) {
	n := d.NumNodes()
	m := movedPerEpoch
	if m > n {
		m = n
	}
	for attempt := 0; attempt < churnEpochAttempts; attempt++ {
		seen := make(map[int]bool, m)
		for len(seen) < m {
			id := src.Intn(n)
			if seen[id] {
				continue
			}
			seen[id] = true
			angle := src.Float64() * 2 * math.Pi
			r := churnJitter * math.Sqrt(src.Float64())
			p := d.Positions[id]
			d.MoveNode(id, geom.Point{X: p.X + r*math.Cos(angle), Y: p.Y + r*math.Sin(angle)})
		}
		delta, err := d.CommitEpoch()
		if err == nil {
			return delta, nil
		}
		// A spacing violation rejects the whole epoch (the deployment is
		// untouched); redraw movers and jitters and retry.
	}
	return nil, nil
}
