// Command sinrsim runs a single SINR simulation scenario and prints the
// resulting absMAC statistics: traffic counters, acknowledgment report and
// progress/approximate-progress measurements.
//
// Usage examples:
//
//	sinrsim -topology cluster -n 20 -mac combined -broadcasters 5
//	sinrsim -topology uniform -n 60 -mac ack -broadcasters 10 -slots 50000
//	sinrsim -topology line -n 16 -mac decay -broadcasters 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"

	"sinrmac/internal/approgress"
	"sinrmac/internal/core"
	"sinrmac/internal/decay"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/mac"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// broadcaster is a minimal layer that issues one broadcast at slot 0.
type broadcaster struct {
	core.NopLayer
	mac  core.MAC
	msg  core.Message
	sent bool
}

func (l *broadcaster) Attach(node int, m core.MAC, src *rng.Source) { l.mac = m }

func (l *broadcaster) OnSlot(slot int64) {
	if !l.sent && l.msg.ID != 0 {
		l.mac.Bcast(slot, l.msg)
		l.sent = true
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sinrsim", flag.ContinueOnError)
	var (
		topo         = fs.String("topology", "cluster", "deployment: uniform, cluster, line, grid, parallel-lines, two-balls")
		n            = fs.Int("n", 20, "number of nodes (interpretation depends on the topology)")
		rangeFlag    = fs.Float64("range", 0, "transmission range R (0 = topology-dependent default)")
		macKind      = fs.String("mac", "combined", "MAC implementation: combined, ack, approgress, decay")
		broadcasters = fs.Int("broadcasters", 1, "number of nodes that broadcast one message each at slot 0")
		slots        = fs.Int64("slots", 0, "number of slots to simulate (0 = a sensible default for the MAC)")
		seed         = fs.Uint64("seed", 1, "random seed")
		evaluator    = fs.String("evaluator", "fast", "SINR slot evaluator: fast (cell lattice with certified interference bounds) or naive (reference scan)")
		shards       = fs.Int("shards", 0, "shards of the fast evaluator's cell lattice (0 = its default count; N > 0 = N shards; requires -evaluator fast)")
		maxNodes     = fs.Int("maxnodes", 2_000_000, "refuse deployments larger than this many nodes (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkFlags(*macKind, *evaluator, *broadcasters, *slots, *rangeFlag, *shards, *maxNodes); err != nil {
		fmt.Fprintf(os.Stderr, "sinrsim: %v\n", err)
		return 2
	}
	// Guard before building the topology: beyond this size even the sharded
	// evaluator's budgeted footprint (sinr.ShardBytesPerNodeBudget heap bytes
	// per node, plus positions and per-node simulation state) stops fitting
	// comfortably on typical hosts, and the naive reference scan is hopeless.
	if *maxNodes > 0 && *n > *maxNodes {
		fmt.Fprintf(os.Stderr,
			"sinrsim: n=%d exceeds -maxnodes %d; the evaluator budgets %d heap bytes/node (sinr.ShardBytesPerNodeBudget), so raise -maxnodes explicitly if the host has the memory\n",
			*n, *maxNodes, sinr.ShardBytesPerNodeBudget)
		return 2
	}

	d, err := buildDeployment(*topo, *n, *rangeFlag, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrsim: %v\n", err)
		return 2
	}
	if err := d.Validate(false); err != nil {
		fmt.Fprintf(os.Stderr, "sinrsim: %v\n", err)
		return 2
	}
	if err := checkBroadcasters(*broadcasters, d.NumNodes()); err != nil {
		fmt.Fprintf(os.Stderr, "sinrsim: %v\n", err)
		return 2
	}
	lambda := d.Lambda()
	strong := d.StrongGraph()
	fmt.Printf("deployment %s: n=%d edges=%d maxdeg=%d diam=%d lambda=%.1f connected=%v\n",
		d.Name, d.NumNodes(), strong.NumEdges(), strong.MaxDegree(), strong.Diameter(), lambda, strong.IsConnected())

	rec := core.NewRecorder()
	nodes, deadline, err := buildMACNodes(*macKind, d, lambda, rec, *broadcasters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrsim: %v\n", err)
		return 2
	}
	if *slots > 0 {
		deadline = *slots
	}

	ch, err := d.Channel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrsim: %v\n", err)
		return 1
	}
	// Both evaluators produce identical executions; the choice only affects
	// wall-clock time (the differential harness in internal/sinr keeps them
	// in lock-step).
	var ev sinr.ChannelEvaluator // nil: sim.Engine defaults to the naive reference path
	if *evaluator == "fast" {
		ev = sinr.NewFastChannel(ch, sinr.FastOptions{Shards: *shards})
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: *seed, Evaluator: ev})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrsim: %v\n", err)
		return 1
	}
	// A first SIGINT stops the slot loop at the next slot boundary — Run
	// polls the stop condition before every slot — and the statistics over
	// the completed prefix are still printed (exit 130); a second SIGINT
	// kills the process via the restored default handler.
	var interrupted atomic.Bool
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		interrupted.Store(true)
		signal.Stop(sigs)
	}()
	eng.Run(deadline, interrupted.Load)

	status := 0
	if interrupted.Load() {
		fmt.Fprintf(os.Stderr, "sinrsim: interrupted after %d slots; reporting the completed prefix\n", eng.Slot())
		status = 130
	}
	st := eng.Stats()
	fmt.Printf("simulated %d slots: %d transmissions, %d receptions\n", st.Slots, st.Transmissions, st.Receptions)

	events := rec.Events()
	ackRep := core.CheckAcks(events, strong)
	fmt.Printf("acknowledgments: %d acked, %d unacked, %d aborted, %d nice-execution violations, mean latency %.1f, max latency %d\n",
		ackRep.Acked, ackRep.Unacked, ackRep.Aborted, ackRep.Violations, ackRep.MeanLatency, ackRep.MaxLatency)

	prog := core.MeasureProgress(events, strong, strong, eng.Slot())
	approg := core.MeasureProgress(events, strong, d.ApproxGraph(), eng.Slot())
	fmt.Printf("progress (G_{1-eps}):        %d/%d windows satisfied, mean latency %.1f, max %d\n",
		prog.Satisfied, prog.Satisfied+prog.Unsatisfied, prog.MeanLatency, prog.MaxLatency)
	fmt.Printf("approx progress (G_{1-2eps}): %d/%d windows satisfied, mean latency %.1f, max %d\n",
		approg.Satisfied, approg.Satisfied+approg.Unsatisfied, approg.MeanLatency, approg.MaxLatency)
	return status
}

// macKinds are the -mac values buildMACNodes accepts.
var macKinds = []string{"combined", "ack", "approgress", "decay"}

// checkFlags rejects flag values the simulation cannot honour before any
// deployment is built: unknown -mac and -evaluator names, negative counts,
// ranges and limits, which would otherwise run with zero broadcasters or
// fall back to the defaults silently, a non-finite range, which would
// either fall back silently (NaN) or fail late on NaN coordinates (±Inf),
// and -shards without the fast evaluator.
func checkFlags(macKind, evaluator string, broadcasters int, slots int64, r float64, shards, maxNodes int) error {
	switch {
	case !slices.Contains(macKinds, macKind):
		return fmt.Errorf("-mac %q is unknown; want one of %s", macKind, strings.Join(macKinds, ", "))
	case evaluator != "fast" && evaluator != "naive":
		return fmt.Errorf("-evaluator %q is unknown; want fast or naive", evaluator)
	case broadcasters < 0:
		return fmt.Errorf("-broadcasters %d is negative", broadcasters)
	case slots < 0:
		return fmt.Errorf("-slots %d is negative; use 0 for the MAC's default horizon", slots)
	case math.IsNaN(r) || math.IsInf(r, 0):
		return fmt.Errorf("-range %g is not finite", r)
	case r < 0:
		return fmt.Errorf("-range %g is negative; use 0 for the topology's default range", r)
	case shards < 0:
		return fmt.Errorf("-shards %d is negative; use 0 for the default count or a positive shard count", shards)
	case maxNodes < 0:
		return fmt.Errorf("-maxnodes %d is negative; use 0 for no limit", maxNodes)
	case shards != 0 && evaluator != "fast":
		return fmt.Errorf("-shards requires -evaluator fast (the naive reference scan has no sharded regime)")
	}
	return nil
}

// checkBroadcasters rejects more broadcasters than the deployment has
// nodes. The node count is known only once the deployment is built (grid
// rounds n up to a square, two-balls adds its bridge nodes), so this check
// runs after checkFlags, before anything is printed.
func checkBroadcasters(broadcasters, nodes int) error {
	if broadcasters > nodes {
		return fmt.Errorf("-broadcasters %d exceeds the deployment's %d nodes", broadcasters, nodes)
	}
	return nil
}

func buildDeployment(topo string, n int, r float64, seed uint64) (*topology.Deployment, error) {
	defRange := func(def float64) float64 {
		if r > 0 {
			return r
		}
		return def
	}
	switch topo {
	case "uniform":
		params := sinr.DefaultParams(defRange(12))
		side := 2.2 * math.Sqrt(float64(n)) * 2
		return topology.ConnectedUniform(n, side, params, rng.New(seed), 100)
	case "cluster":
		params := sinr.DefaultParams(defRange(math.Max(20, 3*math.Sqrt(float64(n)))))
		return topology.Clusters(1, n, params, rng.New(seed))
	case "line":
		params := sinr.DefaultParams(defRange(12))
		return topology.Line(n, 4, params)
	case "grid":
		params := sinr.DefaultParams(defRange(12))
		side := int(math.Ceil(math.Sqrt(float64(n))))
		return topology.Grid(side, side, 3, params)
	case "parallel-lines":
		return topology.ParallelLines(n, 0.1)
	case "two-balls":
		params := sinr.DefaultParams(defRange(math.Max(20, 5*math.Sqrt(float64(n)))))
		return topology.TwoBalls(n, params, rng.New(seed))
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

func buildMACNodes(kind string, d *topology.Deployment, lambda float64, rec *core.Recorder, broadcasters int) ([]sim.Node, int64, error) {
	layerFor := func(i int) *broadcaster {
		l := &broadcaster{}
		if i < broadcasters {
			l.msg = core.Message{ID: core.MessageID(i + 1), Origin: i, Payload: fmt.Sprintf("msg-%d", i)}
		}
		return l
	}
	nodes := make([]sim.Node, d.NumNodes())
	// Default horizon: a generous multiple of the theoretical f_ack bound,
	// which is what a broadcast actually needs (the hard halting bound
	// MaxSlots is astronomically conservative).
	fackHorizon := int64(100 * core.TheoreticalFack(d.StrongGraph().MaxDegree(), lambda, 0.1))
	switch kind {
	case "combined":
		cfg := mac.DefaultConfig(lambda, d.Params.Alpha, core.DefaultParams())
		for i := range nodes {
			node := mac.New(cfg, rec)
			node.SetLayer(layerFor(i))
			nodes[i] = node
		}
		return nodes, 2 * fackHorizon, nil
	case "ack":
		cfg := hmbcast.DefaultConfig(lambda, 0.1)
		for i := range nodes {
			node := hmbcast.New(cfg, rec)
			node.SetLayer(layerFor(i))
			nodes[i] = node
		}
		return nodes, fackHorizon, nil
	case "approgress":
		cfg := approgress.DefaultConfig(lambda, 0.1, d.Params.Alpha)
		ackAfter := 4 * cfg.EpochLen()
		for i := range nodes {
			node := approgress.NewNode(cfg, ackAfter, rec)
			node.SetLayer(layerFor(i))
			nodes[i] = node
		}
		// The timer acks a slot-0 bcast in slot ackAfter, so the horizon
		// runs one slot past it.
		return nodes, ackAfter + 1, nil
	case "decay":
		cfg := decay.DefaultConfig(float64(d.StrongGraph().MaxDegree()+1), 0.1)
		for i := range nodes {
			node := decay.New(cfg, rec)
			node.SetLayer(layerFor(i))
			nodes[i] = node
		}
		return nodes, 4 * cfg.AckSlots(), nil
	default:
		return nil, 0, fmt.Errorf("unknown MAC %q", kind)
	}
}
