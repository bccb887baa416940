// Command macbench times the slot pipeline's kernels and writes one record
// per case, {name, params, metrics}, to BENCH_macbench.json (or -out) under
// a header stamping gomaxprocs, num_cpu, go_version and the seed. Every case
// but the single-side engine-step rows pairs a reference side against an
// optimised side on one workload: metrics <ref>_ns_per_op and
// <ref>_allocs_per_op, the optimised side's ns_per_op and allocs_per_op,
// speedup = reference ns / optimised ns, and any the case adds
// (refine_rate, rss_bytes, bytes_per_node). The case table, benchCases:
//
//	case                          reference      optimised side
//	lattice                       naive channel  fast evaluator, n = 4000
//	sparse_lattice                dense scan     sparse path, |tx| = √n, n = 5000
//	bounds_{quarter,full}         dense scan     certified bounds, k = n/4 / n
//	shard_n100k, shard_n1m        dense scan     cell lattice at scale (n1m: -large, no reference)
//	churn_lattice                 rebuild        ApplyEpoch, 1 % of n = 5000 moved
//	engine_step{,_5k}             —              steady-state Engine.Step
//	engine_step_faults            no hook        zero-fault injector
//	kernel_pathloss_a{3,4}        math.Pow       pow-free path loss
//
// Gates judged within every run: speedup ≥ 0.95 on bounds_full, ≥ 1/1.05
// on engine_step_faults and ≥ 1.0 on kernel_pathloss_a{3,4}, each on
// per-side minima over up to gateRounds interleaved rounds; zero
// allocations per Step on engine_step{,_5k}; and bytes_per_node within
// sinr.ShardBytesPerNodeBudget on the shard cases.
//
// -compare FILE also fails the run when a baseline case is missing, when a
// speedup shrank by more than compareTolerance, or when allocs_per_op grew.
// -summary appends the baseline-vs-current markdown table (CI's job
// summary); -cpuprofile and -memprofile profile the run.
//
//	go run ./cmd/macbench -out /tmp/b.json -compare BENCH_macbench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/fault"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed       = flag.Uint64("seed", 1, "random seed")
		large      = flag.Bool("large", false, "include the n=1e6 sharded smoke case (minutes of extra runtime; keep it out of the committed baseline so gated runs stay fast)")
		outPath    = flag.String("out", benchFile, "path the JSON report is written to")
		compare    = flag.String("compare", "", "baseline report to check the fresh measurements against (fails on gross regressions)")
		summary    = flag.String("summary", "", "append a markdown baseline-vs-current table of the measurements to this file (CI writes it to the job summary)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (hot-path regressions can then be diagnosed from the same binary the CI gate runs)")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			}
		}()
	}

	return runBench(*seed, *outPath, *compare, *summary, *large)
}

// benchCase is one record of BENCH_macbench.json. encoding/json writes map
// keys sorted, so the report is deterministic.
type benchCase struct {
	Name    string             `json:"name"`
	Params  map[string]float64 `json:"params"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchReport is the top-level BENCH_macbench.json document. The host
// fields record where the numbers were measured; -compare ignores them.
type benchReport struct {
	GoMaxProcs int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	Seed       uint64      `json:"seed"`
	Cases      []benchCase `json:"cases"`
}

// benchFile is where runBench writes its report by default.
const benchFile = "BENCH_macbench.json"

// compareTolerance is how many times smaller than the baseline's a fresh
// speedup may be. Ratios measured within one run do not depend on how fast
// the host is; the tolerance is generous so the check survives workload
// variance across hosts and catches only order-of-magnitude breakage.
const compareTolerance = 2.0

// gateRounds bounds the interleaved rounds of a pair with a speedup floor.
// Single measurements swing tens of percent with host frequency state, so
// the floor judges per-side minima, re-measured until it passes: a genuine
// cost is persistent and survives the minimum, noise does not.
const gateRounds = 5

// gate is a case's within-run checks; the zero value checks nothing.
type gate struct {
	minSpeedup      float64 // floor on speedup, judged on per-side minima
	zeroAllocs      bool    // allocs_per_op must be zero
	maxBytesPerNode float64 // cap on bytes_per_node
}

// sample is one side's measured cost per op.
type sample struct {
	ns     float64
	allocs int64
}

// side times one side of a case.
type side func() (sample, error)

// pair is one built case. ref is nil on a single-side row; metrics holds
// what the case records besides timing.
type pair struct {
	params  map[string]float64
	refName string
	ref     side
	opt     side
	metrics map[string]float64
}

// caseSpec is one row of the case table.
type caseSpec struct {
	name  string
	large bool // measured only with -large
	gate  gate
	build func(seed uint64) (*pair, error)
}

// serial is the engine configuration shared by the engine-step cases.
var serial = engineConf{workers: 1}

// benchCases is the case table, in report order. Gate thresholds
// are judged on speedup, the reference cost over the optimised one.
var benchCases = []caseSpec{
	{name: "lattice", build: naiveVsFast(4000)},
	{name: "sparse_lattice", build: denseVsSparse(5000)},
	{name: "bounds_quarter", build: denseVsBounds(5000 / 4)},
	// With every node transmitting both sides take the same O(k) early-out;
	// a lower ratio means a tier pays setup cost before declining the slot.
	{name: "bounds_full", build: denseVsBounds(5000), gate: gate{minSpeedup: 0.95}},
	{name: "shard_n100k", build: denseVsShard(100_000, true), gate: gate{maxBytesPerNode: sinr.ShardBytesPerNodeBudget}},
	{name: "shard_n1m", large: true, build: denseVsShard(1_000_000, false), gate: gate{maxBytesPerNode: sinr.ShardBytesPerNodeBudget}},
	{name: "churn_lattice", build: rebuildVsApply(5000)},
	{name: "engine_step", build: engineCase(2000, "", engineConf{}, serial), gate: gate{zeroAllocs: true}},
	{name: "engine_step_5k", build: engineCase(5000, "", engineConf{}, serial), gate: gate{zeroAllocs: true}},
	// A zero-rate fault plan draws no randomness and scrubs nothing: its cost
	// is the dispatch overhead every healthy simulation pays for the layer.
	{name: "engine_step_faults", build: engineCase(2000, "nohook", serial, engineConf{workers: 1, faults: true}), gate: gate{minSpeedup: 1 / 1.05}},
	// Every integer-α path-loss kernel must beat math.Pow.
	{name: "kernel_pathloss_a3", build: powVsFast(3), gate: gate{minSpeedup: 1}},
	{name: "kernel_pathloss_a4", build: powVsFast(4), gate: gate{minSpeedup: 1}},
}

// runBench measures the case table, writes the report to outPath,
// appends a markdown table to summaryPath when set, and — when comparePath
// is set — checks the fresh numbers against the committed baseline.
func runBench(seed uint64, outPath, comparePath, summaryPath string, large bool) int {
	report := benchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
	for _, spec := range benchCases {
		if spec.large && !large {
			continue
		}
		c, err := measureCase(spec, seed)
		if err == nil {
			fmt.Printf("%-23s %s | %s\n", c.Name, formatValues(c.Params, nil), formatValues(c.Metrics, nil))
			err = checkGate(c, spec.gate)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		report.Cases = append(report.Cases, c)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "macbench: writing %s: %v\n", outPath, err)
		return 1
	}
	fmt.Printf("wrote %s\n", outPath)

	if summaryPath != "" {
		if err := writeSummary(summaryPath, comparePath, report); err != nil {
			fmt.Fprintf(os.Stderr, "macbench: writing summary %s: %v\n", summaryPath, err)
			return 1
		}
	}
	if comparePath != "" {
		if err := compareReports(comparePath, report); err != nil {
			fmt.Fprintf(os.Stderr, "macbench: regression check against %s failed:\n%v\n", comparePath, err)
			return 1
		}
		fmt.Printf("no gross regressions vs %s (tolerance %.1fx)\n", comparePath, compareTolerance)
	}
	return 0
}

// measureCase builds spec's workload and times it.
func measureCase(spec caseSpec, seed uint64) (benchCase, error) {
	runtime.GC() // settle the previous case's garbage before timing
	p, err := spec.build(seed)
	if err != nil {
		return benchCase{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	m, err := timePair(p.refName, p.ref, p.opt, spec.gate.minSpeedup)
	if err != nil {
		return benchCase{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	maps.Copy(m, p.metrics)
	return benchCase{Name: spec.name, Params: p.params, Metrics: m}, nil
}

// timePair measures a case's sides and returns their metrics. Below a
// floor it re-measures both, up to gateRounds rounds, keeping per-side
// minima and the fastest round's allocations; rounds alternate which side
// runs first, or the order would pin one heap layout to each side.
func timePair(refName string, ref, opt side, floor float64) (map[string]float64, error) {
	r, o := sample{ns: math.Inf(1)}, sample{ns: math.Inf(1)}
	sides := []struct {
		run  side
		best *sample
	}{{ref, &r}, {opt, &o}}
	if ref == nil {
		sides = sides[1:]
	}
	for round := 0; round < gateRounds; round++ {
		for _, s := range sides {
			got, err := s.run()
			if err != nil {
				return nil, err
			}
			if got.ns < s.best.ns {
				*s.best = got
			}
		}
		if ref == nil || floor == 0 || r.ns/o.ns >= floor {
			break
		}
		slices.Reverse(sides)
	}
	m := map[string]float64{"ns_per_op": o.ns, "allocs_per_op": float64(o.allocs)}
	if ref != nil {
		m[refName+"_ns_per_op"] = r.ns
		m[refName+"_allocs_per_op"] = float64(r.allocs)
		if o.ns > 0 {
			m["speedup"] = r.ns / o.ns
		}
	}
	return m, nil
}

// checkGate applies g to a measured case; the error names the case.
func checkGate(c benchCase, g gate) error {
	var problems []string
	if s := c.Metrics["speedup"]; g.minSpeedup > 0 && s < g.minSpeedup {
		problems = append(problems, fmt.Sprintf("speedup %.3fx over per-side minima is below the floor %.3fx", s, g.minSpeedup))
	}
	if a := c.Metrics["allocs_per_op"]; g.zeroAllocs && a != 0 {
		problems = append(problems, fmt.Sprintf("%.0f allocs/op in steady state, want 0", a))
	}
	if b := c.Metrics["bytes_per_node"]; g.maxBytesPerNode > 0 && b > g.maxBytesPerNode {
		problems = append(problems, fmt.Sprintf("%.1f heap bytes/node exceeds the budget %.0f", b, g.maxBytesPerNode))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s gate failed: %s", c.Name, strings.Join(problems, "; "))
	}
	return nil
}

// timeOps times op with testing.Benchmark.
func timeOps(op func()) sample {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	return sample{ns: float64(res.NsPerOp()), allocs: res.AllocsPerOp()}
}

// slotSide times a fresh evaluator built with opts over a fixed tx set,
// warmed first so caches behave as in a running simulation. A non-nil
// refine receives the certified pipeline's exact-fallback rate as
// refine_rate.
func slotSide(ch *sinr.Channel, tx []int, opts sinr.FastOptions, refine map[string]float64) side {
	return func() (sample, error) {
		f := sinr.NewFastChannel(ch, opts)
		defer f.Close()
		f.SlotReceptions(tx)
		s := timeOps(func() { f.SlotReceptions(tx) })
		if refine != nil {
			refine["refine_rate"] = f.BoundsStats().RefineRate()
		}
		return s, nil
	}
}

// naiveVsFast times the naive channel against the fast evaluator on
// sinr.BenchWorkload at n nodes.
func naiveVsFast(n int) func(uint64) (*pair, error) {
	return func(seed uint64) (*pair, error) {
		ch, tx, err := sinr.BenchWorkload(n, seed)
		if err != nil {
			return nil, err
		}
		naive := func() (sample, error) {
			ch.SlotReceptions(tx)
			return timeOps(func() { ch.SlotReceptions(tx) }), nil
		}
		return &pair{params: map[string]float64{"nodes": float64(n), "transmitters": float64(len(tx))}, refName: "naive", ref: naive, opt: slotSide(ch, tx, sinr.FastOptions{}, nil)}, nil
	}
}

// denseVsSparse times the dense receiver scan against the sender-centric
// sparse path on sinr.SparseBenchWorkload (|tx| = √n) at n nodes.
func denseVsSparse(n int) func(uint64) (*pair, error) {
	return func(seed uint64) (*pair, error) {
		ch, tx, err := sinr.SparseBenchWorkload(n, seed)
		if err != nil {
			return nil, err
		}
		return &pair{
			params:  map[string]float64{"nodes": float64(n), "transmitters": float64(len(tx))},
			refName: "dense",
			ref:     slotSide(ch, tx, sinr.FastOptions{SparseFactor: -1}, nil),
			opt:     slotSide(ch, tx, sinr.FastOptions{}, nil),
		}, nil
	}
}

// denseVsBounds times the lattice's dense scan against its certified bounds
// on sinr.DenseBenchWorkload at n = 5000 with k transmitters, the sparse
// path off on both sides. The bounds side keeps the default adaptive
// dispatch, what simulations actually get, and records its refine rate.
func denseVsBounds(k int) func(uint64) (*pair, error) {
	return func(seed uint64) (*pair, error) {
		const n = 5000
		ch, tx, err := sinr.DenseBenchWorkload(n, k, seed)
		if err != nil {
			return nil, err
		}
		metrics := map[string]float64{}
		return &pair{
			params:  map[string]float64{"nodes": float64(n), "transmitters": float64(len(tx))},
			refName: "dense",
			ref:     slotSide(ch, tx, sinr.FastOptions{SparseFactor: -1, BoundsFactor: -1}, nil),
			opt:     slotSide(ch, tx, sinr.FastOptions{SparseFactor: -1}, metrics),
			metrics: metrics,
		}, nil
	}
}

// denseVsShard times the cell lattice at scale on sinr.DenseBenchWorkload
// with k = n/32 and records the GC-settled heap growth of building channel
// and evaluator and evaluating one slot: what a simulation at this scale
// holds live. withDense adds the lattice's dense scan (certified path off)
// as the reference; at n = 10⁶ it takes minutes per op.
func denseVsShard(n int, withDense bool) func(uint64) (*pair, error) {
	return func(seed uint64) (*pair, error) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ch, tx, err := sinr.DenseBenchWorkload(n, n/32, seed)
		if err != nil {
			return nil, err
		}
		f := sinr.NewFastChannel(ch, sinr.FastOptions{SparseFactor: -1})
		f.SlotReceptions(tx) // warm: builds the shard index and scratch
		runtime.GC()
		runtime.ReadMemStats(&after)
		f.Close()
		heap := max(float64(after.HeapAlloc)-float64(before.HeapAlloc), 0)
		metrics := map[string]float64{"rss_bytes": heap, "bytes_per_node": heap / float64(n)}
		p := &pair{
			params:  map[string]float64{"nodes": float64(n), "transmitters": float64(len(tx))},
			opt:     slotSide(ch, tx, sinr.FastOptions{SparseFactor: -1}, metrics),
			metrics: metrics,
		}
		if withDense {
			p.refName = "dense"
			p.ref = slotSide(ch, tx, sinr.FastOptions{SparseFactor: -1, BoundsFactor: -1}, nil)
		}
		return p, nil
	}
}

// rebuildVsApply times rebuilding the fast evaluator against applying a
// mobility epoch to a live one, on sinr.ChurnBenchWorkload at n nodes with
// 1 % of them moving: the rebuild pays the cell index and the lattice's
// offset tables the incremental path reuses. The apply side cycles an
// away/back delta pair, so it stays allocation-free.
func rebuildVsApply(n int) func(uint64) (*pair, error) {
	return func(seed uint64) (*pair, error) {
		moved := n / 100
		ch, deltas, err := sinr.ChurnBenchWorkload(n, moved, seed)
		if err != nil {
			return nil, err
		}
		rebuild := func() (sample, error) {
			return timeOps(func() { sinr.NewFastChannel(ch).Close() }), nil
		}
		apply := func() (sample, error) {
			f := sinr.NewFastChannel(ch)
			defer f.Close()
			for _, d := range deltas { // warm buckets, arenas and capacities
				if err := f.ApplyEpoch(d); err != nil {
					return sample{}, err
				}
			}
			var applyErr error
			i := 0
			s := timeOps(func() {
				if err := f.ApplyEpoch(deltas[i%2]); err != nil {
					applyErr = err
				}
				i++
			})
			return s, applyErr
		}
		return &pair{
			params:  map[string]float64{"nodes": float64(n), "changed_per_epoch": float64(moved)},
			refName: "rebuild",
			ref:     rebuild,
			opt:     apply,
		}, nil
	}
}

// stepBenchNode is the minimal sim.Node used by the Engine.Step benchmark:
// it transmits a data frame with a fixed probability each slot.
type stepBenchNode struct {
	src  *rng.Source
	p    float64
	kind sim.FrameKind
}

func (n *stepBenchNode) Init(id int, src *rng.Source) { n.src = src }

func (n *stepBenchNode) Tick(slot int64, f *sim.Frame) bool {
	if !n.src.Bernoulli(n.p) {
		return false
	}
	f.Kind = n.kind
	f.Msg = core.Message{ID: 1, Origin: 0}
	return true
}

func (n *stepBenchNode) Receive(slot int64, f *sim.Frame) {}

// engineConf is one engine configuration of the engine-step workload.
type engineConf struct {
	workers int  // 0 = GOMAXPROCS
	faults  bool // install a zero-fault injector
}

// engineSide times the engine-step workload in steady state: n
// stepBenchNodes transmitting with probability 1/√n over the fast evaluator
// on sinr.SparseBenchWorkload's deployment, built fresh per call so every
// round starts alike, then warmed to fill the frame pool, buffers and
// caches. conf.faults installs a zero-fault injector as a fault experiment
// does (WrapNodes plus Config.Faults).
func engineSide(n int, seed uint64, conf engineConf) side {
	return func() (sample, error) {
		ch, _, err := sinr.SparseBenchWorkload(n, seed)
		if err != nil {
			return sample{}, err
		}
		kind := sim.RegisterFrameKind("macbench.step")
		nodes := make([]sim.Node, n)
		for i := range nodes {
			nodes[i] = &stepBenchNode{p: math.Sqrt(float64(n)) / float64(n), kind: kind}
		}
		cfg := sim.Config{Seed: seed, Workers: conf.workers}
		if conf.faults {
			inj, err := fault.NewInjector(fault.Plan{Seed: seed}, n)
			if err != nil {
				return sample{}, err
			}
			nodes = inj.WrapNodes(nodes)
			cfg.Faults = inj
		}
		fast := sinr.NewFastChannel(ch)
		defer fast.Close()
		cfg.Evaluator = fast
		eng, err := sim.NewEngine(ch, nodes, cfg)
		if err != nil {
			return sample{}, err
		}
		eng.Run(64, nil)
		return timeOps(func() { eng.Step() }), nil
	}
}

// engineCase times the engine-step workload at n nodes under opt and, when
// refName is set, under ref as the reference.
func engineCase(n int, refName string, ref, opt engineConf) func(uint64) (*pair, error) {
	return func(seed uint64) (*pair, error) {
		p := &pair{
			params: map[string]float64{"nodes": float64(n), "tx_per_slot": math.Sqrt(float64(n))},
			opt:    engineSide(n, seed, opt),
		}
		if refName != "" {
			p.refName, p.ref = refName, engineSide(n, seed, ref)
		}
		return p, nil
	}
}

// kernelSink defeats dead-code elimination of the path-loss loops.
var kernelSink float64

// powVsFast times the path-loss arithmetic over fixed random point pairs:
// math.Hypot distance and math.Pow loss against the shipped Sqrt distance
// and integer-α Params.ReceivedPower, in identical loops, so the ratio
// isolates the arithmetic.
func powVsFast(alpha float64) func(uint64) (*pair, error) {
	return func(seed uint64) (*pair, error) {
		const pairs = 4096
		params := sinr.Params{Alpha: alpha, Beta: 1.5, Noise: 1e-9, Power: 1, Epsilon: 0.1}
		src := rng.New(seed)
		ax := make([]float64, pairs)
		ay := make([]float64, pairs)
		bx := make([]float64, pairs)
		by := make([]float64, pairs)
		for i := 0; i < pairs; i++ {
			ax[i] = src.Float64() * 200
			ay[i] = src.Float64() * 200
			bx[i] = src.Float64() * 200
			by[i] = src.Float64() * 200
		}
		pow := func() (sample, error) {
			return timeOps(func() {
				var s float64
				for j := 0; j < pairs; j++ {
					d := math.Hypot(ax[j]-bx[j], ay[j]-by[j])
					if d < 1 {
						d = 1
					}
					s += params.Power / math.Pow(d, params.Alpha)
				}
				kernelSink = s
			}), nil
		}
		fast := func() (sample, error) {
			return timeOps(func() {
				var s float64
				for j := 0; j < pairs; j++ {
					dx := ax[j] - bx[j]
					dy := ay[j] - by[j]
					s += params.ReceivedPower(math.Sqrt(dx*dx + dy*dy))
				}
				kernelSink = s
			}), nil
		}
		return &pair{params: map[string]float64{"alpha": alpha, "pairs": pairs}, refName: "pow", ref: pow, opt: fast}, nil
	}
}

// formatValues renders m's entries, sorted by key and minus skip, as
// "key=value" pairs.
func formatValues(m map[string]float64, skip []string) string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(m)) {
		if slices.Contains(skip, k) {
			continue
		}
		v := m[k]
		s := strconv.FormatFloat(v, 'g', 4, 64)
		if v == math.Trunc(v) || math.Abs(v) >= 1000 {
			s = strconv.FormatFloat(v, 'f', 0, 64)
		}
		parts = append(parts, k+"="+s)
	}
	return strings.Join(parts, " ")
}

// readReport parses a report file.
func readReport(path string) (benchReport, error) {
	var r benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("parsing %s: %w", path, err)
	}
	return r, nil
}

// writeSummary appends to path a markdown table of the fresh cases with,
// when the baseline is readable, its speedup and the current/baseline ratio
// -compare judges. CI points it at $GITHUB_STEP_SUMMARY.
func writeSummary(path, baselinePath string, fresh benchReport) error {
	baseline := make(map[string]float64)
	if base, err := readReport(baselinePath); err == nil {
		for _, c := range base.Cases {
			baseline[c.Name] = c.Metrics["speedup"]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### macbench slot-pipeline benchmarks (GOMAXPROCS=%d, NumCPU=%d, %s)\n\n",
		fresh.GoMaxProcs, fresh.NumCPU, fresh.GoVersion)
	b.WriteString("| case | params | ns/op | allocs/op | speedup | baseline speedup | current/baseline | other metrics |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, c := range fresh.Cases {
		speedup, ratio := "—", "— | —"
		if s, ok := c.Metrics["speedup"]; ok {
			speedup = fmt.Sprintf("%.2fx", s)
			if base := baseline[c.Name]; base > 0 {
				ratio = fmt.Sprintf("%.2fx | %.2f", base, s/base)
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %.0f | %.0f | %s | %s | %s |\n",
			c.Name, formatValues(c.Params, nil), c.Metrics["ns_per_op"], c.Metrics["allocs_per_op"], speedup, ratio,
			formatValues(c.Metrics, []string{"ns_per_op", "allocs_per_op", "speedup"}))
	}
	fmt.Fprintf(&b, "\nRegression gate: speedup ratios may shrink at most %.1fx vs the committed baseline; optimised paths may not allocate more than it.\n", compareTolerance)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(b.String())
	return err
}

// compareReports checks the fresh report against a baseline on
// machine-invariant quantities: a case's speedup may not shrink beyond
// compareTolerance, nor its allocs_per_op exceed the baseline's. Every
// baseline case must reappear, or a deleted or renamed benchmark would slip
// past the gate; fresh-only cases are allowed, so adding one does not break
// the first run against an old baseline.
func compareReports(baselinePath string, fresh benchReport) error {
	base, err := readReport(baselinePath)
	if err != nil {
		return err
	}
	freshByName := make(map[string]benchCase)
	for _, c := range fresh.Cases {
		freshByName[c.Name] = c
	}
	var problems []string
	for _, b := range base.Cases {
		f, ok := freshByName[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"  case %q exists in the baseline but not in the fresh report: deleted or renamed benchmarks must refresh the committed baseline",
				b.Name))
			continue
		}
		if bs, fs := b.Metrics["speedup"], f.Metrics["speedup"]; bs > 0 && fs < bs/compareTolerance {
			problems = append(problems, fmt.Sprintf(
				"  %s: speedup %.2fx vs baseline %.2fx (shrank by more than %.1fx)",
				b.Name, fs, bs, compareTolerance))
		}
		if ba, ok := b.Metrics["allocs_per_op"]; ok && f.Metrics["allocs_per_op"] > ba {
			problems = append(problems, fmt.Sprintf(
				"  %s: %.0f allocs/op vs baseline %.0f", b.Name, f.Metrics["allocs_per_op"], ba))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "\n"))
	}
	return nil
}
