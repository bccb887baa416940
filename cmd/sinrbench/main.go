// Command sinrbench is the end-to-end benchmark of the absMAC stack: the
// combined MAC of Algorithm 11.1 and the Decay baseline over the fast SINR
// evaluator, and the experiment runners that regenerate the paper's tables.
// It runs one named workload per process, checks the output, and prints
// every metric by name and unit as JSON. Run it from the repository root:
//
//	bash cmd/sinrbench/run.sh -workload mac_uniform -seed 1           # end-to-end metrics
//	bash cmd/sinrbench/run.sh -workload mac_uniform -seed 1 -trace 1  # per-layer metrics
//	bash cmd/sinrbench/run.sh -workload all -out results/head         # each workload in a child process
//	bash cmd/sinrbench/run.sh compare -base results/base -head results/head
//
// run.sh builds the command under .bench_build/ in the checkout and passes
// its arguments on. The benchmark is a module of its own, with its own
// go.mod, so it builds apart from the packages it measures; the
// repository's go test ./... does not reach it. Its tests and linters run
// from its directory: (cd cmd/sinrbench && go test ./... && go vet ./... &&
// go run sinrmac/cmd/sinrlint ./...). BENCHMARK.json at the repository
// root lists the workloads and, for each metric, its unit, its direction
// and, end to end, the bound by which it may worsen.
//
// # Runs
//
// A run repeats its workload — set-up, timed phase, output check — with
// the same seed until the next repetition would overrun -seconds (default
// 20; BENCHMARK.json's command is always run with --seconds set to its
// run_seconds), and reports medians over the repetitions: seven to eleven
// of each simulation, two or three of tables. A simulation run first
// makes one warm-up repetition, checked but not timed: a process's first
// second runs slow while the CPU and the heap warm up. The seed (default 1)
// is the only input; through labelled streams it drives the deployment,
// the engine's per-node randomness and the churn moves. The last line of
// standard output is {"correct", "attempted", "failed", "metrics"}; the
// line before it is the full record with the per-repetition samples,
// stamped with GOMAXPROCS, NumCPU, the Go version, GOOS/GOARCH, the seed
// and the horizon. -out DIR also writes the record, and a traced run's
// per-slot spans, to files in DIR. The exit code is 0 only when every check
// passed.
//
// # Workloads
//
// In every simulation workload a benchmark-owned core.Layer on each of k
// client nodes issues a fresh Bcast (ID node<<32|seq) in the first slot
// after its previous one acked: a closed loop with k clients. The recorder
// is on, the evaluator is the default FastChannel and the slot horizon is
// fixed, so two commits do identical work. Shares below are from traced
// runs on the two-CPU development host.
//
//	mac_uniform    mac.DefaultConfig on ConnectedUniform n = 4096, range 12,
//	               side 2.2·√n·2 (grid regime, Δ≈33); k = 409; serial; 900
//	               slots. The paper's stack at scale. approgress's tick is about
//	               70 % of the slot and evaluation, on the sparse grid path with
//	               a 409-column cache, about 25 %. It runs serially: on the
//	               shared two-CPU host the parallel driver's per-slot barrier
//	               waits for whichever worker the host slowed, and ten runs of
//	               the same code on two workers spread by 19 to 28 % in wall
//	               time, past the bound. The tests run it on the parallel
//	               driver too, where its outcome must not change.
//	mac_dense      The same MAC on Clusters(4, 128) with range 3·√n (matrix
//	               regime, Δ≈258); k = n = 512; serial; 5000 slots. The large-Δ
//	               regime of Theorems 8.1/9.1. Evaluation is under 10 % of the
//	               slot, so an evaluator change should not move it.
//	decay_uniform  decay.New with Δ̃ = maxdeg+1 on the mac_uniform deployment;
//	               k = n; serial; 300 slots, one ack round (266 slots) and the
//	               start of the next. Evaluation-bound: about 1160 transmitters
//	               per slot, evaluation about 90 % of the slot, the bounds tier on
//	               57 % of slots, about 250 events per slot. approgress is absent.
//	decay_churn    decay_uniform plus, every 16 slots, 41 nodes (1 %) jittered by
//	               at most 0.5 through MoveNode/CommitEpoch and Engine.ApplyEpoch;
//	               160 slots. Writes beside decay_uniform's reads on the same
//	               evaluator: each epoch drops the column cache, so evaluation
//	               costs 2.5× the static one, the miss rate is about 38 % and the
//	               loop allocates about 7.5 MB per slot.
//	tables         The exp.Registry() runners except E9-scale, on two workers,
//	               quick sweeps and default trials, at ten seeds drawn from the
//	               run's seed. What a user of the reproduction runs: many small
//	               deployments, Engine.Reset and the trial scheduler. Full sweeps
//	               take 7 to 15 s depending on the seed, because E4-decay runs to
//	               a random stopping time; ten quick passes average that out.
//	               Set-up is the quick pass at the run's own seed, the smoke run
//	               users make first, timed three times. E9-scale alone takes
//	               minutes at n = 10⁶ and stays with macbench's shard cases.
//
// # Metrics
//
// End to end (untraced runs):
//
//	wall_s       s   The timed phase: the simulation loop (Engine.Run, plus epoch
//	                 commit and apply on decay_churn) and the output check; for
//	                 tables, the ten passes.
//	setup_s      s   Deployment, graphs, Λ, channel, NewFastChannel, nodes and
//	                 NewEngine. Lazy evaluator state filled while running counts
//	                 in wall_s, because users pay it on every run.
//	peak_rss_mb  MB  getrusage max RSS of the workload's own process.
//
// Each may worsen by 25 % (memory by 20 %) before a change counts as a
// regression. The bounds are that wide because the two-CPU development host
// is shared and its speed drifts over minutes, for every workload at once:
// a fixed integer loop timed every two seconds for three minutes spread by
// 8 % (interquartile range over median) and ranged over 35 %. In three sets
// of ten consecutive runs of each workload, one run per seed, wall time
// spread by 7 to 23 %, set-up time by 9 to 38 % and memory by at most 6 %;
// the medians of two sets of the same code differed by at most 10 %.
// Medians over repetitions take out the noise inside a run, not this drift
// between runs.
//
// attempted counts operations and failed the ones that failed: a bcast
// missing its core.CheckDeadlines ack deadline (censored at the horizon), or
// a runner returning an error. A failed output check fails every operation
// of the run.
//
// Per layer (traced runs, -trace 1), each with the end-to-end metric and
// workload it should move:
//
//	sinr.eval_us_per_slot            wall_s on decay_uniform and decay_churn; barely mac_dense
//	sinr.tx_per_slot, rx_per_slot    simulated counts
//	sinr.bounds_slot_share,          the BoundsStats share of slots on the bounds tier and
//	sinr.bounds_refine_rate          its refine rate: wall_s on decay_uniform
//	sinr.column_miss_rate,           ColumnStats, and the time of Engine.ApplyEpoch:
//	sinr.apply_us_per_epoch          wall_s on decay_churn
//	topology.deploy_s, graphs_s      StrongGraph+ApproxGraph+Lambda: setup_s
//	topology.commit_us_per_epoch     CommitEpoch: wall_s on decay_churn
//	sim.slots_per_s                  slots per second of the simulation loop
//	sim.tick_us_per_slot,            the tick and receive phases
//	sim.recv_us_per_slot
//	sim.slot_us_p50, slot_us_p99     slot wall, observer to observer; stalls show here
//	sim.allocs_per_slot,             runtime.MemStats over the loop: wall_s and
//	sim.alloc_bytes_per_slot,        peak_rss_mb on decay_churn and mac_uniform
//	runtime.gc_cycles, gc_pause_ms
//	hmbcast.tick/recv_us_per_slot,   wall_s on mac_uniform and mac_dense; no change
//	approgress.tick/recv_us_per_slot on the decay workloads
//	decay.tick/recv_us_per_slot      wall_s on decay_uniform and decay_churn
//	core.events_per_slot             recorder events
//	core.check_s                     Events+CheckAcks+MeasureProgress+CheckDeadlines:
//	                                 wall_s on decay_uniform and mac_dense
//	core.acks_per_kslot,             simulated counts that must repeat exactly
//	core.ack_latency_mean_slots,
//	core.nice_violations
//	exp.<runner>_s                   each runner over the ten passes: wall_s on tables
//	trace_overhead_ratio             traced wall_s ÷ untraced wall_s − 1
//
// A metric whose layer a workload does not exercise reads 0.
//
// # How the traced run measures each layer
//
// Every layer is measured from outside, around the calls into its public
// functions. A wrapper embeds *sinr.FastChannel and times SlotReceptions;
// embedding keeps WorkerPool, SetWorkers, Channel and ApplyEpoch visible to
// sim.NewEngine and Engine.ApplyEpoch, so the engine behaves exactly as it
// does unwrapped. An observer marks the end of each slot. In every driver
// the evaluator runs between the tick and receive phases and observers fire
// once per slot, so three clock reads per slot give tick (previous slot's
// end to evaluator entry), eval and recv (evaluator exit to slot end), and
// the three add up to the observer-to-observer slot wall. mac.Node runs
// hmbcast on even slots and approgress on odd ones, so splitting phase time
// by slot parity attributes combined-MAC time to each automaton without
// timing single nodes; every per-slot time is averaged over all slots, so
// hmbcast.* + approgress.* = sim.*. Spans are kept in preallocated per-slot
// arrays and written out when the run ends. A traced run alternates
// untraced and traced repetitions, which gives the tracing overhead.
//
// # Output check
//
// Each repetition hashes its deterministic outcome into a signature: the
// engine's Stats, per-kind event counts, the events sorted by (slot, node,
// kind, message) — under the parallel driver the recorder's order within a
// slot depends on scheduling — and the CheckAcks, MeasureProgress and
// CheckDeadlines reports; for tables, the formatted tables. Seed 1 must
// match testdata/golden.json. Every seed must simulate the full horizon,
// ack no more than it broadcast, name an earlier bcast in every rcv and
// ack, and, for tables, return no runner error; every repetition of a run
// must give the same signature.
//
// # Comparing commits
//
// sinrbench compare -base DIR -head DIR reads the untraced records of two
// -out directories and prints one row per workload and end-to-end metric.
// Run i of the base pairs with run i of the head, in start order, so runs
// made alternately pair up. A gain needs at least 10 pairs, the head
// winning at least 9/10 of them and the medians differing by more than the
// base's interquartile range. A metric whose spread exceeds its
// BENCHMARK.json bound is unresolved unless every head run beats every base
// run; a head median worse than the base median by more than the bound is
// a regression. A head whose runs fail a larger share of their operations
// gains nothing. The command exits non-zero on a regression, a head run
// that failed its output check, a larger failed share in the head, a
// signature that differs for the same seed, or a workload without runs.
// cmd/sinrbench/baseline holds two sets of interleaved runs of every
// workload from the development host.
//
// cmd/macbench remains the kernel-level gate: it times single kernels and
// the engine step in isolation, while sinrbench measures the stack as the
// paper's users run it.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"sinr.eval_us_per_slot", "us"},
	{"sinr.tx_per_slot", "count"},
	{"sinr.rx_per_slot", "count"},
	{"sinr.bounds_slot_share", "ratio"},
	{"sinr.bounds_refine_rate", "ratio"},
	{"sinr.column_miss_rate", "ratio"},
	{"sinr.apply_us_per_epoch", "us"},
	{"topology.deploy_s", "s"},
	{"topology.graphs_s", "s"},
	{"topology.commit_us_per_epoch", "us"},
	{"sim.slots_per_s", "slot/s"},
	{"sim.tick_us_per_slot", "us"},
	{"sim.recv_us_per_slot", "us"},
	{"sim.slot_us_p50", "us"},
	{"sim.slot_us_p99", "us"},
	{"sim.allocs_per_slot", "count"},
	{"sim.alloc_bytes_per_slot", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"hmbcast.tick_us_per_slot", "us"},
	{"hmbcast.recv_us_per_slot", "us"},
	{"approgress.tick_us_per_slot", "us"},
	{"approgress.recv_us_per_slot", "us"},
	{"decay.tick_us_per_slot", "us"},
	{"decay.recv_us_per_slot", "us"},
	{"core.events_per_slot", "count"},
	{"core.check_s", "s"},
	{"core.acks_per_kslot", "count"},
	{"core.ack_latency_mean_slots", "slot"},
	{"core.nice_violations", "count"},
	{"exp.ack_s", "s"},
	{"exp.proglb_s", "s"},
	{"exp.approg_s", "s"},
	{"exp.decay_s", "s"},
	{"exp.smb_s", "s"},
	{"exp.mmb_s", "s"},
	{"exp.cons_s", "s"},
	{"exp.churn_s", "s"},
	{"exp.fault_s", "s"},
	{"trace_overhead_ratio", "ratio"},
}

//go:embed testdata/golden.json
var goldenJSON []byte

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostStamp records where a run was measured.
type hostStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// record is the full result of one run.
type record struct {
	summary
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Horizon   int64                `json:"horizon"`
	Trace     bool                 `json:"trace"`
	Started   time.Time            `json:"started"`
	Host      hostStamp            `json:"host"`
	Reps      int                  `json:"reps"`
	Signature string               `json:"signature"`
	Error     string               `json:"error,omitempty"`
	Counts    map[string]float64   `json:"counts"`
	Samples   map[string][]float64 `json:"samples"`

	spans *slotTrace // the last traced repetition's per-slot spans
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout)
	}
	fs := flag.NewFlagSet("sinrbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+" or all")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	// BENCHMARK.json's command is run with --seconds set to its run_seconds,
	// so the budget is part of the command line, not a constant.
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds: repetitions stop before overrunning it")
	trace := fs.Int("trace", 0, "1 for a traced run that reports the per-layer metrics")
	outDir := fs.String("out", "", "also write the run's record to a file in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "sinrbench: usage: sinrbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out DIR]")
		return 2
	}
	if *name == "all" {
		return runAll(stdout, "-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*trace), "-out", *outDir)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "sinrbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	rec := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, 0)
	if *outDir != "" {
		if err := writeRecord(*outDir, rec); err != nil {
			fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
		return 1
	}
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "sinrbench: %s seed %d failed its check: %s\n", rec.Workload, rec.Seed, rec.Error)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runRep runs one repetition. horizon > 0 shortens a simulation workload
// and cuts tables to one pass and one set-up; the tests use it, the
// command never does.
func runRep(w workload, seed uint64, horizon int64, traced bool) (repOutcome, error) {
	if w.sim == nil && horizon > 0 {
		return runTablesRep(seed, 1, 1)
	}
	if w.sim == nil {
		return runTablesRep(seed, tablesPasses, tablesSetups)
	}
	if horizon <= 0 {
		horizon = w.sim.horizon
	}
	return runSimRep(w.sim, seed, horizon, traced)
}

// measure repeats the workload until the next repetition would overrun the
// budget and folds the repetitions into a record. A simulation run starts
// with a warm-up repetition, checked but not timed, because a process's
// first second runs slow. A traced simulation run then alternates untraced
// and traced repetitions and runs at least one of each; tables has no
// tracing of its own, and its set-up passes warm it up.
func measure(w workload, seed uint64, budget time.Duration, traced bool, horizon int64) *record {
	rec := &record{
		Workload: w.name, Seed: seed, Trace: traced, Started: time.Now().UTC(),
		Host: hostStamp{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		Samples: map[string][]float64{},
	}
	if w.sim != nil {
		rec.Horizon = w.sim.horizon
		if horizon > 0 {
			rec.Horizon = horizon
		}
	}
	warmups, need := 0, 1 // untimed repetitions, then timed ones the budget cannot cut
	if w.sim != nil {
		warmups = 1
		if traced {
			need = 2
		}
	}
	var reps []repOutcome
	var last time.Duration
	start := time.Now()
	for len(reps) < warmups+need || time.Since(start)+last <= budget {
		repStart := time.Now()
		timed := len(reps) - warmups
		r, err := runRep(w, seed, horizon, traced && w.sim != nil && timed%2 == 1)
		r.warmup = timed < 0
		rec.Attempted += r.ops
		rec.Failed += r.failed
		if err != nil {
			rec.Error = err.Error()
			break
		}
		reps = append(reps, r)
		// Collect the repetition's garbage so the next one starts from the
		// same heap.
		runtime.GC()
		last = time.Since(repStart)
	}
	rec.Reps = len(reps)
	fold(rec, reps, w)
	return rec
}

// fold checks the repetitions' outcomes and computes the run's metrics.
func fold(rec *record, reps []repOutcome, w workload) {
	rec.Metrics = map[string]metricValue{}
	if len(reps) > 0 && rec.Error == "" {
		rec.Signature = reps[0].signature
		rec.Counts = reps[0].counts
		for _, r := range reps[1:] {
			if r.signature != rec.Signature {
				rec.Error = fmt.Sprintf("repetitions disagree: signature %s then %s", rec.Signature, r.signature)
			}
		}
	}
	if rec.Error == "" && rec.Seed == 1 {
		golden := map[string]string{}
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			rec.Error = fmt.Sprintf("testdata/golden.json: %v", err)
		} else if want := golden[w.name]; want != rec.Signature {
			rec.Error = fmt.Sprintf("seed 1 signature %s, golden %q", rec.Signature, want)
		}
	}
	rec.Correct = rec.Error == ""
	if rec.Attempted < 1 {
		rec.Attempted = 1
	}
	if !rec.Correct {
		rec.Failed = rec.Attempted
	}

	var plain, traced []repOutcome
	for _, r := range reps {
		if r.warmup {
			continue
		}
		if r.traced {
			traced = append(traced, r)
			rec.spans = r.trace
		} else {
			plain = append(plain, r)
		}
		rec.Samples["wall_s"] = append(rec.Samples["wall_s"], r.wallS)
		rec.Samples["setup_s"] = append(rec.Samples["setup_s"], r.setupS)
		rec.Samples["loop_s"] = append(rec.Samples["loop_s"], r.loopS)
	}
	if len(plain) == 0 {
		return
	}
	medianOf := func(rs []repOutcome, f func(repOutcome) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = f(r)
		}
		return median(vs)
	}
	wall := func(r repOutcome) float64 { return r.wallS }
	if !rec.Trace {
		e2e := map[string]float64{
			"wall_s":      medianOf(plain, wall),
			"setup_s":     medianOf(plain, func(r repOutcome) float64 { return r.setupS }),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		return
	}
	overhead := 0.0 // tables is never traced
	if w.sim != nil {
		if len(traced) == 0 {
			return
		}
		overhead = medianOf(traced, wall)/medianOf(plain, wall) - 1
	} else {
		traced = plain
	}
	for _, m := range perLayer {
		v := medianOf(traced, func(r repOutcome) float64 { return r.layer[m.name] + r.counts[m.name] })
		rec.Metrics[m.name] = metricValue{v, m.unit}
	}
	rec.Metrics["trace_overhead_ratio"] = metricValue{overhead, "ratio"}
}

// peakRSSMB returns the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// median returns the median of vs (0 for none), leaving vs unchanged.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printRecord writes the full record, then the summary as the last line.
func printRecord(w io.Writer, rec *record) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rec.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}

// writeRecord stores the record in dir under a name unique to the run and,
// for a traced run, the per-slot spans of its last traced repetition beside
// it as tab-separated values.
func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "plain"
	if rec.Trace {
		kind = "trace"
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%d", rec.Workload, rec.Seed, kind, rec.Started.UnixNano()))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rec.spans == nil {
		return nil
	}
	var b bytes.Buffer
	b.WriteString("slot\ttick_ns\teval_ns\trecv_ns\ttx\trx\n")
	t := rec.spans
	for i := range t.tick {
		fmt.Fprintf(&b, "%d\t%d\t%d\t%d\t%d\t%d\n", i, t.tick[i], t.eval[i], t.recv[i], t.tx[i], t.rx[i])
	}
	return os.WriteFile(stem+".spans.tsv", b.Bytes(), 0o644)
}

// runAll runs every workload in a child process of its own with the given
// flags, passes each child's record through and ends with one summary
// whose metrics are named workload.metric.
func runAll(stdout io.Writer, flags ...string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
		return 1
	}
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, flags...)...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "sinrbench: workload %s: %v\n", w.name, err)
			total.Correct = false
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var s summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			fmt.Fprintf(os.Stderr, "sinrbench: workload %s printed no result: %v\n", w.name, err)
			total.Correct = false
			continue
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for k, v := range s.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	if err := json.NewEncoder(stdout).Encode(total); err != nil {
		fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
		return 1
	}
	if !total.Correct {
		return 1
	}
	return 0
}
