package main

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"sinrmac/internal/core"
)

// testHorizon keeps every simulation test to a few hundred milliseconds.
const testHorizon = 24

// runShort runs one repetition of spec at testHorizon and returns it with
// the engine statistics.
func runShort(t *testing.T, spec *simSpec, seed uint64, traced bool) (repOutcome, *simRun) {
	t.Helper()
	r, err := setupSim(spec, seed, testHorizon, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer r.fast.Close()
	if err := r.loop(); err != nil {
		t.Fatal(err)
	}
	var out repOutcome
	if err := r.check(&out); err != nil {
		t.Fatal(err)
	}
	return out, r
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// onParallelDriver returns a copy of the named workload's simulation on the
// parallel driver with two workers.
func onParallelDriver(t *testing.T, name string) *simSpec {
	t.Helper()
	spec := *mustWorkload(t, name).sim
	spec.parallel = true
	return &spec
}

// The timed evaluator wrapper must leave the execution untouched, on the
// serial driver (mac_dense, decay_churn with its epochs) and the parallel
// one (mac_uniform moved onto it).
func TestWrappedEvaluatorIsTransparent(t *testing.T) {
	specs := map[string]*simSpec{
		"mac_dense":            mustWorkload(t, "mac_dense").sim,
		"mac_uniform/parallel": onParallelDriver(t, "mac_uniform"),
		"decay_churn":          mustWorkload(t, "decay_churn").sim,
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			plain, pr := runShort(t, spec, 1, false)
			traced, tr := runShort(t, spec, 1, true)
			if pr.eng.Stats() != tr.eng.Stats() {
				t.Errorf("stats: unwrapped %+v, wrapped %+v", pr.eng.Stats(), tr.eng.Stats())
			}
			if plain.signature != traced.signature {
				t.Errorf("signature: unwrapped %s, wrapped %s", plain.signature, traced.signature)
			}
			if got := len(tr.trace.tick); got != testHorizon {
				t.Errorf("traced %d slots, want %d", got, testHorizon)
			}
		})
	}
}

func TestSignatureIndependentOfWorkers(t *testing.T) {
	a, _ := runShort(t, onParallelDriver(t, "mac_uniform"), 2, false)
	b, _ := runShort(t, mustWorkload(t, "mac_uniform").sim, 2, false)
	if a.signature != b.signature {
		t.Errorf("signature at two workers %s, at one %s", a.signature, b.signature)
	}
}

func TestWorkloadsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		if w.sim == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			a, ra := runShort(t, w.sim, 5, false)
			b, rb := runShort(t, w.sim, 5, false)
			c, _ := runShort(t, w.sim, 6, false)
			if a.signature != b.signature {
				t.Errorf("seed 5 gave signatures %s and %s", a.signature, b.signature)
			}
			pa, pb := ra.dep.Positions, rb.dep.Positions
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("seed 5 placed node %d at %v and %v", i, pa[i], pb[i])
				}
			}
			if a.signature == c.signature {
				t.Errorf("seeds 5 and 6 gave the same signature %s", a.signature)
			}
		})
	}
}

// One reduced tables repetition (one set-up pass, one timed pass) calls
// every runner once without error and repeats its signature for a seed.
func TestTablesDeterministicInSeed(t *testing.T) {
	w := mustWorkload(t, "tables")
	var sigs []string
	for range 2 {
		r, err := runRep(w, 5, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.ops != int64(len(tablesRunners())) || r.failed != 0 {
			t.Errorf("%d runner calls, %d failed; want %d, 0", r.ops, r.failed, len(tablesRunners()))
		}
		sigs = append(sigs, r.signature)
	}
	if sigs[0] != sigs[1] {
		t.Errorf("seed 5 gave signatures %s and %s", sigs[0], sigs[1])
	}
}

// The output check accepts a rcv in the slot of its bcast, even from a node
// that sorts after the receiver, and rejects a rcv that names no bcast.
func TestCheckRcvNeedsBcast(t *testing.T) {
	const id = core.MessageID(1<<40 | 7)
	cases := []struct {
		name   string
		events []core.Event
		ok     bool
	}{
		{"same slot", []core.Event{
			{Kind: core.EventBcast, Node: 300, Msg: core.Message{ID: id, Origin: 300}, Slot: 0},
			{Kind: core.EventRcv, Node: 3, Msg: core.Message{ID: id, Origin: 300}, Slot: 0},
		}, true},
		{"orphan", []core.Event{
			{Kind: core.EventRcv, Node: 3, Msg: core.Message{ID: id, Origin: 300}, Slot: 5},
		}, false},
	}
	for _, c := range cases {
		r, err := setupSim(mustWorkload(t, "mac_dense").sim, 1, testHorizon, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.loop(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range c.events {
			r.rec.Record(ev)
		}
		var out repOutcome
		err = r.check(&out)
		r.fast.Close()
		if (err == nil) != c.ok {
			t.Errorf("%s: check returned %v", c.name, err)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bench, err := readBenchFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.ReplaceAll(workloadNames(), ", ", ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	match := func(kind string, defs []metricDef, json []benchMetric) map[string]bool {
		set := map[string]bool{}
		if len(defs) != len(json) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(json))
		}
		for i := range min(len(defs), len(json)) {
			if defs[i].name != json[i].Name || defs[i].unit != json[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, defs[i].name, defs[i].unit, json[i].Name, json[i].Unit)
			}
			set[defs[i].name] = true
		}
		return set
	}
	e2e := match("end_to_end", endToEnd, bench.EndToEnd)
	layer := match("per_layer", perLayer, bench.PerLayer)

	// The metrics a run prints are exactly those of its kind.
	w := mustWorkload(t, "mac_dense")
	for _, traced := range []bool{false, true} {
		rec := measure(w, 3, time.Millisecond, traced, testHorizon)
		if !rec.Correct {
			t.Fatalf("trace=%v: %s", traced, rec.Error)
		}
		want := e2e
		if traced {
			want = layer
		}
		if !sameKeys(rec.Metrics, want) {
			t.Errorf("trace=%v run printed %v, want %v", traced, keys(rec.Metrics), keys(want))
		}
	}
}

// A traced run's phases lie inside their slots and add up to the wall time
// of the simulation loop, timed here apart from the trace.
func TestTracedPhasesCoverSlot(t *testing.T) {
	r, err := setupSim(mustWorkload(t, "mac_uniform").sim, 1, testHorizon, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.fast.Close()
	start := time.Now()
	if err := r.loop(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if r.trace.evals != testHorizon {
		t.Errorf("evaluator called %d times in %d slots", r.trace.evals, testHorizon)
	}
	for i := range r.trace.tick {
		if r.trace.tick[i] < 0 || r.trace.eval[i] < 0 || r.trace.recv[i] < 0 {
			t.Errorf("slot %d: tick %d ns, eval %d ns, recv %d ns", i, r.trace.tick[i], r.trace.eval[i], r.trace.recv[i])
		}
	}
	m := r.layerMetrics()
	sum := m["sim.tick_us_per_slot"] + m["sinr.eval_us_per_slot"] + m["sim.recv_us_per_slot"]
	if perSlot := float64(wall) / 1e3 / testHorizon; sum < 0.95*perSlot || sum > 1.05*perSlot {
		t.Errorf("tick+eval+recv = %.1f us per slot, loop wall %.1f us per slot", sum, perSlot)
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.name]) != 32 {
			t.Errorf("testdata/golden.json has no signature for %s", w.name)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	noisy := make([]float64, len(base))
	for i, v := range base {
		faster[i] = v * 0.8
		slower[i] = v * 1.3
		noisy[i] = v * (1 + 0.5*float64(i%2))
	}
	cases := []struct {
		head []float64
		want string
	}{
		{base, "unchanged"},
		{faster, "gain"},
		{faster[:9], "unchanged"}, // nine pairs are too few for a gain
		{slower, "regression"},
		{noisy, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(base, c.head, false, 0.2).verdict; got != c.want {
			t.Errorf("head %v: verdict %s, want %s", c.head, got, c.want)
		}
	}
	if got := judge(base, slower, true, 0.2).verdict; got != "gain" {
		t.Errorf("higher-is-better slower head: verdict %s, want gain", got)
	}
}

// iqr must agree with Python's statistics.quantiles(vs, n=4).
func TestIQRMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.25 - 2.75},
		{[]float64{3, 1, 2}, 3 - 1},
		{[]float64{5, 1}, 6 - 0}, // extrapolates, as Python does
		{[]float64{1, 2, 3, 4}, 3.75 - 1.25},
	}
	for _, c := range cases {
		if got := iqr(c.vs); got != c.want {
			t.Errorf("iqr(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	bench := &benchFile{
		Workloads: []benchWorkload{{Name: "mac_dense"}},
		EndToEnd:  []benchMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.2}},
	}
	runs := func(sig string, walls ...float64) map[string][]*record {
		var rs []*record
		for i, v := range walls {
			rs = append(rs, &record{
				summary:   summary{Correct: true, Metrics: map[string]metricValue{"wall_s": {v, "s"}}},
				Workload:  "mac_dense",
				Seed:      uint64(i + 1),
				Signature: sig,
			})
		}
		return map[string][]*record{"mac_dense": rs}
	}
	if rows, bad := compareRecords(bench, runs("a", 1, 1, 1), runs("a", 1, 1, 1)); bad || len(rows) != 1 {
		t.Errorf("identical runs: bad=%v rows=%q", bad, rows)
	}
	if _, bad := compareRecords(bench, runs("a", 1, 1, 1), runs("a", 2, 2, 2)); !bad {
		t.Error("a doubled wall time is not flagged")
	}
	if _, bad := compareRecords(bench, runs("a", 1, 1, 1), runs("b", 1, 1, 1)); !bad {
		t.Error("a signature change is not flagged")
	}
	if _, bad := compareRecords(bench, runs("a", 1), map[string][]*record{}); !bad {
		t.Error("missing head runs are not flagged")
	}
	failedCheck := runs("a", 1, 1, 1)
	failedCheck["mac_dense"][1].Correct = false
	if _, bad := compareRecords(bench, runs("a", 1, 1, 1), failedCheck); !bad {
		t.Error("a head run that failed its check is not flagged")
	}

	// Ten faster head runs are a gain, unless the head fails more operations.
	walls := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	fast := make([]float64, len(walls))
	for i, v := range walls {
		fast[i] = v * 0.8
	}
	base, head := runs("a", walls...), runs("a", fast...)
	for _, rs := range [][]*record{base["mac_dense"], head["mac_dense"]} {
		for _, r := range rs {
			r.Attempted = 100
		}
	}
	if rows, bad := compareRecords(bench, base, head); bad || !strings.HasSuffix(rows[0], "gain") {
		t.Errorf("faster head: bad=%v rows=%q", bad, rows)
	}
	head["mac_dense"][0].Failed = 1
	rows, bad := compareRecords(bench, base, head)
	if !bad {
		t.Error("a head failing more operations is not flagged")
	}
	for _, r := range rows {
		if strings.HasSuffix(r, "gain") {
			t.Errorf("a head failing more operations gains: %q", r)
		}
	}
}

func sameKeys[V any](m map[string]V, want map[string]bool) bool {
	if len(m) != len(want) {
		return false
	}
	for k := range m {
		if !want[k] {
			return false
		}
	}
	return true
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
