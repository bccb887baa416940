package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, report benchReport) string {
	t.Helper()
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func record(name string, metrics map[string]float64) benchCase {
	return benchCase{Name: name, Params: map[string]float64{"nodes": 5000}, Metrics: metrics}
}

func baseReport() benchReport {
	return benchReport{Cases: []benchCase{
		record("matrix", map[string]float64{"speedup": 20, "allocs_per_op": 0}),
		record("sparse_lattice", map[string]float64{"speedup": 10, "allocs_per_op": 0}),
		record("bounds_quarter", map[string]float64{"speedup": 6, "allocs_per_op": 0}),
		record("churn_matrix", map[string]float64{"speedup": 40, "allocs_per_op": 0}),
		record("engine_step", map[string]float64{"ns_per_op": 1000, "allocs_per_op": 0}),
	}}
}

// caseIndex returns the index of the named case in r.
func caseIndex(t *testing.T, r benchReport, name string) int {
	t.Helper()
	i := slices.IndexFunc(r.Cases, func(c benchCase) bool { return c.Name == name })
	if i < 0 {
		t.Fatalf("no case %q", name)
	}
	return i
}

func TestCompareReportsPasses(t *testing.T) {
	path := writeBaseline(t, baseReport())
	if err := compareReports(path, baseReport()); err != nil {
		t.Fatalf("identical reports failed the gate: %v", err)
	}
	// Fresh-only cases stay allowed: adding a benchmark must not break the
	// first run against an old baseline.
	fresh := baseReport()
	fresh.Cases = append(fresh.Cases, record("churn_lattice", map[string]float64{"speedup": 3}))
	if err := compareReports(path, fresh); err != nil {
		t.Fatalf("fresh-only case failed the gate: %v", err)
	}
	// The host stamp is not judged.
	fresh = baseReport()
	fresh.GoMaxProcs, fresh.NumCPU, fresh.GoVersion = 8, 8, "go0.0"
	if err := compareReports(path, fresh); err != nil {
		t.Fatalf("a different host failed the gate: %v", err)
	}
}

// TestCompareReportsMissingBaselineCase: deleting or renaming a benchmark
// does not dodge the regression gate — a baseline case with no fresh
// counterpart is reported as a failure and named.
func TestCompareReportsMissingBaselineCase(t *testing.T) {
	path := writeBaseline(t, baseReport())
	for _, c := range baseReport().Cases {
		fresh := baseReport()
		fresh.Cases = slices.DeleteFunc(fresh.Cases, func(f benchCase) bool { return f.Name == c.Name })
		err := compareReports(path, fresh)
		if err == nil {
			t.Fatalf("dropping %q passed the gate", c.Name)
		}
		if !strings.Contains(err.Error(), c.Name) || !strings.Contains(err.Error(), "not in the fresh report") {
			t.Fatalf("dropping %q: error does not name the missing case: %v", c.Name, err)
		}
	}
	// Renames surface as missing too.
	fresh := baseReport()
	fresh.Cases[caseIndex(t, fresh, "churn_matrix")].Name = "churn_matrix_v2"
	if err := compareReports(path, fresh); err == nil || !strings.Contains(err.Error(), `"churn_matrix"`) {
		t.Fatalf("renaming a case passed the gate: %v", err)
	}
}

func TestCompareReportsRegressions(t *testing.T) {
	path := writeBaseline(t, baseReport())
	fresh := baseReport()
	fresh.Cases[caseIndex(t, fresh, "churn_matrix")].Metrics["speedup"] = 5 // 8x shrink > 2x tolerance
	if err := compareReports(path, fresh); err == nil || !strings.Contains(err.Error(), "churn_matrix: speedup") {
		t.Fatalf("speedup collapse passed the gate: %v", err)
	}
	fresh = baseReport()
	fresh.Cases[caseIndex(t, fresh, "churn_matrix")].Metrics["speedup"] = 21 // within the 2x tolerance
	if err := compareReports(path, fresh); err != nil {
		t.Fatalf("speedup within tolerance failed the gate: %v", err)
	}
	fresh = baseReport()
	fresh.Cases[caseIndex(t, fresh, "engine_step")].Metrics["allocs_per_op"] = 3
	if err := compareReports(path, fresh); err == nil || !strings.Contains(err.Error(), "engine_step: 3 allocs/op") {
		t.Fatalf("alloc regression passed the gate: %v", err)
	}
	// Only the optimised side's allocs_per_op is judged.
	fresh = baseReport()
	fresh.Cases[caseIndex(t, fresh, "matrix")].Metrics["naive_allocs_per_op"] = 9
	if err := compareReports(path, fresh); err != nil {
		t.Fatalf("reference-side allocations failed the gate: %v", err)
	}
}

// TestGateCasesKernelFamily: kernel records carry their speedup into the
// -compare gate like every other case, and a baseline that records no
// allocs_per_op leaves allocations unjudged.
func TestGateCasesKernelFamily(t *testing.T) {
	path := writeBaseline(t, benchReport{Cases: []benchCase{
		record("kernel_pathloss_a3", map[string]float64{"speedup": 4}),
	}})
	fresh := benchReport{Cases: []benchCase{
		record("kernel_pathloss_a3", map[string]float64{"speedup": 1.5, "allocs_per_op": 1}),
	}}
	err := compareReports(path, fresh)
	if err == nil || !strings.Contains(err.Error(), "kernel_pathloss_a3: speedup") {
		t.Fatalf("kernel speedup collapse passed the gate: %v", err)
	}
	if strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocations judged against a baseline that records none: %v", err)
	}
	fresh.Cases[0].Metrics["speedup"] = 3
	if err := compareReports(path, fresh); err != nil {
		t.Fatalf("kernel speedup within tolerance failed the gate: %v", err)
	}
}

// fakeSides returns sides that report the given ns/op in successive calls
// (repeating the last) and count the calls.
func fakeSides(ref, opt []float64) (side, side, *int) {
	calls := 0
	next := func(ns []float64) side {
		i := 0
		return func() (sample, error) {
			calls++
			s := sample{ns: ns[min(i, len(ns)-1)]}
			i++
			return s, nil
		}
	}
	return next(ref), next(opt), &calls
}

// TestTimePairFloor pins the per-side-minima gate: a slow first round is
// re-measured away, a persistent loss still fails and names the case, and
// an ungated pair is measured once.
func TestTimePairFloor(t *testing.T) {
	g := gate{minSpeedup: 0.95}

	ref, opt, calls := fakeSides([]float64{100}, []float64{150, 101, 99})
	m, err := timePair("dense", ref, opt, g.minSpeedup)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGate(record("bounds_full", m), g); err != nil {
		t.Fatalf("one slow round failed the gate: %v", err)
	}
	if *calls != 4 || m["ns_per_op"] != 101 || m["dense_ns_per_op"] != 100 {
		t.Fatalf("stopped after %d calls with %v; want the second round's minima", *calls, m)
	}

	ref, opt, calls = fakeSides([]float64{100, 90}, []float64{120})
	m, err = timePair("dense", ref, opt, g.minSpeedup)
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 2*gateRounds {
		t.Fatalf("persistent loss measured in %d calls, want %d", *calls, 2*gateRounds)
	}
	if m["speedup"] != 90.0/120 {
		t.Fatalf("speedup %v, want the ratio of per-side minima %v", m["speedup"], 90.0/120)
	}
	err = checkGate(record("bounds_full", m), g)
	if err == nil || !strings.Contains(err.Error(), "bounds_full") {
		t.Fatalf("persistent loss passed the gate or is not named: %v", err)
	}

	ref, opt, calls = fakeSides([]float64{100}, []float64{500})
	if _, err := timePair("naive", ref, opt, 0); err != nil || *calls != 2 {
		t.Fatalf("ungated pair: %d calls, err %v", *calls, err)
	}
	_, opt, calls = fakeSides(nil, []float64{500})
	m, err = timePair("", nil, opt, 0)
	if err != nil || *calls != 1 || len(m) != 2 {
		t.Fatalf("single-side row: %d calls, metrics %v, err %v", *calls, m, err)
	}
}

func TestCheckGateAllocsAndFootprint(t *testing.T) {
	step := benchCases[slices.IndexFunc(benchCases, func(c caseSpec) bool { return c.name == "engine_step" })].gate
	if err := checkGate(record("engine_step", map[string]float64{"allocs_per_op": 0}), step); err != nil {
		t.Fatalf("allocation-free step failed the gate: %v", err)
	}
	if err := checkGate(record("engine_step", map[string]float64{"allocs_per_op": 2}), step); err == nil ||
		!strings.Contains(err.Error(), "engine_step") || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocating step passed the gate: %v", err)
	}
	shard := gate{maxBytesPerNode: 128}
	if err := checkGate(record("shard_n100k", map[string]float64{"bytes_per_node": 111.4}), shard); err != nil {
		t.Fatalf("footprint within budget failed the gate: %v", err)
	}
	if err := checkGate(record("shard_n100k", map[string]float64{"bytes_per_node": 130}), shard); err == nil ||
		!strings.Contains(err.Error(), "shard_n100k") {
		t.Fatalf("footprint over budget passed the gate: %v", err)
	}
}

// TestCommittedBaselineMatchesCaseTable: the committed BENCH_macbench.json
// parses in the record schema and names exactly the case table's cases
// (bar the -large ones), so a deleted or renamed case fails go test.
func TestCommittedBaselineMatchesCaseTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", benchFile))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var base benchReport
	if err := dec.Decode(&base); err != nil {
		t.Fatalf("%s does not parse in the record schema: %v", benchFile, err)
	}
	var got, want []string
	for _, c := range base.Cases {
		got = append(got, c.Name)
		if len(c.Params) == 0 || c.Metrics["ns_per_op"] <= 0 {
			t.Errorf("%s: empty params or no ns_per_op: %+v", c.Name, c)
		}
	}
	for _, spec := range benchCases {
		if !spec.large {
			want = append(want, spec.name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s cases %v, case table %v", benchFile, got, want)
	}
}

func TestWriteSummary(t *testing.T) {
	basePath := writeBaseline(t, baseReport())
	fresh := baseReport()
	fresh.GoMaxProcs, fresh.NumCPU, fresh.GoVersion = 2, 4, "go1.99"
	fresh.Cases[caseIndex(t, fresh, "matrix")].Metrics["speedup"] = 10
	path := filepath.Join(t.TempDir(), "summary.md")
	if err := writeSummary(path, basePath, fresh); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"GOMAXPROCS=2, NumCPU=4, go1.99", "| matrix | nodes=5000 |", "| 10.00x | 20.00x | 0.50 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
}
