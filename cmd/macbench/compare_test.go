package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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

func baseReport() benchReport {
	return benchReport{
		Cases:       []benchCase{{Name: "matrix", SpeedupVsNaive: 20}},
		SparseCases: []sparseCase{{Name: "sparse_lattice", SpeedupVsDense: 10}},
		BoundsCases: []boundsCase{{Name: "bounds_quarter", SpeedupVsDense: 6}},
		ChurnCases:  []churnCase{{Name: "churn_matrix", SpeedupVsRebuild: 40}},
		StepCases:   []stepCase{{Name: "engine_step", AllocsPerOp: 0}},
	}
}

func TestCompareReportsPasses(t *testing.T) {
	path := writeBaseline(t, baseReport())
	if err := compareReports(path, baseReport()); err != nil {
		t.Fatalf("identical reports failed the gate: %v", err)
	}
	// Fresh-only cases stay allowed: adding a benchmark must not break the
	// first run against an old baseline.
	fresh := baseReport()
	fresh.ChurnCases = append(fresh.ChurnCases, churnCase{Name: "churn_lattice", SpeedupVsRebuild: 3})
	if err := compareReports(path, fresh); err != nil {
		t.Fatalf("fresh-only case failed the gate: %v", err)
	}
}

// TestCompareReportsMissingBaselineCase pins the gate fix: deleting or
// renaming a benchmark no longer dodges the regression gate — a baseline
// case with no fresh counterpart is reported as a failure, for every case
// family.
func TestCompareReportsMissingBaselineCase(t *testing.T) {
	path := writeBaseline(t, baseReport())
	drop := []struct {
		name   string
		mutate func(r *benchReport)
	}{
		{"matrix", func(r *benchReport) { r.Cases = nil }},
		{"sparse_lattice", func(r *benchReport) { r.SparseCases = nil }},
		{"bounds_quarter", func(r *benchReport) { r.BoundsCases = nil }},
		{"churn_matrix", func(r *benchReport) { r.ChurnCases = nil }},
		{"engine_step", func(r *benchReport) { r.StepCases = nil }},
	}
	for _, tc := range drop {
		fresh := baseReport()
		tc.mutate(&fresh)
		err := compareReports(path, fresh)
		if err == nil {
			t.Fatalf("dropping %q passed the gate", tc.name)
		}
		if !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), "not in the fresh report") {
			t.Fatalf("dropping %q: error does not name the missing case: %v", tc.name, err)
		}
	}
	// Renames surface as missing too.
	fresh := baseReport()
	fresh.ChurnCases[0].Name = "churn_matrix_v2"
	if err := compareReports(path, fresh); err == nil || !strings.Contains(err.Error(), "churn_matrix") {
		t.Fatalf("renaming a case passed the gate: %v", err)
	}
}

// TestCheckStepCrossover pins the within-run crossover gate: at n ≥ 5000
// the parallel driver may not lose to the sequential driver beyond the
// tolerance, while small deployments are exempt.
func TestCheckStepCrossover(t *testing.T) {
	mk := func(parNs float64, n int) []stepCase {
		return []stepCase{
			{Name: "engine_step_5k", Nodes: n, NsPerOp: 1000},
			{Name: "engine_step_parallel_5k", Nodes: n, Parallel: true, NsPerOp: parNs},
		}
	}
	if err := checkStepCrossover(mk(1100, 5000)); err != nil {
		t.Fatalf("parallel within tolerance failed the gate: %v", err)
	}
	if err := checkStepCrossover(mk(1300, 5000)); err == nil {
		t.Fatal("parallel 1.3x slower than sequential passed the gate")
	} else if !strings.Contains(err.Error(), "engine_step_parallel_5k") {
		t.Fatalf("gate error does not name the losing case: %v", err)
	}
	if err := checkStepCrossover(mk(5000, 2000)); err != nil {
		t.Fatalf("small deployment is not exempt from the gate: %v", err)
	}
	// No sequential reference at the size: nothing to compare against.
	if err := checkStepCrossover([]stepCase{
		{Name: "engine_step_parallel_5k", Nodes: 5000, Parallel: true, NsPerOp: 9999},
	}); err != nil {
		t.Fatalf("missing sequential reference failed the gate: %v", err)
	}
}

// TestGateCasesKernelFamily: kernel cases carry their speedup into the
// -compare gate like every other family.
func TestGateCasesKernelFamily(t *testing.T) {
	path := writeBaseline(t, benchReport{
		KernelCases: []kernelCase{{Name: "kernel_pathloss_a3", SpeedupVsPow: 4}},
	})
	fresh := benchReport{
		KernelCases: []kernelCase{{Name: "kernel_pathloss_a3", SpeedupVsPow: 1.5}},
	}
	if err := compareReports(path, fresh); err == nil || !strings.Contains(err.Error(), "fast-vs-pow") {
		t.Fatalf("kernel speedup collapse passed the gate: %v", err)
	}
	fresh.KernelCases[0].SpeedupVsPow = 3
	if err := compareReports(path, fresh); err != nil {
		t.Fatalf("kernel speedup within tolerance failed the gate: %v", err)
	}
}

func TestCompareReportsRegressions(t *testing.T) {
	path := writeBaseline(t, baseReport())
	fresh := baseReport()
	fresh.ChurnCases[0].SpeedupVsRebuild = 5 // 8x shrink > 2x tolerance
	if err := compareReports(path, fresh); err == nil || !strings.Contains(err.Error(), "apply-vs-rebuild") {
		t.Fatalf("churn speedup collapse passed the gate: %v", err)
	}
	fresh = baseReport()
	fresh.ChurnCases[0].ApplyAllocsPerOp = 3
	if err := compareReports(path, fresh); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("churn alloc regression passed the gate: %v", err)
	}
}
