package exp

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func quickConfig() Config {
	return Config{Seed: 7, Trials: 1, Quick: true}
}

func TestTableFormatting(t *testing.T) {
	table := Table{
		ID:      "T-test",
		Title:   "a test table",
		Columns: []string{"a", "bb"},
	}
	table.AddRow(1, 2.345)
	table.AddRow("x", "y")
	table.AddNote("slope = %.1f", 1.5)
	out := table.Format()
	for _, want := range []string{"T-test", "a test table", "bb", "2.3", "note: slope = 1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

func TestRegistryAndNames(t *testing.T) {
	reg := Registry()
	names := Names()
	want := []string{"ack", "approg", "churn", "cons", "decay", "fault", "mmb", "proglb", "smb"}
	if !slices.Equal(names, want) || len(reg) != len(want) {
		t.Fatalf("names = %v (registry size %d), want %v", names, len(reg), want)
	}
	for _, name := range names {
		if reg[name] == nil {
			t.Fatalf("nil runner for %q", name)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Trials <= 0 || cfg.Seed == 0 {
		t.Fatalf("default config = %+v", cfg)
	}
	if got := (Config{}).trials(5); got != 5 {
		t.Fatalf("trials default = %d", got)
	}
	if got := (Config{Trials: 2}).trials(5); got != 2 {
		t.Fatalf("trials override = %d", got)
	}
}

// TestParallelTablesBitIdentical is the differential test of the parallel
// scheduler's determinism contract: every registered table rendered with
// eight workers must be byte-identical to the sequential (one-worker)
// harness.
// Under -race this doubles as the race-detector run of the scheduler: eight
// workers share deployments, strong graphs and evaluator matrices while the
// jobs execute concurrently.
func TestParallelTablesBitIdentical(t *testing.T) {
	render := func(workers int) string {
		cfg := Config{Seed: 7, Trials: 2, Quick: true, Workers: workers}
		tables, err := RunAll(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for _, table := range tables {
			b.WriteString(table.Format())
			b.WriteString("\n")
		}
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("tables diverged between 1 and 8 workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

// parseFloat pulls a numeric cell out of a table row.
func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestAckScalingQuick(t *testing.T) {
	table, err := AckScaling(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Acknowledgment latency must grow with the degree.
	first := parseFloat(t, table.Rows[0][2])
	last := parseFloat(t, table.Rows[len(table.Rows)-1][2])
	if last <= first {
		t.Fatalf("mean f_ack did not grow with Δ: %v -> %v", first, last)
	}
	// No unacknowledged broadcasts.
	for _, row := range table.Rows {
		if row[6] != "0" {
			t.Fatalf("unacked broadcasts in row %v", row)
		}
	}
}

func TestProgressLowerBoundQuick(t *testing.T) {
	table, err := ProgressLowerBound(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		delta := parseFloat(t, row[0])
		concurrent := parseFloat(t, row[1])
		slots := parseFloat(t, row[2])
		bound := parseFloat(t, row[3])
		if concurrent != 1 {
			t.Fatalf("max concurrent cross links = %v, want 1 (row %v)", concurrent, row)
		}
		if slots != delta || bound != delta {
			t.Fatalf("scheduler needed %v slots for delta %v (row %v)", slots, delta, row)
		}
	}
}

func TestApproxProgressScalingQuick(t *testing.T) {
	table, err := ApproxProgressScaling(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Every sweep point must have made progress well before the censoring
	// deadline of four epochs.
	for _, row := range table.Rows {
		epoch := parseFloat(t, row[2])
		median := parseFloat(t, row[3])
		if median >= 4*epoch {
			t.Fatalf("progress censored at deadline in row %v", row)
		}
	}
}

func TestDecayVsApprogQuick(t *testing.T) {
	table, err := DecayVsApprog(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		// Decay can succeed in slot 0 when the dense ball is small (no
		// interference yet), so only require a non-negative latency there.
		if parseFloat(t, row[1]) < 0 || parseFloat(t, row[2]) <= 0 {
			t.Fatalf("implausible progress latency in row %v", row)
		}
	}
}

func TestSMBComparisonQuick(t *testing.T) {
	table, err := SMBComparison(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		for _, col := range []int{4, 5, 6} {
			if parseFloat(t, row[col]) <= 0 {
				t.Fatalf("non-positive completion time in row %v", row)
			}
		}
	}
}

func TestMMBScalingQuick(t *testing.T) {
	table, err := MMBScaling(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// More messages may not complete faster.
	if parseFloat(t, table.Rows[1][3]) < parseFloat(t, table.Rows[0][3])*0.5 {
		t.Fatalf("k=2 completed drastically faster than k=1: %v", table.Rows)
	}
}

func TestConsensusScalingQuick(t *testing.T) {
	table, err := ConsensusScaling(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[5] != "true" {
			t.Fatalf("agreement violated in row %v", row)
		}
		if parseFloat(t, row[3]) <= 0 {
			t.Fatalf("non-positive decision slot in row %v", row)
		}
	}
	// Larger diameter means later decisions.
	if parseFloat(t, table.Rows[1][3]) <= parseFloat(t, table.Rows[0][3]) {
		t.Fatalf("consensus time did not grow with the diameter: %v", table.Rows)
	}
}

func TestChurnLatencyQuick(t *testing.T) {
	table, err := ChurnLatency(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// The static point applies no epochs and normalises to itself.
	if parseFloat(t, table.Rows[0][4]) != 0 {
		t.Fatalf("static point applied epochs: %v", table.Rows[0])
	}
	if parseFloat(t, table.Rows[0][7]) != 1.0 {
		t.Fatalf("static point vs_static != 1: %v", table.Rows[0])
	}
	// The churned point commits epochs and moves nodes.
	if parseFloat(t, table.Rows[1][4]) <= 0 || parseFloat(t, table.Rows[1][5]) <= 0 {
		t.Fatalf("churned point applied no epochs: %v", table.Rows[1])
	}
	for _, row := range table.Rows {
		if parseFloat(t, row[6]) <= 0 {
			t.Fatalf("non-positive latency in row %v", row)
		}
	}
}

// TestInterruptStopsSweep: a Config.Interrupt that trips mid-sweep makes
// the experiment fail with an error wrapping ErrInterrupted instead of
// running to completion.
func TestInterruptStopsSweep(t *testing.T) {
	calls := 0
	cfg := quickConfig()
	cfg.Workers = 1
	cfg.Interrupt = func() bool {
		calls++
		return calls > 1 // let the first job through
	}
	_, err := AckScaling(cfg)
	if err == nil {
		t.Fatal("interrupted sweep completed")
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error %v does not wrap ErrInterrupted", err)
	}
}
