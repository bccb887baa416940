// Package exp defines the experiment harness that regenerates every table
// and figure of the paper's evaluation:
//
//	E1-ack    Table 1, f_ack row (Theorem 5.1): acknowledgment latency vs Δ.
//	E2-proglb Figure 1 / Theorem 6.1: progress needs ≥ Δ slots even with an
//	          optimal centralized scheduler.
//	E3-approg Table 1, f_approg row (Theorem 9.1): approximate-progress
//	          latency stays polylogarithmic as Δ grows.
//	E4-decay  Theorem 8.1: Decay's progress degrades linearly in Δ on the
//	          two-balls construction while Algorithm 9.1 does not.
//	E5-smb    Table 1 SMB row and Table 2: global single-message broadcast,
//	          MAC-based BSMB vs the Daum et al. [14]-style direct broadcast
//	          vs Decay flooding.
//	E6-mmb    Table 1 MMB row: multi-message broadcast cost as a function of
//	          the number of messages k.
//	E7-cons   Table 1 CONS row (Corollary 5.5): consensus completion time vs
//	          the network diameter.
//	E8-churn  Beyond the paper: global broadcast latency while the
//	          deployment churns — mobility epochs committed through the
//	          dynamic-topology API (topology epoch.go) and applied to the
//	          running engine incrementally (sim.Engine.ApplyEpoch), sweeping
//	          the per-slot churn rate against the static baseline.
//	E10-fault Beyond the paper: graceful degradation of the combined MAC
//	          and the consensus layer under a deterministic fault plan
//	          (internal/fault) — sweeping crash rate × jam power ×
//	          Byzantine fraction and reporting decision coverage,
//	          agreement/validity violations among correct nodes and
//	          deadline misses (core.CheckDeadlines, consensus.CheckFaulty).
//
// Each experiment returns a Table whose rows are also what
// cmd/experiments prints.
//
// # Parallel scheduling and determinism
//
// Every experiment is a sweep of (point × trial) jobs executed by the
// deterministic parallel scheduler in sched.go (runTrials). Jobs fan out
// across Config.Workers workers; each sweep point's deployment — and with
// it the strong graph, Λ and the fast evaluator's cell index — is built
// once and shared by all trials, while each worker keeps a private
// evaluator fork and a reusable engine per point (sim.Engine.Reset).
//
// All randomness is derived from (Config.Seed, experiment, point, trial)
// labels via rng.Source.SplitLabeled, never from loop-carried seeds, and
// results are merged in canonical sweep order. The determinism contract:
// the same Config emits bit-identical tables at every worker count,
// asserted by TestParallelTablesBitIdentical.
package exp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Config controls how experiments are run.
type Config struct {
	// Seed seeds all deployments and simulations; identical seeds give
	// identical tables.
	Seed uint64
	// Trials is the number of independent repetitions averaged per data
	// point. Zero means the per-experiment default. Trials of one sweep
	// point share that point's deployment and vary only the protocol
	// randomness (see the sampling-semantics note in sched.go); the
	// deployment itself is redrawn per sweep point.
	Trials int
	// Quick shrinks every sweep to its smallest sizes so the whole suite
	// finishes in seconds. Used by unit tests and the -quick flag.
	Quick bool
	// Workers bounds the number of concurrent trial workers the parallel
	// scheduler (runTrials) fans (point × trial) jobs across. Zero means
	// GOMAXPROCS; one forces the sequential path. Every random stream is
	// derived from (Seed, experiment, point, trial) labels, so the emitted
	// tables are bit-identical at any worker count.
	Workers int
	// Interrupt, when non-nil, is polled before each trial job. Once it
	// returns true the scheduler stops picking up new jobs (in-flight
	// ones finish) and the experiment returns an error wrapping
	// ErrInterrupted. cmd/experiments wires SIGINT to it so the tables
	// completed before the signal can still be flushed.
	Interrupt func() bool
}

// ErrInterrupted is the sentinel wrapped by experiment errors when the
// sweep was cut short via Config.Interrupt. Tables completed before the
// interruption remain valid; the interrupted experiment's table does not.
var ErrInterrupted = errors.New("interrupted")

// DefaultConfig returns the configuration used by cmd/experiments.
func DefaultConfig() Config {
	return Config{Seed: 1, Trials: 3}
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

// Table is one regenerated table or figure.
type Table struct {
	// ID is the experiment identifier (e.g. "E1-ack").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold the formatted cells, one slice per row.
	Rows [][]string
	// Notes carry free-form observations (e.g. fitted slopes).
	Notes []string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned plain text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(cfg Config) (Table, error)

// Registry maps experiment names (as accepted by cmd/experiments -exp) to
// their runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"ack":    AckScaling,
		"proglb": ProgressLowerBound,
		"approg": ApproxProgressScaling,
		"decay":  DecayVsApprog,
		"smb":    SMBComparison,
		"mmb":    MMBScaling,
		"cons":   ConsensusScaling,
		"churn":  ChurnLatency,
		"fault":  FaultDegradation,
	}
}

// Names returns the registered experiment names in a stable order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunAll runs every registered experiment in name order and returns their
// tables. It stops at the first failure.
func RunAll(cfg Config) ([]Table, error) {
	var out []Table
	reg := Registry()
	for _, name := range Names() {
		table, err := reg[name](cfg)
		if err != nil {
			return out, fmt.Errorf("exp: experiment %q failed: %w", name, err)
		}
		out = append(out, table)
	}
	return out, nil
}
