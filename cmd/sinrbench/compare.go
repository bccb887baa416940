package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchMetric is one metric as BENCHMARK.json defines it.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchWorkload is one workload as BENCHMARK.json lists it.
type benchWorkload struct {
	Name string `json:"name"`
}

// benchFile is the part of BENCHMARK.json the command reads.
type benchFile struct {
	Workloads []benchWorkload `json:"workloads"`
	EndToEnd  []benchMetric   `json:"end_to_end"`
	PerLayer  []benchMetric   `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// minPairs is the least number of base/head pairs a gain needs.
const minPairs = 10

// runCompare implements sinrbench compare: it judges every end-to-end
// metric of every workload between two directories of untraced records,
// with the bounds of BENCHMARK.json in the working directory, and exits
// non-zero on a regression, a head run that failed its check, a larger
// share of failed operations in the head, a signature mismatch or missing
// runs.
func runCompare(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sinrbench compare", flag.ContinueOnError)
	baseDir := fs.String("base", "", "directory of the parent commit's records")
	headDir := fs.String("head", "", "directory of the change's records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *headDir == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "sinrbench: usage: sinrbench compare -base DIR -head DIR")
		return 2
	}
	bench, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
		return 2
	}
	base, err := readRecords(*baseDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
		return 2
	}
	head, err := readRecords(*headDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
		return 2
	}
	rows, bad := compareRecords(bench, base, head)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase IQR\thead median\thead IQR\tchange\twins\tverdict")
	for _, r := range rows {
		fmt.Fprintln(tw, r)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "sinrbench: %v\n", err)
		return 1
	}
	if bad {
		return 1
	}
	return 0
}

// readRecords loads the untraced records in dir, grouped by workload and
// ordered by start time.
func readRecords(dir string) (map[string][]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	return out, nil
}

// compareRecords returns one row per workload × end-to-end metric and
// whether any of them fails the comparison.
func compareRecords(bench *benchFile, base, head map[string][]*record) (rows []string, bad bool) {
	for _, w := range bench.Workloads {
		b, h := base[w.Name], head[w.Name]
		if len(b) == 0 || len(h) == 0 {
			rows = append(rows, fmt.Sprintf("%s\t-\t%d runs\t\t%d runs\t\t\t\tmissing", w.Name, len(b), len(h)))
			bad = true
			continue
		}
		if n := failedChecks(h); n > 0 {
			rows = append(rows, fmt.Sprintf("%s\tcheck\t\t\t\t\t\t\t%d of %d head runs failed", w.Name, n, len(h)))
			bad = true
		}
		if seed, ok := signatureMismatch(b, h); ok {
			rows = append(rows, fmt.Sprintf("%s\tsignature\t\t\t\t\t\t\tdiffers at seed %d", w.Name, seed))
			bad = true
		}
		// A gain does not count when the head fails more of its operations.
		bf, hf := failedShare(b), failedShare(h)
		if hf > bf {
			rows = append(rows, fmt.Sprintf("%s\tfailed share\t%.6g\t\t%.6g\t\t\t\tmore operations fail", w.Name, bf, hf))
			bad = true
		}
		for _, m := range bench.EndToEnd {
			bv, hv := metricValues(b, m.Name), metricValues(h, m.Name)
			v := judge(bv, hv, m.Better == "higher", m.Bound)
			if hf > bf && v.verdict == "gain" {
				v.verdict = "unchanged"
			}
			if v.verdict == "regression" {
				bad = true
			}
			rows = append(rows, fmt.Sprintf("%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%+.2f%%\t%d/%d\t%s",
				w.Name, m.Name, v.baseMedian, v.baseIQR, v.headMedian, v.headIQR,
				100*(v.headMedian/v.baseMedian-1), v.wins, v.pairs, v.verdict))
		}
	}
	return rows, bad
}

// signatureMismatch reports a seed whose base and head signatures differ.
func signatureMismatch(base, head []*record) (uint64, bool) {
	sigs := map[uint64]string{}
	for _, r := range base {
		sigs[r.Seed] = r.Signature
	}
	for _, r := range head {
		if s, ok := sigs[r.Seed]; ok && s != r.Signature {
			return r.Seed, true
		}
	}
	return 0, false
}

// failedChecks counts the records whose output check failed.
func failedChecks(rs []*record) int {
	n := 0
	for _, r := range rs {
		if !r.Correct {
			n++
		}
	}
	return n
}

// failedShare is the share of all the records' operations that failed.
func failedShare(rs []*record) float64 {
	var attempted, failed int64
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func metricValues(rs []*record, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	baseMedian, baseIQR float64
	headMedian, headIQR float64
	wins, pairs         int
	verdict             string
}

// judge applies the pair rule. Run i of the base pairs with run i of the
// head, in start order, so runs made alternately pair up. A gain needs at
// least minPairs pairs, the head winning at least nine tenths of them (ties
// count for neither) and the medians differing by more than the base's
// interquartile range. Where either side's spread exceeds the bound the
// metric is unresolved, unless every head run beats every base run. A head
// median worse than the base median by more than the bound is a regression.
func judge(base, head []float64, higherBetter bool, bound float64) judgement {
	j := judgement{
		baseMedian: median(base), baseIQR: iqr(base),
		headMedian: median(head), headIQR: iqr(head),
		pairs: min(len(base), len(head)),
	}
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := 0; i < j.pairs; i++ {
		if better(head[i], base[i]) {
			j.wins++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	worse := (j.headMedian - j.baseMedian) / j.baseMedian
	if higherBetter {
		worse = -worse
	}
	spread := max(j.baseIQR/j.baseMedian, j.headIQR/j.headMedian)
	switch {
	case j.pairs >= minPairs && j.wins*10 >= 9*j.pairs && better(j.headMedian, j.baseMedian) &&
		math.Abs(j.headMedian-j.baseMedian) > j.baseIQR:
		j.verdict = "gain"
	case spread > bound && !allBetter:
		j.verdict = "unresolved"
	case worse > bound:
		j.verdict = "regression"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// iqr is the distance between the first and third quartiles, computed as
// Python's statistics.quantiles(vs, n=4) does (the exclusive method); 0 for
// fewer than two values.
func iqr(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		k := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - k*4)
		return (s[k-1]*(4-delta) + s[k]*delta) / 4
	}
	return q(3) - q(1)
}
