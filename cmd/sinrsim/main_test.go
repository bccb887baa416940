package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// TestRejectsBadFlags: an unknown -mac or -evaluator, a negative
// -broadcasters, -slots, -range, -shards or -maxnodes, and -shards on the
// naive evaluator, exit with status 2 before any deployment is built, and
// more -broadcasters than the deployment has nodes exits with status 2 once
// it is built; nothing reaches stdout, and the error names the flag.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		mac          string
		evaluator    string
		broadcasters int
		slots        int64
		r            float64
		shards       int
		maxNodes     int
		flag         string // "" = valid
	}{
		{"combined", "fast", 1, 0, 0, 0, 0, ""},
		{"decay", "fast", 0, 50, 12, 4, 100, ""},
		{"ack", "naive", 3, 0, 0, 0, 0, ""},
		{"combined", "fast", -1, 0, 0, 0, 0, "-broadcasters"},
		{"combined", "fast", 20, 0, 0, 0, 0, ""},
		{"combined", "fast", 21, 0, 0, 0, 0, "-broadcasters"},
		{"combined", "fast", 1, -5, 0, 0, 0, "-slots"},
		{"combined", "fast", 1, 0, -3, 0, 0, "-range"},
		{"combined", "fast", 1, 0, math.NaN(), 0, 0, "-range"},
		{"combined", "fast", 1, 0, math.Inf(1), 0, 0, "-range"},
		{"combined", "fast", 1, 0, math.Inf(-1), 0, 0, "-range"},
		{"combined", "fast", 1, 0, 0, -2, 0, "-shards"},
		{"combined", "naive", 1, 0, 0, 2, 0, "-shards"},
		{"bogus", "fast", 1, 0, 0, 0, 0, "-mac"},
		{"combined", "bogus", 1, 0, 0, 0, 0, "-evaluator"},
		{"combined", "fast", 1, 0, 0, 0, -1, "-maxnodes"},
	} {
		args := []string{
			"-mac", tc.mac, "-evaluator", tc.evaluator,
			"-broadcasters", fmt.Sprint(tc.broadcasters), "-slots", fmt.Sprint(tc.slots),
			"-range", fmt.Sprint(tc.r), "-shards", fmt.Sprint(tc.shards), "-maxnodes", fmt.Sprint(tc.maxNodes),
		}
		err := checkFlags(tc.mac, tc.evaluator, tc.broadcasters, tc.slots, tc.r, tc.shards, tc.maxNodes)
		if err == nil {
			// The rows run the default deployment: a 20-node cluster.
			err = checkBroadcasters(tc.broadcasters, 20)
		}
		if tc.flag == "" {
			if err != nil {
				t.Errorf("%v rejected: %v", args, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%v: error %v does not name %s", args, err, tc.flag)
		}
		status, stdout := runCapturingStdout(t, args)
		if status != 2 {
			t.Errorf("%v: exit status %d, want 2", args, status)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q before rejecting the flags", args, stdout)
		}
	}
}

// runCapturingStdout calls run(args) and returns its exit status and what
// it printed to stdout.
func runCapturingStdout(t *testing.T, args []string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	status := run(args)
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return status, string(out)
}

// TestFastMatchesNaive: the fast evaluator prints exactly what the naive
// one does, at its default shard count and at any -shards, including a shard
// count far beyond the lattice's columns (it acts as the column count).
func TestFastMatchesNaive(t *testing.T) {
	base := []string{"-n", "20", "-seed", "3"}
	status, want := runCapturingStdout(t, append(base, "-evaluator", "naive"))
	if status != 0 || want == "" {
		t.Fatalf("naive run: exit status %d, output %q", status, want)
	}
	for _, shards := range []string{"0", "1", "9223372036854775807"} {
		args := append(base, "-evaluator", "fast", "-shards", shards)
		if status, got := runCapturingStdout(t, args); status != 0 || got != want {
			t.Errorf("%v: exit status %d, output\n%s\nnaive output\n%s", args, status, got, want)
		}
	}
}
