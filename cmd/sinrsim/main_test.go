package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestRejectsBadFlags: a negative -broadcasters, -slots, -range or -shards,
// and -shards on the naive evaluator, exit with status 2 before anything is
// simulated, with an error naming the flag.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		broadcasters int
		slots        int64
		r            float64
		shards       int
		evaluator    string
		flag         string // "" = valid
	}{
		{1, 0, 0, 0, "fast", ""},
		{0, 50, 12, 4, "fast", ""},
		{3, 0, 0, 0, "naive", ""},
		{-1, 0, 0, 0, "fast", "-broadcasters"},
		{1, -5, 0, 0, "fast", "-slots"},
		{1, 0, -3, 0, "fast", "-range"},
		{1, 0, 0, -2, "fast", "-shards"},
		{1, 0, 0, 2, "naive", "-shards"},
	} {
		args := []string{
			"-broadcasters", fmt.Sprint(tc.broadcasters), "-slots", fmt.Sprint(tc.slots),
			"-range", fmt.Sprint(tc.r), "-shards", fmt.Sprint(tc.shards), "-evaluator", tc.evaluator,
		}
		err := checkFlags(tc.broadcasters, tc.slots, tc.r, tc.shards, tc.evaluator)
		if tc.flag == "" {
			if err != nil {
				t.Errorf("%v rejected: %v", args, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%v: error %v does not name %s", args, err, tc.flag)
		}
		if status := run(args); status != 2 {
			t.Errorf("%v: exit status %d, want 2", args, status)
		}
	}
}
