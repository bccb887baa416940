package main

import (
	"strings"
	"testing"
)

// TestRejectsNegativeCounts: a negative -trials or -workers exits with
// status 2 before any experiment runs, instead of silently falling back to
// the default.
func TestRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		trials, workers int
		flag            string // "" = valid
	}{
		{0, 0, ""},
		{3, 1, ""},
		{-1, 0, "-trials"},
		{2, -2, "-workers"},
	} {
		err := checkFlags(tc.trials, tc.workers)
		if tc.flag == "" {
			if err != nil {
				t.Errorf("-trials %d -workers %d rejected: %v", tc.trials, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("-trials %d -workers %d: error %v does not name %s", tc.trials, tc.workers, err, tc.flag)
		}
		if status := run([]string{tc.flag, "-1"}); status != 2 {
			t.Errorf("%s -1: exit status %d, want 2", tc.flag, status)
		}
	}
}
