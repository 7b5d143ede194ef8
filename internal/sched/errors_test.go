package sched

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/snap"
)

// The structural-validation contract of the ingest path: Stream.Step,
// Stream.Advance and ValidateRequest reject out-of-range colors and
// counts outside [1, maxCount] with an *ArrivalError, NewStream rejects
// bad configuration with a *ConfigError, and a rejected Step leaves the
// stream untouched. Two batches of 2⁶² jobs of one color used to merge
// to a negative count that the job pool silently dropped.
func TestStepRejectsInvalidArrivals(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"negative color", Request{{Color: -1, Count: 1}}},
		{"color at NumColors", Request{{Color: 3, Count: 1}}},
		{"color far out of range", Request{{Color: 1 << 20, Count: 1}}},
		{"zero count", Request{{Color: 0, Count: 0}}},
		{"negative count", Request{{Color: 1, Count: -4}}},
		{"valid then invalid", Request{{Color: 0, Count: 2}, {Color: 2, Count: -1}}},
		{"count past the cap", Request{{Color: 1, Count: maxCount + 1}}},
		{"counts that overflow when merged", Request{{Color: 0, Count: 1 << 62}, {Color: 0, Count: 1 << 62}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStream(&scripted{rows: [][]Color{{0, 1}}}, StreamConfig{N: 2, Delta: 2, Delays: []int{2, 4, 8}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Step(Request{{Color: 0, Count: 1}}); err != nil {
				t.Fatal(err)
			}
			before := st.Result()

			_, err = st.Step(tc.req)
			var ae *ArrivalError
			if !errors.As(err, &ae) {
				t.Fatalf("Step(%v) = %v, want *ArrivalError", tc.req, err)
			}
			if ae.NumColors != 3 {
				t.Errorf("ArrivalError.NumColors = %d, want 3", ae.NumColors)
			}
			if err := st.Advance(tc.req); !errors.As(err, &ae) {
				t.Fatalf("Advance(%v) = %v, want *ArrivalError", tc.req, err)
			}
			if err := ValidateRequest(tc.req, 3); !errors.As(err, &ae) {
				t.Errorf("ValidateRequest(%v) = %v, want *ArrivalError", tc.req, err)
			}

			// The rejection must not have consumed a round or mutated state.
			if st.Round() != 1 {
				t.Errorf("rejected Step advanced the round to %d", st.Round())
			}
			after := st.Result()
			if before.Cost != after.Cost || before.Executed != after.Executed ||
				before.Dropped != after.Dropped || before.Rounds != after.Rounds {
				t.Errorf("rejected Step mutated the result: before %v, after %v", before, after)
			}

			// The stream still works after a rejected Step.
			if _, err := st.Step(Request{{Color: 1, Count: 1}}); err != nil {
				t.Errorf("Step after rejection: %v", err)
			}
		})
	}

	if err := ValidateRequest(Request{{Color: 0, Count: 1}, {Color: 2, Count: maxCount}}, 3); err != nil {
		t.Errorf("ValidateRequest(valid) = %v", err)
	}
	if err := ValidateRequest(Request{{Color: 0, Count: maxCount + 1}}, 3); err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxCount)) {
		t.Errorf("ValidateRequest(count past the cap) = %v, want an error naming %d", err, maxCount)
	}
}

func TestNewStreamRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name  string
		cfg   StreamConfig
		field string
	}{
		{"zero N", StreamConfig{N: 0, Delta: 1, Delays: []int{1}}, "N"},
		{"negative N", StreamConfig{N: -3, Delta: 1, Delays: []int{1}}, "N"},
		{"negative Speed", StreamConfig{N: 1, Speed: -1, Delta: 1, Delays: []int{1}}, "Speed"},
		{"zero Delta", StreamConfig{N: 1, Delta: 0, Delays: []int{1}}, "Delta"},
		{"zero delay bound", StreamConfig{N: 1, Delta: 1, Delays: []int{2, 0}}, "Delays"},
		{"negative delay bound", StreamConfig{N: 1, Delta: 1, Delays: []int{2, 4, -1}}, "Delays"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewStream(&scripted{rows: [][]Color{{0, 1}}}, tc.cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("NewStream = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
			if tc.field == "Delays" && ce.Color < 0 {
				t.Errorf("ConfigError.Color = %d, want the offending color index", ce.Color)
			}
		})
	}
}

// TestConfigCaps pins each configuration cap at the cap and one past
// it: checkConfig accepts the cap, and NewStream and PeekSnapshot both
// refuse one past it with a *ConfigError naming the field and the cap.
func TestConfigCaps(t *testing.T) {
	ones := make([]int, maxColors+1)
	for i := range ones {
		ones[i] = 1
	}
	base := StreamConfig{N: 1, Speed: 1, Delta: 1, Delays: []int{1}}
	for _, tc := range []struct {
		name, field string
		limit       int
		with        func(cfg *StreamConfig, v int)
	}{
		{"N", "N", maxN, func(cfg *StreamConfig, v int) { cfg.N = v }},
		{"Speed", "Speed", maxSpeed, func(cfg *StreamConfig, v int) { cfg.Speed = v }},
		{"delay bound", "Delays", maxDelay, func(cfg *StreamConfig, v int) { cfg.Delays = []int{1, v} }},
		{"colors", "Delays", maxColors, func(cfg *StreamConfig, v int) { cfg.Delays = ones[:v] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at, over := base, base
			tc.with(&at, tc.limit)
			tc.with(&over, tc.limit+1)
			if err := checkConfig(at); err != nil {
				t.Fatalf("at the cap: %v", err)
			}
			refused := func(how string, err error) {
				t.Helper()
				var ce *ConfigError
				if !errors.As(err, &ce) || ce.Field != tc.field || !strings.Contains(err.Error(), strconv.Itoa(tc.limit)) {
					t.Fatalf("%s one past the cap = %v, want a *ConfigError naming %s and %d", how, err, tc.field, tc.limit)
				}
			}
			_, err := NewStream(&scripted{rows: [][]Color{{0}}}, over)
			refused("NewStream", err)
			e := snap.NewEncoder()
			e.Int(SnapshotVersion)
			e.Int(over.N)
			e.Int(over.Speed)
			e.Int(over.Delta)
			e.Ints(over.Delays)
			e.String("scripted")
			_, _, err = PeekSnapshot(e.Bytes())
			refused("PeekSnapshot", err)
		})
	}
}
