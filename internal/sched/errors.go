package sched

import "fmt"

// ArrivalError reports a structurally invalid arrival batch handed to
// Stream.Step (or, through it, to any ingest path that feeds a stream,
// such as the rrserved submit handler). It is a typed error so callers
// multiplexing many tenants can distinguish "this request is malformed —
// reject it and keep serving" from engine failures that poison the
// stream; test with errors.As.
type ArrivalError struct {
	// Color and Count echo the offending batch.
	Color Color
	Count int
	// NumColors is the size of the stream's color universe, so the
	// message can say what would have been valid.
	NumColors int
}

func (e *ArrivalError) Error() string {
	if e.Color < 0 || int(e.Color) >= e.NumColors {
		return fmt.Sprintf("sched: invalid arrival: color %d outside [0, %d)", e.Color, e.NumColors)
	}
	return fmt.Sprintf("sched: invalid arrival: color %d has count %d, want in [1, %d]", e.Color, e.Count, maxCount)
}

// ConfigError reports an invalid StreamConfig (or Env) field: a value
// below 1 or above its cap (see checkConfig), or one the policy cannot
// run (EnvChecker). NewStream returns it so service front-ends can
// reject a bad tenant-open request as a client error rather than a
// server fault; test with errors.As.
type ConfigError struct {
	// Field names the offending StreamConfig field ("N", "Speed",
	// "Delta", "Delays").
	Field string
	// Color is the offending color index when a delay bound is rejected,
	// and -1 otherwise; with Field "Delays" and Color -1, Value is the
	// number of colors.
	Color Color
	// Value is the rejected value.
	Value int
	// Want states the rule Value broke, such as "in [1, 4096]".
	Want string
}

func (e *ConfigError) Error() string {
	switch {
	case e.Field == "Delays" && e.Color >= 0:
		return fmt.Sprintf("sched: invalid config: color %d has delay bound %d, want %s", e.Color, e.Value, e.Want)
	case e.Field == "Delays":
		return fmt.Sprintf("sched: invalid config: %d colors, want %s", e.Value, e.Want)
	}
	return fmt.Sprintf("sched: invalid config: %s = %d, want %s", e.Field, e.Value, e.Want)
}

// ValidateRequest checks that every batch of r names a color in
// [0, numColors) with a count in [1, maxCount], returning an
// *ArrivalError for the first violation. It is the one arrival check:
// Stream.Step and Stream.Advance run it before the engine sees a tick,
// Instance.Validate on every round, and ingest paths that buffer
// requests before stepping a stream (the rrserved submit queue) at
// admission time instead of poisoning a later round tick.
func ValidateRequest(r Request, numColors int) error {
	for _, b := range r {
		if b.Color < 0 || int(b.Color) >= numColors || b.Count <= 0 || b.Count > maxCount {
			return &ArrivalError{Color: b.Color, Count: b.Count, NumColors: numColors}
		}
	}
	return nil
}
