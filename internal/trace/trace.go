// Package trace serializes problem instances and run results so workloads
// can be exported, shared and replayed byte-for-byte: a JSON container
// format for full fidelity and a compact CSV form (one line per batch)
// for interchange with spreadsheets and plotting tools.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// FormatVersion identifies the JSON container layout.
const FormatVersion = 1

// jsonInstance is the on-disk layout. Requests are flattened into batch
// triples (round, color, count) so empty rounds cost nothing.
type jsonInstance struct {
	Version int      `json:"version"`
	Name    string   `json:"name"`
	Delta   int      `json:"delta"`
	Delays  []int    `json:"delays"`
	Rounds  int      `json:"rounds"`
	Batches [][3]int `json:"batches"`
}

// WriteJSON serializes an instance.
func WriteJSON(w io.Writer, inst *sched.Instance) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	inst.Normalize()
	out := jsonInstance{
		Version: FormatVersion,
		Name:    inst.Name,
		Delta:   inst.Delta,
		Delays:  inst.Delays,
		Rounds:  inst.NumRounds(),
	}
	for r, req := range inst.Requests {
		for _, b := range req {
			out.Batches = append(out.Batches, [3]int{r, int(b.Color), b.Count})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// ReadJSON deserializes an instance and validates it.
func ReadJSON(r io.Reader) (*sched.Instance, error) {
	var in jsonInstance
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", err)
	}
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", in.Version, FormatVersion)
	}
	inst := &sched.Instance{
		Name:   in.Name,
		Delta:  in.Delta,
		Delays: in.Delays,
	}
	if in.Rounds > 0 {
		inst.Requests = make([]sched.Request, in.Rounds)
	}
	for _, b := range in.Batches {
		round, color, count := b[0], b[1], b[2]
		if round < 0 {
			return nil, fmt.Errorf("trace: negative round %d", round)
		}
		inst.AddJobs(round, sched.Color(color), count)
		if count <= 0 {
			return nil, fmt.Errorf("trace: non-positive count %d at round %d", count, round)
		}
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid instance: %w", err)
	}
	return inst.Normalize(), nil
}

// WriteCSV writes the compact interchange form:
//
//	# name,<name>
//	# delta,<Δ>
//	# delays,<d0>,<d1>,…
//	round,color,count
//	0,3,17
//	…
func WriteCSV(w io.Writer, inst *sched.Instance) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	inst.Normalize()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# name,%s\n", strings.ReplaceAll(inst.Name, "\n", " "))
	fmt.Fprintf(bw, "# delta,%d\n", inst.Delta)
	fmt.Fprintf(bw, "# delays")
	for _, d := range inst.Delays {
		fmt.Fprintf(bw, ",%d", d)
	}
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "round,color,count")
	for r, req := range inst.Requests {
		for _, b := range req {
			fmt.Fprintf(bw, "%d,%d,%d\n", r, b.Color, b.Count)
		}
	}
	return bw.Flush()
}

// ReadCSV parses the compact form produced by WriteCSV.
func ReadCSV(r io.Reader) (*sched.Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	inst := &sched.Instance{}
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Split(strings.TrimSpace(strings.TrimPrefix(text, "#")), ",")
			switch fields[0] {
			case "name":
				if len(fields) > 1 {
					inst.Name = strings.Join(fields[1:], ",")
				}
			case "delta":
				if len(fields) != 2 {
					return nil, fmt.Errorf("trace: line %d: malformed delta", line)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %w", line, err)
				}
				inst.Delta = v
			case "delays":
				for _, f := range fields[1:] {
					v, err := strconv.Atoi(f)
					if err != nil {
						return nil, fmt.Errorf("trace: line %d: %w", line, err)
					}
					inst.Delays = append(inst.Delays, v)
				}
			}
			continue
		}
		if !sawHeader {
			if text != "round,color,count" {
				return nil, fmt.Errorf("trace: line %d: expected header, got %q", line, text)
			}
			sawHeader = true
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: expected 3 fields, got %d", line, len(fields))
		}
		var vals [3]int
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			vals[i] = v
		}
		if vals[0] < 0 {
			return nil, fmt.Errorf("trace: line %d: negative round", line)
		}
		inst.AddJobs(vals[0], sched.Color(vals[1]), vals[2])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid instance: %w", err)
	}
	return inst.Normalize(), nil
}
