package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/workload"
)

func roundtripJSON(t *testing.T, inst *sched.Instance) *sched.Instance {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestJSONRoundtrip(t *testing.T) {
	inst := workload.RandomBatched(3, 6, 4, 64, []int{1, 2, 4}, 0.8, 0.6, true)
	got := roundtripJSON(t, inst)
	if !reflect.DeepEqual(got, inst) {
		t.Fatalf("JSON roundtrip changed the instance:\n%+v\nvs\n%+v", got, inst)
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Structurally valid JSON, semantically invalid instance.
	if _, err := ReadJSON(strings.NewReader(`{"version":1,"delta":0,"delays":[1],"rounds":0}`)); err == nil {
		t.Fatal("Delta=0 accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":1,"delta":1,"delays":[1],"rounds":1,"batches":[[-1,0,1]]}`)); err == nil {
		t.Fatal("negative round accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":1,"delta":1,"delays":[1],"rounds":1,"batches":[[0,0,0]]}`)); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	inst := workload.RandomBatched(5, 5, 3, 48, []int{2, 4}, 0.9, 0.7, true)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, inst); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, inst) {
		t.Fatalf("CSV roundtrip changed the instance")
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"no header at all\n0,0,1\n",
		"# delta,x\nround,color,count\n",
		"# delta,1\n# delays,1\nround,color,count\n0,0\n",
		"# delta,1\n# delays,1\nround,color,count\na,b,c\n",
		"# delta,1\n# delays,1\nround,color,count\n-1,0,1\n",
		"# delta,1\n# delays,1\nround,color,count\n0,7,1\n", // unknown color
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: malformed CSV accepted:\n%s", i, c)
		}
	}
}

func TestCSVPreservesNameWithCommas(t *testing.T) {
	inst := &sched.Instance{Name: "a,b,c", Delta: 1, Delays: []int{1}}
	inst.AddJobs(0, 0, 1)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, inst); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "a,b,c" {
		t.Fatalf("name = %q", got.Name)
	}
}

// Property: JSON and CSV roundtrips are lossless for arbitrary generated
// instances, and both forms agree.
func TestRoundtripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		inst := workload.RandomSmall(seed, 4, 3, 16, []int{1, 2, 4}, 4, false)
		var j, c bytes.Buffer
		if WriteJSON(&j, inst) != nil || WriteCSV(&c, inst) != nil {
			return false
		}
		fromJ, err1 := ReadJSON(&j)
		fromC, err2 := ReadCSV(&c)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(fromJ, inst) && reflect.DeepEqual(fromC, inst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRejectsInvalidInstance(t *testing.T) {
	bad := &sched.Instance{Delta: 0, Delays: []int{1}}
	if err := WriteJSON(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("WriteJSON accepted an invalid instance")
	}
	if err := WriteCSV(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("WriteCSV accepted an invalid instance")
	}
}
