package snap_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/snap"
	"repro/internal/workload"
)

// Shape of a durable server's checkpoint stream, which
// BenchmarkDeltaEncodeCheckpoints replays.
const (
	ckptTenants = 64
	ckptRounds  = 256
	// ckptEvery is the wdrr quantum: a busy server applies a tenant's
	// rounds a quantum per pick and checkpoints once per pick.
	ckptEvery = 8
	// ckptChain is the serve tier's delta-chain bound: a full snapshot
	// after this many consecutive deltas.
	ckptChain = 16
)

type deltaPair struct{ base, target []byte }

// checkpointPairs steps ckptTenants router tenants under dlruedf and
// returns every (base, target) pair the serve tier would hand
// AppendDelta: the target a tenant's snapshot every ckptEvery rounds,
// the base its last full record, which restarts after ckptChain deltas
// or when a delta exceeds half the snapshot.
func checkpointPairs(tb testing.TB) []deltaPair {
	var pairs []deltaPair
	var dm snap.DeltaMaker
	for i := 0; i < ckptTenants; i++ {
		inst, err := workload.Tenant("router", workload.Params{Seed: 7, Rounds: ckptRounds}, i)
		if err != nil {
			tb.Fatal(err)
		}
		st, err := sched.NewStream(core.NewDLRUEDF(), sched.StreamConfig{N: 8, Delta: inst.Delta, Delays: inst.Delays})
		if err != nil {
			tb.Fatal(err)
		}
		var base []byte
		deltas := 0
		for r := 0; r < len(inst.Requests); r++ {
			if _, err := st.Step(inst.Requests[r]); err != nil {
				tb.Fatal(err)
			}
			if st.Round()%ckptEvery != 0 {
				continue
			}
			cur, err := st.Snapshot()
			if err != nil {
				tb.Fatal(err)
			}
			if base != nil && deltas < ckptChain {
				pairs = append(pairs, deltaPair{base, cur})
				if d := dm.AppendDelta(nil, base, cur); 2*len(d) <= len(cur) {
					deltas++
					continue
				}
			}
			base, deltas = cur, 0
		}
	}
	return pairs
}

// BenchmarkDeltaEncodeCheckpoints times one AppendDelta on the pairs a
// durable server encodes (checkpointPairs), where BenchmarkDeltaEncode
// times a random 16 KiB blob with scattered flips.
func BenchmarkDeltaEncodeCheckpoints(b *testing.B) {
	pairs := checkpointPairs(b)
	var dm snap.DeltaMaker
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		buf = dm.AppendDelta(buf[:0], p.base, p.target)
	}
}
