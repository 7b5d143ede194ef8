// Package rrs (reconfigurable resource scheduling) is the public API of
// this repository, a complete implementation of
//
//	"Reconfigurable Resource Scheduling with Variable Delay Bounds",
//	C. G. Plaxton, Y. Sun, M. Tiwari, H. Vin — IPPS 2007.
//
// The model: unit jobs of colored categories arrive over integer rounds;
// a job of color ℓ must be executed on a resource configured with ℓ
// within D_ℓ rounds of its arrival or it is dropped at unit cost;
// reconfiguring a resource costs Δ; minimize total cost.
//
// The paper's contribution is the ΔLRU-EDF online algorithm (NewDLRUEDF)
// — a combination of LRU-style recency caching and EDF-style deadline
// scheduling — together with two reductions (Distribute, VarBatch) that
// lift it from rate-limited batched arrivals to the fully general problem.
// Solve runs the whole layered pipeline and is resource competitive: O(1)
// times the optimal offline cost when given 8× the resources.
//
// # Quick start
//
//	inst := &rrs.Instance{
//	    Delta:  4,                 // reconfiguration cost Δ
//	    Delays: []int{2, 8},       // D_0 = 2, D_1 = 8
//	}
//	inst.AddJobs(0, 1, 8)          // 8 jobs of color 1 at round 0
//	inst.AddJobs(2, 0, 2)          // 2 jobs of color 0 at round 2
//	res, err := rrs.Solve(inst, 8) // run the paper's algorithm, n = 8
//	if err != nil { ... }
//	fmt.Println(res.Cost)          // reconfig + drop breakdown
//
// Baseline policies (ΔLRU, EDF, Seq-EDF, static, greedy), certified
// offline lower bounds, exact brute-force optima for tiny instances,
// workload generators (including the paper's Appendix A/B adversarial
// constructions) and the experiment harness that regenerates every
// figure/table in DESIGN.md are all re-exported below.
//
// # Engine and observability
//
// Both simulation front-ends — Run for recorded instances and Stream for
// the true online setting — drive one shared four-phase round engine, so
// they cannot diverge: identical arrivals produce identical Results,
// including the per-color breakdowns (which always sum to the totals, a
// pinned invariant). The engine emits per-round RoundEvents to an
// optional Probe (Options.Probe / StreamConfig.Probe): CounterSink keeps
// totals, MetricsSink adds latency and backlog-occupancy histograms, and
// NewRoundEventWriter streams JSONL for offline analysis. With no probe
// attached the observability layer performs zero allocations and costs
// nothing.
package rrs

import (
	"io"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/offline"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core model types (see internal/sched for full documentation).
type (
	// Color identifies a job category; NoColor is the initial black state.
	Color = sched.Color
	// Batch is a group of unit jobs of one color arriving together.
	Batch = sched.Batch
	// Request is one round's arrivals.
	Request = sched.Request
	// Instance is a full problem instance: Δ, per-color delay bounds, and
	// the request sequence.
	Instance = sched.Instance
	// Policy is an online reconfiguration scheme driven by the engine.
	Policy = sched.Policy
	// Context is the read-only per-round view a Policy receives.
	Context = sched.Context
	// Env carries the fixed run parameters a Policy is Reset with.
	Env = sched.Env
	// Options configures a simulation run (resources, speed, recording).
	Options = sched.Options
	// Result carries the cost breakdown and statistics of a run.
	Result = sched.Result
	// Cost is the reconfiguration + drop objective.
	Cost = sched.Cost
	// Schedule is an explicit reconfiguration/execution record.
	Schedule = sched.Schedule
)

// NoColor is the initial ("black") configuration of every resource.
const NoColor = sched.NoColor

// Run simulates a policy on an instance. See sched.Run.
func Run(inst *Instance, pol Policy, opts Options) (*Result, error) {
	return sched.Run(inst, pol, opts)
}

// Replay validates an explicit schedule against an instance and returns
// its cost. See sched.Replay.
func Replay(inst *Instance, s *Schedule) (*Result, error) {
	return sched.Replay(inst, s)
}

// Stream types drive a policy one round at a time — the true online
// setting, where arrivals become known only as they happen.
type (
	// Stream is the incremental round-by-round simulator.
	Stream = sched.Stream
	// StreamConfig fixes a Stream's resources, Δ and color universe.
	StreamConfig = sched.StreamConfig
	// StepResult reports one simulated round.
	StepResult = sched.StepResult
)

// NewStream starts an incremental simulation of pol; call Step with each
// round's arrivals and Drain (or DropPending) at the end of the trace.
func NewStream(pol Policy, cfg StreamConfig) (*Stream, error) {
	return sched.NewStream(pol, cfg)
}

// ——— Checkpoint/restore (internal/sched snapshots, internal/trace files) ———

// Snapshotter is the checkpoint/restore capability of a Policy; every
// policy in this repository implements it. Stream.Snapshot serializes a
// live stream (configuration, round engine, cost ledger, pending pool
// and policy state) and RestoreStream rebuilds one that continues
// bit-identically — see docs/CHECKPOINT.md for the format and the
// determinism contract.
type Snapshotter = sched.Snapshotter

// SnapshotVersion is the version tag of the Stream.Snapshot state blob.
const SnapshotVersion = sched.SnapshotVersion

// RestoreStream rebuilds a live Stream from a Stream.Snapshot blob. pol
// must be a fresh policy of the type that produced the snapshot; probe
// (not serialized) is attached to the restored stream. Corrupt input is
// reported as an error, never a panic. See sched.RestoreStream.
func RestoreStream(pol Policy, snapshot []byte, probe Probe) (*Stream, error) {
	return sched.RestoreStream(pol, snapshot, probe)
}

// WriteCheckpoint wraps a Stream.Snapshot blob in the durable container
// format (magic, version, length prefix, CRC-32) on w.
func WriteCheckpoint(w io.Writer, state []byte) error { return trace.WriteCheckpoint(w, state) }

// ReadCheckpoint reads one checkpoint container from r, verifies it and
// returns the state blob for RestoreStream.
func ReadCheckpoint(r io.Reader) ([]byte, error) { return trace.ReadCheckpoint(r) }

// SaveCheckpoint atomically snapshots st to a checkpoint file at path
// (temp file + rename; a crash mid-write preserves the previous file).
func SaveCheckpoint(path string, st *Stream) error { return trace.SaveCheckpoint(path, st) }

// LoadCheckpoint restores a live stream from the checkpoint at path.
func LoadCheckpoint(path string, pol Policy, probe Probe) (*Stream, error) {
	return trace.LoadCheckpoint(path, pol, probe)
}

// ——— Observability (internal/sched probes, internal/trace JSONL) ———

// Observability types: the shared round engine reports each simulated
// round to an attached Probe. See the package comment.
type (
	// Probe receives one RoundEvent per simulated round.
	Probe = sched.Probe
	// RoundEvent summarizes one round: arrivals, drops, executions,
	// reconfigurations, and pending depth.
	RoundEvent = sched.RoundEvent
	// ExecProbe is optionally implemented by probes wanting per-job
	// execution events with queueing latency.
	ExecProbe = sched.ExecProbe
	// MultiProbe fans events out to several probes.
	MultiProbe = sched.MultiProbe
	// CounterSink accumulates totals (cheapest probe).
	CounterSink = sched.CounterSink
	// MetricsSink adds latency/occupancy histogram summaries.
	MetricsSink = sched.MetricsSink
	// RoundEventWriter streams per-round events as JSON Lines.
	RoundEventWriter = trace.EventWriter
)

// NewMetricsSink builds a MetricsSink; maxDelay bounds the latency
// histogram (use Instance.MaxDelay) and depthLimit the backlog one.
func NewMetricsSink(maxDelay, depthLimit int) *MetricsSink {
	return sched.NewMetricsSink(maxDelay, depthLimit)
}

// NewRoundEventWriter returns a Probe that streams every round as one
// JSON line on w; check Err when the run finishes.
func NewRoundEventWriter(w io.Writer) *RoundEventWriter { return trace.NewEventWriter(w) }

// ReadRoundEvents parses a JSON Lines stream written by
// NewRoundEventWriter.
func ReadRoundEvents(r io.Reader) ([]RoundEvent, error) { return trace.ReadEvents(r) }

// ——— The paper's algorithms (internal/core) ———

// DLRUEDFOption configures NewDLRUEDF (capacity split, ablation knobs).
type DLRUEDFOption = core.Option

// NewDLRUEDF returns the ΔLRU-EDF policy of §3.1.3, the paper's core
// contribution: resource competitive for rate-limited batched arrivals
// with n = 8m (Theorem 1).
func NewDLRUEDF(opts ...DLRUEDFOption) Policy { return core.NewDLRUEDF(opts...) }

// Solve runs the complete layered online solver — VarBatch (§5) ∘
// Distribute (§4) ∘ ΔLRU-EDF (§3) — on an arbitrary instance of the main
// problem [Δ | 1 | D_ℓ | 1] with n resources (Theorem 3).
func Solve(inst *Instance, n int) (*Result, error) { return core.Solve(inst, n) }

// Distribute runs the §4.1 reduction (batched → rate-limited) with
// ΔLRU-EDF as the core algorithm on a batched instance (Theorem 2).
func Distribute(inst *Instance, n int) (*Result, error) { return core.Distribute(inst, n) }

// BuildVarBatched exposes the §5.1 arrival-batching transformation.
func BuildVarBatched(inst *Instance) *Instance { return core.BuildVarBatched(inst) }

// ——— Baseline policies (internal/policy) ———

// NewDLRU returns the ΔLRU baseline (§3.1.1; not resource competitive,
// Appendix A).
func NewDLRU() Policy { return policy.NewDLRU() }

// NewEDF returns the EDF baseline (§3.1.2; not resource competitive,
// Appendix B).
func NewEDF() Policy { return policy.NewEDF() }

// NewSeqEDF returns Seq-EDF (§3.3); run it with Options.Speed = 2 for
// DS-Seq-EDF.
func NewSeqEDF() Policy { return policy.NewSeqEDF() }

// NewStatic returns a fixed-configuration policy.
func NewStatic(colors ...Color) Policy { return policy.NewStatic(colors...) }

// NewNever returns the drop-everything policy.
func NewNever() Policy { return policy.NewNever() }

// NewGreedyPending returns the maximally eager (thrashing) baseline.
func NewGreedyPending() Policy { return policy.NewGreedyPending() }

// NewHysteresis returns the Everest-inspired baseline (related work): a
// color is admitted only when its backlog reaches θ·Δ jobs and is kept
// until it repays the switch.
func NewHysteresis(theta float64) Policy { return policy.NewHysteresis(theta) }

// WithAdaptiveSplit makes ΔLRU-EDF self-tune its LRU/EDF capacity split
// from the observed reconfiguration-vs-drop cost mix (an ARC-inspired
// extension beyond the paper; see ablation A5).
func WithAdaptiveSplit() DLRUEDFOption { return core.WithAdaptiveSplit() }

// ——— Offline optima and certified bounds (internal/offline) ———

// OptimalCost computes the exact optimal offline total cost with m
// resources via the parallel branch-and-bound solver with certified
// pruning. maxStates (0 = default) caps the search; see SolveExactOPT for
// the full set of knobs.
func OptimalCost(inst *Instance, m, maxStates int) (int64, error) {
	return offline.BruteForce(inst, m, maxStates)
}

// ExactOptions tunes SolveExactOPT: state budget, worker count (the
// optimum is bit-identical at every worker count) and an optional known
// achievable upper bound that seeds the incumbent.
type ExactOptions = offline.ExactOptions

// SolveExactOPT computes the exact optimal offline total cost with m
// resources by certified branch-and-bound (admissible Par-EDF-tail and
// per-color-Δ suffix bounds, allocation-free undo-stack DFS over a flat
// transposition table, parallel root splitting).
func SolveExactOPT(inst *Instance, m int, opts ExactOptions) (int64, error) {
	return offline.SolveExact(inst, m, opts)
}

// Bracket is a certified two-sided estimate of the offline optimum:
// Lower ≤ OPT ≤ Upper.
type Bracket = offline.Bracket

// BracketOPT brackets the optimal offline cost with m resources on any
// instance: certified lower bound, local-search upper bound, and — when
// the branch-and-bound search fits its budget — the exact optimum
// (Lower == Upper).
func BracketOPT(inst *Instance, m int, searchPasses int) (Bracket, error) {
	return offline.BracketOPT(inst, m, searchPasses)
}

// CertifiedLowerBound returns a proven lower bound on the optimal offline
// total cost with m resources (Par-EDF drop bound + per-color Δ bound),
// computable in near-linear time on any instance.
func CertifiedLowerBound(inst *Instance, m int) int64 {
	return offline.LowerBound(inst, m).Value()
}

// ImproveSchedule runs offline local search on a recorded schedule,
// returning an improved schedule and its cost; the result never costs
// more than the input. Use it to tighten offline upper bounds on OPT.
func ImproveSchedule(inst *Instance, start *Schedule, maxPasses int) (*Schedule, *Result, error) {
	return offline.ImproveSchedule(inst, start, maxPasses)
}

// Punctualize applies the Lemma 5.1–5.3 construction: it transforms an
// arbitrary uni-speed offline schedule into a punctual one with 7× the
// resources that executes exactly the same jobs.
func Punctualize(inst *Instance, s *Schedule) (*Schedule, error) {
	return offline.Punctualize(inst, s)
}

// ——— Workload generators (internal/workload) ———

// AppendixA builds the paper's Appendix A adversarial construction (ΔLRU
// lower bound).
func AppendixA(n, delta, j, k int) (*Instance, error) { return workload.AppendixA(n, delta, j, k) }

// AppendixB builds the paper's Appendix B adversarial construction (EDF
// lower bound).
func AppendixB(n, delta, j, k int) (*Instance, error) { return workload.AppendixB(n, delta, j, k) }

// RouterWorkload builds a multi-service router packet trace with four QoS
// classes (voice/video/web/bulk).
func RouterWorkload(seed uint64, perClass, delta, rounds int, load float64) *Instance {
	return workload.Router(seed, perClass, delta, rounds, load)
}

// DatacenterWorkload builds a shared-data-center trace with diurnal,
// phase-shifted service demands.
func DatacenterWorkload(seed uint64, services, delta, dayRounds, days int, peakRate float64) *Instance {
	return workload.Datacenter(seed, services, delta, dayRounds, days, peakRate)
}

// WorkloadByName builds any of the repository's standard workloads by
// name (see WorkloadNames); the CLI tools use the same constructor.
func WorkloadByName(name string, p WorkloadParams) (*Instance, error) {
	return workload.ByName(name, p)
}

// WorkloadParams parameterizes WorkloadByName.
type WorkloadParams = workload.Params

// WorkloadNames lists the names WorkloadByName accepts.
func WorkloadNames() []string { return workload.Names() }

// ——— Adversary search (internal/adversary) ———

// AdversaryConfig bounds a worst-case search (see internal/adversary).
type AdversaryConfig = adversary.Config

// AdversaryResult is the worst instance found with its certified ratio.
type AdversaryResult = adversary.Result

// FindWorstCase hill-climbs over tiny instances maximizing newPolicy's
// cost ratio against the exact offline optimum. Every reported ratio is
// certified by brute force.
func FindWorstCase(cfg AdversaryConfig, newPolicy func() Policy) (*AdversaryResult, error) {
	return adversary.Search(cfg, func() sched.Policy { return newPolicy() })
}

// ——— Experiment harness (internal/exp) ———

// ExperimentConfig tunes experiment runs (Quick mode, seed, workers).
type ExperimentConfig = exp.Config

// RunExperiment regenerates one DESIGN.md table/figure by ID (F1, F2, F3,
// T1…T9, A1…A4) and renders it to w.
func RunExperiment(id string, cfg ExperimentConfig, w io.Writer) error {
	e, ok := exp.ByID(id)
	if !ok {
		return &UnknownExperimentError{ID: id}
	}
	rep, err := e.Run(cfg)
	if err != nil {
		return err
	}
	return rep.Render(w)
}

// ExperimentIDs lists the registered experiment IDs in order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range exp.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// UnknownExperimentError reports a RunExperiment call with an unregistered
// ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "rrs: unknown experiment " + e.ID + " (see ExperimentIDs)"
}

// ——— Serving: the multi-tenant scheduler server (docs/SERVER.md) ———

// Serving types: rrserved hosts many tenants — each an independent
// Stream with its own policy — behind a length-prefixed binary
// protocol, with per-tenant admission control, periodic checkpointing
// and crash recovery. See internal/serve for full documentation.
type (
	// ServeConfig configures a Server (address, checkpoint directory,
	// round pacing, queue caps).
	ServeConfig = serve.Config
	// Server is the multi-tenant scheduler server behind cmd/rrserved.
	Server = serve.Server
	// ServeClient is one connection to a Server.
	ServeClient = serve.Client
	// TenantConfig names the policy and stream configuration a tenant
	// runs under.
	TenantConfig = serve.TenantConfig
	// TenantStats is one tenant's monitoring row.
	TenantStats = serve.TenantStats
	// LoadConfig parameterizes RunLoad, the load generator behind
	// cmd/rrload.
	LoadConfig = serve.LoadConfig
	// LoadReport summarizes a RunLoad: throughput, shed/resume counts,
	// latency quantiles, aggregated results.
	LoadReport = serve.LoadReport
	// BadSeqError reports an out-of-sequence Submit, carrying the
	// tenant's resume point.
	BadSeqError = serve.BadSeqError
	// Pipeline keeps a bounded window of submits in flight on
	// one ServeClient connection; see ServeClient.NewPipeline.
	Pipeline = serve.Pipeline
	// SubmitResult is one acknowledgement delivered to a Pipeline's
	// callback: what was admitted, where to resume, round-trip time.
	SubmitResult = serve.SubmitResult
)

// Admission-control and lifecycle errors a ServeClient surfaces; test
// with errors.Is.
var (
	ErrOverloaded = serve.ErrOverloaded
	ErrDraining   = serve.ErrDraining
)

// NewServer prepares a server: recovers every tenant found in the
// checkpoint directory, binds the listener, starts the round workers.
// Call Serve to accept connections; Shutdown drains gracefully.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.NewServer(cfg) }

// DialServer connects to an rrserved server.
func DialServer(addr string) (*ServeClient, error) { return serve.Dial(addr) }

// RunLoad drives many concurrent tenants against a server, riding out
// overload shedding and restarts, and optionally verifies the results
// bit-identical against local replays.
func RunLoad(cfg LoadConfig) (*LoadReport, error) { return serve.RunLoad(cfg) }

// ServePolicySpecs lists the policy spec strings a tenant may be opened
// with ("dlruedf", "edf", "adaptive", …).
func ServePolicySpecs() []string { return serve.PolicySpecs() }
