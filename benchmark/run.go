package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// workloadDef is one traffic mix and the topology it runs against. All
// workloads run dlruedf tenants with N=8 resources, 64 tenants, and the
// wdrr cross-tenant allocator.
type workloadDef struct {
	name     string
	backends int      // rrserved processes
	proxied  bool     // clients reach the backends through one rrproxy
	durable  bool     // rrserved writes the group-commit checkpoint log
	skewed   bool     // the open-loop reserved fleet instead of phases A and B
	args     []string // rrserved flags beyond -addr and -ckpt
}

// The four workloads. direct is the control: proxy, ckptlog and BDR are
// all bypassed. proxy adds the routing hop, durable the checkpoint write
// and recovery read paths, and skewed_bdr the paced allocator and the
// BDR share controller, the only place where queueing decides outcomes.
var workloads = []workloadDef{
	{name: "direct", backends: 1, args: []string{"-shards", "2"}},
	{name: "proxy", backends: 2, proxied: true, args: []string{"-shards", "2"}},
	{name: "durable", backends: 1, durable: true, args: []string{"-shards", "2", "-checkpoint-every", "1"}},
	{name: "skewed_bdr", backends: 1, skewed: true, args: []string{"-bdr", "-shards", "1", "-round-interval", "200us"}},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

const (
	numTenants  = 64
	policySpec  = "dlruedf"
	resources   = 8
	traceRounds = 1024 // rounds of a router trace before it loops
	// queueCap is far above any tenant's backlog in a run, so admission
	// never sheds: the queue itself is under test, not the shed path.
	queueCap = 1 << 22

	// A run is cycles identical cycles, each on freshly launched servers:
	// set-up, a 1/cycles slice of the traffic, verification, and crash
	// restarts. Every metric is the median over cycles, or pools their
	// samples, so each one spans the whole run and a slow spell of the
	// shared host moves one cycle, not the metric.
	cycles = 16
	// restartsPerCycle crash restarts give recovery_s more samples than
	// setup_s; they are cheap, since the servers come back empty. A
	// durable directory is restarted only once: a second crash and
	// restart on the same log fails (see the README's sandbox caveats).
	restartsPerCycle = 3

	pipeWindow = 64  // phase B frames in flight
	pipeBatch  = 32  // rounds per phase B frame
	maxBacklog = 128 // queued rounds at which phase B holds a tenant back
	statsThink = 5 * time.Millisecond

	// skewed_bdr: 63 reserved victims in an open loop at victimRate
	// rounds/s each, and a best-effort adversary bursting its whole trace
	// every burstEvery through a pipelined window of advWindow frames.
	victimRate  = 100
	burstEvery  = 2 * time.Second
	advWindow   = 16
	fleetRounds = 48
	resDelay    = 64
	maxVictimDF = 1.0 // the BDR guarantee: a reserved victim's delay factor
)

// runConfig is one run of one workload.
type runConfig struct {
	workload workloadDef
	seed     uint64
	seconds  time.Duration // the measured traffic time, over all cycles
	trace    bool
	traceOut string // where a traced run writes its spans
	binDir   string // holds rrserved and rrproxy
	workDir  string // scratch for checkpoint logs and replays, removed afterwards
	procs    *procSet
	logf     func(format string, args ...any)
}

// runResult is everything one run reports.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// CalibNS is the median over cycles of the host calibration (calibrate).
	CalibNS  float64            `json:"host_calib_ns"`
	Problems []string           `json:"problems,omitempty"`
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Info holds numbers that are not benchmark metrics: sample counts,
	// the percentile a tail actually used, exact cost per round, and the
	// durable workload's live log counters.
	Info map[string]float64 `json:"info,omitempty"`
}

// run is the state of one workload run.
type run struct {
	cfg     runConfig
	w       workloadDef
	epoch   time.Time
	tenants []*tenant
	byID    map[string]*tenant
	topo    *topology
	conns   [2]*benchConn
	recs    []*recorder // every traced connection, for spans
	ops     opCounts
	out     *runResult

	// primary is the recorder of the connection carrying strict submits
	// while measuring, whose captured frames feed the routing replay, and
	// backends the rrserved addresses a proxy would route across.
	primary  *recorder
	backends []string

	// Samples. Those indexed by cycle feed the end-to-end metrics, scaled
	// by that cycle's host calibration on the eager workloads; the rest
	// feed the per-layer metrics, unscaled.
	calib                    [cycles]float64 // calibration around each cycle, ns per iteration
	setupTimes               [cycles]time.Duration
	recoveryTimes            [cycles][]time.Duration
	execTimes, listenTimes   []time.Duration // exec to listening line, at each launch and restart
	submitLat                [cycles][]time.Duration
	submitLatTraced          []time.Duration // the traced halves of a traced run
	statsLat                 [cycles][]time.Duration
	rates                    [cycles][]float64 // rounds/s of each phase B stretch or adversary burst
	late                     []time.Duration
	depths                   []float64             // queue depth after each admission
	snaps                    [][]serve.TenantStats // polled stats rows, for the allocator and BDR timings
	finalRows                []serve.TenantStats   // the last cycle's rows after its traffic
	rss                      []float64             // each cycle's summed peak RSS, MiB
	measuredRounds           int64                 // rounds admitted while measuring
	throughputRounds         int64                 // the rounds the stretches or bursts carried
	serverCPU, proxyCPU      time.Duration         // servers' CPU while measuring, and the proxy's share
	genCPU, wall             time.Duration
	bytesB, framesB, writesB int64 // wire counters of the pipelined stretches (traced)
	dura                     serve.DuraStats
	cost, costRounds         int64     // verified cost and the rounds it covers
	stepNS                   []float64 // replay ns per round, one sample per chunk
}

// runWorkload runs one workload: its cycles, then the per-layer replays
// of a traced run. Verification failures land in the result's Problems;
// an error means the run could not complete.
func runWorkload(cfg runConfig) (*runResult, error) {
	r := &run{cfg: cfg, w: cfg.workload, epoch: time.Now()}
	r.out = &runResult{Workload: r.w.name, Seed: cfg.seed, Info: map[string]float64{}}
	defer cfg.procs.killAll()
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	err := r.execute()
	r.out.Attempted, r.out.Failed = r.ops.attempted.Load(), r.ops.failed.Load()
	if err != nil {
		return r.out, err
	}
	r.out.Correct = len(r.out.Problems) == 0 && r.out.Failed == 0
	return r.out, nil
}

func (r *run) execute() error {
	if err := r.buildTenants(); err != nil {
		return err
	}
	for k := 0; k < cycles; k++ {
		if err := r.cycle(k); err != nil {
			return fmt.Errorf("cycle %d: %w", k, err)
		}
	}
	r.endToEnd()
	if !r.cfg.trace {
		return nil
	}
	if err := r.perLayer(); err != nil {
		return fmt.Errorf("per-layer replays: %w", err)
	}
	if err := writeTrace(r.cfg.traceOut, r.w.name, r.recs); err != nil {
		return fmt.Errorf("writing %s: %w", r.cfg.traceOut, err)
	}
	return nil
}

// cycle runs cycle k between two host calibrations, taken when no server
// is alive to compete with the loop or to be measured by it.
func (r *run) cycle(k int) error {
	before := calibrate()
	if err := r.serveCycle(k); err != nil {
		return err
	}
	r.calib[k] = math.Sqrt(before * calibrate())
	return nil
}

// serveCycle launches the topology fresh, times that set-up, drives one
// slice of the traffic, verifies every tenant, and crash-restarts the
// servers. A durable workload verifies after its restart, on the
// recovered state; the others verify before, since their state dies
// with the process.
func (r *run) serveCycle(k int) error {
	for _, t := range r.tenants {
		t.next = 0
	}
	dir := filepath.Join(r.cfg.workDir, fmt.Sprintf("ckpt-%d", k))
	t0 := time.Now()
	topo, exec, err := r.launch(dir)
	if err != nil {
		return err
	}
	r.topo = topo
	if _, err := r.connect(topo); err != nil {
		return err
	}
	r.setupTimes[k] = time.Since(t0)
	r.execTimes = append(r.execTimes, exec)
	if err := r.measure(k); err != nil {
		return err
	}
	if r.w.durable {
		err = r.fillToRotation(r.conns[0])
	} else {
		err = r.verify(r.conns[0], nil)
	}
	if err != nil {
		return err
	}
	if err := r.peakRSS(); err != nil {
		return err
	}
	var resume []int
	for i := 0; i < r.restarts(); i++ {
		if resume, err = r.restart(k); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
	}
	if r.w.durable {
		if err := r.verify(r.conns[0], resume); err != nil {
			return err
		}
	}
	r.closeConns()
	r.kill(r.topo)
	return os.RemoveAll(dir)
}

// restarts is how many times a cycle crash-restarts its servers.
func (r *run) restarts() int {
	if r.w.durable {
		return 1
	}
	return restartsPerCycle
}

// buildTenants derives every tenant's trace from the seed.
func (r *run) buildTenants() error {
	if r.w.skewed {
		insts, res, err := workload.ReservedFleet(r.cfg.seed, numTenants, 8, fleetRounds, 1.0, 6, resDelay)
		if err != nil {
			return err
		}
		for i, inst := range insts {
			t := newTenant(i, inst, fleetRounds)
			t.tc.ResRate, t.tc.ResDelay = res[i].Rate, res[i].Delay
			r.tenants = append(r.tenants, t)
		}
	} else {
		for i := 0; i < numTenants; i++ {
			inst, err := workload.Tenant("router", workload.Params{Seed: r.cfg.seed, Rounds: traceRounds}, i)
			if err != nil {
				return err
			}
			r.tenants = append(r.tenants, newTenant(i, inst, traceRounds))
		}
	}
	r.byID = make(map[string]*tenant, len(r.tenants))
	for _, t := range r.tenants {
		r.byID[t.id] = t
	}
	return nil
}

func newTenant(i int, inst *sched.Instance, rounds int) *tenant {
	return &tenant{
		idx: i,
		id:  fmt.Sprintf("bench-%02d", i),
		tc: serve.TenantConfig{
			Policy: policySpec, N: resources, Delta: inst.Delta,
			Delays: inst.Delays, QueueCap: queueCap,
		},
		trace:  inst.Requests,
		period: max(len(inst.Requests), rounds),
	}
}

// topology is the set of processes one launch started.
type topology struct {
	servers []*proc
	proxy   *proc
	dir     string // the durable workload's checkpoint directory
}

// addr is the address clients dial: the proxy's, or the only server's.
func (t *topology) addr() string {
	if t.proxy != nil {
		return t.proxy.addr
	}
	return t.servers[0].addr
}

func (t *topology) procs() []*proc {
	if t.proxy != nil {
		return append(append([]*proc(nil), t.servers...), t.proxy)
	}
	return t.servers
}

// launch starts the workload's processes, recovering from dir when it
// holds a checkpoint log, and reports the time from the first exec to
// the last listening line.
func (r *run) launch(dir string) (*topology, time.Duration, error) {
	t0 := time.Now()
	topo := &topology{dir: dir}
	var addrs []string
	for i := 0; i < r.w.backends; i++ {
		args := append([]string{"-addr", "127.0.0.1:0"}, r.w.args...)
		if r.w.durable {
			args = append(args, "-ckpt", dir)
		}
		p, err := r.cfg.procs.start(fmt.Sprintf("rrserved[%d]", i), filepath.Join(r.cfg.binDir, "rrserved"), args...)
		if err != nil {
			r.kill(topo)
			return nil, 0, err
		}
		topo.servers = append(topo.servers, p)
		addrs = append(addrs, p.addr)
	}
	if r.w.proxied {
		p, err := r.cfg.procs.start("rrproxy", filepath.Join(r.cfg.binDir, "rrproxy"),
			"-addr", "127.0.0.1:0", "-backends", strings.Join(addrs, ","))
		if err != nil {
			r.kill(topo)
			return nil, 0, err
		}
		topo.proxy = p
	}
	return topo, time.Since(t0), nil
}

func (r *run) kill(topo *topology) {
	for _, p := range topo.procs() {
		r.cfg.procs.kill(p)
	}
}

func (r *run) closeConns() {
	for _, c := range r.conns {
		if c != nil {
			c.close()
		}
	}
}

// connect dials both connections and opens every tenant, returning each
// tenant's resume sequence.
func (r *run) connect(topo *topology) ([]int, error) {
	for i := range r.conns {
		c, err := r.dial(topo.addr())
		if err != nil {
			return nil, err
		}
		r.conns[i] = c
	}
	return r.openAll(r.conns[0])
}

// openAll opens every tenant. In skewed_bdr the victims open first, so
// their reservations hold the shard when the adversary asks for 0.9 of
// it: that request must fail with a typed *serve.AdmissionError, which
// is expected, and the adversary then opens best-effort.
func (r *run) openAll(c *benchConn) ([]int, error) {
	next := make([]int, len(r.tenants))
	order := r.tenants
	if r.w.skewed {
		order = append(append([]*tenant(nil), r.tenants[1:]...), r.tenants[0])
	}
	for _, t := range order {
		n, _, err := c.open(t, nil)
		if r.w.skewed && t.idx == 0 {
			var ae *serve.AdmissionError
			if !errors.As(err, &ae) {
				r.problem("adversary reservation of rate %g: open returned %v, want *serve.AdmissionError", t.tc.ResRate, err)
				if err != nil {
					return nil, c.ops.fail("opening "+t.id, err)
				}
				continue
			}
			// The expected rejection; the adversary runs best-effort.
			be := t.tc
			be.ResRate, be.ResDelay = 0, 0
			n, _, err = c.open(t, &be)
		}
		if err != nil {
			return nil, c.ops.fail("opening "+t.id, err)
		}
		next[t.idx] = n
	}
	return next, nil
}

// problem records a correctness failure.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.cfg.logf("%s: CHECK FAILED: %s", r.w.name, msg)
	r.out.Problems = append(r.out.Problems, msg)
}

// serverCPUNS returns the CPU time of every process of the topology and
// the proxy's share of it.
func (r *run) serverCPUNS() (total, proxy int64, err error) {
	for _, p := range r.topo.procs() {
		ns, err := cpuNS(p.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		total += ns
		if p == r.topo.proxy {
			proxy = ns
		}
	}
	return total, proxy, nil
}

// placeholderBackends stand in for a proxy's backend list in the routing
// replay of workloads that run without one.
var placeholderBackends = []string{"127.0.0.1:7145", "127.0.0.1:7146"}

// measure runs cycle k's slice of the traffic, then reads the stats rows
// and, on the durable workload, the log's counters.
func (r *run) measure(k int) error {
	if r.primary == nil {
		r.primary = r.conns[0].rec
		if r.w.skewed {
			r.primary = r.conns[1].rec
		}
	}
	r.backends = placeholderBackends
	if r.w.proxied {
		r.backends = nil
		for _, p := range r.topo.servers {
			r.backends = append(r.backends, p.addr)
		}
	}
	cpu0, proxy0, err := r.serverCPUNS()
	if err != nil {
		return err
	}
	gen0, wall0 := selfCPU(), time.Now()
	d := r.cfg.seconds / cycles
	if r.w.skewed {
		err = r.measureSkewed(k, d)
	} else {
		err = r.measurePhases(k, d)
	}
	if err != nil {
		return err
	}
	cpu1, proxy1, err := r.serverCPUNS()
	if err != nil {
		return err
	}
	r.serverCPU += time.Duration(cpu1 - cpu0)
	r.proxyCPU += time.Duration(proxy1 - proxy0)
	r.genCPU += selfCPU() - gen0
	r.wall += time.Since(wall0)
	for _, t := range r.tenants {
		r.measuredRounds += int64(t.next)
	}
	if r.finalRows, err = r.conns[0].poll(""); err != nil {
		return err
	}
	if r.w.skewed {
		r.checkVictims(r.finalRows)
	}
	if !r.w.durable {
		return nil
	}
	st, err := r.conns[0].duraStats()
	if err != nil {
		return err
	}
	if st.Appends == 0 || st.Fsyncs == 0 {
		r.problem("durable cycle %d logged %d appends and %d fsyncs", k, st.Appends, st.Fsyncs)
	}
	r.dura.Appends += st.Appends
	r.dura.Fsyncs += st.Fsyncs
	r.dura.Bytes += st.Bytes
	r.dura.Compactions += st.Compactions
	r.dura.Segments = st.Segments
	return nil
}

// peakRSS records the summed peak resident set of the cycle's servers,
// before the crash restarts.
func (r *run) peakRSS() error {
	var mb float64
	for _, p := range r.topo.procs() {
		m, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return err
		}
		mb += m
	}
	r.rss = append(r.rss, mb)
	return nil
}

// restart SIGKILLs the topology and relaunches it, timing it from exec to
// every tenant open again. The durable workload recovers its tenants
// from the checkpoint log; the others come back empty and re-open fresh
// tenants. It returns the re-open's resume sequences.
func (r *run) restart(k int) ([]int, error) {
	r.closeConns()
	r.kill(r.topo)
	t0 := time.Now()
	topo, listen, err := r.launch(r.topo.dir)
	if err != nil {
		return nil, err
	}
	r.topo = topo
	resume, err := r.connect(topo)
	if err != nil {
		return nil, err
	}
	r.recoveryTimes[k] = append(r.recoveryTimes[k], time.Since(t0))
	r.listenTimes = append(r.listenTimes, listen)
	if r.w.durable && topo.servers[0].tenants != numTenants {
		r.problem("restart recovered %d tenants, want %d", topo.servers[0].tenants, numTenants)
	}
	return resume, nil
}
