package experiments

import (
	"fmt"
	"math/rand"

	"pert/internal/netem"
	"pert/internal/queue"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
	"pert/internal/tcp"
	"pert/internal/topo"
	"pert/internal/trafficgen"
)

// DumbbellSpec describes one single-bottleneck scenario (the Section 4
// workhorse): long-term flows in both directions plus optional web sessions,
// measured over a steady-state window.
type DumbbellSpec struct {
	Seed int64

	Bandwidth float64        // bottleneck, bits/s
	RTTs      []sim.Duration // end-to-end propagation RTTs (round-robin)

	Flows        int // forward long-term flows
	ReverseFlows int // reverse long-term flows
	WebSessions  int // forward web sessions

	BufferPkts int // 0 = paper rule (BDP, floor 2*flows)

	Duration     sim.Duration // total simulated time
	MeasureFrom  sim.Duration // start of the measurement window
	MeasureUntil sim.Duration // end of the measurement window
	StartWindow  sim.Duration // flow starts uniform in [0, StartWindow)

	TargetDelay sim.Duration // PI schemes' delay reference (default 3 ms)

	// AccessJitter adds per-packet delay noise on access links (see
	// topo.DumbbellConfig.AccessJitter); the ext-jitter experiment uses it
	// to probe predictor robustness.
	AccessJitter sim.Duration

	// Fault injection on the forward bottleneck link (internal/netem
	// impairments). The impairment draws from its own RNG seeded by Seed,
	// so zero rates leave the run bit-identical to an unimpaired one.
	LossRate     float64      // non-congestive wire-loss probability
	DupRate      float64      // duplication probability
	ReorderRate  float64      // reordering probability
	ReorderExtra sim.Duration // extra holding delay bound for reordered packets

	// Schedule drives mid-run capacity/delay changes and link flaps on the
	// forward bottleneck (down links blackhole traffic).
	Schedule netem.LinkSchedule

	// NoAudit disables the invariant auditor every dumbbell run otherwise
	// carries (tests that deliberately corrupt state use it).
	NoAudit bool

	// Instrument, when set, is invoked with the built topology before
	// traffic starts — the hook for attaching tracers or custom samplers.
	Instrument func(d *topo.Dumbbell)

	// Metrics, when set, enables the observability layer for this run:
	// periodic sampling of the bottleneck queue, per-flow sender state and
	// PERT signal into Metrics.Sink, plus a flight recorder the auditor
	// dumps on invariant violations. Nil disables everything (the sampled
	// state is read-only, so results are bit-identical either way).
	Metrics *MetricsSpec

	// Shards > 1 asks for the parallel engine: the dumbbell is cut at the
	// bottleneck into two domains (the topology's only useful cut, so any
	// request above 2 clamps). Sharding engages only for registered schemes
	// with no Metrics or Instrument hook — those attach cross-domain
	// observers the parallel runner cannot isolate — and no delay-changing
	// schedule (the boundary cut's lookahead is fixed); everything else
	// silently runs serial, exactly as before. 0 and 1 are the serial
	// engine, byte-identical to the historical path.
	Shards int
}

// DumbbellResult is one row of a Section 4 figure: the four panels the paper
// plots for every sweep point.
type DumbbellResult struct {
	Scheme      Scheme
	AvgQueue    float64 // packets, time-averaged over the window
	NormQueue   float64 // AvgQueue / buffer size
	DropRate    float64 // fraction of offered packets dropped at bottleneck
	MarkRate    float64 // fraction ECN-marked (router AQM schemes)
	Utilization float64 // bottleneck utilization in [0,1]
	Jain        float64 // fairness of forward long-flow goodputs
	BufferPkts  int

	// Per-packet sojourn time through the bottleneck (queueing plus
	// transmission) over the measurement window, in seconds.
	DelayP50, DelayP95, DelayP99 float64

	// RetransOverhead is the fraction of forward long-flow segments that
	// were retransmissions (wasted capacity), cumulative over the run.
	RetransOverhead float64
}

// shardable reports whether this spec may take the parallel path for the
// given scheme: the caller asked for shards, the scheme is registered (so
// its shard-safety flag is checkable), no cross-domain observers are
// attached, and no schedule step changes the bottleneck's delay (the
// boundary cut's lookahead is fixed at partition time). Everything else
// runs on one shard, the serial engine.
func (spec DumbbellSpec) shardable(scheme string) bool {
	return spec.Shards > 1 && spec.Metrics == nil && spec.Instrument == nil &&
		scenario.Known(scheme) && !spec.Schedule.HasDelayChange()
}

// RunDumbbell executes the scenario under one scheme and returns the
// measured row.
func RunDumbbell(spec DumbbellSpec, scheme Scheme) DumbbellResult {
	shards := 1
	if spec.shardable(string(scheme)) {
		// A dumbbell has exactly one useful cut (the bottleneck), so any
		// larger request clamps to two domains.
		shards = 2
	}
	g := sim.NewShardGroup(shards, spec.Seed)
	net := netem.NewNetwork(g.Engine(0))

	maxRTT := spec.RTTs[0]
	for _, r := range spec.RTTs {
		if r > maxRTT {
			maxRTT = r
		}
	}
	env := schemeEnv{
		capacityPPS: spec.Bandwidth / (8 * 1040),
		nFlows:      spec.Flows + spec.ReverseFlows,
		maxRTT:      maxRTT,
		targetDelay: spec.TargetDelay,
	}
	res := runDumbbell(g, net, spec, string(scheme), scheme.queueFor(net, env), scheme.ccFor(net, env), scheme.ecn(), webCC(scheme, scheme.ccFor(net, env)))
	res.Scheme = scheme
	return res
}

// RunDumbbellWith executes the scenario with an explicit congestion-control
// factory over DropTail bottlenecks — the entry point for PERT ablation
// studies (custom response curves, signal weights, rate limits). Custom
// factories cannot be verified shard-safe, so this path always runs on one
// shard.
func RunDumbbellWith(spec DumbbellSpec, cc func() tcp.CongestionControl) DumbbellResult {
	g := sim.NewShardGroup(1, spec.Seed)
	net := netem.NewNetwork(g.Engine(0))
	qf := func(limit int, _ float64) netem.Discipline { return queue.NewDropTail(limit) }
	return runDumbbell(g, net, spec, "custom-cc", qf, cc, false, cc)
}

// scenarioSpec translates the legacy flat DumbbellSpec into a declarative
// scenario.Spec. Buffer size and host count are resolved here (not left to
// the compiler's derivation rules) because the historical formulas differ:
// the buffer floor is twice the *forward* flow count and hosts count web
// sessions, both of which the committed tables depend on.
func (spec DumbbellSpec) scenarioSpec(qf topo.QueueFactory) scenario.Spec {
	hosts := spec.Flows + spec.ReverseFlows + spec.WebSessions
	if hosts < 1 {
		hosts = 1
	}
	// Hosts are shared round-robin; cap the node count so huge sweeps
	// (1000 web sessions) do not build 2000+ nodes needlessly.
	if hosts > 256 {
		hosts = 256
	}
	return scenario.Spec{
		Seed: spec.Seed,
		Topology: scenario.TopologySpec{
			Template:     scenario.DumbbellTemplate,
			Bandwidth:    spec.Bandwidth,
			Delay:        spec.RTTs[0] / 3,
			Hosts:        hosts,
			RTTs:         spec.RTTs,
			BufferPkts:   spec.BufferPkts,
			AccessJitter: spec.AccessJitter,
			Queue:        qf,
		},
		Links: []scenario.LinkRule{{
			Link:         "forward",
			LossRate:     spec.LossRate,
			DupRate:      spec.DupRate,
			ReorderRate:  spec.ReorderRate,
			ReorderExtra: spec.ReorderExtra,
			Schedule:     spec.Schedule,
		}},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fwd", Count: spec.Flows, From: "left", To: "right", StartWindow: spec.StartWindow},
			{Label: "rev", Count: spec.ReverseFlows, From: "right", To: "left", StartWindow: spec.StartWindow},
			{Label: "web", Count: spec.WebSessions, From: "left", To: "right", Traffic: scenario.Web, StartWindow: spec.StartWindow},
		},
		Duration:     spec.Duration,
		MeasureFrom:  spec.MeasureFrom,
		MeasureUntil: spec.MeasureUntil,
		TargetDelay:  spec.TargetDelay,
	}
}

// runDumbbell is the shared scenario body, expressed on the scenario
// compiler. Construction order is a bit-identity contract with the committed
// tables: compile (topology, impairments, schedule), then observers in the
// historical order (metrics registry, auditor, Instrument hook, delay
// monitor), then traffic.
//
// The network is built on g's engine 0 and partitioned at the bottleneck
// (left side plus R1 on shard 0, R2 plus right side on shard 1; a no-op for
// one shard, the serial engine). Instrumentation is created and read only
// at the quiescent points between Run windows.
func runDumbbell(g *sim.ShardGroup, net *netem.Network, spec DumbbellSpec, scheme string,
	qf topo.QueueFactory, ccf func() tcp.CongestionControl, ecn bool,
	webccf func() tcp.CongestionControl) DumbbellResult {

	if spec.BufferPkts == 0 {
		// The paper's rule: buffer = BDP with a floor of twice the number
		// of flows.
		var sum sim.Duration
		for _, r := range spec.RTTs {
			sum += r
		}
		mean := sum / sim.Duration(len(spec.RTTs))
		spec.BufferPkts = topo.BDPPackets(spec.Bandwidth, mean, 1040)
		if min := 2 * spec.Flows; spec.BufferPkts < min {
			spec.BufferPkts = min
		}
	}

	eng := g.Engine(0)
	sspec := spec.scenarioSpec(qf)
	if g.N() > 1 {
		// Declare the sharded execution so the spec-level shard-safety
		// validation runs, and name the groups' scheme so it can: the
		// compiled CC/Conn are overwritten below either way, so naming the
		// scheme changes no construction draws.
		sspec.Shards = g.N()
		for i := range sspec.Groups {
			sspec.Groups[i].Scheme = scheme
		}
	}
	inst := scenario.MustCompile(eng, net, sspec)
	d := inst.Dumbbell()
	if err := net.Partition(g, inst.Topo.PartitionHint(g.N())); err != nil {
		panic(fmt.Sprintf("experiments: dumbbell partition: %v", err))
	}

	scenarioLine := fmt.Sprintf("dumbbell scheme=%s bw=%g flows=%d rev=%d web=%d loss=%g dup=%g reorder=%g changes=%d",
		scheme, spec.Bandwidth, spec.Flows, spec.ReverseFlows, spec.WebSessions,
		spec.LossRate, spec.DupRate, spec.ReorderRate, len(spec.Schedule))

	// The observability registry (nil when spec.Metrics is nil) is built
	// before the auditor so a violation's repro bundle can include the
	// flight-recorder dump.
	reg := spec.Metrics.newRegistry(eng, scenarioLine)

	var aud *netem.Auditor
	if !spec.NoAudit {
		// Every dumbbell run carries the invariant auditor: packet
		// conservation, link accounting, and bottleneck queue bounds checked
		// periodically, with the bottleneck's trailing trace kept for the
		// repro bundle. A violation panics; the run harness converts that
		// into a per-run error carrying the bundle.
		cfg := netem.AuditConfig{Seed: spec.Seed, Scenario: scenarioLine}
		if fl := reg.Flight(); fl != nil {
			cfg.MetricsDump = fl.Dump
		}
		aud = netem.StartAudit(net, cfg)
		aud.Watch(d.Forward)
		aud.BoundQueue(d.Forward, d.BufferPkts)
		aud.BoundQueue(d.Reverse, d.BufferPkts)
	}

	if spec.Instrument != nil {
		spec.Instrument(d)
	}
	// The monitor gets its own RNG: instrumentation must never perturb the
	// simulation's random stream (results stay identical with or without).
	delayMon := stats.MonitorDelay(d.Forward, spec.MeasureFrom, rand.New(rand.NewSource(spec.Seed^0x5eed)))

	// One shared connection config for both long-flow directions: the RTT
	// observer must chain onto a single histogram, as the hand-wired
	// scenario did.
	conn := tcp.Config{ECN: ecn}
	observeRTT(reg, &conn)
	inst.Groups[0].CC, inst.Groups[0].Conn = ccf, conn
	inst.Groups[1].CC, inst.Groups[1].Conn = ccf, conn
	inst.Groups[2].CC, inst.Groups[2].Conn = webccf, tcp.Config{ECN: ecn}
	inst.Spawn()
	fwd := inst.Groups[0].Flows
	spec.Metrics.instrumentDumbbell(reg, d, fwd)

	// Warm up, then measure.
	g.Run(spec.MeasureFrom)
	meter := stats.NewMeter(d.Forward)
	meter.Start(eng.Now())
	// The queue monitor samples on the engine owning the bottleneck —
	// engine 0 at any shard count (R1 lives on shard 0), spelled through
	// the node so the ownership rule is explicit.
	qmon := stats.MonitorQueue(d.Forward.From.Engine(), d.Forward, eng.Now(), 10*sim.Millisecond)
	snap := trafficgen.GoodputSnapshot(fwd)

	g.Run(spec.MeasureUntil)
	var sent, retrans uint64
	for _, f := range fwd {
		sent += f.Conn.Stats.SegsSent
		retrans += f.Conn.Stats.Retransmits
	}
	var overhead float64
	if sent > 0 {
		overhead = float64(retrans) / float64(sent)
	}
	p50, p95, p99 := delayMon.P50P95P99()
	res := DumbbellResult{
		RetransOverhead: overhead,
		DelayP50:        p50,
		DelayP95:        p95,
		DelayP99:        p99,
		AvgQueue:        qmon.Series.Mean(),
		NormQueue:       qmon.Series.Mean() / float64(d.BufferPkts),
		DropRate:        meter.DropRate(),
		MarkRate:        meter.MarkRate(),
		Utilization:     meter.Utilization(eng.Now()),
		Jain:            stats.Jain(trafficgen.Goodputs(fwd, snap)),
		BufferPkts:      d.BufferPkts,
	}
	qmon.Stop()
	g.Run(spec.Duration)
	if aud != nil {
		// The group has stopped: the summed cross-domain ledger must
		// balance. The periodic checks panic on a violation mid-run, so a
		// violation here is equally fatal.
		if err := aud.Stop(); err != nil {
			panic(fmt.Sprintf("experiments: dumbbell scheme=%s shards=%d: %v", scheme, g.N(), err))
		}
	}
	// Close flushes the metrics sink; write errors are sticky on the
	// caller-owned writer, so the caller's own flush/close reports them.
	_ = reg.Close()
	return res
}
