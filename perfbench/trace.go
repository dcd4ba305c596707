package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/tcp"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"` // since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced direct run shares the traced run's code path.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent ("" for a root) and returns the function
// that closes it.
func (t *tracer) begin(name, parent string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0).Seconds()
	return func() {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: time.Since(t.t0).Seconds()})
	}
}

// queueTrace is a pass-through queue.Discipline decorator that counts and
// times every Enqueue and Dequeue. Each link is owned by one shard, so one
// decorator is only ever called from one goroutine.
type queueTrace struct {
	inner         netem.Discipline
	enq, rej, deq uint64 // calls; rejected enqueues; packets dequeued
	deqCalls      uint64
	busy          time.Duration
}

func (q *queueTrace) Enqueue(p *netem.Packet, now sim.Time) bool {
	t0 := time.Now()
	ok := q.inner.Enqueue(p, now)
	q.busy += time.Since(t0)
	q.enq++
	if !ok {
		q.rej++
	}
	return ok
}

func (q *queueTrace) Dequeue(now sim.Time) *netem.Packet {
	t0 := time.Now()
	p := q.inner.Dequeue(now)
	q.busy += time.Since(t0)
	q.deqCalls++
	if p != nil {
		q.deq++
	}
	return p
}

func (q *queueTrace) Len() int   { return q.inner.Len() }
func (q *queueTrace) Bytes() int { return q.inner.Bytes() }

// ccTrace is a pass-through tcp.CongestionControl decorator that counts and
// times every callback of one connection.
type ccTrace struct {
	inner tcp.CongestionControl
	acks  uint64
	rtos  uint64
	busy  time.Duration
}

func (c *ccTrace) Init(conn *tcp.Conn) {
	t0 := time.Now()
	c.inner.Init(conn)
	c.busy += time.Since(t0)
}

func (c *ccTrace) OnAck(conn *tcp.Conn, newlyAcked int, rtt sim.Duration, ack *netem.Packet) {
	t0 := time.Now()
	c.inner.OnAck(conn, newlyAcked, rtt, ack)
	c.busy += time.Since(t0)
	c.acks++
}

func (c *ccTrace) OnDupAckLoss(conn *tcp.Conn) {
	t0 := time.Now()
	c.inner.OnDupAckLoss(conn)
	c.busy += time.Since(t0)
}

func (c *ccTrace) OnRTO(conn *tcp.Conn) {
	t0 := time.Now()
	c.inner.OnRTO(conn)
	c.busy += time.Since(t0)
	c.rtos++
}

func (c *ccTrace) OnECNEcho(conn *tcp.Conn) {
	t0 := time.Now()
	c.inner.OnECNEcho(conn)
	c.busy += time.Since(t0)
}

// ccGroup holds the decorators one flow group's factory created. Web groups
// create connections mid-run, on the owning shard's goroutine, hence the
// lock.
type ccGroup struct {
	core bool // a PERT-family group: its CC time is the core layer's
	mu   sync.Mutex
	ccs  []*ccTrace
}

func (g *ccGroup) wrap(factory func() tcp.CongestionControl) func() tcp.CongestionControl {
	return func() tcp.CongestionControl {
		c := &ccTrace{inner: factory()}
		g.mu.Lock()
		g.ccs = append(g.ccs, c)
		g.mu.Unlock()
		return c
	}
}

// isCoreGroup reports whether a group's connections run a PERT-family
// controller (the core signal and responder) rather than plain Sack.
func isCoreGroup(g *scenario.Group) bool {
	if !strings.HasPrefix(g.Spec.Scheme, "PERT") {
		return false
	}
	if g.Spec.Traffic != scenario.Web {
		return true
	}
	def, err := scenario.Lookup(g.Spec.Scheme)
	return err == nil && def.ProactiveWeb
}

// simCounts are the simulated outcomes of a direct run. A traced run must
// reproduce its untraced twin's counts exactly.
type simCounts struct {
	Events      uint64
	ShardEvents []uint64
	PendingMax  int
	Links       []netem.LinkStats
	Queued      []int
	Conn        tcp.ConnStats
	Pages       uint64
	Objects     uint64
}

// directResult is one direct run of a spec through the layers' public
// functions.
type directResult struct {
	counts   simCounts
	tr       *tracer
	runS     float64
	heapPeak float64 // bytes
	queues   []*queueTrace
	groups   []*ccGroup
	profile  []byte
}

// pendingGrid is the simulated-time step at which a direct run samples the
// heap's pending entries. Stepping Run does not change the simulation: the
// engine executes the same events in the same order.
const pendingGrid = 100 * sim.Millisecond

// profileHz is the traced run's CPU sampling rate.
const profileHz = 1000

// runDirect builds the spec with the layers' public functions and runs it
// over the full horizon. With traced set it records spans, wraps every
// measured link's queue and every group's CC factory in counting
// decorators, samples the Go heap, and (with profile set) records a CPU
// profile of the run.
func runDirect(sp scenario.Spec, traced, profile bool) (*directResult, error) {
	res := &directResult{}
	var tr *tracer
	if traced {
		tr = newTracer()
		res.tr = tr
	}
	endDirect := tr.begin("direct", "")
	defer endDirect()
	b, err := build(sp, tr)
	if err != nil {
		return nil, err
	}
	measured := b.inst.Topo.Measured()
	if traced {
		end := tr.begin("decorate", "direct")
		for _, ml := range measured {
			q := &queueTrace{inner: ml.Link.Queue}
			ml.Link.Queue = q
			res.queues = append(res.queues, q)
		}
		for _, g := range b.inst.Groups {
			cg := &ccGroup{core: isCoreGroup(g)}
			if g.CC != nil {
				g.CC = cg.wrap(g.CC)
			}
			res.groups = append(res.groups, cg)
		}
		end()
	}
	end := tr.begin("spawn", "direct")
	b.inst.Spawn()
	end()

	heapSample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var prof bytes.Buffer
	runtime.GC()
	if profile {
		// The default 100 Hz gives too few samples in a one-second run.
		// Setting the rate first makes runtime/pprof keep it (and print a
		// warning to standard error).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	end = tr.begin("run", "direct")
	t0 := time.Now()
	c := &res.counts
	if b.grp != nil {
		c.ShardEvents = make([]uint64, b.grp.N())
	}
	for t := sim.Time(0); t < sim.Time(sp.Duration); {
		t += pendingGrid
		if t > sim.Time(sp.Duration) {
			t = sim.Time(sp.Duration)
		}
		pending := 0
		if b.grp != nil {
			c.Events += b.grp.Run(t)
			for i, n := range b.grp.EventCounts() {
				c.ShardEvents[i] += n
				pending += b.grp.Engine(i).Pending()
			}
		} else {
			c.Events += b.eng.Run(t)
			pending = b.eng.Pending()
		}
		if pending > c.PendingMax {
			c.PendingMax = pending
		}
		if traced {
			metrics.Read(heapSample)
			if v := float64(heapSample[0].Value.Uint64()); v > res.heapPeak {
				res.heapPeak = v
			}
		}
	}
	res.runS = time.Since(t0).Seconds()
	end()
	if profile {
		pprof.StopCPUProfile()
		res.profile = prof.Bytes()
	}

	for _, ml := range measured {
		c.Links = append(c.Links, ml.Link.Stats)
		c.Queued = append(c.Queued, ml.Link.Queue.Len())
	}
	for _, g := range b.inst.Groups {
		for _, f := range g.Flows {
			s := f.Conn.Stats
			c.Conn.SegsSent += s.SegsSent
			c.Conn.Retransmits += s.Retransmits
			c.Conn.FastRecoveries += s.FastRecoveries
			c.Conn.RTOs += s.RTOs
			c.Conn.ECNResponses += s.ECNResponses
			c.Conn.AckedSegs += s.AckedSegs
			c.Conn.EarlyResponses += s.EarlyResponses
		}
		for _, w := range g.Webs {
			c.Pages += w.Pages
			c.Objects += w.Objects
		}
	}
	return res, nil
}

// conservation checks that every measured link accounts for each arrival:
// arrivals = transmitted + dropped + queued at the end + the packet in
// transmission. Without a queue decorator the in-transmission packet is not
// observable, so it may be 0 or 1; with one, it is dequeued - transmitted.
func (r *directResult) conservation() error {
	for i, s := range r.counts.Links {
		rest := int64(s.Arrivals) - int64(s.TxPackets) - int64(s.Drops) - int64(r.counts.Queued[i])
		if r.queues != nil {
			inTx := int64(r.queues[i].deq) - int64(s.TxPackets)
			if inTx < 0 || inTx > 1 || rest != inTx {
				return fmt.Errorf("link %d: arrivals %d != tx %d + drops %d + queued %d + in transmission %d",
					i, s.Arrivals, s.TxPackets, s.Drops, r.counts.Queued[i], inTx)
			}
			continue
		}
		if rest != 0 && rest != 1 {
			return fmt.Errorf("link %d: arrivals %d != tx %d + drops %d + queued %d (+1 in transmission)",
				i, s.Arrivals, s.TxPackets, s.Drops, r.counts.Queued[i])
		}
	}
	return nil
}
