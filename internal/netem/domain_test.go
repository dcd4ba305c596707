package netem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pert/internal/sim"
)

// buildChain makes a 4-node chain a-b-c-d with duplex links, suitable for
// cutting into two domains at the b-c link.
func buildChain(eng *sim.Engine, delay sim.Duration) (*Network, []*Node) {
	net := NewNetwork(eng)
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.AddNode())
	}
	for i := 0; i < 3; i++ {
		net.AddDuplexLink(nodes[i], nodes[i+1], 8e6, delay, &tail{limit: 100}, &tail{limit: 100})
	}
	net.ComputeRoutes()
	return net, nodes
}

type countHandler struct {
	n   int
	at  []sim.Time
	ids []uint64
}

func (h *countHandler) Receive(p *Packet, now sim.Time) {
	h.n++
	h.at = append(h.at, now)
	h.ids = append(h.ids, p.ID)
}

// TestPartitionCrossDelivery: packets routed across a partition cut arrive
// with the same timing a serial run produces, and the summed conservation
// ledger balances after the run.
func TestPartitionCrossDelivery(t *testing.T) {
	const delay = 5 * sim.Millisecond
	run := func(shards int) (*countHandler, Conservation) {
		g := sim.NewShardGroup(shards, 1)
		net, nodes := buildChain(g.Engine(0), delay)
		h := &countHandler{}
		nodes[3].AttachFlow(1, h)
		if shards > 1 {
			if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
				t.Fatal(err)
			}
		}
		src := nodes[0]
		for i := 0; i < 20; i++ {
			i := i
			src.Engine().At(sim.Time(i)*sim.Millisecond, func() {
				p := src.NewPacket()
				p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
				net.SendFrom(src, p)
			})
		}
		g.Run(sim.Second)
		if err := net.Audit(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return h, net.Conservation()
	}

	serial, cs := run(1)
	sharded, cp := run(2)
	if serial.n != 20 || sharded.n != serial.n {
		t.Fatalf("deliveries: serial=%d sharded=%d", serial.n, sharded.n)
	}
	for i := range serial.at {
		if serial.at[i] != sharded.at[i] {
			t.Fatalf("delivery %d at %v sharded vs %v serial", i, sharded.at[i], serial.at[i])
		}
	}
	if cs.Delivered != cp.Delivered || cs.Injected != cp.Injected || cs.Dropped != cp.Dropped {
		t.Fatalf("ledgers differ: serial %+v, sharded %+v", cs, cp)
	}
	if cp.Queued != 0 || cp.Transmitting != 0 || cp.InFlight != 0 {
		t.Fatalf("sharded run left packets in flight: %+v", cp)
	}
}

// TestPartitionPacketIDsDisjoint: packets minted by different domains can
// never collide, and domain 0 mints the exact IDs a serial network does.
func TestPartitionPacketIDsDisjoint(t *testing.T) {
	g := sim.NewShardGroup(2, 1)
	net, nodes := buildChain(g.Engine(0), sim.Millisecond)
	if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	p0 := nodes[0].NewPacket()
	p1 := nodes[3].NewPacket()
	if p0.ID != 1 {
		t.Fatalf("domain 0 first ID = %d, want 1 (serial-identical)", p0.ID)
	}
	if p1.ID != uint64(1)<<domainPktShift|1 {
		t.Fatalf("domain 1 first ID = %#x", p1.ID)
	}
	if nodes[0].Domain() != 0 || nodes[2].Domain() != 1 {
		t.Fatalf("domains = %d, %d", nodes[0].Domain(), nodes[2].Domain())
	}
}

// TestPartitionImpairedBoundary: wire loss, duplication, and reorder on a
// boundary link keep the summed ledger balanced and stay deterministic
// across repeated sharded runs.
func TestPartitionImpairedBoundary(t *testing.T) {
	run := func() (Conservation, ImpairStats) {
		g := sim.NewShardGroup(2, 3)
		net, nodes := buildChain(g.Engine(0), 2*sim.Millisecond)
		h := &countHandler{}
		nodes[3].AttachFlow(1, h)
		if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
			t.Fatal(err)
		}
		bc := nodes[1].LinkTo(nodes[2].ID)
		if bc.xport == nil {
			t.Fatal("b->c is not a boundary link")
		}
		imp := NewImpairment(7)
		imp.Loss, imp.Dup, imp.Reorder, imp.ReorderMax = 0.1, 0.1, 0.2, sim.Millisecond
		bc.SetImpairment(imp)
		src := nodes[0]
		for i := 0; i < 200; i++ {
			i := i
			src.Engine().At(sim.Time(i)*sim.Millisecond, func() {
				p := src.NewPacket()
				p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
				net.SendFrom(src, p)
			})
		}
		g.Run(sim.Second)
		if err := net.Audit(); err != nil {
			t.Fatal(err)
		}
		return net.Conservation(), bc.Impairments()
	}
	c1, s1 := run()
	c2, s2 := run()
	if s1.WireLost == 0 || s1.Duplicated == 0 || s1.Reordered == 0 {
		t.Fatalf("impairments never fired: %+v", s1)
	}
	if c1 != c2 || s1 != s2 {
		t.Fatalf("sharded impaired run not deterministic:\n%+v vs %+v\n%+v vs %+v", c1, c2, s1, s2)
	}
}

// TestPartitionValidation: the partitioner rejects malformed assignments.
func TestPartitionValidation(t *testing.T) {
	mk := func() (*sim.ShardGroup, *Network) {
		g := sim.NewShardGroup(2, 1)
		net, _ := buildChain(g.Engine(0), sim.Millisecond)
		return g, net
	}
	if g, net := mk(); net.Partition(g, []int{0, 0, 1}) == nil {
		t.Error("wrong assignment length accepted")
	}
	if g, net := mk(); net.Partition(g, []int{0, 0, 1, 2}) == nil {
		t.Error("out-of-range shard accepted")
	}
	g, net := mk()
	if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if net.Partition(g, []int{0, 0, 1, 1}) == nil {
		t.Error("double partition accepted")
	}
	// Zero-delay boundary: no conservative lookahead exists.
	g2 := sim.NewShardGroup(2, 1)
	net2, _ := buildChain(g2.Engine(0), 0)
	if net2.Partition(g2, []int{0, 0, 1, 1}) == nil {
		t.Error("zero-delay boundary accepted")
	}
	// The same zero-delay links entirely inside one domain are fine.
	if err := net2.Partition(g2, []int{0, 0, 0, 0}); err != nil {
		t.Errorf("all-in-one-domain partition rejected: %v", err)
	}
}

// TestAuditPartitionedDomains: on a partitioned network StartAudit runs one
// domain check per shard, each ticking on its own shard's engine, safely
// while the group is active. Watch and BoundQueue route each link to the
// check of the domain owning it, and Stop returns the whole-network ledger
// check.
func TestAuditPartitionedDomains(t *testing.T) {
	g := sim.NewShardGroup(2, 1)
	net, nodes := buildChain(g.Engine(0), 2*sim.Millisecond)
	h := &countHandler{}
	nodes[3].AttachFlow(1, h)
	if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "domain-audit", Interval: sim.Millisecond,
		OnViolation: func(v *ViolationError) { got = v }})
	ab := nodes[0].LinkTo(nodes[1].ID) // domain 0
	cd := nodes[2].LinkTo(nodes[3].ID) // domain 1
	aud.Watch(ab)
	aud.Watch(cd)
	aud.BoundQueue(cd, 100)
	if len(aud.doms) != 2 || len(aud.doms[0].bounds) != 0 || len(aud.doms[1].bounds) != 1 {
		t.Fatalf("queue bound not routed to the owning domain's check")
	}
	src := nodes[0]
	for i := 0; i < 50; i++ {
		i := i
		src.Engine().At(sim.Time(i)*sim.Millisecond, func() {
			p := src.NewPacket()
			p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
			net.SendFrom(src, p)
		})
	}
	g.Run(200 * sim.Millisecond)
	if h.n != 50 {
		t.Fatalf("delivered %d of 50", h.n)
	}
	if got != nil {
		t.Fatalf("clean run flagged: %v", got)
	}
	if err := aud.Stop(); err != nil {
		t.Fatal(err)
	}

	// A corrupted domain-1 link is caught by domain 1's check, whose trace
	// ring holds that domain's watched link.
	cd.Stats.Arrivals++
	aud.Check()
	if got == nil || !strings.Contains(got.Violation, "link accounting") {
		t.Fatalf("violation: %+v", got)
	}
	if len(got.Trace) == 0 || !strings.Contains(got.Trace[0], fmt.Sprintf(" %d %d ", cd.From.ID, cd.To.ID)) {
		t.Fatalf("domain 1 trace does not show its own link: %v", got.Trace)
	}
	if err := aud.Stop(); err == nil {
		t.Fatal("Stop did not report the corrupted link")
	}
}

// TestPartitionOneShardIsNoOp: a one-shard group is the serial engine, so
// Partition validates and then changes nothing — hybrid fluid-source
// networks included, which a wider group still rejects as serial-only.
func TestPartitionOneShardIsNoOp(t *testing.T) {
	g := sim.NewShardGroup(1, 3)
	net, a, b, ab := line(g.Engine(0), 8e6, 5*sim.Millisecond, 100)
	if _, err := AttachFluid(ab, FluidConfig{Flows: 1000, RTT: 0.1}); err != nil {
		t.Fatal(err)
	}
	// A foreign generator: a rebind to the owning engine would replace it.
	ba := b.LinkTo(a.ID)
	own := rand.New(rand.NewSource(5))
	q := &markingQueue{tail: tail{limit: 100}, rng: own}
	ba.Queue = q
	txDone := ab.txDone

	if net.Partition(g, []int{0}) == nil {
		t.Error("wrong assignment length accepted")
	}
	if err := net.Partition(g, []int{0, 0}); err != nil {
		t.Fatalf("one-shard partition rejected: %v", err)
	}
	if net.Domains() != 1 || ab.eng != g.Engine(0) || ab.txDone != txDone || q.rng != own {
		t.Fatal("one-shard partition rebound engine, timer or queue RNG")
	}
	if p := a.NewPacket(); p.ID != 1 {
		t.Fatalf("first packet ID after one-shard partition = %#x, want 1", p.ID)
	}
	if net.Partition(sim.NewShardGroup(1, 3), []int{0, 0}) == nil {
		t.Error("network built on another engine accepted")
	}

	g2 := sim.NewShardGroup(2, 3)
	net2, _, _, ab2 := line(g2.Engine(0), 8e6, 5*sim.Millisecond, 100)
	if _, err := AttachFluid(ab2, FluidConfig{Flows: 1000, RTT: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := net2.Partition(g2, []int{0, 0}); err == nil || !strings.Contains(err.Error(), "serial-only") {
		t.Fatalf("two-shard partition of a fluid network: %v, want serial-only rejection", err)
	}
}
