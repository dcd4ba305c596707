package netem

import (
	"fmt"

	"pert/internal/sim"
)

// A domain is the slice of Network state one shard owns exclusively: its
// engine, its packet pool, its packet-ID counter, and its column of the
// conservation ledger. An unpartitioned network has exactly one domain, and
// every fast-path field access below compiles to the same loads the
// pre-domain code did — the serial path is the one-domain special case, not
// a branch.
//
// Ownership rule: a domain's fields are touched only from its own shard's
// goroutine (or from the single construction goroutine before the group
// runs). Cross-domain packet handoff transfers a packet's pool ownership to
// the receiving domain — pools are LIFO free lists, so a packet allocated
// on one shard and delivered on another is simply recycled into the
// receiver's list.
type domain struct {
	idx int
	eng *sim.Engine

	nextPktID uint64
	pktFree   []*Packet

	// acct is this domain's column of the packet-conservation ledger. The
	// network-wide equation holds only over the SUM of all domains: a
	// cross-shard send increments the sender's InFlight and the matching
	// arrival decrements the receiver's, so an individual domain's InFlight
	// may legitimately go negative mid-run.
	acct Conservation
}

// domainPktShift positions the domain index in the top bits of a packet ID,
// so concurrent domains mint unique IDs without sharing a counter. Domain 0
// occupies the zero prefix: its IDs are the plain counter values a serial
// run has always produced.
const domainPktShift = 56

func (d *domain) newPacketID() uint64 {
	d.nextPktID++
	return uint64(d.idx)<<domainPktShift | d.nextPktID
}

func (d *domain) newPacket() *Packet {
	var p *Packet
	if k := len(d.pktFree); k > 0 {
		p = d.pktFree[k-1]
		d.pktFree = d.pktFree[:k-1]
		*p = Packet{}
	} else {
		p = &Packet{}
	}
	p.ID = d.newPacketID()
	p.pool = pktLive
	return p
}

func (d *domain) releasePacket(p *Packet) {
	switch p.pool {
	case pktForeign:
		return
	case pktFree:
		panic("netem: packet released twice")
	}
	p.pool = pktFree
	d.pktFree = append(d.pktFree, p)
}

func (d *domain) clonePacket(p *Packet) *Packet {
	var cp *Packet
	if p.pool == pktLive {
		if k := len(d.pktFree); k > 0 {
			cp = d.pktFree[k-1]
			d.pktFree = d.pktFree[:k-1]
		} else {
			cp = &Packet{}
		}
	} else {
		cp = &Packet{}
	}
	*cp = *p
	if k := len(p.Sack); k > 0 && &p.Sack[0] == &p.sackStore[0] {
		cp.Sack = cp.sackStore[:k]
	}
	return cp
}

// Engine returns the engine this node's events run on: the network engine
// when unpartitioned, the owning shard's engine after Partition. Endpoint
// code (TCP connections, sinks) must schedule its timers here, not on
// Network.Engine(), or a sharded run would mutate engine 0 from every
// shard.
func (n *Node) Engine() *sim.Engine { return n.dom.eng }

// NewPacket allocates a packet from the pool of the domain owning this
// node. Endpoints attached to the node must use this rather than
// Network.NewPacket so pool and ID state stay shard-local.
func (n *Node) NewPacket() *Packet { return n.dom.newPacket() }

// Domain returns the index of the shard domain owning the node (0 when the
// network is unpartitioned).
func (n *Node) Domain() int { return n.dom.idx }

// Domains returns the number of shard domains (1 when unpartitioned).
func (n *Network) Domains() int { return len(n.doms) }

// Partition splits the network across the shards of g: assign[node.ID]
// names the shard owning each node. A link belongs to its sending node's
// shard; links whose endpoints land on different shards become boundary
// links, delivering through a cross-shard port whose lookahead is the
// link's propagation delay.
//
// Call exactly once, after the topology is complete (including
// ComputeRoutes) and before any traffic or timers exist on engines other
// than g.Engine(0). The network must have been built on g.Engine(0).
//
// A group of one shard is the serial engine: after validating the
// assignment, Partition changes nothing — engines, packet IDs, queue RNGs
// and schedules stay exactly as built — so every runner can partition
// unconditionally, hybrid (fluid-source) networks included.
//
// Partition also completes domain ownership for per-link state armed at
// build time: queue disciplines implementing RandBinder are rebound to their
// owning engine's generator (a pointer-identical no-op for domain 0), and
// LinkSchedule change events are re-armed on the owning engine, so AQM
// marking draws and mid-run capacity shifts / flaps stay shard-local.
//
// Boundary links must have positive Delay (a zero-delay boundary admits no
// conservative lookahead) and must keep that Delay fixed for the whole run:
// the cross-shard port's lookahead is set from it here, so schedules with
// Delay changes on boundary links are rejected. Capacity changes and
// up/down flaps on boundary links are fine — both act on the transmitting
// side only, and the shard protocol's horizon advances from engine commits
// rather than packet sends, so a down boundary link cannot stall its
// neighbor.
func (n *Network) Partition(g *sim.ShardGroup, assign []int) error {
	if len(n.doms) != 1 {
		return fmt.Errorf("netem: network already partitioned into %d domains", len(n.doms))
	}
	if n.eng != g.Engine(0) {
		return fmt.Errorf("netem: network was not built on shard 0's engine")
	}
	if len(assign) != len(n.Nodes) {
		return fmt.Errorf("netem: partition assigns %d nodes, network has %d", len(assign), len(n.Nodes))
	}
	if c := n.doms[0].acct; c.Injected != 0 || c.Delivered != 0 || c.Dropped != 0 {
		return fmt.Errorf("netem: cannot partition after traffic has flowed (%+v)", c)
	}
	for id, s := range assign {
		if s < 0 || s >= g.N() {
			return fmt.Errorf("netem: node %d assigned to shard %d, group has %d", id, s, g.N())
		}
	}
	if g.N() == 1 {
		return nil
	}
	for _, node := range n.Nodes {
		for _, l := range node.out {
			if l.fluid != nil {
				return fmt.Errorf("netem: %v has a hybrid fluid source; fluid/packet co-simulation is serial-only (no cross-domain fluid coupling yet)", l)
			}
			if assign[l.From.ID] == assign[l.To.ID] {
				continue
			}
			if l.Delay <= 0 {
				return fmt.Errorf("netem: boundary %v needs positive delay for lookahead", l)
			}
			if l.sched.HasDelayChange() {
				return fmt.Errorf("netem: boundary %v has a schedule with delay changes; boundary lookahead is fixed", l)
			}
		}
	}

	doms := make([]*domain, g.N())
	doms[0] = n.doms[0]
	for i := 1; i < g.N(); i++ {
		doms[i] = &domain{idx: i, eng: g.Engine(i)}
	}
	n.doms = doms
	for _, node := range n.Nodes {
		node.dom = doms[assign[node.ID]]
	}
	// Rebind each link to its owner's engine. The transmit timer is
	// re-created rather than migrated: NewTimer consumes no sequence
	// numbers, so shard 0's event ordering is untouched. Queue RNGs are
	// rebound unconditionally — for domain 0 the owning engine is engine 0,
	// so a queue seeded from Network.Engine().Rand() gets the very same
	// generator back and serial draw order is preserved. Schedules migrate
	// only off engine 0: domain-0 links keep their original change events
	// (and their original sequence numbers).
	for _, node := range n.Nodes {
		for _, l := range node.out {
			l.dom = l.From.dom
			l.eng = l.dom.eng
			l.txDone = l.eng.NewTimer(l.completeTx)
			if b, ok := l.Queue.(RandBinder); ok {
				b.BindRand(l.eng.Rand())
			}
			if l.dom.idx != 0 {
				l.migrateSchedule()
			}
			if l.From.dom == l.To.dom {
				continue
			}
			to := l.To
			l.xport = g.Connect(l.From.dom.idx, l.To.dom.idx, l.Delay)
			l.remoteArriveFn = func(a any) {
				p := a.(*Packet)
				to.dom.acct.InFlight--
				to.Receive(p)
			}
		}
	}
	return nil
}

// BoundaryLinks returns the links whose endpoints lie in different domains
// (empty when unpartitioned).
func (n *Network) BoundaryLinks() []*Link {
	var out []*Link
	for _, node := range n.Nodes {
		for _, l := range node.out {
			if l.xport != nil {
				out = append(out, l)
			}
		}
	}
	return out
}
