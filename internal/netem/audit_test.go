package netem

import (
	"strings"
	"testing"

	"pert/internal/obs"
	"pert/internal/sim"
)

func TestAuditCleanRun(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 60)
	aud := StartAudit(net, AuditConfig{Seed: 3, Scenario: "clean run",
		Interval: sim.Millisecond,
		OnViolation: func(v *ViolationError) {
			t.Fatalf("clean run flagged: %v", v)
		}})
	aud.Watch(ab)
	aud.BoundQueue(ab, 60)
	s := flood(eng, net, a, b, 50)
	aud.Check()
	if len(s.got) != 50 {
		t.Fatalf("delivered %d", len(s.got))
	}
	c := net.Conservation()
	if c.Injected != 50 || c.Delivered != 50 || c.Dropped != 0 {
		t.Fatalf("ledger: %+v", c)
	}
	if c.Queued != 0 || c.Transmitting != 0 || c.InFlight != 0 {
		t.Fatalf("occupancy after drain: %+v", c)
	}
}

func TestAuditViolationCarriesReproBundle(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 60)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 77, Scenario: "corrupted ledger",
		OnViolation: func(v *ViolationError) { got = v }})
	aud.Watch(ab)
	flood(eng, net, a, b, 10)

	// Corrupt the ledger the way a lost-packet bug would: a packet that was
	// injected but never reached any other column.
	net.doms[0].acct.Injected++
	aud.Check()

	if got == nil {
		t.Fatal("violation not reported")
	}
	if !strings.Contains(got.Violation, "conservation") {
		t.Fatalf("violation: %q", got.Violation)
	}
	if got.Seed != 77 || got.Scenario != "corrupted ledger" {
		t.Fatalf("bundle identity: %+v", got)
	}
	if len(got.Trace) == 0 {
		t.Fatal("bundle has no trailing trace")
	}
	msg := got.Error()
	for _, want := range []string{"repro bundle", "seed=77", `scenario="corrupted ledger"`, "trailing trace"} {
		if !strings.Contains(msg, want) {
			t.Errorf("bundle text missing %q:\n%s", want, msg)
		}
	}
	// Trace lines use the Tracer format, so they re-parse.
	if _, err := ReadTrace(strings.NewReader(strings.Join(got.Trace, "\n"))); err != nil {
		t.Fatalf("bundle trace not parseable: %v", err)
	}
}

// TestAuditOneDomainCatchesLedgerMidRun: on a one-domain network (here
// through a one-shard group, as every runner builds it) each periodic tick
// checks the full conservation equation, so a corrupted ledger is reported
// at the first tick after the corruption, not only by Stop.
func TestAuditOneDomainCatchesLedgerMidRun(t *testing.T) {
	g := sim.NewShardGroup(1, 3)
	eng := g.Engine(0)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 60)
	if err := net.Partition(g, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	var got []*ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 3, Scenario: "mid-run", Interval: sim.Millisecond,
		OnViolation: func(v *ViolationError) { got = append(got, v) }})
	aud.Watch(ab)
	b.AttachFlow(1, &sink{})
	for i := 0; i < 20; i++ {
		eng.At(sim.Time(i)*sim.Millisecond, func() {
			net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000})
		})
	}
	eng.At(10*sim.Millisecond+sim.Millisecond/2, func() { net.doms[0].acct.Injected++ })
	g.Run(50 * sim.Millisecond)
	if len(got) == 0 {
		t.Fatal("corrupted ledger not caught mid-run")
	}
	if got[0].At != 11*sim.Millisecond || !strings.Contains(got[0].Violation, "conservation") {
		t.Fatalf("first violation at %v: %q, want the conservation check at 11ms", got[0].At, got[0].Violation)
	}
	if err := aud.Stop(); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("Stop: %v", err)
	}
}

func TestAuditDefaultPanicsWithBundle(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, _ := line(eng, 8e6, 0, 60)
	aud := StartAudit(net, AuditConfig{Seed: 5, Scenario: "panics"})
	flood(eng, net, a, b, 3)
	net.doms[0].acct.Delivered++ // corrupt
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on violation")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "repro bundle: seed=5") {
			t.Fatalf("panic payload: %v", r)
		}
	}()
	aud.Check()
}

func TestAuditQueueBound(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 0, 50)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "bound",
		OnViolation: func(v *ViolationError) { got = v }})
	aud.BoundQueue(ab, 2)
	b.AttachFlow(1, &sink{})
	// 1 in service + 5 queued: exceeds the declared bound of 2.
	for i := 0; i < 6; i++ {
		net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000})
	}
	aud.Check()
	if got == nil || !strings.Contains(got.Violation, "queue bound exceeded") {
		t.Fatalf("violation: %+v", got)
	}
}

func TestAuditTimeMonotonicity(t *testing.T) {
	eng := sim.NewEngine(3)
	net, _, _, _ := line(eng, 8e6, 0, 10)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "clock",
		OnViolation: func(v *ViolationError) { got = v }})
	aud.doms[0].check(5 * sim.Millisecond)
	if got != nil {
		t.Fatalf("forward sample flagged: %v", got)
	}
	aud.doms[0].check(3 * sim.Millisecond)
	if got == nil || !strings.Contains(got.Violation, "backwards") {
		t.Fatalf("violation: %+v", got)
	}
}

func TestAuditTraceRingWraps(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 0, 100)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "ring", TraceDepth: 4,
		OnViolation: func(v *ViolationError) { got = v }})
	aud.Watch(ab)
	flood(eng, net, a, b, 10) // 20 ring events (enqueue+depart per packet)
	net.doms[0].acct.Injected++
	aud.Check()
	if got == nil {
		t.Fatal("no violation")
	}
	if len(got.Trace) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got.Trace))
	}
	// Oldest first: the last ring entries are the final departures.
	if !strings.HasPrefix(got.Trace[3], "-") {
		t.Fatalf("ring order wrong: %v", got.Trace)
	}
}

func TestAuditorStopSilences(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, _ := line(eng, 8e6, 0, 60)
	violations := 0
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "stopped",
		Interval:    sim.Millisecond,
		OnViolation: func(*ViolationError) { violations++ }})
	aud.Stop()
	net.doms[0].acct.Injected++ // corrupt before any traffic
	flood(eng, net, a, b, 5)
	if violations != 0 {
		t.Fatalf("stopped auditor still fired %d times", violations)
	}
}

func TestAuditViolationCarriesFlightDump(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 60)
	fl := obs.NewFlight("test scenario", 8)
	fl.Record(obs.Point{T: 0.1, Series: "queue.len", Value: 3})
	fl.Record(obs.Point{T: 0.2, Series: "queue.len", Value: 5})
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 9, Scenario: "with flight",
		MetricsDump: fl.Dump,
		OnViolation: func(v *ViolationError) { got = v }})
	aud.Watch(ab)
	flood(eng, net, a, b, 10)
	net.doms[0].acct.Injected++ // corrupt
	aud.Check()

	if got == nil {
		t.Fatal("violation not reported")
	}
	if len(got.Metrics) != 3 { // header + 2 points
		t.Fatalf("flight dump has %d lines, want 3: %v", len(got.Metrics), got.Metrics)
	}
	msg := got.Error()
	for _, want := range []string{"flight recorder:", `flight "test scenario"`,
		"t=0.100000 queue.len=3", "t=0.200000 queue.len=5"} {
		if !strings.Contains(msg, want) {
			t.Errorf("bundle text missing %q:\n%s", want, msg)
		}
	}
	// Without MetricsDump the section is absent entirely.
	eng2 := sim.NewEngine(3)
	net2, _, _, _ := line(eng2, 8e6, 0, 60)
	var bare *ViolationError
	aud2 := StartAudit(net2, AuditConfig{Seed: 9, Scenario: "no flight",
		OnViolation: func(v *ViolationError) { bare = v }})
	net2.doms[0].acct.Injected++
	aud2.Check()
	if bare == nil {
		t.Fatal("second auditor saw no violation")
	}
	if strings.Contains(bare.Error(), "flight recorder") {
		t.Errorf("bundle without MetricsDump mentions the flight recorder")
	}
}
