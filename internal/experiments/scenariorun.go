package experiments

import (
	"fmt"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
	"pert/internal/trafficgen"
)

// RunScenario executes a general declarative scenario (schema v2) end to end
// and renders the standard panels as one table: a row per measured core link
// (time-averaged queue, drop and mark rates, utilization) followed by a row
// per flow group (per-flow goodput share of core capacity, Jain fairness;
// page/object counts for web groups; modeled backlog and rate for fluid
// groups). This is the engine behind `pertsim -config` for v2 files —
// mixed-scheme, multi-bottleneck runs need no Go code.
//
// Every run executes on a shard group of spec.EffectiveShards() engines: the
// topology is cut along the template's partition hint (a no-op for one
// shard, which is the serial engine) and run under conservative-lookahead
// synchronization (sim.ShardGroup). The run is windowed — the group runs to
// the measurement start, to the window end, and to the duration — and all
// instrumentation is created and read on the caller's goroutine at those
// quiescent points, attached to the engine owning what it observes, so the
// assembled table needs no locking. Above one shard the notes record the
// shard count and per-shard event totals over the whole run, the
// load-balance evidence the benchmark reads.
func RunScenario(spec scenario.Spec) (*Table, error) {
	shards := spec.EffectiveShards()
	g := sim.NewShardGroup(shards, spec.Seed)
	eng := g.Engine(0)
	net := netem.NewNetwork(eng)
	inst, err := scenario.Compile(eng, net, spec)
	if err != nil {
		return nil, err
	}
	if err := net.Partition(g, inst.Topo.PartitionHint(shards)); err != nil {
		return nil, err
	}

	name := spec.Name
	if name == "" {
		name = "scenario"
	}
	measured := inst.Topo.Measured()

	// Every scenario run carries the invariant auditor on its core links,
	// like the built-in experiments do.
	aud := netem.StartAudit(net, netem.AuditConfig{
		Seed:     spec.Seed,
		Scenario: fmt.Sprintf("scenario %s template=%s groups=%d", name, spec.Topology.Template, len(spec.Groups)),
	})
	for _, ml := range measured {
		aud.Watch(ml.Link)
		aud.BoundQueue(ml.Link, inst.Topo.BufferPkts())
	}

	inst.Spawn()

	// ShardGroup.EventCounts covers one Run call; the note reports the
	// whole run, so sum it over the windows.
	events := make([]uint64, shards)
	run := func(until sim.Duration) {
		g.Run(until)
		for i, n := range g.EventCounts() {
			events[i] += n
		}
	}

	until := spec.MeasureUntil
	if until == 0 {
		until = spec.Duration
	}
	run(spec.MeasureFrom)
	meters := make([]*stats.Meter, len(measured))
	qmons := make([]*stats.QueueMonitor, len(measured))
	for i, ml := range measured {
		meters[i] = stats.NewMeter(ml.Link)
		meters[i].Start(eng.Now())
		qmons[i] = stats.MonitorQueue(ml.Link.From.Engine(), ml.Link, eng.Now(), 10*sim.Millisecond)
	}
	snaps := make([][]uint64, len(inst.Groups))
	for i, grp := range inst.Groups {
		snaps[i] = trafficgen.GoodputSnapshot(grp.Flows)
	}

	// Fluid background groups: sample the modeled backlog and arrival rate
	// over the window on the same cadence as the queue monitors. Scenarios
	// without fluid groups create no ticker here — the fluid-off path must
	// stay event-identical to the pre-hybrid runner. (Fluid groups never
	// shard, so engine 0 owns them.)
	type fluidSample struct {
		backlog, rate stats.Series
	}
	fmons := map[int]*fluidSample{}
	for i, grp := range inst.Groups {
		if grp.Fluid != nil {
			fmons[i] = &fluidSample{}
		}
	}
	if len(fmons) > 0 {
		eng.Every(eng.Now(), 10*sim.Millisecond, func(sim.Time) {
			for i, m := range fmons {
				m.backlog.Add(inst.Groups[i].Fluid.Backlog())
				m.rate.Add(inst.Groups[i].Fluid.Rate())
			}
		})
	}

	run(until)
	t := &Table{
		ID:    name,
		Title: fmt.Sprintf("Scenario %s (%s, %d groups, buffer %d pkts)", name, spec.Topology.Template, len(spec.Groups), inst.Topo.BufferPkts()),
		Header: []string{"row", "avg_queue_pkts", "drop_rate", "mark_rate", "utilization",
			"goodput_share_per_flow", "jain"},
	}
	window := (until - spec.MeasureFrom).Seconds()
	pkt := spec.Topology.PktSize
	if pkt == 0 {
		pkt = 1040
	}
	capacityBytes := inst.Topo.CapacityPPS() * float64(pkt) * window
	for i, ml := range measured {
		t.AddRow("link "+ml.Name, f2(qmons[i].Series.Mean()), sci(meters[i].DropRate()),
			sci(meters[i].MarkRate()), f3(meters[i].Utilization(eng.Now())), "-", "-")
		qmons[i].Stop()
	}
	for i, grp := range inst.Groups {
		label := "group " + grp.Label()
		if m, ok := fmons[i]; ok {
			// Modeled aggregate: its queue share, rate as a utilization
			// fraction, and per-flow share of core capacity.
			cpps := grp.Fluid.Params().C
			t.AddRow(label, f2(m.backlog.Mean()), "-", "-",
				f3(m.rate.Mean()/cpps), sci(m.rate.Mean()/cpps/grp.Fluid.Flows()), "-")
			continue
		}
		if len(grp.Flows) > 0 {
			goodputs := trafficgen.Goodputs(grp.Flows, snaps[i])
			var sum float64
			for _, b := range goodputs {
				sum += b
			}
			share := sum / capacityBytes / float64(len(grp.Flows))
			t.AddRow(label, "-", "-", "-", "-", f3(share), f3(stats.Jain(goodputs)))
		} else if len(grp.Webs) > 0 {
			// Session counters are owned by each session's shard; reading
			// them here is safe because the group is quiescent between Run
			// windows.
			var pages, objects uint64
			for _, w := range grp.Webs {
				pages += w.Pages
				objects += w.Objects
			}
			t.AddRow(label, "-", "-", "-", "-",
				fmt.Sprintf("%d pages", pages), fmt.Sprintf("%d objects", objects))
		}
	}
	run(spec.Duration)
	if err := aud.Stop(); err != nil {
		return nil, fmt.Errorf("scenario %s shards=%d: %w", name, shards, err)
	}
	t.Notes = append(t.Notes,
		"goodput_share_per_flow = mean per-flow goodput as a fraction of core capacity over the window")
	if shards > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf("shards=%d events_per_shard=%v", shards, events))
		if _, clamped, max := spec.ShardClamp(); clamped {
			t.Notes = append(t.Notes,
				fmt.Sprintf("requested shards=%d clamped to the topology maximum %d", spec.Shards, max))
		}
	}
	return t, nil
}
