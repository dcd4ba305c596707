package main

import (
	"fmt"
	"math/rand"
	"sort"

	"pert/internal/scenario"
	"pert/internal/sim"
)

// A workload generates one schema-v2 scenario from a seed. The seed moves
// only the details a scenario's cost is insensitive to — the engine seed,
// RTTs inside a fixed band, start jitter — and never a flow count, a link
// rate or the horizon, so different seeds give different specs of the same
// size and the run-to-run spread stays inside the benchmark's bounds.
type workload struct {
	name string
	why  string
	gen  func(rng *rand.Rand, seed int64) scenario.Spec
	// twinShards > 1 adds a traced run of the spec at that many shards to
	// the traced pass, for the shard layer's metrics.
	twinShards int
}

// workloads lists the benchmark's workloads. Each stresses a different
// layer, so an optimization of one layer shows on one workload and, by
// prediction, not on the others.
var workloads = []workload{
	{
		name: "many-flows",
		why:  "64 long PERT and Sack/DropTail flows at 100 Mbps: per-ACK RTO re-arms flood the sim heap with superseded timers",
		gen:  genManyFlows,
	},
	{
		name: "deep-bdp",
		why:  "8 long flows at 1 Gbps over 150-250 ms RTTs: heap depth set by in-flight packets and heavy SACK generation",
		gen:  genDeepBDP,
	},
	{
		name: "web-aqm",
		why:  "RED-ECN router with Pareto web sessions and a few long flows: queue marking, connection churn and allocation",
		gen:  genWebAQM,
	},
	{
		name:       "parkinglot",
		why:        "5-router parking lot, serial end to end; its traced pass adds a shards=2 twin, the only run through sim.ShardGroup and netem boundary ports",
		gen:        genParkingLot,
		twinShards: 2,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// generate builds the workload's spec for a seed. The same seed always
// yields the same spec.
func (w workload) generate(seed int64) scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	sp := w.gen(rng, seed)
	sp.Name = w.name
	return sp
}

// ms converts milliseconds to simulated time.
func ms(v float64) sim.Duration { return sim.Milliseconds(v) }

// rttBand draws n RTTs uniformly from [lo, hi) milliseconds, rounded to
// 0.1 ms and sorted, so the band is covered evenly by every seed.
func rttBand(rng *rand.Rand, n int, lo, hi float64) []sim.Duration {
	out := make([]sim.Duration, n)
	step := (hi - lo) / float64(n)
	for i := range out {
		// One draw per stratum keeps every seed's RTT mix close to the
		// band's mean, which holds the per-seed cost steady.
		v := lo + step*(float64(i)+rng.Float64())
		out[i] = ms(float64(int(v*10)) / 10)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Each horizon is sized so one cold run takes about a second on a 2-vCPU
// 2.1 GHz Xeon virtual machine: long enough to time, short enough for many
// cold runs per measurement.

func genManyFlows(rng *rand.Rand, seed int64) scenario.Spec {
	return scenario.Spec{
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: 100e6,
			RTTs:      rttBand(rng, 16, 40, 120),
			AQM:       "Sack/Droptail",
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "pert", Scheme: "PERT", Count: 32, From: "left[0:32]", To: "right[0:32]", StartWindow: ms(2000)},
			{Label: "sack", Scheme: "Sack/Droptail", Count: 32, From: "left[32:64]", To: "right[32:64]", StartWindow: ms(2000)},
		},
		Duration:    ms(25000),
		MeasureFrom: ms(5000),
	}
}

func genDeepBDP(rng *rand.Rand, seed int64) scenario.Spec {
	return scenario.Spec{
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: 1e9,
			RTTs:      rttBand(rng, 8, 150, 250),
			AQM:       "Sack/Droptail",
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "pert", Scheme: "PERT", Count: 4, From: "left[0:4]", To: "right[0:4]", StartWindow: ms(500)},
			{Label: "sack", Scheme: "Sack/Droptail", Count: 4, From: "left[4:8]", To: "right[4:8]", StartWindow: ms(500)},
		},
		Duration:    ms(3500),
		MeasureFrom: ms(1500),
	}
}

// genWebAQM offers 800 web sessions to 100 Mbps, the load per unit of
// capacity of 400 sessions at 50 Mbps but twice the connection churn: at the
// smaller size deep-bdp's heap-growth GC outweighed this workload's
// allocation churn, and web-aqm must be the GC-heavy workload.
func genWebAQM(rng *rand.Rand, seed int64) scenario.Spec {
	return scenario.Spec{
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: 100e6,
			Hosts:     16,
			RTTs:      rttBand(rng, 8, 40, 120),
			AQM:       "Sack/RED-ECN",
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "sack-ecn", Scheme: "Sack/RED-ECN", Count: 3, From: "left[0:3]", To: "right[0:3]", StartWindow: ms(2000)},
			{Label: "pert-pi", Scheme: "PERT-PI", Count: 3, From: "left[3:6]", To: "right[3:6]", StartWindow: ms(2000)},
			{Label: "web", Scheme: "Sack/RED-ECN", Count: 800, From: "left", To: "right", Traffic: scenario.Web, StartWindow: ms(3000)},
		},
		Duration:    ms(25000),
		MeasureFrom: ms(5000),
	}
}

// genParkingLot runs serially end to end. At shards=2 on a 2-vCPU virtual
// machine both shards need both vCPUs, so host CPU steal stalls the group
// twice as often and the other shard sleeps in its backoff: over ten seeds
// the sharded wall time spread 0.39 of its median in a busy hour, beyond
// the largest bound a metric may have. The sharded engine is measured by
// the traced pass's twin instead.
func genParkingLot(rng *rand.Rand, seed int64) scenario.Spec {
	edges := make([]sim.Duration, 3)
	for i, base := range []float64{1, 4, 10} {
		edges[i] = ms(base + float64(int(rng.Float64()*10))/10)
	}
	return scenario.Spec{
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:   scenario.ParkingLotTemplate,
			Routers:    5,
			CloudSize:  8,
			CoreBW:     40e6,
			EdgeDelays: edges,
			AQM:        "PERT",
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "hop1", Scheme: "PERT", Count: 8, From: "cloud1", To: "cloud2", StartWindow: ms(4000)},
			{Label: "hop3", Scheme: "PERT", Count: 8, From: "cloud3", To: "cloud4", StartWindow: ms(4000)},
			{Label: "through", Scheme: "Sack/Droptail", Count: 8, From: "cloud1", To: "cloud5", StartWindow: ms(4000)},
		},
		Duration:    ms(30000),
		MeasureFrom: ms(10000),
	}
}
