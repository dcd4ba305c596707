package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pert/internal/scenario"
	"pert/internal/sim"
)

// xlTestSpec is a small multi-bottleneck scenario for runner tests: chain of
// routers with hop-by-hop PERT traffic, sized to finish in well under a
// second of wall clock.
func xlTestSpec(seed int64, routers int, edgeDelays []sim.Duration) scenario.Spec {
	var groups []scenario.FlowGroupSpec
	for hop := 1; hop < routers; hop++ {
		groups = append(groups, scenario.FlowGroupSpec{
			Scheme: "PERT", Count: 2,
			From: fmt.Sprintf("cloud%d", hop), To: fmt.Sprintf("cloud%d", hop+1),
			StartWindow: seconds(1),
		})
	}
	return scenario.Spec{
		Name: "shard-determinism",
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:   scenario.ParkingLotTemplate,
			Routers:    routers,
			CloudSize:  2,
			CoreBW:     8e6,
			EdgeDelays: edgeDelays,
		},
		Groups:   groups,
		Duration: seconds(6), MeasureFrom: seconds(2),
	}
}

// tableFingerprint renders the parts of a table the determinism contract
// covers: header and every cell, byte for byte.
func tableFingerprint(t *Table) string {
	b, _ := json.Marshal(struct {
		H []string
		R [][]string
	}{t.Header, t.Rows})
	return string(b)
}

// TestShardedRunnerSerialIdentity: an explicit one-shard run (Shards=1)
// produces the same table, byte for byte, as the default (Shards=0), across
// a randomized sample of scenario shapes plus one hybrid spec with a fluid
// background group. Both go through the one shard-group run path, so this
// pins the one-shard contract of the whole chain — Partition's no-op,
// domain-0 packet IDs, the auditor's event sequence, instrumentation attach
// order — not just the engine layer.
func TestShardedRunnerSerialIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	delayPool := []sim.Duration{ms(1), ms(2), ms(4), ms(8)}
	var specs []scenario.Spec
	for trial := 0; trial < 4; trial++ {
		routers := 3 + rng.Intn(3)
		edges := make([]sim.Duration, 1+rng.Intn(3))
		for i := range edges {
			edges[i] = delayPool[rng.Intn(len(delayPool))]
		}
		specs = append(specs, xlTestSpec(100+int64(trial), routers, edges))
	}
	specs = append(specs, scenario.Spec{
		Name: "fluid-identity",
		Seed: 11,
		Topology: scenario.TopologySpec{
			Template:   scenario.DumbbellTemplate,
			Bandwidth:  20e6,
			Hosts:      2,
			RTTs:       []sim.Duration{ms(60)},
			BufferPkts: 400,
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fg", Scheme: "PERT", Count: 2, From: "left", To: "right", StartWindow: seconds(1)},
			{Label: "bg", Scheme: "PERT", Count: 50, From: "left", To: "right",
				Model: scenario.FluidModel, RTT: ms(60)},
		},
		Duration: seconds(6), MeasureFrom: seconds(2),
	})
	for i, spec := range specs {
		def, err := RunScenario(spec) // Shards=0: the default
		if err != nil {
			t.Fatalf("spec %d (%s) default: %v", i, spec.Name, err)
		}
		spec.Shards = 1
		one, err := RunScenario(spec)
		if err != nil {
			t.Fatalf("spec %d (%s) shards=1: %v", i, spec.Name, err)
		}
		if got, want := tableFingerprint(one), tableFingerprint(def); got != want {
			t.Errorf("spec %d (%s): shards=1 table diverged from the default\ndefault:  %s\nshards=1: %s",
				i, spec.Name, want, got)
		}
		if !reflect.DeepEqual(one.Notes, def.Notes) {
			t.Errorf("spec %d (%s): notes differ: %v vs %v", i, spec.Name, def.Notes, one.Notes)
		}
	}
}

// TestShardedRunnerEventNotesCoverWholeRun: the events_per_shard note sums
// the per-shard counts over every Run window of the scenario, so its total
// equals the events the run processed (the process-wide sim counter's
// delta, which every group Run flushes into), not just the final window's.
func TestShardedRunnerEventNotesCoverWholeRun(t *testing.T) {
	spec := xlTestSpec(9, 4, []sim.Duration{ms(1), ms(5)})
	spec.Shards = 4
	before, _ := sim.Counters()
	tab, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := sim.Counters()
	var counts []uint64
	for _, n := range tab.Notes {
		if rest, ok := strings.CutPrefix(n, "shards=4 events_per_shard=["); ok {
			for _, f := range strings.Fields(strings.TrimSuffix(rest, "]")) {
				c, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					t.Fatalf("note %q: %v", n, err)
				}
				counts = append(counts, c)
			}
		}
	}
	if len(counts) != 4 {
		t.Fatalf("no 4-shard events_per_shard note in %v", tab.Notes)
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if want := after - before; sum != want {
		t.Fatalf("events_per_shard sums to %d, run processed %d events", sum, want)
	}
}

// TestShardedRunnerDeterminism: at a fixed shard count the parallel runner
// is deterministic — three runs, identical tables including the per-shard
// event counts in the notes.
func TestShardedRunnerDeterminism(t *testing.T) {
	spec := xlTestSpec(7, 4, []sim.Duration{ms(1), ms(5)})
	spec.Shards = 4
	var first *Table
	for rep := 0; rep < 3; rep++ {
		tab, err := RunScenario(spec)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if rep == 0 {
			first = tab
			continue
		}
		if !reflect.DeepEqual(tab.Rows, first.Rows) || !reflect.DeepEqual(tab.Notes, first.Notes) {
			t.Fatalf("rep %d diverged:\nfirst: %v %v\nthis:  %v %v",
				rep, first.Rows, first.Notes, tab.Rows, tab.Notes)
		}
	}
	// The notes must carry the shard evidence the benchmark reads.
	found := false
	for _, n := range first.Notes {
		if len(n) >= 8 && n[:7] == "shards=" {
			found = true
		}
	}
	if !found {
		t.Errorf("no shards= note in %v", first.Notes)
	}
}

// TestShardedRunnerClampsToTopology: asking for more shards than routers
// clamps rather than failing, and still balances the ledger.
func TestShardedRunnerClampsToTopology(t *testing.T) {
	spec := xlTestSpec(3, 3, nil)
	spec.Shards = 16
	tab, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tab.Notes {
		if n == "shards=16" {
			t.Error("shard count not clamped to router count")
		}
	}
}
