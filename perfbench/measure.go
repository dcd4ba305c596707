package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pert/internal/cache"
	"pert/internal/experiments"
	"pert/internal/harness"
	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// tally counts the cells a run attempted and those that failed at least one
// correctness check. A cell is one harness.Run call or one direct run.
type tally struct {
	attempted, failed int
	problems          []string
}

// cell records one attempted cell and the checks it failed.
func (t *tally) cell(name string, errs ...error) {
	t.attempted++
	bad := false
	for _, err := range errs {
		if err != nil {
			bad = true
			t.problems = append(t.problems, name+": "+err.Error())
		}
	}
	if bad {
		t.failed++
	}
}

// built is a compiled scenario on its engine, ready to Spawn and run.
type built struct {
	eng  *sim.Engine     // the serial engine, or shard 0's
	grp  *sim.ShardGroup // nil for a serial run
	net  *netem.Network
	inst *scenario.Instance
}

// build constructs the spec the way the scenario runner does: engine (or
// shard group), network, Compile, and Partition along the template's hint
// when sharded. Each step runs inside a span when tr is non-nil.
func build(sp scenario.Spec, tr *tracer) (*built, error) {
	b := &built{}
	shards := sp.EffectiveShards()
	end := tr.begin("engine", "direct")
	if shards > 1 {
		b.grp = sim.NewShardGroup(shards, sp.Seed)
		b.eng = b.grp.Engine(0)
	} else {
		b.eng = sim.NewEngine(sp.Seed)
	}
	end()
	end = tr.begin("network", "direct")
	b.net = netem.NewNetwork(b.eng)
	end()
	end = tr.begin("compile", "direct")
	inst, err := scenario.Compile(b.eng, b.net, sp)
	end()
	if err != nil {
		return nil, err
	}
	b.inst = inst
	if b.grp != nil {
		end = tr.begin("partition", "direct")
		err = b.net.Partition(b.grp, inst.Topo.PartitionHint(shards))
		end()
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// setupTiming is one timed set-up: everything a cold run does before its
// first simulated event.
type setupTiming struct {
	total, compile, spawn float64 // seconds
	links, groups         int     // measured links and flow groups built
}

// measureSetup times spec generation, RunSpec.Validate, the cell key,
// cache.Open, Compile (plus Partition when sharded) and Spawn, each by
// calling the public function, and discards the built network.
func measureSetup(w workload, seed int64, cacheDir string) (setupTiming, error) {
	t0 := time.Now()
	sp := w.generate(seed)
	rs := harness.RunSpec{Scenario: &sp, Workers: 1, Cache: harness.CachePolicy{Dir: cacheDir}}
	if err := rs.Validate(); err != nil {
		return setupTiming{}, err
	}
	if _, err := rs.ScenarioKey(harness.Version()); err != nil {
		return setupTiming{}, err
	}
	if _, err := cache.Open(cacheDir); err != nil {
		return setupTiming{}, err
	}
	t1 := time.Now()
	b, err := build(sp, nil)
	if err != nil {
		return setupTiming{}, err
	}
	t2 := time.Now()
	b.inst.Spawn()
	t3 := time.Now()
	return setupTiming{
		total:   t3.Sub(t0).Seconds(),
		compile: t2.Sub(t1).Seconds(),
		spawn:   t3.Sub(t2).Seconds(),
		links:   len(b.inst.Topo.Measured()),
		groups:  len(b.inst.Groups),
	}, nil
}

// coldResult is one cold harness.Run: simulate and commit to a fresh cache.
type coldResult struct {
	wall, cpu   float64 // host seconds
	rss         float64 // peak resident MB during the run
	overhead    float64 // wall minus the record's own WallSeconds
	gcCycles    float64
	gcCPU       float64
	mallocs     uint64
	allocsPerEv float64
	key         string
	tables      []byte // the record's tables as JSON
}

// runtimeSample reads the GC counters the cold pass reports.
func runtimeSample() (cycles, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[1].Value.Float64()
	}
	return cycles, gcCPU
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter (VmHWM) from the current resident set, so the next
// peakRSSMB covers only what follows.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// "5" resets VmHWM (Linux 4.0 and later); without it VmHWM stays the
	// process's lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size (VmHWM) since resetPeakRSS.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// runCold runs the spec once through harness.Run against an empty cache
// directory and checks the record: status ok, a well-formed table, and
// exactly one miss and no hits.
func runCold(sp scenario.Spec, cacheDir string, links, groups int) (coldResult, []error) {
	rs := harness.RunSpec{Scenario: &sp, Workers: 1, Cache: harness.CachePolicy{Dir: cacheDir}}
	runtime.GC()
	resetPeakRSS()
	cyc0, gc0 := runtimeSample()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	rep, err := harness.Run(context.Background(), rs)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	rss := peakRSSMB()
	cyc1, gc1 := runtimeSample()
	if err != nil {
		return coldResult{}, []error{fmt.Errorf("harness.Run: %w", err)}
	}
	if len(rep.Runs) != 1 {
		return coldResult{}, []error{fmt.Errorf("cold report has %d runs, want 1", len(rep.Runs))}
	}
	rec := rep.Runs[0]
	tables, _ := json.Marshal(rec.Tables) // Tables hold only strings and maps of strings
	res := coldResult{
		wall: wall, cpu: cpu, rss: rss, overhead: wall - rec.WallSeconds,
		gcCycles: cyc1 - cyc0, gcCPU: gc1 - gc0,
		mallocs: rec.Mallocs, allocsPerEv: rec.AllocsPerEvent,
		key: rec.CacheKey, tables: tables,
	}
	var errs []error
	if rec.Status != harness.StatusOK {
		errs = append(errs, fmt.Errorf("cold status %q (%s)", rec.Status, rec.Error))
	}
	if rep.CacheMisses != 1 || rep.CacheHits != 0 {
		errs = append(errs, fmt.Errorf("cold pass saw %d misses and %d hits, want 1 and 0", rep.CacheMisses, rep.CacheHits))
	}
	if rec.SimEvents == 0 {
		errs = append(errs, fmt.Errorf("cold pass simulated no events"))
	}
	if len(rec.Tables) != 1 {
		errs = append(errs, fmt.Errorf("cold record has %d tables, want 1", len(rec.Tables)))
	} else if err := checkTable(rec.Tables[0], links, groups); err != nil {
		errs = append(errs, err)
	}
	return res, errs
}

// runWarm replays the committed cell through harness.Run and checks that it
// was one hit, no miss, no simulated event, and the cold pass's table byte
// for byte.
func runWarm(sp scenario.Spec, cacheDir string, cold coldResult) (float64, []error) {
	rs := harness.RunSpec{Scenario: &sp, Workers: 1, Cache: harness.CachePolicy{Dir: cacheDir}}
	t0 := time.Now()
	rep, err := harness.Run(context.Background(), rs)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return wall, []error{fmt.Errorf("warm harness.Run: %w", err)}
	}
	var errs []error
	if rep.CacheHits != 1 || rep.CacheMisses != 0 || rep.SimEvents != 0 {
		errs = append(errs, fmt.Errorf("warm pass saw %d hits, %d misses, %d events, want 1, 0, 0",
			rep.CacheHits, rep.CacheMisses, rep.SimEvents))
	}
	if len(rep.Runs) != 1 {
		return wall, append(errs, fmt.Errorf("warm report has %d runs, want 1", len(rep.Runs)))
	}
	tables, _ := json.Marshal(rep.Runs[0].Tables)
	if string(tables) != string(cold.tables) {
		errs = append(errs, fmt.Errorf("warm table differs from the cold table"))
	}
	return wall, errs
}

// cacheGet times one Store.Get of the committed key and returns the record
// size.
func cacheGet(cacheDir, key string) (float64, int, error) {
	store, err := cache.Open(cacheDir)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	entry, ok, err := store.Get(key)
	d := time.Since(t0).Seconds()
	if err != nil {
		return d, 0, err
	}
	if !ok {
		return d, 0, fmt.Errorf("committed key %s not found", key)
	}
	return d, len(entry.Record), nil
}

// checkTable checks the scenario table: one row per measured link and per
// flow group, every value finite and in range.
func checkTable(t *experiments.Table, links, groups int) error {
	if len(t.Rows) != links+groups {
		return fmt.Errorf("table has %d rows, want %d links + %d groups", len(t.Rows), links, groups)
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(row), len(t.Header))
		}
		isLink := i < links
		if isLink != strings.HasPrefix(row[0], "link ") {
			return fmt.Errorf("row %d (%q) is out of order", i, row[0])
		}
		var err error
		if isLink {
			err = checkCells(row, []cellRange{
				{1, 0, math.Inf(1), true}, // avg_queue_pkts
				{2, 0, 1, true},           // drop_rate
				{3, 0, 1, true},           // mark_rate
				{4, 0, 1, false},          // utilization in (0, 1]
			})
		} else if pages, ok := strings.CutSuffix(row[5], " pages"); ok {
			err = checkCells([]string{pages, strings.TrimSuffix(row[6], " objects")},
				[]cellRange{{0, 0, math.Inf(1), false}, {1, 0, math.Inf(1), false}})
		} else {
			err = checkCells(row, []cellRange{
				{5, 0, 1, false}, // goodput_share_per_flow
				{6, 0, 1, false}, // jain
			})
		}
		if err != nil {
			return fmt.Errorf("row %q: %w", row[0], err)
		}
	}
	return nil
}

// cellRange bounds one numeric cell: lo < v <= hi, or lo <= v <= hi when
// loInclusive.
type cellRange struct {
	col         int
	lo, hi      float64
	loInclusive bool
}

func checkCells(row []string, ranges []cellRange) error {
	for _, r := range ranges {
		v, err := strconv.ParseFloat(row[r.col], 64)
		if err != nil {
			return fmt.Errorf("cell %d: %w", r.col, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v > r.hi || v < r.lo || (v == r.lo && !r.loInclusive) {
			return fmt.Errorf("cell %d = %v outside its range", r.col, v)
		}
	}
	return nil
}

// freshDir makes an empty directory under parent.
func freshDir(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}

// untracedResult aggregates the timed passes of one run.
type untracedResult struct {
	wall, cpu, rss, setup, replay   []float64
	compile, spawn                  []float64
	overhead, getS, gcCycles, gcCPU []float64
	cold                            coldResult
	recordBytes                     int
	hits, misses                    int
}

// replaysPerCold is how many warm replays follow each cold run; a replay
// takes about a tenth of a millisecond, so the median needs many.
const replaysPerCold = 100

// setupsPerCold is how many set-ups are timed per cold run.
const setupsPerCold = 8

// runUntraced repeats set-up, a cold run and warm replays until the budget
// is spent (and at least minIters times).
func runUntraced(w workload, seed int64, tmp string, budget time.Duration, minIters int, tl *tally) (*untracedResult, error) {
	sp := w.generate(seed)
	res := &untracedResult{}
	deadline := time.Now().Add(budget)
	for iter := 0; iter < minIters || time.Now().Before(deadline); iter++ {
		var st setupTiming
		for i := 0; i < setupsPerCold; i++ {
			dir, err := freshDir(tmp, "setup-")
			if err != nil {
				return nil, err
			}
			runtime.GC()
			st, err = measureSetup(w, seed, dir)
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			res.setup = append(res.setup, st.total)
			res.compile = append(res.compile, st.compile)
			res.spawn = append(res.spawn, st.spawn)
		}

		dir, err := freshDir(tmp, "cache-")
		if err != nil {
			return nil, err
		}
		cold, errs := runCold(sp, dir, st.links, st.groups)
		tl.cell("cold", errs...)
		res.misses++
		res.wall = append(res.wall, cold.wall)
		res.cpu = append(res.cpu, cold.cpu)
		res.rss = append(res.rss, cold.rss)
		res.overhead = append(res.overhead, cold.overhead)
		res.gcCycles = append(res.gcCycles, cold.gcCycles)
		res.gcCPU = append(res.gcCPU, cold.gcCPU)
		res.cold = cold
		if cold.key != "" {
			for i := 0; i < replaysPerCold; i++ {
				d, errs := runWarm(sp, dir, cold)
				tl.cell("warm", errs...)
				res.hits++
				res.replay = append(res.replay, d)
			}
			d, n, err := cacheGet(dir, cold.key)
			tl.cell("cache-get", err)
			res.getS = append(res.getS, d)
			res.recordBytes = n
		}
		os.RemoveAll(dir)
	}
	return res, nil
}
