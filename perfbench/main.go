// Command perfbench is the repository's benchmark. It generates a schema-v2
// scenario from a workload name and a seed, runs it the way users do — a
// cold harness.Run with an inline scenario and a fresh result cache, then
// warm replays of the committed cell — and reports host-time end-to-end
// metrics. A traced pass then runs the same spec through the layers' public
// functions with pass-through decorators and a CPU profile, and reports a
// per-layer table. Everything runs in one process.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload many-flows --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh -compare parent.txt change.txt
//
// The last line of standard output is the result object; the line before it
// is the full record (fingerprint, samples, spans) that compare mode reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"pert/internal/scenario"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the benchmark's final output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record is the full account of one run, printed before the result.
type record struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     int                  `json:"seconds"`
	Trace       int                  `json:"trace"`
	EndToEnd    metricSet            `json:"end_to_end"`
	PerLayer    metricSet            `json:"per_layer,omitempty"`
	Samples     map[string][]float64 `json:"samples"`
	CPUByLayer  map[string]float64   `json:"cpu_by_layer,omitempty"`
	Spans       []span               `json:"spans,omitempty"`
	Problems    []string             `json:"problems,omitempty"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's scenario is generated from")
	seconds := fs.Int("seconds", 10, "seconds of repeated cold and warm runs to measure")
	traceFlag := fs.Int("trace", 0, "1 reports the traced per-layer metrics, 0 the end-to-end metrics")
	work := fs.String("work", ".bench_build", "directory for the run's temporary caches")
	compare := fs.Bool("compare", false, "compare two sets of results: -compare PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rec, res, err := runBenchmark(w, *seed, *seconds, *traceFlag == 1, *work, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runBenchmark measures one workload and seed.
func runBenchmark(w workload, seed int64, seconds int, traced bool, work string, log io.Writer) (*record, *result, error) {
	tmp, err := freshDir(filepath.Join(work, "tmp"), "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	rec := &record{
		Fingerprint: takeFingerprint(),
		Workload:    w.name, Seed: seed, Seconds: seconds,
		EndToEnd: metricSet{},
		Samples:  map[string][]float64{},
	}
	var tl tally
	ut, err := runUntraced(w, seed, tmp, time.Duration(seconds)*time.Second, 3, &tl)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d cold runs, %d replays, %d set-ups\n",
		w.name, seed, len(ut.wall), len(ut.replay), len(ut.setup))
	tp, err := runTraced(w, w.generate(seed), &tl)
	if err != nil {
		return nil, nil, err
	}

	e := rec.EndToEnd
	e.put(endToEnd, "wall_s", median(ut.wall))
	e.put(endToEnd, "cpu_s", median(ut.cpu))
	e.put(endToEnd, "setup_s", median(ut.setup))
	e.put(endToEnd, "replay_s", fastest(ut.replay))
	e.put(endToEnd, "peak_rss_mb", median(ut.rss))
	rec.Samples["wall_s"] = ut.wall
	rec.Samples["cpu_s"] = ut.cpu
	rec.Samples["setup_s"] = ut.setup
	rec.Samples["replay_s"] = ut.replay
	rec.Samples["peak_rss_mb"] = ut.rss

	res := &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: e}
	rec.Problems = tl.problems
	defs := endToEnd
	if traced {
		rec.Trace = 1
		rec.PerLayer = layerMetrics(ut, tp)
		rec.CPUByLayer = map[string]float64{}
		for l := range tp.prof.layer {
			rec.CPUByLayer[l] = tp.prof.share(l)
		}
		rec.Spans = tp.traced.tr.spans
		res.Metrics, defs = rec.PerLayer, perLayer
	}
	if miss := res.Metrics.missing(defs); len(miss) > 0 {
		return nil, nil, fmt.Errorf("metrics not measured: %v", miss)
	}
	for _, p := range tl.problems {
		fmt.Fprintln(log, "perfbench: check failed:", p)
	}
	return rec, res, nil
}

// tracedPass is the untraced direct run, its traced twin, and for a
// workload with twinShards a traced run of the same spec at that many
// shards, with its own CPU profile.
type tracedPass struct {
	untraced, traced, sharded *directResult
	prof, shardProf           *layerProfile
}

// runTraced runs the traced pass and checks that every direct run conserves
// packets and that tracing changed no simulated count.
func runTraced(w workload, sp scenario.Spec, tl *tally) (*tracedPass, error) {
	tp := &tracedPass{}
	var err error
	if tp.untraced, err = runDirect(sp, false, false); err != nil {
		return nil, err
	}
	tl.cell("direct", tp.untraced.conservation())
	if tp.traced, err = runDirect(sp, true, true); err != nil {
		return nil, err
	}
	var same error
	if !reflect.DeepEqual(tp.untraced.counts, tp.traced.counts) {
		same = fmt.Errorf("traced counts %+v differ from untraced %+v", tp.traced.counts, tp.untraced.counts)
	}
	tl.cell("traced", tp.traced.conservation(), same)
	if tp.prof, err = aggregate(tp.traced.profile); err != nil {
		return nil, err
	}
	if w.twinShards > 1 {
		twin := sp
		twin.Shards = w.twinShards
		if tp.sharded, err = runDirect(twin, true, true); err != nil {
			return nil, err
		}
		tl.cell("traced-sharded", tp.sharded.conservation())
		if tp.shardProf, err = aggregate(tp.sharded.profile); err != nil {
			return nil, err
		}
	}
	return tp, nil
}

// layerMetrics derives the per-layer table from the untraced passes and the
// traced pass.
func layerMetrics(ut *untracedResult, tp *tracedPass) metricSet {
	m := metricSet{}
	put := func(name string, v float64) { m.put(perLayer, name, v) }
	tr, c := tp.traced, tp.traced.counts

	var qBusy time.Duration
	var qOps, qEnq, qRej uint64
	for _, q := range tr.queues {
		qBusy += q.busy
		qOps += q.enq + q.deqCalls
		qEnq += q.enq
		qRej += q.rej
	}
	var coreBusy, tcpBusy time.Duration
	var acks, rtos uint64
	for _, g := range tr.groups {
		for _, cc := range g.ccs {
			if g.core {
				coreBusy += cc.busy
			} else {
				tcpBusy += cc.busy
			}
			acks += cc.acks
			rtos += cc.rtos
		}
	}
	var tx, drops, arrivals uint64
	for _, s := range c.Links {
		tx += s.TxPackets
		drops += s.Drops
		arrivals += s.Arrivals
	}

	put("sim.events", float64(c.Events))
	put("sim.run_s", tr.runS)
	put("sim.self_s", tr.runS-(qBusy+coreBusy+tcpBusy).Seconds())
	put("sim.ns_per_event", ratio(tp.untraced.runS*1e9, float64(c.Events)))
	put("sim.pending_max", float64(c.PendingMax))
	put("sim.cpu_share", tp.prof.share("sim"))

	// Without a sharded twin the shard layer is idle: one shard, no
	// synchronization, no speed-up.
	imbalance, syncShare, speedup := 1.0, 0.0, 1.0
	if sh := tp.sharded; sh != nil {
		var max, sum uint64
		for _, e := range sh.counts.ShardEvents {
			sum += e
			if e > max {
				max = e
			}
		}
		imbalance = ratio(float64(max)*float64(len(sh.counts.ShardEvents)), float64(sum))
		syncShare = ratio(tp.shardProf.sync, tp.shardProf.total)
		speedup = ratio(tr.runS, sh.runS)
	}
	put("shard.events_max_over_mean", imbalance)
	put("shard.sync_cpu_share", syncShare)
	put("shard.speedup", speedup)

	put("netem.pkts_tx", float64(tx))
	put("netem.drop_ratio", ratio(float64(drops), float64(arrivals)))
	put("netem.cpu_share", tp.prof.share("netem"))

	put("queue.ops", float64(qOps))
	put("queue.reject_ratio", ratio(float64(qRej), float64(qEnq)))
	put("queue.self_s", qBusy.Seconds())
	put("queue.ns_per_op", ratio(float64(qBusy.Nanoseconds()), float64(qOps)))

	put("tcp.acks", float64(acks))
	put("tcp.retx_ratio", ratio(float64(c.Conn.Retransmits), float64(c.Conn.SegsSent)))
	put("tcp.rtos", float64(rtos))
	put("tcp.cc_self_s", tcpBusy.Seconds())
	put("tcp.cpu_share", tp.prof.share("tcp"))

	put("core.cc_self_s", coreBusy.Seconds())
	put("core.early_responses", float64(c.Conn.EarlyResponses))
	put("core.cpu_share", tp.prof.share("core"))

	put("trafficgen.pages", float64(c.Pages))
	put("trafficgen.objects", float64(c.Objects))
	put("trafficgen.cpu_share", tp.prof.share("trafficgen"))

	put("scenario.compile_s", median(ut.compile))
	put("scenario.spawn_s", median(ut.spawn))

	put("harness.overhead_s", median(ut.overhead))
	put("cache.get_s", median(ut.getS))
	put("cache.record_bytes", float64(ut.recordBytes))
	put("cache.hits", float64(ut.hits))
	put("cache.misses", float64(ut.misses))

	put("runtime.mallocs", float64(ut.cold.mallocs))
	put("runtime.allocs_per_event", ut.cold.allocsPerEv)
	put("runtime.gc_cycles", median(ut.gcCycles))
	put("runtime.gc_cpu_s", median(ut.gcCPU))
	put("runtime.heap_peak_mb", tr.heapPeak/(1<<20))

	put("trace.overhead", ratio(tr.runS, tp.untraced.runS))
	return m
}

// fastest returns the smallest sample, or NaN for none. A replay takes
// about 80 µs, and on a shared virtual machine the host alternates between
// states seconds long in which it takes ~50 µs or ~90 µs; the median of a run
// flips with the share of slow states (a 0.12-0.28 spread of medians over
// ten seeds), while the fastest replay of a run moves by 0.03-0.07.
func fastest(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return slices.Min(v)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
