package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pert/internal/experiments"
	"pert/internal/harness"
	"pert/internal/sim"
)

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.generate(7), w.generate(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different specs", w.name)
		}
		if reflect.DeepEqual(w.generate(7), w.generate(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec", w.name)
		}
	}
}

func TestGeneratedSpecsValidate(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(0); seed < 25; seed++ {
			sp := w.generate(seed)
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			rs := harness.RunSpec{Scenario: &sp, Workers: 1}
			if err := rs.Validate(); err != nil {
				t.Fatalf("%s seed %d: RunSpec: %v", w.name, seed, err)
			}
			if _, err := rs.ScenarioKey("test"); err != nil {
				t.Fatalf("%s seed %d: not cacheable: %v", w.name, seed, err)
			}
		}
	}
}

func TestDecoratorsArePassThrough(t *testing.T) {
	for _, tc := range []struct {
		workload string
		shards   int
	}{
		{"web-aqm", 1},
		{"many-flows", 1},
		{"parkinglot", 1},
		{"parkinglot", 2},
	} {
		w, err := workloadByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		sp := w.generate(3)
		sp.Shards = tc.shards
		sp.Duration, sp.MeasureFrom, sp.MeasureUntil = 3*sim.Second, sim.Second, 0
		plain, err := runDirect(sp, false, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runDirect(sp, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.counts, traced.counts) {
			t.Errorf("%s shards=%d: traced counts\n%+v\ndiffer from untraced\n%+v", tc.workload, tc.shards, traced.counts, plain.counts)
		}
		if plain.counts.Events == 0 {
			t.Errorf("%s shards=%d: no events", tc.workload, tc.shards)
		}
		for _, r := range []*directResult{plain, traced} {
			if err := r.conservation(); err != nil {
				t.Errorf("%s shards=%d: %v", tc.workload, tc.shards, err)
			}
		}
		var ops, acks uint64
		for _, q := range traced.queues {
			ops += q.enq + q.deqCalls
		}
		for _, g := range traced.groups {
			for _, c := range g.ccs {
				acks += c.acks
			}
		}
		if ops == 0 || acks == 0 {
			t.Errorf("%s shards=%d: decorators saw %d queue ops and %d ACKs", tc.workload, tc.shards, ops, acks)
		}
	}
}

// internalPackages lists every package directory under internal/, relative
// to it.
func internalPackages(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	pkgs := internalPackages(t)
	if len(pkgs) == 0 {
		t.Fatal("found no packages under ../internal")
	}
	present := map[string]bool{}
	for _, p := range pkgs {
		present[p] = true
		if _, ok := layerOf[p]; !ok {
			t.Errorf("package pert/internal/%s has no layer in layerOf", p)
		}
	}
	for p := range layerOf {
		if !present[p] {
			t.Errorf("layerOf names pert/internal/%s, which no longer exists", p)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"pert/internal/sim.(*Engine).pop", "pert/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"pert/internal/harness/cliconfig.Parse"}, "harness"},
		{[]string{"math.archLog", "math.Log", "pert/internal/trafficgen.Pareto", "pert/internal/sim.(*Engine).Run"}, "trafficgen"},
		{[]string{"runtime.mallocgc", "pert/internal/tcp.(*Sink).sendAck"}, "runtime"},
		{[]string{"runtime.nanotime", "time.Now", "main.(*queueTrace).Enqueue", "pert/internal/netem.(*Link).Send"}, "trace"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := sampleLayer(tc.frames); got != tc.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestIsSync(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   bool
	}{
		{[]string{"pert/internal/sim.(*Shard).run"}, true},
		{[]string{"runtime.selectnbrecv", "pert/internal/sim.(*Shard).drain", "pert/internal/sim.(*Shard).run"}, true},
		{[]string{"runtime.Gosched", "pert/internal/sim.(*Shard).backoff", "pert/internal/sim.(*Shard).run"}, true},
		{[]string{"pert/internal/sim.(*Engine).pop", "pert/internal/sim.(*Engine).Run", "pert/internal/sim.(*Shard).run"}, false},
		{[]string{"pert/internal/sim.(*Engine).pop", "pert/internal/sim.(*Engine).Run"}, false},
	} {
		if got := isSync(tc.frames); got != tc.want {
			t.Errorf("isSync(%v) = %v, want %v", tc.frames, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCheckTable(t *testing.T) {
	good := &experiments.Table{
		Header: []string{"row", "avg_queue_pkts", "drop_rate", "mark_rate", "utilization", "goodput_share_per_flow", "jain"},
		Rows: [][]string{
			{"link forward", "12.00", "1.00E-03", "0", "0.950", "-", "-"},
			{"group a", "-", "-", "-", "-", "0.100", "0.990"},
			{"group web", "-", "-", "-", "-", "10 pages", "20 objects"},
		},
	}
	if err := checkTable(good, 1, 2); err != nil {
		t.Fatalf("good table rejected: %v", err)
	}
	if err := checkTable(good, 1, 3); err == nil {
		t.Error("a missing group row was accepted")
	}
	bad := *good
	bad.Rows = append([][]string{{"link forward", "12.00", "1.00E-03", "0", "0.000", "-", "-"}}, good.Rows[1:]...)
	if err := checkTable(&bad, 1, 2); err == nil {
		t.Error("zero utilization was accepted")
	}
	bad.Rows = append([][]string{{"link forward", "NaN", "1.00E-03", "0", "0.5", "-", "-"}}, good.Rows[1:]...)
	if err := checkTable(&bad, 1, 2); err == nil {
		t.Error("a NaN queue length was accepted")
	}
}

// writeRecords writes result lines as a run would print them.
func writeRecords(t *testing.T, path string, recs []record) {
	t.Helper()
	var b bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteString("\n{\"correct\":true}\n")
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func fakeRecords(host hostPrint, wall ...float64) []record {
	var out []record
	for i, v := range wall {
		e := metricSet{}
		e.put(endToEnd, "wall_s", v)
		out = append(out, record{Fingerprint: fingerprint{Host: host}, Workload: "many-flows", Seed: int64(i), EndToEnd: e})
	}
	return out
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	host := hostPrint{CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", GOOS: "linux", GOARCH: "amd64"}
	parent := filepath.Join(dir, "parent")
	writeRecords(t, parent, fakeRecords(host, 1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00))

	for _, tc := range []struct {
		change []float64
		want   string
		code   int
	}{
		{[]float64{0.80, 0.81, 0.79, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80, 0.80}, "improved", 0},
		{[]float64{1.30, 1.31, 1.29, 1.32, 1.28, 1.30, 1.31, 1.29, 1.30, 1.30}, "regressed", 1},
		{[]float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}, "unchanged", 0},
	} {
		change := filepath.Join(dir, "change")
		writeRecords(t, change, fakeRecords(host, tc.change...))
		var out, errb bytes.Buffer
		code := compareMain([]string{parent, change}, &out, &errb)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("compare = %d\n%s%s\nwant %d and %q", code, out.String(), errb.String(), tc.code, tc.want)
		}
	}

	other := host
	other.CPU = "another cpu"
	change := filepath.Join(dir, "other-host")
	writeRecords(t, change, fakeRecords(other, 1.0, 1.0, 1.0))
	var out, errb bytes.Buffer
	if code := compareMain([]string{parent, change}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "different hosts") {
		t.Errorf("compare across hosts = %d (%s), want a refusal", code, errb.String())
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end metrics differ:\n file %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer metrics differ:\n file %+v\n code %+v", bf.PerLayer, perLayer)
	}
}
