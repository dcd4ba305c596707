package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// median returns the middle of the values (the mean of the middle two for
// an even count), or NaN for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// readRecords loads every record line from a file, or from every file in a
// directory.
func readRecords(path string) ([]record, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return readRecordFile(path)
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		recs, err := readRecordFile(filepath.Join(path, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

func readRecordFile(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"fingerprint"`) {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict applies the paired-run rule: a gain needs the change to win at
// least nine tenths of the pairs (ties count for neither) and the medians to
// differ by more than the parent's interquartile spread; a regression is a
// change median worse than the parent's by more than the bound. Anything
// else is unchanged when the parent's spread is within the bound, and
// unresolved when it is wider (unless every change run beats every parent
// run).
func verdict(def metricDef, parent, change []float64, pairs [][2]float64) (string, int) {
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	sign := 1.0 // positive = worse
	if def.Better == "higher" {
		sign = -1
	}
	wins := 0
	for _, p := range pairs {
		if sign*(p[1]-p[0]) < 0 {
			wins++
		}
	}
	switch {
	case sign*(mc-mp) > def.Bound*math.Abs(mp):
		return "regressed", wins
	case len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) &&
		sign*(mc-mp) < 0 && math.Abs(mc-mp) > q3-q1:
		return "improved", wins
	case (q3-q1) > def.Bound*math.Abs(mp) && !allBetter(sign, parent, change):
		return "unresolved", wins
	}
	return "unchanged", wins
}

// allBetter reports whether every change value beats every parent value.
func allBetter(sign float64, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// compareMain prints, for each workload and end-to-end metric, the parent's
// and the change's median and quartiles and a verdict. It refuses results
// measured on different hosts. Exit status 1 means a metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: -compare needs two result files or directories: PARENT CHANGE")
		return 2
	}
	sets := make([][]record, 2)
	for i, p := range args {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if len(recs) == 0 {
			fmt.Fprintf(stderr, "perfbench: %s holds no results\n", p)
			return 2
		}
		sets[i] = recs
	}
	host := sets[0][0].Fingerprint.Host
	for _, set := range sets {
		for _, r := range set {
			if r.Fingerprint.Host != host {
				fmt.Fprintf(stderr, "perfbench: refusing to compare results from different hosts:\n  %+v\n  %+v\n",
					host, r.Fingerprint.Host)
				return 2
			}
		}
	}
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		host.CPU, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.GOOS, host.GOARCH)
	fmt.Fprintf(stdout, "%-20s %-12s %-44s %-44s %8s %7s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	regressed := false
	for _, w := range workloads {
		for _, def := range endToEnd {
			parent, pbySeed := collect(sets[0], w.name, def.Name)
			change, cbySeed := collect(sets[1], w.name, def.Name)
			if len(parent) == 0 || len(change) == 0 {
				continue
			}
			pairs := pairUp(parent, change, pbySeed, cbySeed)
			v, wins := verdict(def, parent, change, pairs)
			if v == "regressed" {
				regressed = true
			}
			p1, p3 := quartiles(parent)
			c1, c3 := quartiles(change)
			mp, mc := median(parent), median(change)
			fmt.Fprintf(stdout, "%-20s %-12s %-44s %-44s %+7.1f%% %3d/%-3d  %s\n", w.name, def.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", mp, p1, p3, len(parent)),
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", mc, c1, c3, len(change)),
				100*ratio(mc-mp, mp), wins, len(pairs), v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// collect returns one metric's values for a workload, in input order and by
// seed.
func collect(recs []record, wl, metric string) ([]float64, map[int64][]float64) {
	var vals []float64
	bySeed := map[int64][]float64{}
	for _, r := range recs {
		if r.Workload != wl {
			continue
		}
		if v, ok := r.EndToEnd[metric]; ok {
			vals = append(vals, v.Value)
			bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
		}
	}
	return vals, bySeed
}

// pairUp pairs parent and change runs of the same seed; without common
// seeds it pairs them in input order.
func pairUp(parent, change []float64, pbySeed, cbySeed map[int64][]float64) [][2]float64 {
	var pairs [][2]float64
	seeds := make([]int64, 0, len(pbySeed))
	for s := range pbySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		p, c := pbySeed[s], cbySeed[s]
		for i := 0; i < len(p) && i < len(c); i++ {
			pairs = append(pairs, [2]float64{p[i], c[i]})
		}
	}
	if len(pairs) > 0 {
		return pairs
	}
	for i := 0; i < len(parent) && i < len(change); i++ {
		pairs = append(pairs, [2]float64{parent[i], change[i]})
	}
	return pairs
}
