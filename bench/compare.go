package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// side is one results file: the values of each (workload, metric) over its
// runs, in file order, so that run i of A pairs with run i of B.
type side map[[2]string][]float64

func readSide(path string) (side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range rec.Metrics {
			key := [2]string{rec.Workload, name}
			out[key] = append(out[key], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges B against A for one metric by choosing-metrics §6 and §8.
//
//   - unresolved: either side's own quartile spread, as a share of its median,
//     is wider than the bound, so the bound cannot be checked;
//   - regressed: B's median is worse than A's by more than the bound;
//   - improved: B's median is better by more than A's quartile spread, and B
//     wins at least nine tenths of the pairs (ties count for neither);
//   - unchanged: everything else.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	if am == 0 {
		if bm == 0 {
			return "unchanged", 0
		}
		return "unresolved", 0
	}
	worse := (bm - am) / am // positive when B is worse, for a lower-is-better metric
	if better == "higher" {
		worse = -worse
	}
	if (aq3-aq1)/am > bound || (bm != 0 && (bq3-bq1)/bm > bound) {
		return "unresolved", worse
	}
	if worse > bound {
		return "regressed", worse
	}
	wins, losses := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		d := b[i] - a[i]
		if better == "higher" {
			d = -d
		}
		if d < 0 {
			wins++
		} else if d > 0 {
			losses++
		}
	}
	if pairs := min(len(a), len(b)); -worse*am > aq3-aq1 && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return "improved", worse
	}
	return "unchanged", worse
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl   (files written with -out; A is the parent, B the change)")
		return 2
	}
	a, err := readSide(args[0])
	if err == nil {
		var b side
		if b, err = readSide(args[1]); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 1
}

func printComparison(a, b side) int {
	specs := map[string]metricSpec{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		specs[s.Name] = s
	}
	var keys [][2]string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Printf("%-11s %-36s %5s %34s %34s %8s %6s  %s\n", "workload", "metric", "runs", "A q1 / median / q3", "B q1 / median / q3", "B worse", "bound", "verdict")
	code := 0
	for _, k := range keys {
		spec, ok := specs[k[1]]
		if !ok {
			continue // failed_share and anything a newer harness no longer declares
		}
		aq1, am, aq3 := quartiles(a[k])
		bq1, bm, bq3 := quartiles(b[k])
		v, worse, bound := "-", 0.0, "-"
		if spec.Bound > 0 {
			v, worse = verdict(a[k], b[k], spec.Better, spec.Bound)
			bound = fmt.Sprintf("%.0f%%", spec.Bound*100)
			if v == "regressed" {
				code = 1
			}
		} else if am != 0 {
			worse = (bm - am) / am
			if spec.Better == "higher" {
				worse = -worse
			}
		}
		fmt.Printf("%-11s %-36s %2d/%-2d %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %+7.1f%% %6s  %s\n",
			k[0], k[1], len(a[k]), len(b[k]), aq1, am, aq3, bq1, bm, bq3, worse*100, bound, v)
	}
	return code
}
