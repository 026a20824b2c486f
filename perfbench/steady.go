package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// steady runs every workload k times with seeds seed..seed+k-1, each run a
// child process of this binary. Odd rounds run the workloads in reverse
// order, so drift over time does not favour one workload. It prints
// per workload and metric the median, the quartiles (as Python's
// statistics.quantiles(n=4) computes them), the interquartile range as a
// share of the median, and the max/min ratio: the evidence the bounds in
// BENCHMARK.json rest on.
func steady(k int, seed uint64, seconds float64, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	host := fingerprint()
	vals := map[string]map[string][]float64{}
	failShare := map[string]map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		vals[w.name] = map[string][]float64{}
		failShare[w.name] = map[string]bool{}
	}
	for i := 0; i < k; i++ {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		s := strconv.FormatUint(seed+uint64(i), 10)
		for _, name := range order {
			cmd := exec.Command(self, "--workload", name, "--seed", s,
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			if lines[0] != host {
				return fmt.Errorf("%s seed %s: child run reports another host: %s", name, s, lines[0])
			}
			var res result
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
				return fmt.Errorf("%s seed %s: %w", name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %s: outputs incorrect", name, s)
			}
			for _, l := range lines {
				if strings.HasPrefix(l, "oracle:") {
					fmt.Fprintf(out, "%s seed=%s %s\n", name, s, l)
				}
			}
			failShare[name][fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
			for m, v := range res.Metrics {
				vals[name][m] = append(vals[name][m], v.Value)
			}
		}
	}
	fmt.Fprintf(out, "steady: runs=%d seconds=%g seeds=%d..%d\n", k, seconds, seed, seed+uint64(k)-1)
	fmt.Fprintf(out, "%-10s %-16s %12s %12s %12s %10s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "max/min")
	for _, name := range names {
		var ms []string
		for m := range vals[name] {
			ms = append(ms, m)
		}
		slices.Sort(ms)
		for _, m := range ms {
			xs := vals[name][m]
			slices.Sort(xs)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(out, "%-10s %-16s %12.4f %12.4f %12.4f %10.4f %8.4f\n",
				name, m, q2, q1, q3, (q3-q1)/q2, xs[len(xs)-1]/xs[0])
		}
		var shares []string
		for s := range failShare[name] {
			shares = append(shares, s)
		}
		fmt.Fprintf(out, "%-10s failed/attempted: %s\n", name, strings.Join(shares, " "))
	}
	return nil
}

// quartiles returns the three cut points of sorted xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
