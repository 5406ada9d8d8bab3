// Command perfbench is the serving benchmark of lcakp. One run starts
// the whole serving stack in-process on loopback ephemeral ports — an
// instance server, LCA replicas, a gateway and its wire server, with a
// temporary artifact store where the workload needs one — drives it
// with one workload from one client process, checks every answer, and
// prints the metrics, the last line of standard output being one JSON
// object:
//
//	perfbench --workload hit_zipf --seed 1 --seconds 32 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. README.md describes the
// workloads, the metrics and the layers they load.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one benchmark and prints its result. It
// returns 0 when a result was printed (correct or not), 1 when the
// benchmark could not run, and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == holdFlag {
		return holdCPUsChild(os.Stdin, stdout)
	}
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flags.Uint64("seed", 1, "workload seed: the instance, the LCA seed, the query streams and the mutation batches derive from it")
	seconds := flags.Int("seconds", 32, "measured seconds per run")
	trace := flags.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
	workdir := flags.String("workdir", ".bench_build", "directory for temporary stores and span dumps")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := mixes[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 4 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 4 and --trace 0 or 1")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, workdir: *workdir}
	res, err := bench(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// config is one invocation.
type config struct {
	w       *mix
	seed    uint64
	seconds time.Duration
	traced  bool
	workdir string
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// result is what one run prints.
type result struct {
	cfg        config
	attempted  int
	failed     int
	violations []string
	metrics    []metric
	notes      []string
}

func (r *result) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and then the JSON result
// line, which is always the last line.
func (r *result) print(w io.Writer) error {
	mode := 0
	if r.cfg.traced {
		mode = 1
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n",
		r.cfg.w.name, r.cfg.seed, int(r.cfg.seconds/time.Second), mode)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  metric %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// percentile returns the nearest-rank q-quantile of d, sorting it in
// place; 0 for no samples.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	k := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(k, 0)]
}

// latWindows is the most windows an open loop's latencies are split
// into for the p99.
const latWindows = 9

// windowed splits slot-ordered latencies into k consecutive windows of
// equal slot count and returns the median over the windows of each
// window's q-quantile. Failed slots (negative) are left out. The median
// over windows keeps one burst of host noise from moving a whole run.
func windowed(lat []time.Duration, q float64, k int) time.Duration {
	var per []float64
	for w := 0; w < k; w++ {
		per = append(per, float64(percentile(succeeded(lat[w*len(lat)/k:(w+1)*len(lat)/k]), q)))
	}
	return time.Duration(median(per))
}

// succeeded copies the latencies of the requests that succeeded.
func succeeded(lat []time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(lat))
	for _, d := range lat {
		if d >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// median returns the median of v (the lower middle for even counts);
// 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
