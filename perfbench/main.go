// Command perfbench is the repository benchmark: one process that
// times calls into the solver stack's public layers and prints one
// JSON result line.
//
// Usage (from the repository root; run.sh builds this binary and the
// mbrimd daemon first):
//
//	perfbench --workload mbrim-k256 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the run is an untraced closed loop and reports the
// end-to-end metrics; with --trace 1 it runs the layer suite and
// reports the per-layer metrics (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// buildDir holds the mbrimd binary, state directories, the span
	// files and anything else a run leaves behind.
	buildDir string
	// golden is the exact-repeat record; updateGolden rewrites it from
	// this run instead of checking against it.
	golden       string
	updateGolden bool
	// setupProbe makes the process build its workload and exit: the
	// parent times it to measure set-up (see measureSetup).
	setupProbe bool
	// quality is the workload's fixed-seed list length.
	quality int
}

// setupProbes is how many times set-up is measured per run.
const setupProbes = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseOptions(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 40, "measured seconds")
	traceN := fs.Int("trace", 0, "1 runs the traced layer suite, 0 the untraced closed loop")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory holding the mbrimd binary, state dirs and span files")
	fs.StringVar(&o.golden, "golden", "perfbench/golden.json", "exact-repeat record")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite the exact-repeat record from this run")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "build the workload, print ready and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if *traceN != 0 && *traceN != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, not %d", *traceN)
	}
	o.trace = *traceN == 1
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	o.quality = workloads[o.workload].quality
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.setupProbe {
		return setupProbeMain(o, stdout, stderr)
	}
	var res *result
	if o.trace {
		res, err = runTraced(o, stderr)
	} else {
		res, err = runLoop(o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks collects output-check failures; any failure makes the run
// incorrect.
type checks struct {
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

func (c *checks) report(w io.Writer) {
	const show = 20
	for i, f := range c.failures {
		if i == show {
			fmt.Fprintf(w, "perfbench: ... and %d more check failures\n", len(c.failures)-show)
			break
		}
		fmt.Fprintln(w, "perfbench: check failed:", f)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
