package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for perfbench when perfbench
// re-executes itself to probe set-up.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-probe" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildDaemon builds mbrimd from this checkout into dir.
func buildDaemon(t *testing.T, dir string) {
	t.Helper()
	out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "mbrimd"), "mbrim/cmd/mbrimd").CombinedOutput()
	if err != nil {
		t.Fatalf("build mbrimd: %v\n%s", err, out)
	}
}

// runBench runs perfbench in-process and decodes its last line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d failed=%d\n%s",
			args, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, res result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload for a few ops untraced, then traced,
// at the default fixed-seed lists, so the exact-repeat record of
// golden.json is checked too. Every metric BENCHMARK.json names must
// come out with its unit and every output check must pass.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	dir := t.TempDir()
	buildDaemon(t, dir)
	for _, w := range spec.Workloads {
		common := []string{"--workload", w.Name, "--seed", "7", "--build-dir", dir, "--golden", "golden.json"}
		t.Run(w.Name, func(t *testing.T) {
			res := runBench(t, append([]string{"--seconds", "0.2", "--trace", "0"}, common...)...)
			checkMetrics(t, res, spec.EndToEnd)
			if v := res.Metrics["success_frac"].Value; v != 1 {
				t.Errorf("success_frac = %v", v)
			}
		})
		t.Run(w.Name+"/traced", func(t *testing.T) {
			res := runBench(t, append([]string{"--seconds", "0.5", "--trace", "1"}, common...)...)
			checkMetrics(t, res, spec.PerLayer)
			for _, suffix := range []string{".bench.trace.json", ".solve.trace.json"} {
				path := filepath.Join(dir, "trace", w.Name+"-seed7"+suffix)
				if st, err := os.Stat(path); err != nil || st.Size() == 0 {
					t.Errorf("span file %s: %v", path, err)
				}
			}
		})
	}
}

// TestCheckRejectsTamperedOutcomes pins that the per-op output check
// catches a wrong energy, a wrong cut and a spin that is not ±1.
func TestCheckRejectsTamperedOutcomes(t *testing.T) {
	p := newProblem(16, canonicalGraphSeed)
	spins := make([]int8, 16)
	for i := range spins {
		spins[i] = int8(1 - 2*(i%2))
	}
	energy := p.m.Energy(spins)
	cut := p.g.CutValue(spins)
	if err := p.check(spins, energy, cut); err != nil {
		t.Fatalf("honest outcome rejected: %v", err)
	}
	if p.check(spins, energy+1, cut) == nil {
		t.Error("wrong energy accepted")
	}
	if p.check(spins, energy, cut+1) == nil {
		t.Error("wrong cut accepted")
	}
	bad := append([]int8(nil), spins...)
	bad[3] = 0
	if p.check(bad, energy, cut) == nil {
		t.Error("non-spin value accepted")
	}
	if p.check(spins[:15], energy, cut) == nil {
		t.Error("short spin vector accepted")
	}
}

// TestPickTimed pins the segment rule: segments above maxStealFrac are
// set aside unless that leaves fewer than half, and of the rest the
// timedSegments slowest are timed.
func TestPickTimed(t *testing.T) {
	// mk builds 1-s segments from (steal %, ops) pairs.
	mk := func(pairs ...[2]int) []*segment {
		var segs []*segment
		for _, p := range pairs {
			// 1 s on every CPU is 100 ticks per CPU.
			segs = append(segs, &segment{elapsed: time.Second, steal: int64(p[0] * runtime.NumCPU()),
				recs: make([]*opRecord, p[1])})
		}
		return segs
	}
	timed := func(segs []*segment) (k []int) {
		for i, s := range segs {
			if s.timed {
				k = append(k, i)
			}
		}
		return k
	}
	// Quiet host: the five slowest of all eight are timed.
	quiet := mk([2]int{1, 50}, [2]int{0, 90}, [2]int{1, 55}, [2]int{0, 85}, [2]int{1, 60}, [2]int{2, 95}, [2]int{0, 52}, [2]int{1, 70})
	if over := pickTimed(quiet); over != 0 || !slices.Equal(timed(quiet), []int{0, 2, 4, 6, 7}) {
		t.Errorf("quiet host: timed %v, %d over the steal limit", timed(quiet), over)
	}
	// Two stolen segments are slowest but set aside.
	twoStolen := mk([2]int{30, 20}, [2]int{0, 90}, [2]int{1, 55}, [2]int{40, 10}, [2]int{1, 60}, [2]int{2, 95}, [2]int{0, 52}, [2]int{1, 70})
	if over := pickTimed(twoStolen); over != 0 || !slices.Equal(timed(twoStolen), []int{1, 2, 4, 6, 7}) {
		t.Errorf("two stolen: timed %v, %d over the steal limit", timed(twoStolen), over)
	}
	// Most segments stolen: the least-stolen half stays eligible.
	stolen := mk([2]int{30, 20}, [2]int{20, 30}, [2]int{40, 10}, [2]int{8, 40}, [2]int{2, 50}, [2]int{50, 5}, [2]int{3, 45}, [2]int{9, 35})
	if over := pickTimed(stolen); over != 2 || !slices.Equal(timed(stolen), []int{3, 4, 6, 7}) {
		t.Errorf("stolen host: timed %v, %d over the steal limit", timed(stolen), over)
	}
}
