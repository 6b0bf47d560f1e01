package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// The timed loop is cut into loopSegments segments of equal length, and
// the timing, CPU and allocation metrics come from timedSegments of
// them. The reference host switches between speed states about 1.7x
// apart that hold for seconds to minutes; the share of a run spent in
// the fast state varies from run to run, and a median over the mix
// jumps between the states' medians. The slow state is present in
// nearly every run, so the run times the slowest segments, which
// repeat. Before that, a segment in which hypervisor steal took more
// than maxStealFrac of the host's CPU time is set aside, unless that
// would leave fewer than half the segments: then the least-stolen half
// stays eligible. Steal that high (up to a third of the CPU time was
// seen) slows the workloads by up to 2x; undisturbed segments stay
// near 1%.
const (
	loopSegments  = 16
	timedSegments = 5
	maxStealFrac  = 0.05
)

// segment is one timed stretch of the closed loop.
type segment struct {
	recs    []*opRecord
	elapsed time.Duration
	u0, u1  usage
	steal   int64   // /proc/stat steal ticks over the segment, -1 if unknown
	refMS   float64 // reference loop just before the segment
	timed   bool
}

// stealFrac is the share of the host's CPU time stolen during the
// segment; 0 where /proc/stat is unreadable.
func (s *segment) stealFrac() float64 {
	if s.steal < 0 {
		return 0
	}
	return float64(time.Duration(s.steal)*clockTick) / float64(s.elapsed*time.Duration(runtime.NumCPU()))
}

func (s *segment) opsPerS() float64 { return float64(len(s.recs)) / s.elapsed.Seconds() }

// pickTimed marks the segments whose timings count: of those at or
// below maxStealFrac (or the least-stolen half, if fewer are), the
// timedSegments with the lowest op rate. It returns how many timed
// segments exceed maxStealFrac.
func pickTimed(segs []*segment) (overTimed int) {
	order := slices.Clone(segs)
	slices.SortStableFunc(order, func(a, b *segment) int { return cmp.Compare(a.stealFrac(), b.stealFrac()) })
	eligible := (len(order) + 1) / 2
	for eligible < len(order) && order[eligible].stealFrac() <= maxStealFrac {
		eligible++
	}
	order = order[:eligible]
	slices.SortStableFunc(order, func(a, b *segment) int { return cmp.Compare(a.opsPerS(), b.opsPerS()) })
	for _, sg := range order[:min(timedSegments, len(order))] {
		sg.timed = true
		if sg.stealFrac() > maxStealFrac {
			overTimed++
		}
	}
	return overTimed
}

// runLoop is the untraced run: measure set-up, run the closed loop for
// o.seconds, check every output and report the end-to-end metrics.
func runLoop(o *options, stderr io.Writer) (*result, error) {
	w := workloads[o.workload]
	quality := o.quality
	var chk checks
	// Set-up is measured on both sides of the loop, so that its median
	// does not hang on the host's speed at one instant.
	before := (setupProbes + 1) / 2
	setups, sess, err := measureSetup(o, w, before, true, &chk)
	if err != nil {
		return nil, err
	}
	// Collect set-up garbage before the loop, so the peak RSS measured
	// over the loop does not depend on where the collector happened to
	// stand when set-up ended.
	runtime.GC()
	segLen := time.Duration(o.seconds * float64(time.Second) / loopSegments)
	segs := make([]*segment, loopSegments)
	next := 0
	for k := range segs {
		sg := &segment{refMS: refLoopMS()}
		steal0 := stealTicks()
		if sg.u0, err = sess.usage(); err == nil {
			sg.recs, sg.elapsed = closedLoop(sess, w.clients, next, quality, segLen)
			sg.u1, err = sess.usage()
		}
		if err != nil {
			sess.finish(nil, &chk)
			return nil, fmt.Errorf("usage around segment %d: %w", k, err)
		}
		sg.steal = -1
		if steal1 := stealTicks(); steal0 >= 0 && steal1 >= 0 {
			sg.steal = steal1 - steal0
		}
		next += len(sg.recs)
		segs[k] = sg
	}
	overTimed := pickTimed(segs)
	endRefMS := refLoopMS()
	var all []*opRecord
	for _, sg := range segs {
		all = append(all, sg.recs...)
	}
	sess.finish(all, &chk)
	after, _, err := measureSetup(o, w, setupProbes-before, false, &chk)
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)

	// Every op counts for correctness; only timed segments count for
	// timing, CPU and allocation.
	okOps := 0
	for _, r := range all {
		if r.err != nil {
			chk.failf("%v", r.err)
		} else {
			okOps++
		}
	}
	var lat []float64
	var elapsed, cpu time.Duration
	var alloc uint64
	var timedOps int
	for _, sg := range segs {
		if !sg.timed {
			continue
		}
		for _, r := range sg.recs {
			if r.err == nil {
				lat = append(lat, ms(r.lat))
			}
		}
		timedOps += len(sg.recs)
		elapsed += sg.elapsed
		cpu += sg.u1.cpu - sg.u0.cpu
		alloc += sg.u1.allocBytes - sg.u0.allocBytes
	}
	ex := exactOf(all)
	checkExact(o, ex, &chk)

	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d ops (%d fixed-seed), %d timed in %.2fs, p90 has %d samples beyond it\n",
		o.workload, o.seed, len(all), quality, timedOps, elapsed.Seconds(), len(lat)-int(math.Ceil(0.9*float64(len(lat)))))
	for k, sg := range segs {
		state := "untimed"
		if sg.timed {
			state = "timed"
		}
		fmt.Fprintf(stderr, "perfbench: segment %d %s: %d ops in %.2fs, host.ref_loop_ms=%.3f steal=%.1f%%\n",
			k, state, len(sg.recs), sg.elapsed.Seconds(), sg.refMS, 100*sg.stealFrac())
	}
	if overTimed > 0 {
		fmt.Fprintf(stderr, "perfbench: host disturbed: %d timed segments have steal above %.0f%%; the timings are the host's\n",
			overTimed, 100*maxStealFrac)
	}
	fmt.Fprintf(stderr, "perfbench: host.ref_loop_ms start=%.3f end=%.3f\n", segs[0].refMS, endRefMS)
	fmt.Fprintf(stderr, "perfbench: exact %s\n", ex)
	chk.report(stderr)

	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	n := float64(timedOps)
	u := segs[len(segs)-1].u1
	res := &result{
		Correct:   chk.ok(),
		Attempted: len(all),
		Failed:    len(all) - okOps,
		Metrics: map[string]metric{
			"setup_s":         {median(setupS), "s"},
			"ops_per_s":       {float64(len(lat)) / elapsed.Seconds(), "1/s"},
			"latency_ms_p50":  {median(lat), "ms"},
			"latency_ms_p90":  {quantile(lat, 0.9), "ms"},
			"success_frac":    {float64(okOps) / float64(len(all)), "frac"},
			"cpu_s_per_op":    {cpu.Seconds() / n, "s"},
			"max_rss_mb":      {u.peakRSSMiB, "MiB"},
			"alloc_mb_per_op": {float64(alloc) / n / (1 << 20), "MiB"},
			"cut_mean":        {ex.CutSum / float64(ex.Solves), "cut"},
		},
	}
	return res, nil
}

// measureSetup measures set-up n times and, when keep is set, returns
// an open session for the loop. For the daemon, set-up is spawning
// mbrimd until /readyz answers 200; every probe daemon but the kept one
// then serves the first fixed-seed op and is stopped, so that it too is
// checked to exit 0 on SIGTERM at the end of a run. For the detached
// workloads, set-up is a fresh perfbench process building the workload's
// inputs, from exec until it reports ready; the kept session is then
// built in this process.
func measureSetup(o *options, w workload, n int, keep bool, chk *checks) ([]time.Duration, session, error) {
	var setups []time.Duration
	if o.workload == "daemon-k32" {
		for k := 0; k < n; k++ {
			start := time.Now()
			s, err := w.open(o)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, time.Since(start))
			if keep && k == n-1 {
				return setups, s, nil
			}
			rec := s.op(0, 0)
			if rec.err != nil {
				chk.failf("set-up probe: %v", rec.err)
			}
			s.finish(nil, chk)
		}
		return setups, nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < n; k++ {
		d, err := probeSetup(exe, o)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
	}
	if !keep {
		return setups, nil, nil
	}
	sess, err := w.open(o)
	if err != nil {
		return nil, nil, err
	}
	return setups, sess, nil
}

// probeSetup starts a perfbench process in --setup-probe mode and times
// it from start until it reports ready.
func probeSetup(exe string, o *options) (time.Duration, error) {
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--setup-probe")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	switch {
	case rerr != nil || line != "ready\n":
		return 0, fmt.Errorf("setup probe: no ready line (%q, %v, exit %v)", line, rerr, werr)
	case werr != nil:
		return 0, fmt.Errorf("setup probe: %w", werr)
	}
	return d, nil
}

// setupProbeMain is the --setup-probe child: open the workload, report
// ready, exit.
func setupProbeMain(o *options, stdout, stderr io.Writer) int {
	if _, err := workloads[o.workload].open(o); err != nil {
		fmt.Fprintln(stderr, "perfbench: setup probe:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	return 0
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// exact is the exact-repeat record of one run's fixed-seed ops: sums
// that every run of the same code must reproduce bit for bit.
type exact struct {
	Ops          int     `json:"ops"`
	Solves       int     `json:"solves"`
	CutSum       float64 `json:"cutSum"`
	Flips        float64 `json:"flips"`
	TrafficBytes float64 `json:"trafficBytes"`
	// Epochs is counted from the epoch spans, so only the traced run
	// records it.
	Epochs int64 `json:"epochs,omitempty"`
}

func (e exact) String() string {
	return fmt.Sprintf("ops=%d solves=%d cutSum=%v flips=%v trafficBytes=%v epochs=%d",
		e.Ops, e.Solves, e.CutSum, e.Flips, e.TrafficBytes, e.Epochs)
}

func exactOf(recs []*opRecord) exact {
	var e exact
	for _, r := range recs {
		if !r.quality || r.err != nil {
			continue
		}
		e.Ops++
		e.Solves += r.solves
		e.CutSum += r.cut
		e.Flips += r.flips
		e.TrafficBytes += r.traffic
	}
	return e
}

// checkExact compares a run's exact-repeat record with the stored one
// (or stores it, under --update-golden). A mismatch fails the run: a
// change that was meant to move only host time has changed a
// trajectory.
func checkExact(o *options, got exact, chk *checks) {
	key := o.workload
	if o.trace {
		key = "traced"
	}
	golden, err := readGolden(o.golden)
	if err != nil && !(o.updateGolden && errors.Is(err, os.ErrNotExist)) {
		chk.failf("exact: %v", err)
		return
	}
	if o.updateGolden {
		if golden == nil {
			golden = map[string]exact{}
		}
		golden[key] = got
		if err := writeGolden(o.golden, golden); err != nil {
			chk.failf("exact: %v", err)
		}
		return
	}
	want, ok := golden[key]
	switch {
	case !ok:
		chk.failf("exact: %s has no %q record", o.golden, key)
	case want != got:
		chk.failf("exact: fixed-seed record %s differs from %s's %s; a trajectory changed (rerun with --update-golden only if that is intended)",
			got, o.golden, want)
	}
}

func readGolden(path string) (map[string]exact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g map[string]exact
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func writeGolden(path string, g map[string]exact) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
