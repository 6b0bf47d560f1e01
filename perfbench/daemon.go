package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mbrim/internal/core"
)

// daemonFlags are the exact mbrimd flags of daemon-k32, besides the
// fresh -state-dir every start gets. -max-active matches the two
// clients; -retain-runs bounds the run table so peak RSS plateaus
// instead of growing with the op count; -pprof exposes the heap
// profile whose MemStats header carries the daemon's TotalAlloc.
var daemonFlags = []string{"-addr", "127.0.0.1:0", "-max-active", "2", "-retain-runs", "16", "-pprof"}

// daemonMetricsEvery is how often (in ops) client 0 also scrapes
// /metrics.
const daemonMetricsEvery = 10

// daemonK is the problem size of daemon-k32.
const daemonK = 32

// daemon drives a real mbrimd child over HTTP.
type daemon struct {
	quality int
	seed    uint64
	canon   *problem
	inst    *problem

	cmd    *exec.Cmd
	dir    string // the -state-dir, removed once the daemon has exited
	exited chan error
	base   string
	client *http.Client

	// spans, when set, receives each op's request phases (the traced
	// run), under spanParent.
	spans      *spanLog
	spanParent int
}

func openDaemon(o *options) (session, error) {
	root := filepath.Join(o.buildDir, "state")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "mbrimd-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(o.buildDir, "mbrimd"), append(append([]string(nil), daemonFlags...), "-state-dir", dir)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("start mbrimd: %w", err)
	}
	d := &daemon{quality: o.quality, seed: o.seed,
		canon: newProblem(daemonK, canonicalGraphSeed), inst: newProblem(daemonK, runGraphSeed(o.seed)),
		cmd: cmd, dir: dir, exited: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
			Timeout:   60 * time.Second,
		}}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mbrimd: listening on "); ok {
				addr <- a
			}
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case err := <-d.exited:
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("mbrimd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("mbrimd did not report its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mbrimd not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends a daemon that failed to start and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	_ = os.RemoveAll(d.dir)
}

// stop sends SIGTERM and checks the daemon drains and exits 0.
func (d *daemon) stop(chk *checks) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		chk.failf("mbrimd: SIGTERM: %v", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			chk.failf("mbrimd: exit on SIGTERM: %v", err)
		}
		if err := os.RemoveAll(d.dir); err != nil {
			chk.failf("mbrimd: remove state dir: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.kill()
		chk.failf("mbrimd: no exit 30s after SIGTERM")
	}
}

// submitBody is the POST /runs request of op (graphSeed, seed).
func submitBody(graphSeed, seed uint64) string {
	return fmt.Sprintf(`{"engine":"mbrim","k":%d,"graphSeed":%d,"chips":4,"durationNS":100,"sampleEveryNS":1,"seed":%d}`,
		daemonK, graphSeed, seed)
}

// daemonRequest is the detached core.Request the daemon builds from
// submitBody (runs.buildRequest with the default backend).
func daemonRequest(p *problem, seed uint64) core.Request {
	return core.Request{Kind: core.MBRIMConcurrent, Model: p.m, Graph: p.g, Seed: seed,
		Chips: 4, DurationNS: 100, SampleEveryNS: 1, Backend: "auto"}
}

// runStatus is the slice of runs.Status perfbench reads.
type runStatus struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	EventsDropped int64  `json:"eventsDropped"`
	QueueWaitNS   int64  `json:"queueWaitNS"`
}

// outcomeBody is the slice of GET /runs/{id}/outcome perfbench reads.
type outcomeBody struct {
	State  string             `json:"state"`
	Energy float64            `json:"energy"`
	Cut    float64            `json:"cut"`
	WallNS int64              `json:"wallNS"`
	Stats  map[string]float64 `json:"stats"`
	Spins  []int8             `json:"spins"`
	Error  string             `json:"error"`
}

func (d *daemon) op(c, i int) *opRecord {
	gs, seed, fixed := opSeeds(d.seed, i, d.quality)
	p := d.inst
	if fixed {
		p = d.canon
	}
	rec := &opRecord{index: i, quality: fixed}
	if err := d.runOp(c, i, p, gs, seed, rec); err != nil {
		rec.err = fmt.Errorf("op %d (graphSeed %d seed %d): %w", i, gs, seed, err)
	}
	return rec
}

func (d *daemon) runOp(c, i int, p *problem, graphSeed, seed uint64, rec *opRecord) error {
	t0 := time.Now()
	var st runStatus
	if err := d.call(http.MethodPost, "/runs", submitBody(graphSeed, seed), http.StatusAccepted, &st); err != nil {
		return err
	}
	t1 := time.Now()
	done, events, err := d.follow(st.ID)
	if err != nil {
		return err
	}
	t2 := time.Now()
	var snap map[string]any
	if err := d.call(http.MethodGet, "/runs/"+st.ID+"/diag", "", http.StatusOK, &snap); err != nil {
		return err
	}
	t3 := time.Now()
	var out outcomeBody
	if err := d.call(http.MethodGet, "/runs/"+st.ID+"/outcome", "", http.StatusOK, &out); err != nil {
		return err
	}
	t4 := time.Now()
	rec.lat = t4.Sub(t0)
	rec.phases = phases{submit: t1.Sub(t0), stream: t2.Sub(t1), diag: t3.Sub(t2), outcome: t4.Sub(t3)}
	if c == 0 && i%daemonMetricsEvery == 0 {
		if err := d.call(http.MethodGet, "/metrics", "", http.StatusOK, nil); err != nil {
			return err
		}
		rec.phases.metrics = time.Since(t4)
	}
	if d.spans != nil {
		op := d.spans.add("daemon.op", d.spanParent, c+1, t0, t4)
		d.spans.add("POST /runs", op, c+1, t0, t1)
		d.spans.add("GET /runs/{id}/events", op, c+1, t1, t2)
		d.spans.add("GET /runs/{id}/diag", op, c+1, t2, t3)
		d.spans.add("GET /runs/{id}/outcome", op, c+1, t3, t4)
		if rec.phases.metrics > 0 {
			d.spans.add("GET /metrics", d.spanParent, c+1, t4, t4.Add(rec.phases.metrics))
		}
	}
	rec.events, rec.dropped = events, done.EventsDropped
	rec.queueWait = time.Duration(done.QueueWaitNS)
	rec.energy, rec.spins, rec.wallNS = out.Energy, out.Spins, out.WallNS
	if done.State != "completed" || out.State != "completed" {
		return fmt.Errorf("run %s ended %q/%q: %s", st.ID, done.State, out.State, out.Error)
	}
	if snap == nil {
		return fmt.Errorf("run %s: empty diag snapshot", st.ID)
	}
	if err := p.check(out.Spins, out.Energy, out.Cut); err != nil {
		return err
	}
	rec.add(out.Cut, out.Stats)
	return nil
}

// call does one request and decodes a JSON reply into v (nil discards
// the body).
func (d *daemon) call(method, path, body string, want int, v any) error {
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// follow reads the run's SSE stream (every retained event, then the
// live tail) until the server closes it after the done event.
func (d *daemon) follow(id string) (runStatus, int64, error) {
	var done runStatus
	resp, err := d.client.Get(d.base + "/runs/" + id + "/events?replay=4096")
	if err != nil {
		return done, 0, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return done, 0, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var events int64
	var kind string
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = line[len("event: "):]
			if kind == "trace" {
				events++
			}
		case strings.HasPrefix(line, "data: ") && kind == "done":
			if err := json.Unmarshal([]byte(line[len("data: "):]), &done); err != nil {
				return done, events, fmt.Errorf("events: done: %w", err)
			}
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		return done, events, fmt.Errorf("events: %w", err)
	}
	if !sawDone {
		return done, events, errors.New("events: stream closed without a done event")
	}
	return done, events, nil
}

func (d *daemon) usage() (usage, error) {
	pid := d.cmd.Process.Pid
	cpu, err := procCPU(pid)
	if err != nil {
		return usage{}, err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return usage{}, err
	}
	alloc, err := d.totalAlloc()
	if err != nil {
		return usage{}, err
	}
	return usage{cpu: cpu, peakRSSMiB: rss, allocBytes: alloc}, nil
}

// totalAlloc reads the daemon's runtime.MemStats.TotalAlloc from the
// header of its debug heap profile.
func (d *daemon) totalAlloc() (uint64, error) {
	resp, err := d.client.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("mbrimd heap profile has no TotalAlloc")
}

// finish checks the fixed-seed outcomes against a detached core.Solve
// of the same request, then stops the daemon.
func (d *daemon) finish(recs []*opRecord, chk *checks) {
	for _, r := range recs {
		if !r.quality || r.err != nil {
			continue
		}
		_, seed, _ := opSeeds(d.seed, r.index, d.quality)
		out, err := core.Solve(daemonRequest(d.canon, seed))
		switch {
		case err != nil:
			chk.failf("op %d: detached reference solve: %v", r.index, err)
		case !bytes.Equal(int8Bytes(out.Spins), int8Bytes(r.spins)),
			math.Float64bits(out.Energy) != math.Float64bits(r.energy),
			math.Float64bits(out.Cut) != math.Float64bits(r.cut):
			chk.failf("op %d: mbrimd outcome (energy %v cut %v) differs from detached core.Solve (energy %v cut %v)",
				r.index, r.energy, r.cut, out.Energy, out.Cut)
		}
	}
	d.stop(chk)
}

func int8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}
