package main

import (
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMDrainsFromFirstBanner pins the shutdown contract at its
// earliest moments. Without -state-dir there is no replay pass holding
// readiness back, so /readyz answers 200 as soon as the listener
// serves. A SIGTERM sent the instant the listen banner is printed, or
// the instant the first 200 arrives, must drain the daemon (exit 0),
// not kill it with the default signal action.
func TestSIGTERMDrainsFromFirstBanner(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real daemons")
	}
	bin := buildDaemon(t)
	for round := 0; round < 4; round++ {
		cmd, base := startDaemon(t, bin)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		afterReady := round%2 == 1
		if afterReady {
			deadline := time.Now().Add(10 * time.Second)
			for {
				resp, err := http.Get(base + "/readyz")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
				}
				if time.Now().After(deadline) {
					_ = cmd.Process.Kill()
					<-done
					t.Fatalf("round %d: daemon at %s never became ready", round, base)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d (after ready: %v): daemon exited with %v after SIGTERM, want exit code 0",
					round, afterReady, err)
			}
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Fatalf("round %d: daemon did not exit within 30s of SIGTERM", round)
		}
	}
}
