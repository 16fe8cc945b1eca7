// End-to-end proof of the package's load-bearing claim: observability
// is inert. A fixed-seed engine run must produce byte-identical stdout
// with every obs feature enabled or disabled, and the HTTP endpoint
// must serve a page the strict Prometheus parser accepts. make
// obs-smoke runs exactly these tests.
package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mlec/internal/obs"
)

// repoRoot locates the module root from this file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildBinaries compiles mlecdur and mlecburst once per test process.
func buildBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		root := repoRoot(t)
		buildDir, buildErr = os.MkdirTemp("", "obs-e2e-*")
		if buildErr != nil {
			return
		}
		for _, name := range []string{"mlecdur", "mlecburst"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, name), "./cmd/"+name)
			cmd.Dir = root
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("building %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildDir
}

func runBinary(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", filepath.Base(bin), args, err, errb.String())
	}
	return out.Bytes(), errb.Bytes()
}

// TestCLIInertness is the byte-identity check ISSUE 5 demands, extended
// with the PR 10 surface: the same seed with and without the full
// observability stack (-obs, -progress, -trace-out, -span-out,
// -run-report, -profile-dir) must print the same bytes to stdout.
func TestCLIInertness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildBinaries(t)
	cases := []struct {
		bin  string
		args []string
	}{
		{"mlecdur", []string{"-scheme", "D/D", "-sim", "-trajectories", "1000", "-seed", "7"}},
		{"mlecburst", []string{"-scheme", "D/D", "-x", "3", "-y", "40", "-trials", "3000", "-seed", "5"}},
	}
	for _, tc := range cases {
		t.Run(tc.bin, func(t *testing.T) {
			bin := filepath.Join(bins, tc.bin)
			plain, _ := runBinary(t, bin, tc.args...)
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "run.trace")
			spanPath := filepath.Join(dir, "run.spans")
			reportPath := filepath.Join(dir, "run.report.json")
			profileDir := filepath.Join(dir, "profiles")
			instrumented := append(append([]string(nil), tc.args...),
				"-obs", "127.0.0.1:0", "-trace-out", tracePath, "-progress", "25ms",
				"-span-out", spanPath, "-run-report", reportPath, "-profile-dir", profileDir)
			observed, stderrOut := runBinary(t, bin, instrumented...)
			if !bytes.Equal(plain, observed) {
				t.Fatalf("observability changed a fixed-seed run's stdout.\nplain:\n%s\nobserved:\n%s",
					plain, observed)
			}
			// Inertness extends to the fault-tolerance counters: a
			// checkpointed chaos run under full instrumentation — a torn
			// checkpoint write healed by the save retry, fault and retry
			// counters ticking — must still print the fault-free run's
			// bytes.
			chaotic := append(append([]string(nil), tc.args...),
				"-checkpoint", filepath.Join(dir, "run.ckpt"),
				"-chaos", "runctl.checkpoint.write:writeerr:nth=1,bytes=8;seed=3",
				"-obs", "127.0.0.1:0", "-progress", "25ms")
			healed, chaosErr := runBinary(t, bin, chaotic...)
			if !bytes.Equal(plain, healed) {
				t.Fatalf("healed chaos run changed a fixed-seed run's stdout.\nplain:\n%s\nchaos:\n%s",
					plain, healed)
			}
			if !strings.Contains(string(chaosErr), "chaos:") {
				t.Errorf("chaos announcement missing from stderr:\n%s", chaosErr)
			}
			if !strings.Contains(string(stderrOut), "obs: serving metrics on http://") {
				t.Errorf("endpoint announcement missing from stderr:\n%s", stderrOut)
			}
			f, err := os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			evs, err := obs.ParseTraceEvents(f)
			if err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			if tc.bin == "mlecdur" {
				promotions := 0
				for _, ev := range evs {
					if ev.Kind == obs.EvLevelPromotion {
						promotions++
					}
				}
				if promotions == 0 {
					t.Errorf("splitting run emitted no level_promotion events (%d events total)", len(evs))
				}
			}
			// The PR 10 artifacts must all be well-formed: the span file
			// through the strict span parser, the run report through its
			// schema validator, and the profile dir must hold the pprof
			// pair.
			sf, err := os.Open(spanPath)
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			recs, err := obs.ParseSpans(sf)
			if err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			if len(recs) == 0 {
				t.Error("instrumented run recorded no spans")
			}
			rf, err := os.Open(reportPath)
			if err != nil {
				t.Fatal(err)
			}
			defer rf.Close()
			rep, err := obs.ParseRunReport(rf)
			if err != nil {
				t.Fatalf("run report does not parse: %v", err)
			}
			if rep.Tool != tc.bin {
				t.Errorf("run report tool = %q, want %q", rep.Tool, tc.bin)
			}
			if rep.EventsSimulated <= 0 {
				t.Errorf("run report events_simulated = %d, want > 0", rep.EventsSimulated)
			}
			// The fingerprint must cover only the physics flags: the
			// plain and instrumented invocations describe the same run.
			if want := obs.FingerprintArgs(tc.args); rep.ConfigFingerprint != want {
				t.Errorf("run report fingerprint %q differs from the plain invocation's %q",
					rep.ConfigFingerprint, want)
			}
			for _, prof := range []string{"cpu.pprof", "heap.pprof"} {
				if fi, err := os.Stat(filepath.Join(profileDir, prof)); err != nil {
					t.Errorf("-profile-dir lacks %s: %v", prof, err)
				} else if fi.Size() == 0 {
					t.Errorf("%s is empty", prof)
				}
			}
		})
	}
}

// TestEndpointServes starts a long run with -obs, scrapes /metrics and
// /progress while it works, and validates both payloads.
func TestEndpointServes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildBinaries(t)
	cmd := exec.Command(filepath.Join(bins, "mlecburst"),
		"-x", "3", "-y", "40", "-trials", "50000000", "-seed", "1", "-obs", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "obs: serving metrics on http://"); ok {
				addrCh <- strings.TrimSuffix(rest, "/metrics")
				return
			}
		}
		close(addrCh)
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			t.Fatal("endpoint announcement never appeared on stderr")
		}
		addr = a
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the endpoint announcement")
	}

	// The engine registers its counters as it starts; poll until the
	// burst trial counter has counted a finished batch (every page
	// served meanwhile must parse). A scraper derives the trial rate
	// from this counter.
	deadline := time.Now().Add(30 * time.Second)
	for {
		page := httpGet(t, "http://"+addr+"/metrics")
		prom, err := obs.ParsePrometheus(bytes.NewReader(page))
		if err != nil {
			t.Fatalf("/metrics does not parse: %v\npage:\n%s", err, page)
		}
		if v, ok := prom.Sample("burst_pdl_trials_total"); ok && v > 0 {
			if kind := prom.Types["burst_pdl_trials_total"]; kind != "counter" {
				t.Errorf("burst_pdl_trials_total exposed as %q, want counter", kind)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never counted a burst trial; page:\n%s", page)
		}
		time.Sleep(50 * time.Millisecond)
	}

	progPage := httpGet(t, "http://"+addr+"/progress")
	var page obs.ProgressPage
	if err := json.Unmarshal(progPage, &page); err != nil {
		t.Fatalf("/progress does not decode: %v\npage:\n%s", err, progPage)
	}
	found := false
	for _, task := range page.Tasks {
		if strings.HasPrefix(task.Name, "burst.pdl") && task.Done > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("/progress shows no running burst.pdl task\npage:\n%s", progPage)
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		resp, err := client.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return nil
}
