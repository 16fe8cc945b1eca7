package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"mlec/internal/failure"
	"mlec/internal/obs"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/runctl"
	"mlec/internal/syssim"
)

// countingWriter counts the bytes and lines written through it.
type countingWriter struct {
	w            io.Writer
	bytes, lines int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += len(p)
	for _, b := range p {
		if b == '\n' {
			c.lines++
		}
	}
	return c.w.Write(p)
}

// TestSysSimTracePinned holds the -trace-out bytes of the Quick syssim
// experiment at seed 1 — what `mlecsim -quick -trace-out F syssim`
// writes — to the digest recorded while the four schemes still ran one
// after another and emitted straight to the recorder. The trace is a
// function of the seed alone, however the runs are scheduled.
func TestSysSimTracePinned(t *testing.T) {
	h := sha256.New()
	cw := &countingWriter{w: h}
	if err := obs.Trace.Start(cw); err != nil {
		t.Fatal(err)
	}
	_, err := SysSimContext(context.Background(), Options{Quick: true, Seed: 1, AFR: 0.01})
	if serr := obs.Trace.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantEvents = 292467
		wantSHA    = "8d4a5c77395dd97e949123208233ff07eb7ef4cdb76e36ace12000354d007315"
	)
	if got := fmt.Sprintf("%x", h.Sum(nil)); cw.lines != wantEvents || got != wantSHA {
		t.Errorf("trace: %d events, %d bytes, sha256 %s; pinned %d events, sha256 %s",
			cw.lines, cw.bytes, got, wantEvents, wantSHA)
	}
}

// TestSysSimParallelMatchesSerial: the schemes run at once give the
// result of running them one after another through syssim.RunContext.
func TestSysSimParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 77001} {
		opts := Options{Quick: true, Seed: seed, AFR: 0.01}
		got, err := SysSimContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := &SysSimResult{Years: opts.size().sysYears, AFR: opts.afr(), Method: repair.RMin}
		for _, s := range placement.AllSchemes {
			cfg := syssim.Config{Topo: paperTopo(), Params: paperParams(), Scheme: s, Method: repair.RMin,
				SegmentsPerDisk: 60, TTF: failure.MustExponentialAFR(opts.afr())}
			st, err := syssim.RunContext(context.Background(), cfg, want.Years, seed)
			if err != nil {
				t.Fatal(err)
			}
			want.Runs = append(want.Runs, st)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: concurrent %+v, serial %+v", seed, got, want)
		}
	}
}

// TestSysSimCancelStopsEveryScheme: a cancelled or expired context
// leaves every scheme's run Partial, short of the horizon, and no worker
// running.
func TestSysSimCancelStopsEveryScheme(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expiring, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer stop()
	for name, ctx := range map[string]context.Context{"cancelled": cancelled, "deadline": expiring} {
		res, err := SysSimContext(ctx, Options{Seed: 1, AFR: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := runctl.Live(); n != 0 {
			t.Errorf("%s: %d workers still running", name, n)
		}
		if len(res.Runs) != len(placement.AllSchemes) {
			t.Fatalf("%s: %d runs, want %d", name, len(res.Runs), len(placement.AllSchemes))
		}
		for i, st := range res.Runs {
			if !st.Partial || st.SimYears >= res.Years {
				t.Errorf("%s: %v ran %g of %g years, Partial %v; want a partial run",
					name, placement.AllSchemes[i], st.SimYears, res.Years, st.Partial)
			}
		}
	}
}
