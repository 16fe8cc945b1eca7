package main

import (
	"runtime"
	"runtime/debug"

	"mlec/internal/obs"
)

// provenance says what produced a result: numbers from different commits,
// CPUs or Go versions are not comparable, so every result carries these.
type provenance struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	GOAMD64    string  `json:"goamd64,omitempty"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

func collectProvenance(opts runOptions) provenance {
	p := provenance{
		Seed: opts.seed, Seconds: opts.seconds,
		Commit:    opts.commit,
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		CPUModel: obs.CPUModel(),
		NumCPU:   runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" {
				p.GOAMD64 = s.Value
			}
		}
	}
	return p
}
