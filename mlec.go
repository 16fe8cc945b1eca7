// Package mlec is a library for designing and analyzing Multi-Level
// Erasure Coding (MLEC) storage systems at datacenter scale, reproducing
// "Design Considerations and Analysis of Multi-Level Erasure Coding in
// Large-Scale Data Centers" (Wang et al., SC '23).
//
// MLEC performs erasure coding at two levels: a network-level (kn+pn)
// code across racks over local (kl+pl) codes inside enclosures. The
// package provides:
//
//   - System: a byte-accurate in-memory MLEC storage cluster with the
//     full two-level write path, degraded reads, failure injection, the
//     paper's four repair methods (R_ALL, R_FCO, R_HYB, R_MIN), and
//     cross-rack traffic metering;
//   - analysis entry points for the paper's evaluation: burst PDL
//     heatmaps, repair traffic/time, catastrophic-pool rates via
//     multilevel splitting, Markov-chain verification, durability
//     composition, encoding throughput, and SLEC/LRC comparisons;
//   - the experiment registry regenerating every table and figure
//     (see cmd/mlecsim).
//
// The zero configuration mirrors the paper's Section 3 setup: 60 racks ×
// 8 enclosures × 120 disks of 20 TB, (10+2)/(17+3) MLEC, 128 KiB chunks,
// repair bandwidth capped at 20%, 1% AFR, 30-minute failure detection.
package mlec

import (
	"context"
	"io"

	"mlec/internal/cluster"
	"mlec/internal/experiments"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

// Topology describes the datacenter; alias of the internal type so
// callers can construct custom layouts.
type Topology = topology.Config

// DiskID addresses a disk by rack/enclosure/disk coordinates.
type DiskID = topology.DiskID

// DefaultTopology returns the paper's 57,600-disk datacenter.
func DefaultTopology() Topology { return topology.Default() }

// Params holds the (kn+pn)/(kl+pl) code parameters.
type Params = placement.Params

// DefaultParams returns the paper's (10+2)/(17+3) configuration.
func DefaultParams() Params { return placement.DefaultParams() }

// Scheme selects clustered/declustered placement per level.
type Scheme = placement.Scheme

// The four MLEC schemes of the paper's Figure 3.
var (
	SchemeCC = placement.SchemeCC
	SchemeCD = placement.SchemeCD
	SchemeDC = placement.SchemeDC
	SchemeDD = placement.SchemeDD
)

// AllSchemes lists the four schemes in the paper's order.
var AllSchemes = placement.AllSchemes

// RepairMethod is one of the paper's four repair methods.
type RepairMethod = repair.Method

// Repair methods, from simplest to optimal (§2.4).
const (
	RepairAll        = repair.RAll
	RepairFailedOnly = repair.RFCO
	RepairHybrid     = repair.RHYB
	RepairMinimum    = repair.RMin
)

// AllRepairMethods lists the methods in the paper's order.
var AllRepairMethods = repair.AllMethods

// Config assembles a System.
type Config struct {
	Topology Topology
	Params   Params
	Scheme   Scheme
	// ChunkBytes overrides the stored-object chunk size (defaults to
	// the topology's chunk size; examples use small chunks).
	ChunkBytes int
	// Seed drives the pseudorandom declustered placement.
	Seed int64
}

// DefaultConfig returns the paper's setup with the C/D scheme (the
// best-durability scheme under optimized repair, §4.2.3 F#4).
func DefaultConfig() Config {
	return Config{
		Topology: DefaultTopology(),
		Params:   DefaultParams(),
		Scheme:   SchemeCD,
		Seed:     1,
	}
}

// System is a live in-memory MLEC storage cluster.
type System struct {
	c *cluster.Cluster
}

// FailureReport is the paper's Table 1 damage classification.
type FailureReport = cluster.FailureReport

// ErrDataLoss reports an unrecoverable read (a lost network stripe).
var ErrDataLoss = cluster.ErrDataLoss

// NewSystem builds a System.
func NewSystem(cfg Config) (*System, error) {
	c, err := cluster.New(cluster.Config{
		Topo:       cfg.Topology,
		Params:     cfg.Params,
		Scheme:     cfg.Scheme,
		ChunkBytes: cfg.ChunkBytes,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &System{c: c}, nil
}

// Write stores an object through both MLEC encoding levels.
func (s *System) Write(name string, data []byte) error { return s.c.Write(name, data) }

// Read returns an object, reconstructing through local and network
// parities as needed. Returns ErrDataLoss when unrecoverable.
func (s *System) Read(name string) ([]byte, error) { return s.c.Read(name) }

// ObjectStripeBytes returns the user-data bytes of one network stripe —
// writes are padded to this granularity.
func (s *System) ObjectStripeBytes() int { return s.c.NetStripeDataBytes() }

// FailDisk marks the disk at the given coordinates failed, discarding
// its contents.
func (s *System) FailDisk(id DiskID) { s.c.FailDiskAt(id) }

// Report classifies the current damage per the paper's Table 1.
func (s *System) Report() FailureReport { return s.c.Report() }

// CatastrophicPools returns the local pools that currently require
// network-level repair.
func (s *System) CatastrophicPools() []int { return s.c.CatastrophicPools() }

// Repair restores all damage: catastrophic pools with the given method,
// the rest locally. Failed disks are replaced in place. A method outside
// the four is refused with an error before anything changes.
func (s *System) Repair(m RepairMethod) error { return s.c.Repair(m) }

// Traffic reports the bytes moved by repairs so far.
type Traffic struct {
	CrossRackRead    float64
	CrossRackWritten float64
	LocalRead        float64
	LocalWritten     float64
}

// CrossRackTotal returns cross-rack read+written bytes.
func (t Traffic) CrossRackTotal() float64 { return t.CrossRackRead + t.CrossRackWritten }

// Traffic returns the repair-traffic meters.
func (s *System) Traffic() Traffic {
	return Traffic{
		CrossRackRead:    s.c.CrossRackRead,
		CrossRackWritten: s.c.CrossRackWritten,
		LocalRead:        s.c.LocalRead,
		LocalWritten:     s.c.LocalWritten,
	}
}

// ResetTraffic zeroes the traffic meters.
func (s *System) ResetTraffic() { s.c.ResetTraffic() }

// ExperimentOptions tunes the paper-experiment drivers.
type ExperimentOptions = experiments.Options

// Experiments lists the 22 registered experiment ids in sorted order: the
// paper's tables and figures (fig1, fig5…fig16, tab1, tab2, sec514,
// sec524), the full-system simulation (syssim) and the four ablations
// (ablation-cores, ablation-detection, ablation-poolsize,
// ablation-stripewidth).
func Experiments() []string { return experiments.List() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// RunExperiment regenerates one of the paper's tables or figures,
// rendering to w. RunExperiment is RunExperimentContext without
// cancellation.
func RunExperiment(id string, opts ExperimentOptions, w io.Writer) error {
	return experiments.RunContext(context.Background(), id, opts, w)
}

// RunExperimentContext is RunExperiment under run control: cancellation
// or a deadline stops the Monte-Carlo engines at the next trial
// boundary; with opts.CheckpointDir set, interrupted campaigns resume
// deterministically on the next identical invocation.
func RunExperimentContext(ctx context.Context, id string, opts ExperimentOptions, w io.Writer) error {
	return experiments.RunContext(ctx, id, opts, w)
}

// ScrubReport summarizes a cluster-wide parity consistency check.
type ScrubReport = cluster.ScrubReport

// Scrub re-verifies every fully-present stripe against both levels of
// parity — the background consistency check a production system runs
// continuously. It modifies nothing.
func (s *System) Scrub() (ScrubReport, error) { return s.c.Scrub() }

// Delete removes an object, freeing its chunks.
func (s *System) Delete(name string) error { return s.c.Delete(name) }

// Objects lists the stored object names.
func (s *System) Objects() []string { return s.c.Objects() }

// ObjectSize returns an object's user-data length.
func (s *System) ObjectSize(name string) (int, error) { return s.c.ObjectSize(name) }

// Rebalance evens out per-disk load inside every declustered local pool —
// the background data migration that follows spare-space repairs (§2.1).
// It returns the number of chunks moved and errors on clustered layouts.
func (s *System) Rebalance() (int, error) { return s.c.RebalanceAll() }
