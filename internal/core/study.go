package core

import (
	"fmt"
	"time"

	"wearwild/internal/simtime"
	"wearwild/internal/stream"

	"wearwild/internal/gen/sim"
)

// Config controls the study.
type Config struct {
	// SessionGap is the usage boundary (§5.1). Zero selects the paper's
	// one minute.
	SessionGap time.Duration
	// Workers bounds analysis parallelism (0 = one worker per CPU).
	// Results are byte-identical at every setting.
	Workers int
	// Shards is the per-subscriber shard count for the shard-and-merge
	// aggregations (0 selects shard.DefaultShards). Like Workers, it
	// changes only the execution schedule, never the Results.
	Shards int
}

// cdfPoints bounds the resolution of exported CDF series.
const cdfPoints = 200

// DefaultConfig returns the paper's analysis parameters.
func DefaultConfig() Config {
	return Config{SessionGap: time.Minute}
}

// withDefaults resolves zero fields to the paper's parameters.
func (c Config) withDefaults() Config {
	if c.SessionGap <= 0 {
		c.SessionGap = time.Minute
	}
	return c
}

// Study binds the analysis to one resident dataset. It holds no derived
// record slices: Run streams the dataset's logs through the bounded-memory
// engine, which materialises at most one subscriber's records at a time.
// Datasets too large to sit in memory skip Study entirely and feed
// RunStream from a decoder.
type Study struct {
	ds  *sim.Dataset
	cfg Config
}

// NewStudy prepares a study over a dataset.
func NewStudy(ds *sim.Dataset, cfg Config) (*Study, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	cfg = cfg.withDefaults()
	s := &Study{ds: ds, cfg: cfg}
	// Validate the environment now rather than on the first Run.
	if _, err := newEngine(s.env(), cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// env assembles the static study context from the dataset.
func (s *Study) env() Env {
	return Env{Devices: s.ds.Devices, Topology: s.ds.Topology, Catalog: s.ds.Catalog}
}

// source adapts the resident logs to the record-stream interface.
func (s *Study) source() stream.Source {
	return &stream.Logs{Proxy: &s.ds.Proxy, MME: &s.ds.MME, UDR: &s.ds.UDR}
}

// Run executes every analysis and assembles the Results tree. Each call
// streams the logs through a fresh engine, so repeated runs are
// independent and byte-identical.
func (s *Study) Run() (*Results, error) {
	return RunStream(s.env(), s.source(), s.cfg)
}

// detailWeeks is the number of weeks in the detail window.
func detailWeeks() int { return simtime.Detail().Weeks() }
