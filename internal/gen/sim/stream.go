package sim

import (
	"slices"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/population"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/shard"
	"wearwild/internal/stream"
)

// StreamSource derives the synthetic ISP logs one subscriber at a time and
// feeds them to a stream.Sink, never materialising a whole log. It is a
// user-major source: each subscriber's records arrive as one contiguous
// bundle (proxy, then MME, then UDR, each in its canonical order) followed
// by UserDone, with subscribers emitted in ascending IMSI order. Record
// content is byte-identical to what Generate produces for the same Config.
type StreamSource struct {
	cfg Config
	gen *userGen

	// ConsumeUsers releases each subscriber's population entry as soon as
	// their records have been emitted. Per-user generation never reads
	// another subscriber's entry, so a stream-only run holds the study's
	// own per-subscriber state plus only the not-yet-streamed tail of the
	// population instead of both in full. The population is consumed in
	// place — Population.Users shares the released entries — so the
	// source cannot stream twice and the Population field must not be
	// used afterwards.
	ConsumeUsers bool

	// The substrate a study engine needs alongside the record stream.
	Topology   *cells.Topology
	Devices    *devicedb.DB
	Catalog    *apps.Catalog
	Population *population.Population
}

// NewStreamSource builds the deterministic substrate (topology, device DB,
// catalogue, population) and prepares per-user generation.
func NewStreamSource(cfg Config) (*StreamSource, error) {
	ds, err := generateSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := newUserGen(cfg, ds.Population, ds.Topology, ds.Catalog)
	if err != nil {
		return nil, err
	}
	return &StreamSource{
		cfg:        cfg,
		gen:        gen,
		Topology:   ds.Topology,
		Devices:    ds.Devices,
		Catalog:    ds.Catalog,
		Population: ds.Population,
	}, nil
}

// Canonical orders: a whole log is stable by Time (proxy, MME) or keyed
// by udr.Compare, and a user's subsequence of it is the same order over
// their own records. The UDR keys are unique (one aggregate per device and
// week), so an unstable sort suffices there. The comparators take pointers
// so that Generate's merge does not copy records to compare them.
func proxyTimeCmp(a, b *proxylog.Record) int { return a.Time.Compare(b.Time) }
func mmeTimeCmp(a, b *mme.Record) int        { return a.Time.Compare(b.Time) }
func udrKeyCmp(a, b *udr.Record) int         { return udr.Compare(*a, *b) }

// sortCanonical puts the scratch slabs into their per-user canonical
// order: the stream's bundle order and Generate's merge input.
func (s *genScratch) sortCanonical() {
	slices.SortStableFunc(s.proxy, func(a, b proxylog.Record) int { return proxyTimeCmp(&a, &b) })
	slices.SortStableFunc(s.mme, func(a, b mme.Record) int { return mmeTimeCmp(&a, &b) })
	slices.SortFunc(s.udr, udr.Compare)
}

// Stream implements stream.Source. Subscribers are generated in blocks of
// a few per worker — each slot owns a long-lived scratch whose slabs are
// sorted in place — and emitted sequentially in ascending IMSI order, so
// the byte stream is identical for any Workers setting and peak memory is
// one block of subscriber bundles, never the dataset. Workers <= 1 runs
// the block body inline with no goroutines.
func (s *StreamSource) Stream(sink stream.Sink) error {
	n := len(s.gen.pop.Users)
	workers := shard.Workers(s.cfg.Workers)
	if workers > n {
		workers = n
	}
	window := workers * 4
	if window > n {
		window = n
	}
	slots := make([]genScratch, window)

	base := 0
	fill := func(k int) {
		sc := &slots[k]
		s.gen.genUser(base+k, sc)
		sc.sortCanonical()
	}
	for base < n {
		count := window
		if base+count > n {
			count = n - base
		}
		shard.Run(count, workers, fill)
		for k := 0; k < count; k++ {
			sc := &slots[k]
			imsi := s.gen.pop.Users[base+k].IMSI
			if s.ConsumeUsers {
				s.gen.pop.Users[base+k] = nil
			}
			for _, r := range sc.proxy {
				if err := sink.Proxy(r); err != nil {
					return err
				}
			}
			for _, r := range sc.mme {
				if err := sink.MME(r); err != nil {
					return err
				}
			}
			for _, r := range sc.udr {
				if err := sink.UDR(r); err != nil {
					return err
				}
			}
			if err := sink.UserDone(imsi); err != nil {
				return err
			}
		}
		base += count
	}
	return nil
}
