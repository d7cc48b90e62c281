package core

import (
	"fmt"
	"sync"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/shard"
	"wearwild/internal/sortx"
	"wearwild/internal/stream"

	"wearwild/internal/gen/apps"
	"wearwild/internal/study/appid"
	"wearwild/internal/study/fingerprint"
	"wearwild/internal/study/mobmetrics"
)

// Env is the static context a study needs besides the record stream: the
// device database that identifies wearables (§3.2), the radio topology the
// mobility metrics measure distances on, and the app catalogue behind
// transaction classification. It carries no log data.
type Env struct {
	Devices  *devicedb.DB
	Topology *cells.Topology
	Catalog  *apps.Catalog
}

// userBundle buffers one subscriber's records until the user completes.
// Bundles are the only place the engine holds raw records. Proxy records
// are split by device class as they arrive, so the fold partitions
// nothing. A folded bundle is reset (lengths to zero, capacity kept) and
// recycled for a later subscriber, so a user-major source is analysed in
// memory proportional to the subscriber population plus a fixed number of
// in-flight bundles — never the log length.
type userBundle struct {
	user  subs.IMSI
	si    int               // the user's shard
	wear  []proxylog.Record // proxy records from SIM-wearable devices
	phone []proxylog.Record // every other proxy record
	mme   []mme.Record
	udr   []udr.Record
}

// handoffDepth is each worker channel's capacity in bundles. Two keep a
// worker busy while the producer fills the next one; deeper queues only
// hold more records in flight.
const handoffDepth = 2

// engine is the streaming study. It folds each subscriber's bundle into
// the accumulator of the user's shard; each shard is owned by exactly one
// goroutine, so no accumulator is ever shared between goroutines.
type engine struct {
	cfg      Config
	env      Env
	resolver *appid.Resolver
	analyzer *mobmetrics.Analyzer
	detector *fingerprint.Detector

	nShards int
	accs    []*shardAcc
}

func newEngine(env Env, cfg Config) (*engine, error) {
	if env.Devices == nil || env.Topology == nil || env.Catalog == nil {
		return nil, fmt.Errorf("core: incomplete study environment")
	}
	analyzer, err := mobmetrics.New(env.Topology)
	if err != nil {
		return nil, err
	}
	n := shard.Shards(cfg.Shards)
	e := &engine{
		cfg:      cfg,
		env:      env,
		resolver: appid.NewResolver(env.Catalog),
		analyzer: analyzer,
		detector: fingerprint.NewDetector(fingerprint.DefaultSignatures()),
		nShards:  n,
		accs:     make([]*shardAcc, n),
	}
	for i := 0; i < n; i++ {
		e.accs[i] = newShardAcc()
	}
	return e, nil
}

// shardOf routes a subscriber to their shard by a pure IMSI hash, so
// shard populations are identical across sources, machines and worker
// counts.
func (e *engine) shardOf(user subs.IMSI) int {
	return int(shard.Hash64(uint64(user)) % uint64(e.nShards))
}

// fold evicts one completed bundle into its shard's accumulator and
// recycles it.
func (e *engine) fold(b *userBundle, free chan *userBundle) {
	e.addUser(e.accs[b.si], b)
	b.wear, b.phone, b.mme, b.udr = b.wear[:0], b.phone[:0], b.mme[:0], b.udr[:0]
	select {
	case free <- b:
	default: // free list full: let the collector have it
	}
}

// bundler is the engine's stream.Sink, the same at every Workers setting.
// It enforces the user-major contract, collects each subscriber's records
// into a bundle on the producer goroutine, and at UserDone hands the whole
// bundle off: folded inline with one worker, otherwise sent to the worker
// owning the user's shard (worker w owns shards si % workers == w). A
// shard's users therefore fold in stream order on one goroutine: the
// schedule changes with Workers, the per-shard fold order never does.
type bundler struct {
	e *engine

	// floor is the lowest IMSI still open: after UserDone(u), a record or
	// a further UserDone for any IMSI <= u is an error instead of a second
	// bundle for u. One comparison per record and no per-user state;
	// record-major sources never call UserDone and never trip it.
	floor subs.IMSI

	cur  *userBundle               // the bundle the last record went to
	open map[subs.IMSI]*userBundle // every subscriber with records and no UserDone yet
	work []chan *userBundle        // per-worker handoff; nil folds inline
	free chan *userBundle          // folded bundles awaiting reuse
}

func (s *bundler) check(what string, user subs.IMSI) error {
	if user < s.floor {
		return fmt.Errorf("core: stream contract violated: %s for subscriber %d after UserDone(%d)", what, user, s.floor-1)
	}
	return nil
}

// bundle returns the open bundle of a subscriber, taking a recycled one
// (or a new one) on their first record.
func (s *bundler) bundle(user subs.IMSI) *userBundle {
	if s.cur != nil && s.cur.user == user {
		return s.cur
	}
	b := s.open[user]
	if b == nil {
		select {
		case b = <-s.free:
		default:
			b = new(userBundle)
		}
		b.user, b.si = user, s.e.shardOf(user)
		s.open[user] = b
	}
	s.cur = b
	return b
}

func (s *bundler) Proxy(r proxylog.Record) error {
	if err := s.check("proxy record", r.IMSI); err != nil {
		return err
	}
	b := s.bundle(r.IMSI)
	half := &b.phone
	if s.e.env.Devices.IsWearable(r.IMEI) {
		half = &b.wear
	}
	//wearlint:ignore sinkretain per-subscriber bundle is the DESIGN.md §8 bounded buffer, handed off whole at UserDone and recycled after the fold
	*half = append(*half, r)
	return nil
}

func (s *bundler) MME(r mme.Record) error {
	if err := s.check("MME record", r.IMSI); err != nil {
		return err
	}
	b := s.bundle(r.IMSI)
	//wearlint:ignore sinkretain per-subscriber bundle is the DESIGN.md §8 bounded buffer, handed off whole at UserDone and recycled after the fold
	b.mme = append(b.mme, r)
	return nil
}

func (s *bundler) UDR(r udr.Record) error {
	if err := s.check("UDR record", r.IMSI); err != nil {
		return err
	}
	b := s.bundle(r.IMSI)
	//wearlint:ignore sinkretain per-subscriber bundle is the DESIGN.md §8 bounded buffer, handed off whole at UserDone and recycled after the fold
	b.udr = append(b.udr, r)
	return nil
}

func (s *bundler) UserDone(user subs.IMSI) error {
	if err := s.check("UserDone", user); err != nil {
		return err
	}
	s.floor = user + 1
	b := s.open[user]
	if b == nil {
		return nil // user had no records
	}
	delete(s.open, user)
	if s.cur == b {
		s.cur = nil
	}
	s.dispatch(b)
	return nil
}

// dispatch hands a completed bundle to the goroutine owning its shard.
func (s *bundler) dispatch(b *userBundle) {
	if s.work == nil {
		s.e.fold(b, s.free)
		return
	}
	s.work[b.si%len(s.work)] <- b
}

// consume drains the source through the engine. Subscribers a
// record-major source never closed are dispatched at end of stream in
// ascending IMSI order, so each shard folds them in the order a
// user-major source would have emitted them. With Workers > 1 the source
// runs on the calling goroutine while workers fold their shards; at most
// 1 + workers × (handoffDepth + 1) bundles of a user-major stream exist
// at once: the producer's open one, the queued ones and one per worker
// being folded.
func (e *engine) consume(src stream.Source) error {
	w := shard.Workers(e.cfg.Workers)
	if w > e.nShards {
		w = e.nShards
	}
	// The free list has room for every bundle the handoff can hold; inline
	// folds only ever use one.
	free := make(chan *userBundle, w*(handoffDepth+1))
	s := &bundler{e: e, open: make(map[subs.IMSI]*userBundle), free: free}
	var wg sync.WaitGroup
	if w > 1 {
		s.work = make([]chan *userBundle, w)
		for i := range s.work {
			ch := make(chan *userBundle, handoffDepth)
			s.work[i] = ch
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := range ch {
					e.fold(b, free)
				}
			}()
		}
	}
	err := src.Stream(s)
	if err == nil {
		for _, user := range sortx.Keys(s.open) {
			b := s.open[user]
			delete(s.open, user)
			s.dispatch(b)
		}
	}
	for _, ch := range s.work {
		close(ch)
	}
	wg.Wait()
	return err
}

// run drains the source, merges the shard partials in fixed shard order
// and finalises the Results.
func (e *engine) run(src stream.Source) (*Results, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil record source")
	}
	if err := e.consume(src); err != nil {
		return nil, err
	}
	// The per-subscriber residues never union: finalize reaches them in
	// their per-shard maps through the shard hash. Everything else in a
	// shardAcc is domain-sized; each partial is released as it folds in,
	// so the merge holds at most one un-merged shard alongside the union.
	stats := make([]map[subs.IMSI]*userStat, len(e.accs))
	for i, a := range e.accs {
		stats[i] = a.stats
		a.stats = nil
	}
	acc := e.accs[0]
	for i, o := range e.accs[1:] {
		acc.merge(o)
		e.accs[i+1] = nil
	}
	return e.finalize(acc, stats)
}

// RunStream executes the full analysis over any record stream — generator,
// decoded log files or resident logs — without ever materialising a whole
// log. Results are identical at every Workers and Shards setting,
// and identical for any source emitting the same records.
func RunStream(env Env, src stream.Source, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	e, err := newEngine(env, cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.run(src)
	if err != nil {
		return nil, err
	}
	if res.Fig2a.WearableUsers == 0 {
		return nil, fmt.Errorf("core: no SIM-enabled wearable users identified")
	}
	return res, nil
}
