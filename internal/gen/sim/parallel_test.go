package sim

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
)

// datasetHash fingerprints a dataset through the on-disk codecs, so two
// equal hashes mean byte-identical encoded logs — the strongest form of
// the §7 worker-invariance contract.
func datasetHash(t testing.TB, ds *Dataset) string {
	t.Helper()
	h := sha256.New()
	if err := mme.WriteCSV(h, ds.MME.Records); err != nil {
		t.Fatal(err)
	}
	if err := proxylog.WriteBinary(h, ds.Proxy.Records); err != nil {
		t.Fatal(err)
	}
	if err := udr.WriteCSV(h, ds.UDR.Records); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// logSink collects a streamed dataset back into resident logs.
type logSink struct {
	mme   mme.Log
	proxy proxylog.Log
	udr   udr.Log
	users int
}

func (s *logSink) Proxy(r proxylog.Record) error {
	s.proxy.Records = append(s.proxy.Records, r)
	return nil
}

func (s *logSink) MME(r mme.Record) error {
	s.mme.Records = append(s.mme.Records, r)
	return nil
}

func (s *logSink) UDR(r udr.Record) error {
	s.udr.Records = append(s.udr.Records, r)
	return nil
}

func (s *logSink) UserDone(subs.IMSI) error { s.users++; return nil }

// TestGenerateParallelEquivalence pins the shard-and-merge generator at
// the encoding layer: the logs Generate emits must be byte-identical for
// any worker count, and the stream path must carry the same records.
func TestGenerateParallelEquivalence(t *testing.T) {
	hash := func(workers int) string {
		cfg := tinyConfig(42)
		cfg.Workers = workers
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return datasetHash(t, ds)
	}
	ref := hash(1)
	for _, w := range []int{2, 8} {
		if got := hash(w); got != ref {
			t.Errorf("Workers=%d: encoded dataset hash %s, want %s (Workers=1)", w, got, ref)
		}
	}

	// Cross-check the stream path: per-user bundles, re-sorted by the
	// same canonical global sorts, must reproduce the batch dataset
	// byte for byte — and the emitted byte stream itself must not
	// depend on the stream's worker count.
	streamed := func(workers int) *logSink {
		cfg := tinyConfig(42)
		cfg.Workers = workers
		src, err := NewStreamSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := &logSink{}
		if err := src.Stream(sink); err != nil {
			t.Fatal(err)
		}
		return sink
	}
	first := streamed(1)
	for _, w := range []int{2, 8} {
		s := streamed(w)
		if s.users != first.users {
			t.Fatalf("stream Workers=%d emitted %d users, want %d", w, s.users, first.users)
		}
		for i := range first.proxy.Records {
			if s.proxy.Records[i] != first.proxy.Records[i] {
				t.Fatalf("stream Workers=%d: proxy record %d differs from Workers=1 emission order", w, i)
			}
		}
		for i := range first.mme.Records {
			if s.mme.Records[i] != first.mme.Records[i] {
				t.Fatalf("stream Workers=%d: MME record %d differs from Workers=1 emission order", w, i)
			}
		}
		for i := range first.udr.Records {
			if s.udr.Records[i] != first.udr.Records[i] {
				t.Fatalf("stream Workers=%d: UDR record %d differs from Workers=1 emission order", w, i)
			}
		}
	}
	// The stream is user-major in ascending user order, so a stable
	// global sort of the collected stream is the oracle for the batch
	// k-way merge: the two must land on the same bytes.
	ds := &Dataset{MME: first.mme, Proxy: first.proxy, UDR: first.udr}
	sortLogs(ds)
	if got := datasetHash(t, ds); got != ref {
		t.Errorf("stream-collected dataset hash %s, want batch hash %s", got, ref)
	}
}

// sortLogs puts whole logs into canonical order by sorting, the definition
// Generate's k-way merge must reproduce.
func sortLogs(ds *Dataset) {
	slices.SortStableFunc(ds.MME.Records, func(a, b mme.Record) int { return a.Time.Compare(b.Time) })
	slices.SortStableFunc(ds.Proxy.Records, func(a, b proxylog.Record) int { return a.Time.Compare(b.Time) })
	slices.SortStableFunc(ds.UDR.Records, udr.Compare)
}

// BenchmarkGenerateParallel measures the shard-and-merge batch path per
// worker count; allocation figures are the §9 slab-discipline surface.
func BenchmarkGenerateParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := tinyConfig(42)
				cfg.Workers = w
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
