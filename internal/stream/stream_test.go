package stream

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
)

// event is one sink callback, rendered for order comparisons.
type event struct {
	kind string // "proxy", "mme", "udr", "done"
	imsi subs.IMSI
	tag  string // distinguishes records of one user
}

// traceSink records the exact callback sequence, failing a configured
// callback to exercise abort paths.
type traceSink struct {
	events []event
	failAt int // fail the Nth callback (1-based); 0 disables
	n      int
}

var errSink = errors.New("sink failure")

func (s *traceSink) step(e event) error {
	s.n++
	if s.failAt != 0 && s.n == s.failAt {
		return errSink
	}
	s.events = append(s.events, e)
	return nil
}

func (s *traceSink) Proxy(rec proxylog.Record) error {
	return s.step(event{"proxy", rec.IMSI, rec.Host})
}
func (s *traceSink) MME(rec mme.Record) error {
	return s.step(event{"mme", rec.IMSI, fmt.Sprint(rec.Sector)})
}
func (s *traceSink) UDR(rec udr.Record) error {
	return s.step(event{"udr", rec.IMSI, fmt.Sprint(rec.Bytes)})
}
func (s *traceSink) UserDone(imsi subs.IMSI) error {
	return s.step(event{"done", imsi, ""})
}

func at(h int) time.Time { return simtime.Detail().Start.Time().Add(time.Duration(h) * time.Hour) }

// testLogs builds small interleaved logs for two subscribers: global log
// order mixes the users, so a user-major replay must regroup them.
func testLogs() *Logs {
	dev := func(u subs.IMSI) imei.IMEI { return imei.MustNew(35000001, uint32(1000+u)) }
	p := &proxylog.Log{Records: []proxylog.Record{
		{Time: at(1), IMSI: 7, IMEI: dev(7), Host: "a", BytesDown: 1},
		{Time: at(2), IMSI: 3, IMEI: dev(3), Host: "b", BytesDown: 1},
		{Time: at(3), IMSI: 7, IMEI: dev(7), Host: "c", BytesDown: 1},
	}}
	m := &mme.Log{Records: []mme.Record{
		{Time: at(1), IMSI: 3, IMEI: dev(3), Sector: 11},
		{Time: at(2), IMSI: 7, IMEI: dev(7), Sector: 12},
	}}
	u := &udr.Log{Records: []udr.Record{
		{Week: simtime.Detail().Start.Week(), IMSI: 3, IMEI: dev(3), Bytes: 5, Transactions: 1},
	}}
	return &Logs{Proxy: p, MME: m, UDR: u}
}

// TestLogsUserMajorOrder pins the Logs contract the engine and the
// cross-source equivalence suite rely on: subscribers replay in ascending
// IMSI order, each as proxy→MME→UDR in log order, closed by UserDone.
func TestLogsUserMajorOrder(t *testing.T) {
	sink := &traceSink{}
	if err := testLogs().Stream(sink); err != nil {
		t.Fatal(err)
	}
	want := []event{
		{"proxy", 3, "b"},
		{"mme", 3, "11"},
		{"udr", 3, "5"},
		{"done", 3, ""},
		{"proxy", 7, "a"},
		{"proxy", 7, "c"},
		{"mme", 7, "12"},
		{"done", 7, ""},
	}
	if !reflect.DeepEqual(sink.events, want) {
		t.Fatalf("replay order:\n got %v\nwant %v", sink.events, want)
	}
}

// TestLogsNilFeeds streams with absent logs: only the present feed plays.
func TestLogsNilFeeds(t *testing.T) {
	l := testLogs()
	l.MME, l.UDR = nil, nil
	sink := &traceSink{}
	if err := l.Stream(sink); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.events {
		if e.kind == "mme" || e.kind == "udr" {
			t.Fatalf("absent feed emitted %v", e)
		}
	}
	if len(sink.events) != 5 { // 3 proxy + 2 done
		t.Fatalf("got %d events, want 5: %v", len(sink.events), sink.events)
	}
}

// TestLogsSinkErrorAborts pins the abort contract: the first sink error
// stops the stream and surfaces unwrapped.
func TestLogsSinkErrorAborts(t *testing.T) {
	sink := &traceSink{failAt: 3}
	if err := testLogs().Stream(sink); err != errSink {
		t.Fatalf("got %v, want errSink", err)
	}
	if len(sink.events) != 2 {
		t.Fatalf("stream continued past the failing callback: %v", sink.events)
	}
}
