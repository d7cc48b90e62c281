package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/population"
	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"
	"wearwild/internal/stream"
)

// Hand-built devices: one SIM wearable, one smartphone, and a TAC the
// device database does not know.
var (
	watch   = imei.MustNew(11111111, 1)
	phone   = imei.MustNew(22222222, 1)
	phone2  = imei.MustNew(22222222, 2)
	unknown = imei.MustNew(33333333, 1)

	alice, bob, carol, dave = subs.MustNew(1), subs.MustNew(2), subs.MustNew(3), subs.MustNew(4)
)

// scriptSource is a hand-built Source: it pushes whatever the script
// sends, contract violations included.
type scriptSource func(sink stream.Sink) error

func (f scriptSource) Stream(sink stream.Sink) error { return f(sink) }

// testEnv builds a minimal study environment around the hand-built
// devices.
func testEnv(t *testing.T) Env {
	t.Helper()
	db := devicedb.New()
	for _, m := range []devicedb.Model{
		{Name: "Watch", Vendor: "V", OS: "Tizen", Class: devicedb.WearableSIM, Year: 2017, TACs: []imei.TAC{11111111}},
		{Name: "Phone", Vendor: "V", OS: "Android", Class: devicedb.Smartphone, Year: 2016, TACs: []imei.TAC{22222222}},
	} {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := cells.Build(geo.DefaultCountry(), cells.Config{RuralSectors: 5}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return Env{Devices: db, Topology: topo, Catalog: apps.Default()}
}

func at(h int) time.Time { return simtime.Detail().Start.Time().Add(time.Duration(h) * time.Hour) }

func px(user subs.IMSI, dev imei.IMEI, h int, host string) proxylog.Record {
	return proxylog.Record{Time: at(h), IMSI: user, IMEI: dev, Scheme: proxylog.HTTPS, Host: host, BytesUp: 100, BytesDown: 900}
}

func mm(user subs.IMSI, dev imei.IMEI, h int) mme.Record {
	return mme.Record{Time: at(h), IMSI: user, IMEI: dev, Sector: 1, Event: mme.Attach}
}

func ud(user subs.IMSI, dev imei.IMEI) udr.Record {
	return udr.Record{Week: simtime.Detail().Start.Week(), IMSI: user, IMEI: dev, Bytes: 10, Transactions: 1}
}

// send pushes a script into the sink: records go to their feed, an IMSI
// is a UserDone.
func send(sink stream.Sink, events ...any) error {
	for _, ev := range events {
		var err error
		switch ev := ev.(type) {
		case proxylog.Record:
			err = sink.Proxy(ev)
		case mme.Record:
			err = sink.MME(ev)
		case udr.Record:
			err = sink.UDR(ev)
		case subs.IMSI:
			err = sink.UserDone(ev)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runScript studies a hand-built event script at one Workers setting.
func runScript(t *testing.T, workers int, events ...any) (*Results, error) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	src := scriptSource(func(sink stream.Sink) error { return send(sink, events...) })
	return RunStream(testEnv(t), src, cfg)
}

// TestStreamContractEnforced: a user-major source that sends a subscriber
// anything after that subscriber's UserDone — a record, a second
// UserDone, or a lower IMSI — fails the run at every Workers setting
// instead of folding the subscriber twice. The same stream without the
// violation succeeds.
func TestStreamContractEnforced(t *testing.T) {
	valid := []any{
		px(alice, watch, 1, "api.weather.app"), mm(alice, watch, 1), alice,
		px(bob, watch, 1, "api.weather.app"), mm(bob, watch, 1), bob,
	}
	violations := map[string]any{
		"proxy after UserDone": px(alice, watch, 2, "api.weather.app"),
		"MME after UserDone":   mm(alice, watch, 2),
		"UDR after UserDone":   ud(alice, watch),
		"second UserDone":      bob,
		"lower IMSI":           subs.MustNew(0),
	}
	for _, workers := range []int{1, 2} {
		if _, err := runScript(t, workers, valid...); err != nil {
			t.Fatalf("workers=%d: valid user-major stream rejected: %v", workers, err)
		}
		for name, bad := range violations {
			events := append(append([]any(nil), valid...), bad)
			if _, err := runScript(t, workers, events...); err == nil || !strings.Contains(err.Error(), "stream contract") {
				t.Errorf("workers=%d, %s: err = %v, want a stream contract error", workers, name, err)
			}
		}
	}
}

// TestEngineIdentifiesAcrossLogs pins §3.2 identification in the engine:
// a subscriber is a wearable user when any vantage point shows them with
// a SIM-wearable TAC; smartphones and unknown TACs are not wearables.
func TestEngineIdentifiesAcrossLogs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		res, err := runScript(t, workers,
			// Alice's watch shows only in the MME log; her proxy traffic
			// comes from her phone.
			px(alice, phone2, 1, "api.weather.app"), mm(alice, watch, 1), alice,
			mm(bob, phone, 1), bob,
			ud(carol, unknown), carol,
		)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := res.Fig2a.WearableUsers; got != 1 {
			t.Fatalf("workers=%d: wearable users = %d, want 1 (alice)", workers, got)
		}
	}
}

// TestEngineIdentifySkipsNilAndZero: an empty stream, or one whose only
// wearable sighting carries a zero IMSI, identifies nobody and fails the
// run; a zero IMSI or IMEI beside a real wearable user is not counted.
func TestEngineIdentifySkipsNilAndZero(t *testing.T) {
	zeros := []any{
		px(0, watch, 1, "api.weather.app"), subs.IMSI(0),
		px(dave, 0, 1, "api.weather.app"), dave,
	}
	for _, workers := range []int{1, 2} {
		for name, events := range map[string][]any{"empty": nil, "zero identities": zeros} {
			if _, err := runScript(t, workers, events...); err == nil || !strings.Contains(err.Error(), "no SIM-enabled wearable users") {
				t.Errorf("workers=%d, %s: err = %v, want no wearable users identified", workers, name, err)
			}
		}
		withAlice := append(append([]any(nil), zeros[:2]...), mm(alice, watch, 1), alice)
		withAlice = append(withAlice, zeros[2:]...)
		res, err := runScript(t, workers, withAlice...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := res.Fig2a.WearableUsers; got != 1 {
			t.Fatalf("workers=%d: wearable users = %d, want 1 (alice)", workers, got)
		}
	}
}

// TestEngineThroughDeviceLabel pins the Through-Device fold: each
// smartphone user with companion traffic is labelled with the service
// they sent the most transactions to, ties going to the smaller service
// name, and SIM-wearable users are left out (they are identified by TAC).
func TestEngineThroughDeviceLabel(t *testing.T) {
	fitbit := population.CompanionDomains["Fitbit"][0]
	strava := population.CompanionDomains["Strava"][0]
	for _, workers := range []int{1, 2} {
		res, err := runScript(t, workers,
			// SIM wearable: excluded.
			px(alice, watch, 1, fitbit), px(alice, watch, 2, fitbit), alice,
			// Most transactions: Fitbit.
			px(bob, phone, 1, fitbit), px(bob, phone, 2, strava), px(bob, phone, 3, fitbit), bob,
			// Tie: Fitbit < Strava.
			px(carol, phone2, 1, strava), px(carol, phone2, 2, fitbit), carol,
			px(dave, phone, 1, strava), dave,
		)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := map[string]int{"Fitbit": 2, "Strava": 1}
		if res.TD.Identified != 3 || !reflect.DeepEqual(res.TD.ByService, want) {
			t.Fatalf("workers=%d: identified %d, by service %v; want 3, %v",
				workers, res.TD.Identified, res.TD.ByService, want)
		}
	}
}
