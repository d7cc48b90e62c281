package subs

import (
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	id, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	if id.MSIN() != 42 {
		t.Fatalf("msin = %d", id.MSIN())
	}
	if uint64(id)/msinLimit != HomePrefix {
		t.Fatal("home prefix missing")
	}
	if len(id.String()) != 15 {
		t.Fatalf("string = %q", id.String())
	}
}

func TestNewRejectsWideMSIN(t *testing.T) {
	if _, err := New(10_000_000_000); err == nil {
		t.Fatal("11-digit MSIN accepted")
	}
}

func TestParse(t *testing.T) {
	id := MustNew(987654321)
	back, err := Parse(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %d != %d", back, id)
	}
	for _, bad := range []string{"", "123", "21407000000000x", "2140700000000001"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		msin := raw % msinLimit
		id := MustNew(msin)
		parsed, err := Parse(id.String())
		return err == nil && parsed == id && parsed.MSIN() == msin && uint64(parsed)/msinLimit == HomePrefix
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
