// Package subs defines subscriber identities shared by the MME and proxy
// log models. A subscriber is identified by an IMSI-like numeric id; the
// study joins MME and proxy records on it.
package subs

import (
	"fmt"
	"strconv"
)

// IMSI is a subscriber identity. Synthetic IMSIs are 15 digits: a 5-digit
// home-network prefix (MCC+MNC) followed by a 10-digit MSIN. The zero
// value means "unknown subscriber".
type IMSI uint64

// HomePrefix is the synthetic operator's MCC+MNC prefix.
const HomePrefix = 21407

const msinLimit = 10_000_000_000 // 10 digits

// New returns the IMSI with the home prefix and the given MSIN.
func New(msin uint64) (IMSI, error) {
	if msin >= msinLimit {
		return 0, fmt.Errorf("subs: MSIN %d exceeds 10 digits", msin)
	}
	return IMSI(HomePrefix*msinLimit + msin), nil
}

// MustNew is New for values known to fit; it panics on error.
func MustNew(msin uint64) IMSI {
	id, err := New(msin)
	if err != nil {
		panic(err)
	}
	return id
}

// MSIN returns the subscriber-specific part.
func (i IMSI) MSIN() uint64 { return uint64(i) % msinLimit }

// String renders the 15-digit form.
func (i IMSI) String() string { return fmt.Sprintf("%015d", uint64(i)) }

// Parse parses a decimal IMSI string.
func Parse(s string) (IMSI, error) {
	if len(s) != 15 {
		return 0, fmt.Errorf("subs: IMSI %q is not 15 digits", s)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("subs: IMSI %q: %v", s, err)
	}
	return IMSI(v), nil
}
