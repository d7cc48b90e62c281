// Package imei implements the International Mobile Equipment Identity
// number format: 15 decimal digits composed of an 8-digit Type Allocation
// Code (TAC) identifying the device model, a 6-digit serial number, and a
// Luhn check digit.
//
// The paper identifies SIM-enabled wearables by joining the IMEIs seen at
// the MME and Web proxy against the TAC ranges of known wearable models
// (§3.2); this package provides the identifier plumbing for that join.
package imei

import (
	"fmt"
	"strconv"
)

// TAC is an 8-digit Type Allocation Code. All devices of a given model
// (and often hardware revision) share a TAC.
type TAC uint32

const maxTAC = 99999999

// String renders the TAC as its zero-padded 8-digit form.
func (t TAC) String() string { return fmt.Sprintf("%08d", uint32(t)) }

// Valid reports whether the TAC fits in 8 digits.
func (t TAC) Valid() bool { return uint32(t) <= maxTAC }

// IMEI is a full 15-digit equipment identity, stored as its numeric value.
// The all-zero value is not a valid IMEI and doubles as "unknown".
type IMEI uint64

// New assembles an IMEI from a TAC and a 6-digit serial number, computing
// the Luhn check digit.
func New(tac TAC, serial uint32) (IMEI, error) {
	if !tac.Valid() {
		return 0, fmt.Errorf("imei: TAC %d out of range", tac)
	}
	if serial > 999999 {
		return 0, fmt.Errorf("imei: serial %d out of range", serial)
	}
	body := uint64(tac)*1000000 + uint64(serial) // 14 digits
	return IMEI(body*10 + uint64(luhnDigit(body))), nil
}

// MustNew is New for inputs known to be valid; it panics on error.
func MustNew(tac TAC, serial uint32) IMEI {
	id, err := New(tac, serial)
	if err != nil {
		panic(err)
	}
	return id
}

// luhnDigit computes the Luhn check digit for a 14-digit body.
func luhnDigit(body uint64) int {
	// Walking right-to-left over the body, the rightmost digit is doubled
	// (it sits in an odd position relative to the check digit).
	sum := 0
	double := true
	for body > 0 {
		d := int(body % 10)
		body /= 10
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return (10 - sum%10) % 10
}

// Parse parses a 15-digit IMEI string and verifies its check digit.
func Parse(s string) (IMEI, error) {
	if len(s) != 15 {
		return 0, fmt.Errorf("imei: %q is not 15 digits", s)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("imei: %q: %v", s, err)
	}
	id := IMEI(v)
	if !id.Valid() {
		return 0, fmt.Errorf("imei: %q fails the Luhn check", s)
	}
	return id, nil
}

// Valid reports whether the IMEI is 15 digits with a correct check digit.
func (i IMEI) Valid() bool {
	if i == 0 || uint64(i) > 999999999999999 {
		return false
	}
	body := uint64(i) / 10
	return int(uint64(i)%10) == luhnDigit(body)
}

// TAC returns the type allocation code (first 8 digits).
func (i IMEI) TAC() TAC { return TAC(uint64(i) / 10000000) }

// String renders the IMEI as its zero-padded 15-digit form.
func (i IMEI) String() string { return fmt.Sprintf("%015d", uint64(i)) }
