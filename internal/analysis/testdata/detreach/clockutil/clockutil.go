// Package clockutil mounts at internal/clockutil, outside the
// determinism roots and outside the clock and rand allowlists.
package clockutil

import (
	"math/rand"
	"time"
)

// Stamp is reachable from study.Pipeline: its clock read is a finding.
func Stamp() int64 {
	return time.Now().UnixNano() // want detreach
}

// Draw is reachable too: the global-stream draw is a finding.
func Draw() int {
	return rand.Intn(6) // want detreach
}

// Seeded constructs its own stream: rand.New* is not banned.
func Seeded() int {
	return rand.New(rand.NewSource(1)).Intn(6)
}

// Unused is not reachable from any root, but internal/clockutil is not
// allowed the clock either: the direct mode flags it, without a chain.
func Unused() int64 {
	return time.Now().UnixNano() // want detreach
}
