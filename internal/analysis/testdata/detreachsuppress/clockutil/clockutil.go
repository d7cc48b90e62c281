// Package clockutil holds the banned calls; no directive appears here.
// Their chains are suppressed at the root; each direct use still flags.
package clockutil

import (
	"math/rand"
	"time"
)

// Stamp reads the clock; its chain is suppressed at the root.
func Stamp() int64 {
	return time.Now().UnixNano() // want detreach
}

// Draw draws from the global stream; its chain is suppressed too.
func Draw() int {
	return rand.Intn(6) // want detreach
}
