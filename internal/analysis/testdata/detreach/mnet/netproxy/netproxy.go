// Package netproxy mounts at internal/mnet/netproxy, one of the packages
// allowed to read the wall clock directly. Reach overrides the
// allowlist: the read the determinism roots reach is a finding, while the
// unreached one stays silent.
package netproxy

import "time"

// Deadline is reachable from study.Pipeline: flagged with its chain.
func Deadline() time.Time {
	return time.Now().Add(time.Second) // want detreach
}

// Idle is reachable from no root, and the package may read the clock.
func Idle() time.Time {
	return time.Now()
}
