// Package study mounts at internal/study: a determinism root. The
// banned calls it reaches sit two hops away in clockutil and netproxy.
package study

import (
	"wearwild/internal/clockutil"
	"wearwild/internal/mnet/netproxy"
)

// Pipeline is the root entry point of the fixture chain.
func Pipeline() (int64, int) {
	return clockutil.Stamp() + netproxy.Deadline().Unix(), clockutil.Draw() + clockutil.Seeded()
}
