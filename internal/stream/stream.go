// Package stream defines the single record-stream interface the study
// engine consumes: one callback per proxy, MME and UDR record, plus a
// per-subscriber completion hint. Both data sources — the traffic
// generator and the resident logs of a generated or loaded dataset —
// implement Source, so the engine takes one record at a time and never
// indexes a whole log.
package stream

import (
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
)

// Sink receives records. A source pushes every record it has, then
// returns; errors from the sink abort the stream.
//
// UserDone tells the sink that no further record for the subscriber will
// arrive on any of the three feeds. User-major sources (the generator,
// the resident log source) call it right after a subscriber's records, so
// the consumer can fold and evict that subscriber's state immediately.
// A record-major source, which interleaves subscribers (as a decoder
// streaming a saved file in file order would), never calls it, and the
// consumer evicts everything when Stream returns; no such source ships
// today, but the engine honours the contract. User-major sources must emit
// subscribers in ascending IMSI order — the equivalence suite pins
// cross-source byte-identity on top of that contract.
//
// The study engine enforces the contract: once UserDone(u) has arrived,
// any record or further UserDone for an IMSI <= u is an error that aborts
// the stream, rather than a second fold of the same subscriber.
type Sink interface {
	Proxy(rec proxylog.Record) error
	MME(rec mme.Record) error
	UDR(rec udr.Record) error
	UserDone(imsi subs.IMSI) error
}

// Source streams its records into the sink.
type Source interface {
	Stream(sink Sink) error
}
