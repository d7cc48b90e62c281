// Package mobmetrics computes the paper's mobility metrics from MME logs:
// the daily max displacement (distance between the furthest two antennas a
// user connects to in a day), the time-normalised Shannon entropy of
// visited locations, and the join of proxy transactions to the sector they
// were issued from (§4.4).
package mobmetrics

import (
	"fmt"
	"sort"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
	"wearwild/internal/sortx"
	"wearwild/internal/stats"
)

// Analyzer computes mobility metrics over one topology.
type Analyzer struct {
	topo *cells.Topology
}

// New returns an analyzer.
func New(topo *cells.Topology) (*Analyzer, error) {
	if topo == nil || topo.Len() == 0 {
		return nil, fmt.Errorf("mobmetrics: empty topology")
	}
	return &Analyzer{topo: topo}, nil
}

// Mobility is one subscriber's mobility profile over a window.
type Mobility struct {
	IMSI subs.IMSI
	// DailyMaxKm maps each observed day to its max displacement.
	DailyMaxKm map[simtime.Day]float64
	// Entropy is the dwell-time-weighted Shannon entropy (bits) of
	// visited sectors across the window.
	Entropy float64
	// Sectors is the number of distinct sectors visited.
	Sectors int
}

// MeanDailyMaxKm averages the daily max displacement over observed days.
// The summation runs in day order: float addition is not associative, so
// summing in map-iteration order would smear the low bits from run to
// run and break the byte-identical determinism contract.
func (m *Mobility) MeanDailyMaxKm() float64 {
	if len(m.DailyMaxKm) == 0 {
		return 0
	}
	var sum float64
	for _, d := range sortx.Keys(m.DailyMaxKm) {
		sum += m.DailyMaxKm[d]
	}
	return sum / float64(len(m.DailyMaxKm))
}

// Stationary reports whether the user never moved between sectors.
func (m *Mobility) Stationary() bool {
	for _, v := range m.DailyMaxKm {
		if v > 0 {
			return false
		}
	}
	return true
}

// Collect computes per-subscriber mobility from MME records inside the
// window, considering only records accepted by keep (nil keeps all).
// Records of several devices of the same subscriber merge into one
// timeline, so callers normally filter to a single device class.
func (a *Analyzer) Collect(records []mme.Record, window simtime.Window, keep func(mme.Record) bool) map[subs.IMSI]*Mobility {
	perUser := make(map[subs.IMSI][]mme.Record)
	for _, rec := range records {
		if keep != nil && !keep(rec) {
			continue
		}
		d := simtime.DayOf(rec.Time)
		if !window.Contains(d) {
			continue
		}
		perUser[rec.IMSI] = append(perUser[rec.IMSI], rec)
	}

	out := make(map[subs.IMSI]*Mobility, len(perUser))
	for user, recs := range perUser {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
		m := &Mobility{IMSI: user, DailyMaxKm: make(map[simtime.Day]float64)}

		dwell := make(map[cells.SectorID]float64)
		perDay := make(map[simtime.Day][]cells.SectorID)
		for i, rec := range recs {
			d := simtime.DayOf(rec.Time)
			perDay[d] = append(perDay[d], rec.Sector)

			// Dwell until the next record or the end of the record's day,
			// whichever comes first; this is the "time a user stays in a
			// single location" normalisation of the entropy metric.
			end := d.Time().Add(24 * time.Hour)
			if i+1 < len(recs) && recs[i+1].Time.Before(end) {
				end = recs[i+1].Time
			}
			if dur := end.Sub(rec.Time).Hours(); dur > 0 {
				dwell[rec.Sector] += dur
			}
		}

		for d, sectors := range perDay {
			m.DailyMaxKm[d] = a.maxPairwiseKm(sectors)
		}
		weights := make([]float64, 0, len(dwell))
		for _, sec := range sortx.Keys(dwell) {
			weights = append(weights, dwell[sec])
		}
		m.Entropy = stats.Entropy(weights)
		m.Sectors = len(dwell)
		out[user] = m
	}
	return out
}

// maxPairwiseKm returns the max distance between any two sectors of a
// day's visit list. Days have few distinct sectors, so the quadratic scan
// is cheap.
func (a *Analyzer) maxPairwiseKm(sectors []cells.SectorID) float64 {
	distinct := sectors[:0:0]
	seen := make(map[cells.SectorID]struct{}, len(sectors))
	for _, s := range sectors {
		if _, dup := seen[s]; !dup {
			seen[s] = struct{}{}
			distinct = append(distinct, s)
		}
	}
	var max float64
	for i := 0; i < len(distinct); i++ {
		for j := i + 1; j < len(distinct); j++ {
			if d := a.topo.DistanceKm(distinct[i], distinct[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// TxSectors joins proxy transactions to the sector the device was attached
// to at transaction time: for each transaction, the most recent MME record
// of the same subscriber on the same day. Returns per-subscriber
// transaction counts per sector. Transactions with no same-day MME context
// are dropped.
func TxSectors(mmeRecords []mme.Record, proxyRecords []proxylog.Record,
	keepMME func(mme.Record) bool, keepTx func(proxylog.Record) bool) map[subs.IMSI]map[cells.SectorID]int64 {

	timeline := make(map[subs.IMSI][]mme.Record)
	for _, rec := range mmeRecords {
		if keepMME != nil && !keepMME(rec) {
			continue
		}
		timeline[rec.IMSI] = append(timeline[rec.IMSI], rec)
	}
	for _, recs := range timeline {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	}

	out := make(map[subs.IMSI]map[cells.SectorID]int64)
	for _, tx := range proxyRecords {
		if keepTx != nil && !keepTx(tx) {
			continue
		}
		recs := timeline[tx.IMSI]
		if len(recs) == 0 {
			continue
		}
		// Last MME record at or before the transaction.
		i := sort.Search(len(recs), func(i int) bool { return recs[i].Time.After(tx.Time) })
		if i == 0 {
			continue
		}
		ctx := recs[i-1]
		if simtime.DayOf(ctx.Time) != simtime.DayOf(tx.Time) {
			continue // stale context from a previous day
		}
		m := out[tx.IMSI]
		if m == nil {
			m = make(map[cells.SectorID]int64, 2)
			out[tx.IMSI] = m
		}
		m[ctx.Sector]++
	}
	return out
}
