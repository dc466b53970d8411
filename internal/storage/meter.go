package storage

import "graphsys/internal/obs"

// Meter records a disk-backed provider's I/O round by round for the storage
// section of a traced run's trace. Engines call Round at each superstep or
// training-round barrier. NewMeter returns nil for an untraced run or an
// unmetered provider, and a nil Meter records nothing, so those runs pay
// one nil check per round. A meter counts from its creation, so a run over
// a provider that earlier runs used reports only its own I/O.
type Meter struct {
	prov        Provider
	start, last IOStats
	rounds      []obs.StorageRound
}

// NewMeter returns a meter over prov for a run traced when trace is set, or
// nil when there is nothing to record.
func NewMeter(prov Provider, trace bool) *Meter {
	if !trace || prov.Footprint().Kind != "disk" {
		return nil
	}
	st := prov.Stats()
	return &Meter{prov: prov, start: st, last: st}
}

// Round records the I/O since the previous Round as round r's slice.
func (m *Meter) Round(r int) {
	if m == nil {
		return
	}
	cur := m.prov.Stats()
	d := cur.Sub(m.last)
	m.last = cur
	m.rounds = append(m.rounds, obs.StorageRound{Round: r, Hits: d.Hits, Misses: d.Misses,
		Evictions: d.Evictions, BlocksRead: d.BlocksRead, BytesRead: d.BytesRead})
}

// Trace returns the storage section of the run's trace: the provider's
// footprint, its counters since NewMeter and the per-round series. It is
// nil for a nil Meter.
func (m *Meter) Trace() *obs.StorageTrace {
	if m == nil {
		return nil
	}
	fp := m.prov.Footprint()
	st := m.prov.Stats().Sub(m.start)
	return &obs.StorageTrace{
		Kind: fp.Kind, FileBytes: fp.FileBytes, ResidentBytes: fp.ResidentBytes, CacheBytes: fp.CacheBytes,
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, BlocksRead: st.BlocksRead, BytesRead: st.BytesRead,
		HitRatio: st.HitRatio(), Rounds: m.rounds,
	}
}
