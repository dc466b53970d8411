// Package obs is the observability layer of the simulated distributed
// runtime: it assembles the raw meters kept by internal/cluster — global
// network aggregates, the per-link (worker×worker) traffic matrix, the
// per-round traffic history and per-worker busy time — into a stable,
// exportable Trace with derived load-imbalance and straggler-skew metrics.
//
// This is the in-repo analogue of the accounting real systems ship with
// (DistDGL's per-partition communication counters, P³'s pipeline-stall
// breakdowns, DGCL's per-link cost attribution): every experiment that claims
// "technique X moves less data" or "partition Y balances better" can attach a
// Trace as evidence instead of a single global byte count.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"graphsys/internal/cluster"
)

// Trace is the exportable snapshot of one engine run on the cluster runtime.
// Field order is the stable JSON export order; do not reorder.
type Trace struct {
	Workload string `json:"workload"`
	Workers  int    `json:"workers"`

	// Global aggregates (always present). Messages counts logical payloads;
	// Attempts counts physical transmissions including FaultPlan retries.
	Messages      int64   `json:"messages"`
	Attempts      int64   `json:"attempts"`
	Bytes         int64   `json:"bytes"`
	LocalMessages int64   `json:"local_messages"`
	Rounds        int64   `json:"rounds"`
	WeightedCost  float64 `json:"weighted_cost"`

	// Per-round series and per-link matrix (present when the network had
	// tracing enabled; see cluster.Network.EnableTrace).
	RoundSeries  []cluster.RoundStats `json:"round_series,omitempty"`
	LinkBytes    [][]int64            `json:"link_bytes,omitempty"`
	LinkMessages [][]int64            `json:"link_messages,omitempty"`

	// Per-worker meters derived from the matrix and the cluster busy clocks.
	WorkerBusySec  []float64 `json:"worker_busy_sec,omitempty"`
	WorkerSentMsgs []int64   `json:"worker_sent_msgs,omitempty"`
	WorkerRecvMsgs []int64   `json:"worker_recv_msgs,omitempty"`

	Skew Skew `json:"skew"`

	// Recovery meters fault injection and recovery work (checkpoints taken,
	// rounds re-executed after a crash, retry traffic on lossy links).
	// Present only when the run executed a cluster.FaultPlan.
	Recovery *cluster.RecoveryStats `json:"recovery,omitempty"`

	// Storage meters the out-of-core graph layer (internal/storage): block
	// cache hits/misses and disk bytes, with a per-round series. Present only
	// when the run served adjacency from a disk-backed GraphSource.
	Storage *StorageTrace `json:"storage,omitempty"`
}

// StorageTrace is the disk-I/O section of a trace: the provider's footprint,
// run totals, and the per-round series engines record at each superstep (or
// training round) barrier. storage.Meter fills it from storage.IOStats;
// obs stays free of a storage dependency.
type StorageTrace struct {
	Kind          string  `json:"kind"` // "disk"
	FileBytes     int64   `json:"file_bytes"`
	ResidentBytes int64   `json:"resident_bytes"`
	CacheBytes    int64   `json:"cache_bytes"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	BlocksRead    int64   `json:"blocks_read"`
	BytesRead     int64   `json:"bytes_read"`
	HitRatio      float64 `json:"hit_ratio"`

	Rounds []StorageRound `json:"rounds,omitempty"`
}

// StorageRound is one round's slice of the disk-I/O meters.
type StorageRound struct {
	Round      int   `json:"round"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	BlocksRead int64 `json:"blocks_read"`
	BytesRead  int64 `json:"bytes_read"`
}

// Skew summarises load imbalance and straggler skew.
type Skew struct {
	MaxBusySec    float64 `json:"max_busy_sec"`
	MeanBusySec   float64 `json:"mean_busy_sec"`
	BusyImbalance float64 `json:"busy_imbalance"` // max/mean; 1.0 = perfectly balanced

	// Per-round traffic distribution (nearest-rank percentiles over rounds).
	P50RoundBytes int64 `json:"p50_round_bytes"`
	P99RoundBytes int64 `json:"p99_round_bytes"`
	P50RoundMsgs  int64 `json:"p50_round_msgs"`
	P99RoundMsgs  int64 `json:"p99_round_msgs"`
}

// Collect snapshots a cluster (network aggregates, trace if enabled, busy
// clocks) into a Trace labeled with the given workload name.
func Collect(workload string, c *cluster.Cluster) *Trace {
	net := c.Network()
	st := net.Stats()
	t := &Trace{
		Workload:      workload,
		Workers:       c.NumWorkers(),
		Messages:      st.Messages,
		Attempts:      st.Attempts,
		Bytes:         st.Bytes,
		LocalMessages: st.LocalMessages,
		Rounds:        st.Rounds,
		WeightedCost:  st.WeightedCost,
		WorkerBusySec: c.WorkerBusy(),
	}
	t.RoundSeries = net.RoundHistory()
	t.LinkBytes, t.LinkMessages = net.TrafficMatrix()
	if t.LinkMessages != nil {
		n := c.NumWorkers()
		t.WorkerSentMsgs = make([]int64, n)
		t.WorkerRecvMsgs = make([]int64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				t.WorkerSentMsgs[i] += t.LinkMessages[i][j]
				t.WorkerRecvMsgs[j] += t.LinkMessages[i][j]
			}
		}
	}
	t.Skew = computeSkew(t.WorkerBusySec, t.RoundSeries)
	if fi := c.Faults(); fi != nil {
		st := fi.Stats()
		t.Recovery = &st
	}
	return t
}

// Finish is the one-call trace hookup for engines built on the cluster
// runtime: it collects a Trace for the finished run when opts asked for one
// and returns nil otherwise, so engines carry no per-engine tracing logic
// beyond attaching the result.
func Finish(opts cluster.RunOptions, workload string, c *cluster.Cluster) *Trace {
	if !opts.Trace {
		return nil
	}
	return Collect(workload, c)
}

func computeSkew(busy []float64, rounds []cluster.RoundStats) Skew {
	var s Skew
	if len(busy) > 0 {
		var sum float64
		for _, b := range busy {
			sum += b
			if b > s.MaxBusySec {
				s.MaxBusySec = b
			}
		}
		s.MeanBusySec = sum / float64(len(busy))
		if s.MeanBusySec > 0 {
			s.BusyImbalance = s.MaxBusySec / s.MeanBusySec
		}
	}
	if len(rounds) > 0 {
		bytes := make([]int64, len(rounds))
		msgs := make([]int64, len(rounds))
		for i, r := range rounds {
			bytes[i] = r.Bytes
			msgs[i] = r.Messages
		}
		s.P50RoundBytes = percentile(bytes, 0.50)
		s.P99RoundBytes = percentile(bytes, 0.99)
		s.P50RoundMsgs = percentile(msgs, 0.50)
		s.P99RoundMsgs = percentile(msgs, 0.99)
	}
	return s
}

// percentile returns the nearest-rank q-th percentile of xs (q in (0,1]).
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteJSON writes the trace as stable, indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}

// WriteAll writes several traces as one stable JSON document
// ({"traces": [...]}), the format cmd/graphbench -trace emits.
func WriteAll(w io.Writer, traces []*Trace) error {
	doc := struct {
		Traces []*Trace `json:"traces"`
	}{Traces: traces}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}

// WriteCSV writes the per-round series as CSV
// (round,messages,attempts,bytes,local_messages,weighted_cost).
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "round,messages,attempts,bytes,local_messages,weighted_cost"); err != nil {
		return err
	}
	for _, r := range t.RoundSeries {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%g\n",
			r.Round, r.Messages, r.Attempts, r.Bytes, r.LocalMessages, r.WeightedCost); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a one-line human-readable digest of the trace.
func (t *Trace) Summary() string {
	return fmt.Sprintf("%s: workers=%d msgs=%d bytes=%d rounds=%d cost=%.0f imbalance=%.2f",
		t.Workload, t.Workers, t.Messages, t.Bytes, t.Rounds, t.WeightedCost, t.Skew.BusyImbalance)
}
