package gnndist

import (
	"math/rand"

	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// This file holds the crash-recovery machinery of the distributed trainers:
// a training checkpoint bundles everything a replay needs to be bit-identical
// to the fault-free run — master weights, the weight copies workers hold,
// Adam moments, each worker's RNG position, the quantizers' error-feedback
// residuals, and the result and feature-fetch counters at snapshot time.
// Restoring and replaying the lost rounds therefore converges to the exact
// same final loss and fetch counts; the extra work shows up only in the
// network/recovery meters.

// countedSource wraps a rand.Source64 and counts draws. rand's generator
// state is unexportable, so rollback instead rebuilds the source from its
// seed and fast-forwards the recorded number of draws (every Source64 draw
// advances the state by exactly one step, whether taken via Int63 or Uint64).
type countedSource struct {
	seed int64
	src  rand.Source64
	n    uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countedSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countedSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countedSource) Seed(seed int64) {
	s.seed = seed
	s.src.Seed(seed)
	s.n = 0
}

// rewind rebuilds the source at draw position n of its seed sequence.
func (s *countedSource) rewind(n uint64) {
	s.src = rand.NewSource(s.seed).(rand.Source64)
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.n = n
}

// syncCkpt is one training checkpoint (the state shared by all modes; see
// TrainBoundedStale for the scheduler extras asynchronous training adds).
type syncCkpt struct {
	round  int
	res    DistResult
	master weights
	held   []weights // workers' own weight copies: Sancus' last broadcast, bounded staleness' per-worker copies
	adam   nn.AdamState
	draws  []uint64                 // per worker RNG positions
	resid  []map[int]*tensor.Matrix // per worker error-feedback residuals
	fetch  [3]int64                 // the feature store's Hits, Misses and Local
}

// bytes is the metered checkpoint volume: weights, both Adam moments and the
// held copies.
func (c *syncCkpt) bytes() int64 { return int64(3+len(c.held)) * weightBytes(c.master) }

// snapshot deep-copies the training state at the top of the given round.
func (d *dist) snapshot(round int, res DistResult, master weights, held []weights, opt *nn.Adam, params []*nn.Param) *syncCkpt {
	c := &syncCkpt{
		round:  round,
		res:    res,
		master: cloneWeights(master),
		held:   make([]weights, len(held)),
		adam:   opt.Snapshot(params),
		draws:  make([]uint64, len(d.srcs)),
		resid:  make([]map[int]*tensor.Matrix, len(d.quant)),
		fetch:  [3]int64{d.fs.Hits, d.fs.Misses, d.fs.Local},
	}
	for i, h := range held {
		c.held[i] = cloneWeights(h)
	}
	for w, s := range d.srcs {
		c.draws[w] = s.n
	}
	for w, qs := range d.quant {
		c.resid[w] = map[int]*tensor.Matrix{}
		for i, q := range qs {
			c.resid[w][i] = q.SnapshotResidual()
		}
	}
	return c
}

// restore rewinds the training state to a checkpoint and returns the result
// counters as of that round. The checkpoint stays intact, so it can serve
// repeated rollbacks.
func (d *dist) restore(c *syncCkpt, master weights, held []weights, opt *nn.Adam, params []*nn.Param) DistResult {
	copyWeights(master, c.master)
	for i, h := range held {
		copyWeights(h, c.held[i])
	}
	opt.Restore(params, c.adam)
	d.fs.Hits, d.fs.Misses, d.fs.Local = c.fetch[0], c.fetch[1], c.fetch[2]
	for _, p := range params {
		p.ZeroGrad()
	}
	for w, s := range d.srcs {
		s.rewind(c.draws[w])
		d.rngs[w] = rand.New(s)
	}
	for w := range d.quant {
		qs := map[int]*Quantizer{}
		for i, r := range c.resid[w] {
			q := NewQuantizer(d.cfg.QuantBits, d.cfg.QuantCompensate)
			q.RestoreResidual(r)
			qs[i] = q
		}
		d.quant[w] = qs
	}
	return c.res
}
