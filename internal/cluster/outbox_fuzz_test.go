package cluster

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// outboxModel is the specification of Mailboxes written the slow, obvious
// way: each (sender, destination) pair keeps a list of (slot, payload)
// entries; a combined send scans the list for its slot and merges into the
// entry found, or appends a new one. A round's inbox at d is every sender's
// list for d, senders in ascending rank.
type outboxModel struct {
	combine func(a, b int64) int64 // nil: no combining
	size    func(int64) int64
	lists   [][][]modelEntry // [sender][dest]
	stats   Stats
}

type modelEntry struct {
	slot int32
	msg  int64
}

func (m *outboxModel) send(from, to int, slot int32, msg int64) {
	l := m.lists[from][to]
	if m.combine != nil {
		for i := range l {
			if l[i].slot == slot {
				l[i].msg = m.combine(l[i].msg, msg)
				return
			}
		}
	}
	m.lists[from][to] = append(l, modelEntry{slot, msg})
}

// exchange returns each destination's inbox and the delivery count, and
// folds the round into the model's network counters.
func (m *outboxModel) exchange() (inbox [][]modelEntry, count int64) {
	inbox = make([][]modelEntry, len(m.lists))
	for from := range m.lists {
		for to, l := range m.lists[from] {
			inbox[to] = append(inbox[to], l...)
			count += int64(len(l))
			for _, e := range l {
				if from == to {
					m.stats.LocalMessages++
					continue
				}
				m.stats.Messages++
				m.stats.Attempts++
				m.stats.Bytes += m.size(e.msg)
				m.stats.WeightedCost += float64(m.size(e.msg))
			}
			m.lists[from][to] = nil
		}
	}
	m.stats.Rounds++
	return inbox, count
}

// FuzzOutboxVsModel drives Mailboxes and outboxModel with the same sends —
// 1–4 workers, 1–4 rounds, through SendSlot and Send, with or without a
// non-commutative combine — and requires every round's inboxes (payloads,
// slots, order), Exchange's count and the network's Stats to match.
func FuzzOutboxVsModel(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), true, uint8(8), uint16(200))
	f.Add(uint64(2), uint8(4), uint8(4), true, uint8(130), uint16(600))
	f.Add(uint64(3), uint8(3), uint8(3), false, uint8(5), uint16(300))
	f.Add(uint64(4), uint8(1), uint8(1), true, uint8(1), uint16(50))
	f.Fuzz(func(t *testing.T, seed uint64, workers, rounds uint8, combined bool, slotRange uint8, sends uint16) {
		nw, nr := 1+int(workers%4), 1+int(rounds%4)
		rng := rand.New(rand.NewPCG(seed, 17))
		slots := make([]int, nw)
		for d := range slots {
			slots[d] = 1 + rng.IntN(1+int(slotRange)) // up to 256: several occupancy words
		}
		size := func(m int64) int64 { return 4 + 4*(m&3) }
		// a sent payload carries its slot in the low byte, so Send's slot
		// function finds it; the combine rewrites those bits
		slotOf := func(m int64) int { return int(m & 0xff) }
		mb := NewMailboxes[int64](NewNetwork(nw), size)
		model := &outboxModel{size: size, lists: make([][][]modelEntry, nw)}
		for from := range model.lists {
			model.lists[from] = make([][]modelEntry, nw)
		}
		if combined {
			model.combine = func(a, b int64) int64 { return a*31 + b }
			mb.SetDenseCombiner(func(d int) int { return slots[d] }, slotOf, model.combine)
		}
		for r := 0; r < nr; r++ {
			for i := 0; i < int(sends%1024); i++ {
				from, to := rng.IntN(nw), rng.IntN(nw)
				s := rng.IntN(slots[to])
				msg := rng.Int64N(1<<20)<<8 | int64(s)
				if rng.IntN(2) == 0 {
					mb.Outbox(from).SendSlot(to, s, msg)
				} else {
					if !combined {
						s = 0 // Send on uncombined mailboxes addresses slot 0
					}
					mb.Outbox(from).Send(to, msg)
				}
				model.send(from, to, int32(s), msg)
			}
			wantIn, wantCount := model.exchange()
			if got := mb.Exchange(); got != wantCount {
				t.Fatalf("round %d: Exchange returned %d, model %d", r, got, wantCount)
			}
			for w := 0; w < nw; w++ {
				in, sl := mb.Receive(w), mb.ReceiveSlots(w)
				got := make([]modelEntry, len(in))
				for i := range in {
					got[i] = modelEntry{sl[i], in[i]}
				}
				if len(sl) != len(in) || len(got) != len(wantIn[w]) || (len(got) > 0 && !reflect.DeepEqual(got, wantIn[w])) {
					t.Fatalf("round %d: inbox %d = %v (%d slots), model %v", r, w, got, len(sl), wantIn[w])
				}
			}
			if got := mb.net.Stats(); got != model.stats {
				t.Fatalf("round %d: stats %+v, model %+v", r, got, model.stats)
			}
		}
	})
}
