package main

import (
	"fmt"

	"rococotm/internal/mem"
)

// initWord is every bank word's value before the first transfer, so every
// group's sum is groupSize*initWord for ever after.
const initWord = 1000

// ledger is the benchmark's own record of what the bank must hold: the
// committed transfers of an epoch, replayed from the generator outside the
// runtime. It is independent of the program under test.
type ledger struct {
	w       *spec
	delta   []int32  // per word: net units received
	touched []uint32 // per group: committed transfers
}

func newLedger(w *spec) *ledger {
	return &ledger{
		w:       w,
		delta:   make([]int32, w.words()),
		touched: make([]uint32, w.groups()),
	}
}

// replay rebuilds the ledger for the first rounds rounds of an epoch. Every
// update the clients ran committed (tm.Run returns only on commit, and a
// client that sees any other outcome fails the run), so the committed
// transfers are exactly the generated ones.
func (l *ledger) replay(g *gen, epoch, rounds int) {
	clear(l.delta)
	clear(l.touched)
	w := l.w
	var o op
	for r := 0; r < rounds; r++ {
		g.startRound(epoch, r)
		for i := 0; i < roundOps; i++ {
			g.next(&o)
			if o.audit {
				continue
			}
			base := int(o.group) * w.groupSize
			for k := 0; k < w.transfers; k++ {
				l.delta[base+int(o.offs[2*k])]--
				l.delta[base+int(o.offs[2*k+1])]++
			}
			l.touched[o.group] += uint32(w.transfers)
		}
	}
}

// verdict counts the named fault's failures in one epoch.
type verdict struct {
	lostUnits  uint64 // units the heap is missing against the ledger
	tornAudits uint64 // wrong audit sums on groups the ledger finds intact
}

// verify compares the bank word for word against the ledger and classifies
// the audits whose sum was wrong. A word that differs inside a group that
// committed transfers is a lost update: each unit of difference is one
// missing transfer endpoint. A wrong audit on a group whose words all match
// is a torn read-only snapshot; one on a group that lost units is already
// counted. Anything the lost-update fault cannot explain is an error: a
// changed word in a group no transfer touched, or a group missing more
// units than its transfers moved.
func (l *ledger) verify(h *mem.Heap, base mem.Addr, badAudits []uint64) (verdict, error) {
	w := l.w
	var v verdict
	var corrupt map[uint64]bool
	for g := 0; g < w.groups(); g++ {
		var lost uint64
		for i := g * w.groupSize; i < (g+1)*w.groupSize; i++ {
			want := uint64(initWord + int64(l.delta[i]))
			d := int64(uint64(h.Load(base+mem.Addr(i))) - want)
			if d < 0 {
				d = -d
			}
			lost += uint64(d)
		}
		if lost == 0 {
			continue
		}
		if l.touched[g] == 0 {
			return v, fmt.Errorf("group %d differs from the ledger by %d units but no committed transfer touched it", g, lost)
		}
		if lost > 2*uint64(l.touched[g]) {
			return v, fmt.Errorf("group %d differs from the ledger by %d units, more than its %d transfers moved", g, lost, l.touched[g])
		}
		if corrupt == nil {
			corrupt = map[uint64]bool{}
		}
		corrupt[uint64(g)] = true
		v.lostUnits += lost
	}
	for _, g := range badAudits {
		if !corrupt[g] {
			v.tornAudits++
		}
	}
	return v, nil
}

// sameHeap checks that a recovered bank equals the live one word for word.
func sameHeap(live, recovered *mem.Heap, base mem.Addr, words int) error {
	for i := 0; i < words; i++ {
		a := base + mem.Addr(i)
		if x, y := live.Load(a), recovered.Load(a); x != y {
			return fmt.Errorf("recovered word %d is %d, the live heap holds %d", i, y, x)
		}
	}
	return nil
}
