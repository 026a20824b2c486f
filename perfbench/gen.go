package main

import "math/rand"

// Workload inputs are a pure function of (seed, epoch, round): a client
// that claims round r of epoch e regenerates exactly the operations the
// ledger replay regenerates for it later, whichever client ran it.

// roundOps is the number of operations in one round. Clients claim whole
// rounds, so every run attempts a whole number of rounds.
const roundOps = 256

// maxGroup bounds a group's size in words; maxReads bounds the words one
// update reads.
const (
	maxGroup = 256
	maxReads = 64
)

// splitmix is the splitmix64 generator. It doubles as the rand.Source64
// behind the Zipf sampler, so one state word drives every choice of a
// round.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) Int63() int64 { return int64(r.Uint64() >> 1) }

func (r *splitmix) Seed(s int64) { r.s = uint64(s) }

// mix hashes a seed and two indices into a fresh generator state.
func mix(seed uint64, a, b uint64) uint64 {
	r := splitmix{s: seed ^ a*0xd1b54a32d192ed03 ^ b*0x8cb92ba72f3d8dd7}
	return r.Uint64()
}

// op is one generated operation. An update reads offs[:reads] of its group
// and moves one unit from offs[2k] to offs[2k+1] for each of its
// transfers; an audit reads the whole group.
type op struct {
	audit bool
	group uint64
	offs  [maxReads]uint16
}

// gen generates the operations of one workload.
type gen struct {
	w    *spec
	seed uint64
	salt uint64
	rng  splitmix
	zipf *rand.Zipf
	perm [maxGroup]uint16
}

func newGen(w *spec, seed uint64) *gen {
	g := &gen{w: w, seed: seed, salt: mix(seed, ^uint64(0), ^uint64(0))}
	if w.zipfS > 0 {
		g.zipf = rand.NewZipf(rand.New(&g.rng), w.zipfS, 1, uint64(w.groups()-1))
	}
	return g
}

// startRound positions the generator at the first operation of a round.
func (g *gen) startRound(epoch, round int) {
	g.rng.s = mix(g.seed, uint64(epoch), uint64(round))
	for i := range g.perm[:g.w.groupSize] {
		g.perm[i] = uint16(i)
	}
}

// next generates the round's next operation into o.
func (g *gen) next(o *op) {
	w := g.w
	mask := uint64(w.groups() - 1)
	o.audit = g.rng.Uint64()%100 < w.auditPct
	if g.zipf != nil {
		// Scatter the Zipf ranks over the bank: multiplying by an odd
		// constant is a bijection modulo a power of two.
		o.group = (g.zipf.Uint64()*0x9e3779b97f4a7c15 + g.salt) & mask
	} else {
		o.group = g.rng.Uint64() & mask
	}
	if o.audit {
		return
	}
	// Partial Fisher-Yates: the first reads entries of perm become a
	// uniform choice of distinct words of the group.
	p := g.perm[:w.groupSize]
	for i := 0; i < w.reads; i++ {
		j := i + int(g.rng.Uint64()%uint64(len(p)-i))
		p[i], p[j] = p[j], p[i]
		o.offs[i] = p[i]
	}
}
