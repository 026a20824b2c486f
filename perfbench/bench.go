package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// clients is the number of closed-loop client goroutines, one per CPU of
// the 2-CPU reference host.
const clients = 2

// spec describes one workload. The bank is groups() groups of groupSize
// words; an update makes transfers 1-unit transfers inside one group and
// reads reads distinct words of it (its transfer endpoints first); an
// audit reads a whole group and checks its sum.
type spec struct {
	name       string
	groupShift int     // log2 of the number of groups
	groupSize  int     // words per group
	transfers  int     // transfers per update
	reads      int     // distinct words an update reads
	auditPct   uint64  // share of operations that are audits, in percent
	zipfS      float64 // Zipf exponent of the group choice; 0 means uniform
	durable    bool    // WAL + multi-version store, snapshot audits
	rounds     int     // rounds per epoch: the fixed work between two set-ups
}

func (w *spec) groups() int { return 1 << w.groupShift }
func (w *spec) words() int  { return w.groups() * w.groupSize }

var workloads = []*spec{
	{name: "contended", groupShift: 19, groupSize: 8, transfers: 1, reads: 2,
		auditPct: 10, zipfS: 1.5, rounds: 500},
	{name: "wide", groupShift: 15, groupSize: 256, transfers: 8, reads: 48,
		auditPct: 10, rounds: 120},
	{name: "durable", groupShift: 19, groupSize: 8, transfers: 1, reads: 2,
		auditPct: 10, durable: true, rounds: 250},
}

func lookup(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bank is one freshly built heap holding a workload's words at base.
type bank struct {
	heap *mem.Heap
	base mem.Addr
}

func newBank(w *spec) bank {
	h := mem.NewHeap(w.words() + 1)
	base := h.MustAlloc(w.words())
	for i := 0; i < w.words(); i++ {
		h.Store(base+mem.Addr(i), initWord)
	}
	return bank{heap: h, base: base}
}

// bench is one run of one workload: a sequence of epochs, each of which
// builds a bank and a runtime, runs a fixed number of rounds on the
// clients, and checks the result against the ledger.
type bench struct {
	w      *spec
	traced bool
	t0     time.Time // clock epoch shared with the tracer
	gen    *gen      // the ledger replay's generator
	led    *ledger
	cl     [clients]*client
	next   atomic.Int64 // next round of the epoch to claim

	// The current epoch's system under test.
	bank
	rt  *rococotm.TM
	m   tm.TM // rt, or its tracer in a traced run
	tr  *tracer
	dev *wal.MemDevice

	lat []uint32 // merge buffer for one epoch's latency samples
	lay layers
}

// epochResult is what one epoch measured.
type epochResult struct {
	setup    time.Duration
	measured time.Duration
	cpu      time.Duration
	ops      uint64
	updP50   float64 // µs
	updP95   float64
	audP50   float64
	audP95   float64
	updN     int // latency samples
	audN     int
	verdict  verdict
}

func newBench(w *spec, seed uint64, traced bool) *bench {
	b := &bench{w: w, traced: traced, t0: time.Now(), gen: newGen(w, seed), led: newLedger(w)}
	epochOps := w.rounds * roundOps
	for i := range b.cl {
		c := &client{
			b:   b,
			id:  i,
			gen: newGen(w, seed),
			upd: make([]uint32, 0, epochOps),
			aud: make([]uint32, 0, epochOps),
			bad: make([]uint64, 0, 1024),
		}
		c.updFn = c.update
		c.audFn = c.audit
		b.cl[i] = c
	}
	b.lat = make([]uint32, 0, epochOps)
	return b
}

// setUp builds the bank and constructs the runtime, which starts the
// engine goroutine and, for the durable workload, opens the WAL and the
// multi-version store. This is what setup_s times.
func (b *bench) setUp() error {
	b.bank = newBank(b.w)
	cfg := rococotm.Config{MeasurePhases: b.traced}
	if b.w.durable {
		b.dev = wal.NewMemDevice(nil)
		store, err := mvstore.New(b.heap, mvstore.Config{})
		if err != nil {
			return fmt.Errorf("mvstore: %w", err)
		}
		cfg.Durable = &rococotm.Durable{
			Log:        wal.Open(b.dev, 0, wal.Options{}),
			Store:      store,
			SyncCommit: true,
		}
	}
	b.rt = rococotm.New(b.heap, cfg)
	return nil
}

// runEpoch runs epoch e and checks its outputs. A returned error is a
// failed check other than the named fault (whose failures the verdict
// counts) and ends the run.
func (b *bench) runEpoch(e int) (epochResult, error) {
	var r epochResult
	w := b.w
	// Collect the previous epoch's bank and runtime before timing set-up.
	runtime.GC()
	t := time.Now()
	if err := b.setUp(); err != nil {
		return r, err
	}
	r.setup = time.Since(t)
	b.m, b.tr = b.rt, nil
	if b.traced {
		b.tr = newTracer(b.rt, clients, b.t0)
		b.m = b.tr
	}

	b.next.Store(0)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range b.cl {
		c.reset()
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-start
			c.run(e, w.rounds)
		}(c)
	}
	cpu0 := cpuTime()
	t = time.Now()
	close(start)
	wg.Wait()
	r.measured = time.Since(t)
	r.cpu = cpuTime() - cpu0

	var updates, audits uint64
	var bad []uint64
	for _, c := range b.cl {
		updates += c.updates
		audits += c.audits
		bad = append(bad, c.bad...)
	}
	r.ops = updates + audits
	err := b.checkCounts(updates, audits)
	if err == nil && b.traced {
		b.lay.addEpoch(b, r.measured.Seconds(), r.ops)
	}
	b.rt.Close()
	if err != nil {
		return r, err
	}

	b.led.replay(b.gen, e, w.rounds)
	v, err := b.led.verify(b.heap, b.base, bad)
	if err != nil {
		return r, fmt.Errorf("ledger: %w", err)
	}
	r.verdict = v
	if w.durable {
		took, err := b.recoverCheck(updates)
		if err != nil {
			return r, err
		}
		b.lay.replay = append(b.lay.replay, took.Seconds())
	}
	r.updP50, r.updP95, r.updN = b.percentiles(func(c *client) []uint32 { return c.upd })
	r.audP50, r.audP95, r.audN = b.percentiles(func(c *client) []uint32 { return c.aud })
	return r, nil
}

// checkCounts checks that every client finished its rounds, and checks the
// runtime's counters against what the clients saw: every operation that
// went through tm.Run committed exactly once, every attempt ended exactly
// once, and the engine validated exactly the updates.
func (b *bench) checkCounts(updates, audits uint64) error {
	for _, c := range b.cl {
		if c.err != nil {
			return fmt.Errorf("client %d: %w", c.id, c.err)
		}
	}
	if want := uint64(b.w.rounds * roundOps); updates+audits != want {
		return fmt.Errorf("clients completed %d operations, the epoch has %d", updates+audits, want)
	}
	st := b.rt.Stats()
	viaRun := updates
	if !b.w.durable {
		viaRun += audits // durable audits read snapshots, outside tm.Run
	}
	if st.Commits != viaRun {
		return fmt.Errorf("tm.Stats.Commits = %d, clients committed %d operations through tm.Run", st.Commits, viaRun)
	}
	if st.Starts != st.Commits+st.Aborts {
		return fmt.Errorf("tm.Stats: %d attempts started, %d committed + %d aborted", st.Starts, st.Commits, st.Aborts)
	}
	if es := b.rt.Engine().Stats(); es.Commits != updates {
		return fmt.Errorf("engine committed %d validations, clients committed %d updates", es.Commits, updates)
	}
	return nil
}

// recoverCheck rebuilds the runtime from the closed runtime's WAL and
// checks the recovered bank. It returns the time the rebuild took.
func (b *bench) recoverCheck(updates uint64) (time.Duration, error) {
	fresh, took, records, err := b.recoverBank()
	if err != nil {
		return 0, err
	}
	return took, checkRecovered(b.bank, fresh, b.w.words(), records, updates)
}

// recoverBank replays the WAL bytes into a freshly built bank, as a
// restart would, and constructs a runtime over it. It returns the bank,
// the time RecoverDurable and New took, and the number of records
// replayed.
func (b *bench) recoverBank() (bank, time.Duration, uint64, error) {
	fresh := newBank(b.w)
	t := time.Now()
	d, res, err := rococotm.RecoverDurable(b.dev, fresh.heap, wal.Options{}, mvstore.Config{}, true)
	if err != nil {
		return fresh, 0, 0, err
	}
	rt := rococotm.New(fresh.heap, rococotm.Config{Durable: d})
	took := time.Since(t)
	rt.Close()
	return fresh, took, res.NextSeq, nil
}

// checkRecovered checks that the WAL held one record per committed update
// and that the recovered bank equals the live one word for word.
func checkRecovered(live, recovered bank, words int, records, updates uint64) error {
	if records != updates {
		return fmt.Errorf("recovered %d WAL records, clients committed %d updates", records, updates)
	}
	if err := sameHeap(live.heap, recovered.heap, live.base, words); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	return nil
}

// percentiles merges the clients' samples of one kind and returns their
// median and 95th percentile in µs, and the sample count.
func (b *bench) percentiles(of func(*client) []uint32) (p50, p95 float64, n int) {
	b.lat = b.lat[:0]
	for _, c := range b.cl {
		b.lat = append(b.lat, of(c)...)
	}
	slices.Sort(b.lat)
	return quantile(b.lat, 0.50) / 1e3, quantile(b.lat, 0.95) / 1e3, len(b.lat)
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []uint32, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	f := pos - float64(i)
	return float64(s[i])*(1-f) + float64(s[i+1])*f
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// client is one closed-loop client goroutine. Its buffers are allocated
// once per run, so the measured interval adds no garbage of the
// benchmark's own.
type client struct {
	b   *bench
	id  int
	gen *gen
	o   op

	addr  [maxReads]mem.Addr
	vals  [maxReads]mem.Word
	group mem.Addr // first word of the group being audited
	sum   mem.Word // the last audit's sum

	updFn, audFn func(tm.Txn) error

	upd, aud []uint32 // latencies in ns
	bad      []uint64 // groups whose audit sum was wrong

	updates, audits uint64
	err             error

	// Traced runs only.
	retryNs    int64 // aborted attempts plus backoff, summed over updates
	residualNs int64 // update time the timed runtime calls do not cover
	snapshot   span  // RetrieveSnapshot plus ReleaseSnapshot
	snapRead   span  // Snapshot.Read
}

func (c *client) reset() {
	c.upd, c.aud, c.bad = c.upd[:0], c.aud[:0], c.bad[:0]
	c.updates, c.audits, c.err = 0, 0, nil
	c.retryNs, c.residualNs = 0, 0
	c.snapshot, c.snapRead = span{}, span{}
}

// run claims rounds of epoch e until none are left.
func (c *client) run(e, rounds int) {
	for {
		r := int(c.b.next.Add(1) - 1)
		if r >= rounds {
			return
		}
		c.gen.startRound(e, r)
		for i := 0; i < roundOps; i++ {
			c.gen.next(&c.o)
			if err := c.do(); err != nil {
				c.err = err
				return
			}
		}
	}
}

// do runs the current operation and records its latency.
func (c *client) do() error {
	b, w := c.b, c.b.w
	gbase := b.base + mem.Addr(c.o.group)*mem.Addr(w.groupSize)
	var th *traceThread
	var timed int64
	if b.tr != nil {
		th = &b.tr.th[c.id]
		timed = th.timed
	}
	t0 := int64(time.Since(b.t0))
	if c.o.audit {
		c.group = gbase
		var err error
		switch {
		case w.durable && b.tr != nil:
			err = c.tracedSnapshotAudit()
		case w.durable:
			err = tm.RunReadOnly(b.m, c.id, c.audFn)
		default:
			err = tm.Run(b.m, c.id, c.audFn)
		}
		d := int64(time.Since(b.t0)) - t0
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		c.aud = append(c.aud, clampNs(d))
		c.audits++
		if c.sum != mem.Word(w.groupSize*initWord) {
			c.bad = append(c.bad, c.o.group)
		}
		return nil
	}
	for i := 0; i < w.reads; i++ {
		c.addr[i] = gbase + mem.Addr(c.o.offs[i])
	}
	err := tm.Run(b.m, c.id, c.updFn)
	d := int64(time.Since(b.t0)) - t0
	if err != nil {
		return fmt.Errorf("update: %w", err)
	}
	c.upd = append(c.upd, clampNs(d))
	c.updates++
	if th != nil {
		c.retryNs += th.lastBegin - t0
		c.residualNs += d - (th.timed - timed)
	}
	return nil
}

// update is the transaction body of an update: read the footprint, then
// move one unit along each transfer pair.
func (c *client) update(t tm.Txn) error {
	w := c.b.w
	for i := 0; i < w.reads; i++ {
		v, err := t.Read(c.addr[i])
		if err != nil {
			return err
		}
		c.vals[i] = v
	}
	for k := 0; k < 2*w.transfers; k += 2 {
		if err := t.Write(c.addr[k], c.vals[k]-1); err != nil {
			return err
		}
		if err := t.Write(c.addr[k+1], c.vals[k+1]+1); err != nil {
			return err
		}
	}
	return nil
}

// audit is the transaction body of an audit: sum the whole group.
func (c *client) audit(t tm.Txn) error {
	var sum mem.Word
	for i := 0; i < c.b.w.groupSize; i++ {
		v, err := t.Read(c.group + mem.Addr(i))
		if err != nil {
			return err
		}
		sum += v
	}
	c.sum = sum
	return nil
}

// tracedSnapshotAudit is the durable audit with each multi-version store
// call timed on its own.
func (c *client) tracedSnapshotAudit() error {
	tr := c.b.tr
	s0 := tr.now()
	sn, err := tr.RetrieveSnapshot()
	s1 := tr.now()
	if err != nil {
		return err
	}
	var sum mem.Word
	for i := 0; i < c.b.w.groupSize; i++ {
		r0 := tr.now()
		v := sn.Read(c.group + mem.Addr(i))
		c.snapRead.add(tr.now() - r0)
		sum += v
	}
	s2 := tr.now()
	tr.ReleaseSnapshot(sn)
	c.snapshot.add(s1 - s0 + tr.now() - s2)
	c.sum = sum
	return nil
}

func clampNs(d int64) uint32 {
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}
