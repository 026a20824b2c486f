package main

import (
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// tracer is a tm.TM that times every call into the ROCoCoTM runtime it
// wraps. It forwards tm.Escalator and tm.Snapshotter, so tm.Run and tm.RunReadOnly
// take the same paths through it as through the bare runtime. Each thread
// owns one traceThread; nothing is shared between threads, and the totals
// are read after the clients have joined.
type tracer struct {
	inner *rococotm.TM
	t0    time.Time
	th    []traceThread
}

// span accumulates the calls of one kind: their count and total time.
type span struct{ n, ns int64 }

func (s *span) add(d int64) { s.n++; s.ns += d }

func (s *span) merge(o span) { s.n += o.n; s.ns += o.ns }

// mean returns the mean call time in ns, or 0 without calls.
func (s span) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n)
}

type traceThread struct {
	x         traceTxn
	lastBegin int64 // clock at the start of the latest Begin
	timed     int64 // running total of every timed call's duration
	read      span
	write     span
	commit    span     // Commit of an attempt that wrote
	roCommit  span     // Commit of a read-only attempt
	_         [64]byte // keep neighbouring threads' counters off one line
}

type traceTxn struct {
	inner tm.Txn
	th    *traceThread
	tr    *tracer
	wrote bool
}

// newTracer wraps inner for threads threads; t0 is the epoch of the
// tracer's clock, shared with the clients that time whole operations.
func newTracer(inner *rococotm.TM, threads int, t0 time.Time) *tracer {
	t := &tracer{inner: inner, t0: t0, th: make([]traceThread, threads)}
	for i := range t.th {
		t.th[i].x.th = &t.th[i]
		t.th[i].x.tr = t
	}
	return t
}

// now reads the monotonic clock in ns since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) Name() string    { return t.inner.Name() }
func (t *tracer) Heap() *mem.Heap { return t.inner.Heap() }
func (t *tracer) Stats() tm.Stats { return t.inner.Stats() }
func (t *tracer) Close()          { t.inner.Close() }

func (t *tracer) Begin(thread int) (tm.Txn, error) {
	th := &t.th[thread]
	s := t.now()
	x, err := t.inner.Begin(thread)
	th.lastBegin = s
	th.timed += t.now() - s
	if err != nil {
		return nil, err
	}
	th.x.inner = x
	th.x.wrote = false
	return &th.x, nil
}

func (t *tracer) Commit(x tm.Txn) error {
	tx := x.(*traceTxn)
	s := t.now()
	err := t.inner.Commit(tx.inner)
	d := t.now() - s
	if tx.wrote {
		tx.th.commit.add(d)
	} else {
		tx.th.roCommit.add(d)
	}
	tx.th.timed += d
	return err
}

func (t *tracer) Abort(x tm.Txn) {
	tx := x.(*traceTxn)
	s := t.now()
	t.inner.Abort(tx.inner)
	tx.th.timed += t.now() - s
}

func (t *tracer) Escalate(thread int) { t.inner.Escalate(thread) }

func (t *tracer) RetrieveSnapshot() (tm.Snapshot, error) { return t.inner.RetrieveSnapshot() }

func (t *tracer) ReleaseSnapshot(s tm.Snapshot) { t.inner.ReleaseSnapshot(s) }

func (x *traceTxn) Read(a mem.Addr) (mem.Word, error) {
	s := x.tr.now()
	v, err := x.inner.Read(a)
	d := x.tr.now() - s
	x.th.read.add(d)
	x.th.timed += d
	return v, err
}

func (x *traceTxn) Write(a mem.Addr, v mem.Word) error {
	s := x.tr.now()
	err := x.inner.Write(a, v)
	d := x.tr.now() - s
	x.th.write.add(d)
	x.th.timed += d
	x.wrote = true
	return err
}

var (
	_ tm.TM          = (*tracer)(nil)
	_ tm.Escalator   = (*tracer)(nil)
	_ tm.Snapshotter = (*tracer)(nil)
)
