package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"splitft/internal/apps/kvstore"
	"splitft/internal/apps/litedb"
	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/ycsb"
)

// workload is one benchmark workload: an application, its dataset and
// client shape, and how much simulated work one host second of measurement
// buys. The rates are fixed constants, not measured at run time, so a run's
// virtual work depends only on (workload, seed, seconds) and its virtual
// metrics and vdigest repeat exactly.
type workload struct {
	name    string
	app     string // "kvstore" or "litedb"
	rows    int64
	clients int
	// mix is the YCSB mix of the measured window (kv-*); fault cycles are
	// always write-only.
	mix ycsb.Spec
	// tailPct is the fixed tail percentile reported as vlat_tail_us.
	tailPct float64
	// kv-*: virtual measured window per host second, and the traced run's
	// window.
	windowPerHostS time.Duration
	shortWindow    time.Duration
	// Fault cycles: how many per host second (lite-recover, where they are
	// the measured phase) or a fixed count (kv-*, after the window).
	cyclesPerHostS float64
	fixedCycles    int
	// cycleWrite is each fault cycle's write window; one WAL peer crashes
	// at its midpoint.
	cycleWrite time.Duration
	warmup     time.Duration
}

var writeOnly = ycsb.Spec{Name: "write-only", UpdateProp: 1.0, Dist: ycsb.Zipfian}

var workloads = []*workload{
	{
		name: "kv-read", app: "kvstore", rows: 200000, clients: 20,
		mix: ycsb.WorkloadB, tailPct: 99.99,
		windowPerHostS: 75 * time.Millisecond, shortWindow: 100 * time.Millisecond,
		fixedCycles: 3, cycleWrite: 40 * time.Millisecond,
		warmup: 50 * time.Millisecond,
	},
	{
		name: "kv-write", app: "kvstore", rows: 200000, clients: 20,
		mix: writeOnly, tailPct: 99.99,
		windowPerHostS: 240 * time.Millisecond, shortWindow: 200 * time.Millisecond,
		fixedCycles: 3, cycleWrite: 40 * time.Millisecond,
		warmup: 50 * time.Millisecond,
	},
	{
		name: "lite-recover", app: "litedb", rows: 20000, clients: 1,
		mix: writeOnly, tailPct: 99.9,
		cyclesPerHostS: 9, cycleWrite: 200 * time.Millisecond,
		warmup: 20 * time.Millisecond,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plan is one run of a workload: `reps` repetitions, each on a freshly
// built and loaded cluster with its own sub-seed, of a measured phase and
// fault cycles; optionally traced or CPU-profiled.
type plan struct {
	w    *workload
	seed int64
	reps int
	// Per repetition: the kv-* measured window and the fault cycles.
	window  time.Duration
	cycles  int
	trace   bool
	profile bool
	// unsafeAckQuorum seeds ncl's ack-before-quorum mutation (tests).
	unsafeAckQuorum int
}

func (w *workload) measuresCycles() bool { return w.windowPerHostS == 0 }

// fullReps is the repetition count of a full run. Splitting the measured
// phase over fresh clusters bounds the heap (the simulated dfs keeps every
// byte it stores) and times set-up several times per run.
const fullReps = 5

// fullPlan sizes a run so its measured phases take about `seconds` of host
// time in total on a 2-CPU host.
func (w *workload) fullPlan(seed int64, seconds int) plan {
	pl := plan{w: w, seed: seed, reps: fullReps, cycles: w.fixedCycles}
	perRep := float64(seconds) / fullReps
	if w.measuresCycles() {
		pl.cycles = int(math.Ceil(w.cyclesPerHostS * perRep))
	} else {
		pl.window = time.Duration(float64(w.windowPerHostS) * perRep)
	}
	return pl
}

// shortPlan is the traced run's size: a traced kv-read records millions of
// spans per simulated second, so the traced window is a fraction of a full
// one.
func (w *workload) shortPlan(seed int64) plan {
	pl := plan{w: w, seed: seed, reps: 1, cycles: 1}
	if w.measuresCycles() {
		pl.cycles = 6
	} else {
		pl.window = w.shortWindow
	}
	return pl
}

// ---- results ----

type setupTime struct{ boot, load time.Duration }

// result is everything one run measured.
type result struct {
	setups []setupTime
	hash   hash.Hash64 // vdigest state, fed once per repetition

	// Client ops: all phases (attempted, failed) and the measured phase.
	attempted, failed int64
	ops               int64
	userBytes         int64
	lat               []time.Duration
	vwin              time.Duration // virtual length of the measured phase
	hostWin           time.Duration
	hostRates         []float64 // acked KOps per host second, per repetition
	events            uint64    // simnet events in the measured phase
	mallocs           uint64
	heapLive          uint64 // the largest over repetitions

	// Fault cycles.
	recovers   []time.Duration // app restart to recovered store
	stalls     []time.Duration // write latencies inside replacement windows
	newFS      []time.Duration
	appRecover []time.Duration

	appRecoveries int

	// Layer counters over the measured phase: benchmark-handler timings,
	// store and dfs counter deltas, and the WAL logs' records.
	rpcOverhead          time.Duration // sum of (call - handler)
	rpcOps               int64
	getT, putT, queueT   time.Duration
	getN, putN, queueN   int64
	flushes, compactions int64
	kvStall              time.Duration
	checkpoints          int64
	dfsWritten           int64
	dfsSyncs             int64
	nclPhase             nclCounts
	// The WAL logs' counters over the fault cycles.
	nclFaults nclCounts

	violations      int
	firstViolations []string
	auditedKeys     int

	digest             uint64
	spans              []*trace.Span // traced runs: the last repetition's
	winStartV, winEndV time.Duration
	profiles           [][]byte
}

// ---- value stamps and the per-key history ----

const stampLen = 16 // [8B version][8B key hash], then zeros

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func stamp(key string, ver int64) []byte {
	v := make([]byte, ycsb.ValueSize)
	binary.BigEndian.PutUint64(v[0:8], uint64(ver))
	binary.BigEndian.PutUint64(v[8:16], keyHash(key))
	return v
}

// keyHist is one key's write history on a per-key event counter: version v
// (1-based; 0 is the loaded row) was acked at event ackE[v-1], or never
// (MaxInt64). floor is the latest invoke event of any acked write. A read
// that starts when the floor is F may return version v only if ackE(v) >= F:
// otherwise some write W started after v was acked and W was acked before
// the read started, so v is stale. Execution order on the single-token
// simulator is a valid real-time order, so this is exactly linearizability
// of a register's reads.
type keyHist struct {
	e     int64
	floor int64
	ackE  []int64
	// gen is the audit generation in which the key was last written.
	gen int
}

type history struct {
	keys map[string]*keyHist
	// dirty lists keys written since the last audit (generation gen).
	dirty []string
	gen   int
}

func newHistory() *history { return &history{keys: make(map[string]*keyHist)} }

func (h *history) get(key string) *keyHist {
	kh, ok := h.keys[key]
	if !ok {
		kh = &keyHist{floor: -1}
		h.keys[key] = kh
	}
	return kh
}

// invoke allocates the next version and its invoke event.
func (h *history) invoke(key string) (kh *keyHist, ver, invE int64) {
	kh = h.get(key)
	if len(kh.ackE) == 0 || kh.gen != h.gen {
		kh.gen = h.gen
		h.dirty = append(h.dirty, key)
	}
	kh.ackE = append(kh.ackE, math.MaxInt64)
	invE = kh.e
	kh.e++
	return kh, int64(len(kh.ackE)), invE
}

func (kh *keyHist) ack(ver, invE int64) {
	kh.ackE[ver-1] = kh.e
	kh.e++
	if invE > kh.floor {
		kh.floor = invE
	}
}

// check validates a value read for key when the key's floor was F at the
// read's start. It returns "" when the value is linearizable.
func (kh *keyHist) check(key string, val []byte, found bool, F int64) string {
	if !found {
		return fmt.Sprintf("%s: row missing", key)
	}
	if len(val) < stampLen || binary.BigEndian.Uint64(val[8:16]) != keyHash(key) {
		return fmt.Sprintf("%s: value not stamped for this key", key)
	}
	ver := int64(binary.BigEndian.Uint64(val[0:8]))
	if ver > int64(len(kh.ackE)) {
		return fmt.Sprintf("%s: version %d was never written", key, ver)
	}
	ackE := int64(-1)
	if ver > 0 {
		ackE = kh.ackE[ver-1]
	}
	if ackE < F {
		return fmt.Sprintf("%s: stale or lost: read version %d of %d", key, ver, len(kh.ackE))
	}
	return ""
}

// ---- the application under test ----

// app is one open generation of the store (it is rebuilt on recovery).
type app struct {
	kind string
	fs   *core.FS
	kv   *kvstore.DB
	kvC  kvstore.Config
	lite *litedb.DB
	ltC  litedb.Config
	// ckptPrev sums the checkpoints of earlier litedb generations.
	ckptPrev int64
}

func datasetBytes(rows int64) int64 { return rows * int64(ycsb.KeySize+ycsb.ValueSize+16) }

func (a *app) open(p *simnet.Proc, rows int64) error {
	switch a.kind {
	case "kvstore":
		a.kvC = kvstore.DefaultConfig()
		a.kvC.Durability = kvstore.SplitFT
		// The memtable is an eighth of the dataset, so most reads fall
		// through to sstables (the paper's 100M-row regime).
		a.kvC.MemtableBytes = datasetBytes(rows) / 8
		a.kvC.WALRegion = 2*a.kvC.MemtableBytes + 1<<20
		db, err := kvstore.Open(p, a.fs, a.kvC)
		a.kv = db
		return err
	default:
		a.ltC = litedb.DefaultConfig()
		a.ltC.Durability = litedb.SplitFT
		// About 2 KB of rows per 4 KB page.
		a.ltC.NPages = int(rows*int64(ycsb.KeySize+ycsb.ValueSize+4)/2048 + 64)
		db, err := litedb.Open(p, a.fs, a.ltC)
		a.lite = db
		return err
	}
}

func (a *app) recoverStore(p *simnet.Proc) error {
	var err error
	if a.kind == "kvstore" {
		a.kv, err = kvstore.Recover(p, a.fs, a.kvC)
	} else {
		a.ckptPrev += a.lite.Checkpoints
		a.lite, err = litedb.Recover(p, a.fs, a.ltC)
	}
	return err
}

func (a *app) get(p *simnet.Proc, key string) ([]byte, bool, error) {
	if a.kind == "kvstore" {
		return a.kv.Get(p, key)
	}
	return a.lite.Get(p, key)
}

func (a *app) put(p *simnet.Proc, key string, val []byte) error {
	if a.kind == "kvstore" {
		return a.kv.Put(p, key, val)
	}
	return a.lite.Set(p, key, val)
}

// walLog returns the ncl log behind the active WAL.
func (a *app) walLog() *ncl.Log {
	var path string
	if a.kind == "kvstore" {
		path = a.kv.WAL().Path()
	} else {
		path = a.ltC.Path + "-wal"
	}
	lg, _ := a.fs.NCLLib().OpenLog(path)
	return lg
}

func (a *app) checkpoints() int64 {
	if a.lite == nil {
		return 0
	}
	return a.ckptPrev + a.lite.Checkpoints
}

// nclCounts are the public counters of ncl logs.
type nclCounts struct {
	records uint64
	repl    int
	stall   time.Duration
}

func (c *nclCounts) add(o nclCounts) {
	c.records += o.records
	c.repl += o.repl
	c.stall += o.stall
}

// nclTally sums the counters of every WAL log it has seen since it started.
type nclTally struct {
	base  map[*ncl.Log]nclCounts
	order []*ncl.Log
}

func newNCLTally() *nclTally { return &nclTally{base: make(map[*ncl.Log]nclCounts)} }

// observe starts counting lg from its current counters, or from zero when
// lg became active after the tally started (a rotated or recovered WAL).
// A nil tally ignores it.
func (t *nclTally) observe(lg *ncl.Log, fromZero bool) {
	if t == nil || lg == nil {
		return
	}
	if _, ok := t.base[lg]; !ok {
		var base nclCounts
		if !fromZero {
			base = nclCounts{lg.Records, lg.Replacements, lg.StallTime}
		}
		t.base[lg] = base
		t.order = append(t.order, lg)
	}
}

func (t *nclTally) totals() nclCounts {
	var c nclCounts
	if t == nil {
		return c
	}
	for _, lg := range t.order {
		b := t.base[lg]
		c.add(nclCounts{lg.Records - b.records, lg.Replacements - b.repl, lg.StallTime - b.stall})
	}
	return c
}

// ---- one run ----

const (
	opCode     simnet.Code = 0x48 // benchmark op (the 0x40-0x4f bench range)
	opGet                  = 1
	opPut                  = 2
	serverAddr             = "perfbench-app"
	// serverThreads is the app server's worker pool (the paper's 20
	// application threads).
	serverThreads = 20
	// thinkMean is the mean client think time between ops.
	thinkMean = 2 * time.Microsecond
)

// runner is the state of one repetition on its cluster.
type runner struct {
	pl   plan
	c    *harness.Cluster
	res  *result
	hist *history
	a    *app

	sem   *simnet.Semaphore
	fence int64

	stop      bool
	wg        simnet.WaitGroup
	measuring bool
	phaseNCL  *nclTally
	faultNCL  *nclTally
	// Replacement window of the current fault cycle.
	crashAt, replacedAt time.Duration
	watchLog            *ncl.Log
	watchBase           int
	inFault             bool
	opsAtBegin          int64
	recoveries          int

	appSpans [3]string // span op names by op code
	profBuf  *bytes.Buffer
	// think draws each client's think times.
	think []*rand.Rand
}

func newCluster(w *workload, seed int64) *harness.Cluster {
	params := model.Baseline().DFS
	// A block cache of 30% of the dataset (the paper's configuration).
	params.CacheCapacity = datasetBytes(w.rows) * 30 / 100
	return harness.New(harness.Options{
		Seed: seed, NumPeers: 6, PeerMem: 1 << 30, AppCores: 10, DFSParams: &params,
	})
}

// execute performs the plan's repetitions and pools their measurements.
func execute(pl plan) (*result, error) {
	res := &result{hash: fnv.New64a()}
	for rep := 0; rep < pl.reps; rep++ {
		seed := pl.seed*int64(pl.reps) + int64(rep)
		// Generators are inputs, not set-up: build them before the clock.
		gens := clientGens(pl.w, seed, pl.w.mix, 0)
		faultGens := clientGens(pl.w, seed, writeOnly, 1)
		t0 := time.Now()
		c := newCluster(pl.w, seed)
		lat0 := len(res.lat)
		err := c.Run(func(p *simnet.Proc) error {
			r := newRunner(pl, c, res, seed)
			if err := r.open(p); err != nil {
				return err
			}
			t1 := time.Now()
			if err := r.load(p); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			res.setups = append(res.setups, setupTime{boot: t1.Sub(t0), load: time.Since(t1)})
			return r.measure(p, gens, faultGens)
		})
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", pl.w.name, pl.seed, err)
		}
		// vdigest: what a simulator-only change must leave unchanged — the
		// event count, final virtual time, acked ops and every latency.
		var b [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(b[:], x)
			res.hash.Write(b[:])
		}
		put(c.Sim.Events())
		put(uint64(c.Sim.Now()))
		put(uint64(len(res.lat) - lat0))
		for _, d := range res.lat[lat0:] {
			put(uint64(d))
		}
		res.spans = c.Sim.Tracer().Spans()
	}
	res.digest = res.hash.Sum64()
	return res, nil
}

func newRunner(pl plan, c *harness.Cluster, res *result, seed int64) *runner {
	r := &runner{pl: pl, c: c, res: res, hist: newHistory(), sem: simnet.NewSemaphore(serverThreads)}
	r.appSpans = [3]string{opGet: pl.w.app + ".get", opPut: pl.w.app + ".put"}
	for i := 0; i < pl.w.clients; i++ {
		r.think = append(r.think, rand.New(rand.NewSource(seed*7877+int64(i))))
	}
	return r
}

// open creates the FS and the empty store.
func (r *runner) open(p *simnet.Proc) error {
	a := &app{kind: r.pl.w.app}
	var err error
	if a.fs, err = core.NewFS(p, r.fsOptions()); err != nil {
		return fmt.Errorf("open fs: %w", err)
	}
	if err := a.open(p, r.pl.w.rows); err != nil {
		return fmt.Errorf("open %s: %w", a.kind, err)
	}
	r.a = a
	return nil
}

func (r *runner) fsOptions() core.Options {
	o := r.c.FSOptions("perfbench", r.fence)
	o.NCL.UnsafeAckQuorum = r.pl.unsafeAckQuorum
	return o
}

// clientGens derives every client's YCSB generator from the run's seed.
func clientGens(w *workload, seed int64, spec ycsb.Spec, stream int64) []*ycsb.Generator {
	gens := make([]*ycsb.Generator, w.clients)
	for i := range gens {
		gens[i] = ycsb.NewGenerator(spec, w.rows, seed*1000003+stream*7919+int64(i)*104729+1)
	}
	return gens
}

// load writes every row at version 0 with 16 parallel loaders (kvstore) or
// one connection (litedb, which runs in exclusive locking mode).
func (r *runner) load(p *simnet.Proc) error {
	loaders := 16
	if r.a.kind == "litedb" {
		loaders = 1
	}
	var wg simnet.WaitGroup
	var firstErr error
	wg.Add(loaders)
	for i := 0; i < loaders; i++ {
		i := i
		p.GoOn(r.c.AppNode, fmt.Sprintf("loader%d", i), func(lp *simnet.Proc) {
			defer wg.Done(lp)
			for j := int64(i); j < r.pl.w.rows; j += int64(loaders) {
				key := ycsb.Key(j)
				if err := r.a.put(lp, key, stamp(key, 0)); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// serve registers the benchmark's RPC handler for the current app
// generation. It times the worker-slot wait and the store call, and returns
// the handler's own time so the client can split off the RPC cost.
func (r *runner) serve() {
	a := r.a
	r.c.Sim.Net().Register(serverAddr, r.c.AppNode, func(p *simnet.Proc, req simnet.Msg) (simnet.Msg, error) {
		t0 := p.Now()
		r.sem.Acquire(p)
		defer r.sem.Release(p)
		t1 := p.Now()
		sp := p.StartSpan("app", r.appSpans[req.U[0]])
		defer p.EndSpan(sp)
		var resp simnet.Msg
		resp.Code = opCode
		var err error
		if req.U[0] == opGet {
			var found bool
			resp.B, found, err = a.get(p, req.S[0])
			resp.SetBool(1, found)
		} else {
			err = a.put(p, req.S[0], req.B)
			lg := a.walLog()
			r.phaseNCL.observe(lg, true)
			r.faultNCL.observe(lg, true)
		}
		t2 := p.Now()
		if r.measuring {
			r.res.queueT += t1 - t0
			r.res.queueN++
			if req.U[0] == opGet {
				r.res.getT += t2 - t1
				r.res.getN++
			} else {
				r.res.putT += t2 - t1
				r.res.putN++
			}
		}
		resp.SetInt(0, int64(t2-t0))
		return resp, err
	})
}

// startClients launches closed-loop clients, one per generator: each sends
// its next op only after the previous one is acked and a seeded exponential
// think time has passed, so clients do not march in lockstep.
func (r *runner) startClients(p *simnet.Proc, gens []*ycsb.Generator) {
	r.stop = false
	r.wg.Add(len(gens))
	for i, g := range gens {
		g, think := g, r.think[i]
		p.GoOn(r.c.ClientNode, fmt.Sprintf("client%d", i), func(cp *simnet.Proc) {
			defer r.wg.Done(cp)
			for !r.stop {
				cp.Sleep(time.Duration(think.ExpFloat64() * float64(thinkMean)))
				r.clientOp(cp, g.Next())
			}
		})
	}
}

func (r *runner) stopClients(p *simnet.Proc) {
	r.stop = true
	r.wg.Wait(p)
}

func (r *runner) clientOp(cp *simnet.Proc, op ycsb.Op) {
	m := simnet.Msg{Code: opCode, S: [3]string{op.Key}}
	var kh *keyHist
	var ver, invE, floor int64
	if op.Type == ycsb.Read {
		m.U[0] = opGet
		kh = r.hist.get(op.Key)
		floor = kh.floor
	} else {
		m.U[0] = opPut
		kh, ver, invE = r.hist.invoke(op.Key)
		m.B = stamp(op.Key, ver)
	}
	r.res.attempted++
	t0 := cp.Now()
	resp, err := r.c.Sim.Net().Call(cp, r.c.ClientNode, serverAddr, m)
	now := cp.Now()
	if err != nil {
		r.res.failed++
		return
	}
	if m.U[0] == opPut {
		kh.ack(ver, invE)
		if r.inFault && now >= r.crashAt && (r.replacedAt == 0 || t0 <= r.replacedAt) {
			r.res.stalls = append(r.res.stalls, now-t0)
		}
		if r.inFault && r.replacedAt == 0 && r.watchLog != nil && r.watchLog.Replacements >= r.watchBase {
			r.replacedAt = now
		}
	} else if msg := kh.check(op.Key, resp.B, resp.Bool(1), floor); msg != "" {
		r.violation("read " + msg)
	}
	if r.measuring {
		r.res.ops++
		r.res.lat = append(r.res.lat, now-t0)
		if m.U[0] == opPut {
			r.res.userBytes += int64(len(op.Key) + len(m.B))
		}
		r.res.rpcOverhead += now - t0 - time.Duration(resp.Int(0))
		r.res.rpcOps++
	}
}

func (r *runner) violation(msg string) {
	r.res.violations++
	if len(r.res.firstViolations) < 5 {
		r.res.firstViolations = append(r.res.firstViolations, msg)
	}
}

// audit reads back every key written since the last audit (or all written
// keys) through the store and checks it against the history.
func (r *runner) audit(p *simnet.Proc, all bool) error {
	var keys []string
	if all {
		for k, kh := range r.hist.keys {
			if len(kh.ackE) > 0 {
				keys = append(keys, k)
			}
		}
	} else {
		keys = r.hist.dirty
	}
	sort.Strings(keys) // map order must not steer the simulation
	for _, k := range keys {
		kh := r.hist.keys[k]
		val, found, err := r.a.get(p, k)
		if err != nil {
			return fmt.Errorf("audit read %s: %w", k, err)
		}
		if msg := kh.check(k, val, found, kh.floor); msg != "" {
			r.violation("audit " + msg)
		}
	}
	r.res.auditedKeys += len(keys)
	r.hist.dirty = r.hist.dirty[:0]
	r.hist.gen++
	return nil
}

// snapshot holds the counters diffed across a measured phase.
type snapshot struct {
	host                              time.Time
	v                                 time.Duration
	events, mallocs                   uint64
	dfsW, dfsS                        int64
	flushes, compactions, checkpoints int64
	kvStall                           time.Duration
}

func (r *runner) snap() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := r.c.DFS
	s := snapshot{
		host: time.Now(), v: r.c.Sim.Now(), events: r.c.Sim.Events(), mallocs: ms.Mallocs,
		dfsW: d.BytesWritten + d.ExtentBytes, dfsS: d.Syncs + d.ExtentSyncs,
		checkpoints: r.a.checkpoints(),
	}
	if r.a.kv != nil {
		st := r.a.kv.Stats()
		s.flushes, s.compactions, s.kvStall = st.Flushes, st.Compactions, st.StallTime
	}
	return s
}

// beginPhase starts the measured phase: tracer, profiler, counters.
func (r *runner) beginPhase() (snapshot, error) {
	// Start every measured phase from a collected heap, so the collector's
	// pacing does not carry over from set-up.
	runtime.GC()
	if r.pl.trace {
		r.c.Sim.SetTracer(trace.New())
	}
	r.phaseNCL = newNCLTally()
	r.phaseNCL.observe(r.a.walLog(), false)
	r.res.winStartV = r.c.Sim.Now()
	if r.pl.profile {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return snapshot{}, fmt.Errorf("cpu profile: %w", err)
		}
		r.profBuf = &buf
	}
	r.opsAtBegin = r.res.ops
	return r.snap(), nil
}

// endPhase closes the measured phase and diffs the counters.
func (r *runner) endPhase(s0 snapshot, vwin time.Duration) {
	s1 := r.snap()
	if r.pl.profile {
		pprof.StopCPUProfile()
		r.res.profiles = append(r.res.profiles, r.profBuf.Bytes())
	}
	res := r.res
	res.hostWin += s1.host.Sub(s0.host)
	res.hostRates = append(res.hostRates, float64(res.ops-r.opsAtBegin)/s1.host.Sub(s0.host).Seconds()/1000)
	res.vwin += vwin
	res.winEndV = s1.v
	res.events += s1.events - s0.events
	res.mallocs += s1.mallocs - s0.mallocs
	res.dfsWritten += s1.dfsW - s0.dfsW
	res.dfsSyncs += s1.dfsS - s0.dfsS
	res.flushes += s1.flushes - s0.flushes
	res.compactions += s1.compactions - s0.compactions
	res.kvStall += s1.kvStall - s0.kvStall
	res.nclPhase.add(r.phaseNCL.totals())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapLive = max(res.heapLive, ms.HeapAlloc)
}

// measure runs the measured phase and the fault cycles on the loaded store.
func (r *runner) measure(p *simnet.Proc, gens, faultGens []*ycsb.Generator) error {
	r.serve()
	defer func() { r.res.nclFaults.add(r.faultNCL.totals()) }()
	w := r.pl.w
	if w.measuresCycles() {
		r.startClients(p, faultGens)
		p.Sleep(w.warmup)
		r.stopClients(p)
		s0, err := r.beginPhase()
		if err != nil {
			return err
		}
		var vwin time.Duration
		for i := 0; i < r.pl.cycles; i++ {
			if err := r.faultCycle(p, faultGens, true); err != nil {
				return err
			}
			vwin += w.cycleWrite
		}
		r.endPhase(s0, vwin)
		return nil
	}
	r.startClients(p, gens)
	p.Sleep(w.warmup)
	s0, err := r.beginPhase()
	if err != nil {
		return err
	}
	r.measuring = true
	p.Sleep(r.pl.window)
	r.measuring = false
	r.endPhase(s0, r.pl.window)
	r.stopClients(p)
	for i := 0; i < r.pl.cycles; i++ {
		if err := r.faultCycle(p, faultGens, false); err != nil {
			return err
		}
	}
	return nil
}

// faultCycle is one cycle of the fault schedule: write for the cycle
// window, crash one WAL peer at its midpoint, crash the app and recover it
// under a bumped fencing token, audit the keys written, and restart the
// crashed peer. One peer is within every log's failure budget (f = 1), so
// the audit must find every acked write.
func (r *runner) faultCycle(p *simnet.Proc, gens []*ycsb.Generator, measured bool) error {
	half := r.pl.w.cycleWrite / 2
	r.measuring = measured
	r.startClients(p, gens)
	p.Sleep(half)
	victim, err := r.crashPeer(p)
	if err != nil {
		return err
	}
	p.Sleep(r.pl.w.cycleWrite - half)
	r.stopClients(p)
	r.measuring, r.inFault = false, false
	if err := r.recoverApp(p); err != nil {
		return err
	}
	// The first recovery audits everything written so far (the kv-*
	// window); lite-recover audits every acked key every time.
	if err := r.audit(p, r.a.kind == "litedb" || r.recoveries == 1); err != nil {
		return err
	}
	if err := r.c.RestartPeer(p, victim); err != nil {
		return fmt.Errorf("restart %s: %w", victim, err)
	}
	return nil
}

// crashPeer crashes one member of the active WAL's full group and opens the
// replacement window, which closes once the log has replaced it.
func (r *runner) crashPeer(p *simnet.Proc) (string, error) {
	lg := r.a.walLog()
	peers := lg.LivePeers()
	if len(peers) != lg.Policy().Slots() {
		return "", fmt.Errorf("wal has %d live peers of %d before the crash", len(peers), lg.Policy().Slots())
	}
	if r.faultNCL == nil {
		r.faultNCL = newNCLTally()
	}
	r.faultNCL.observe(lg, false)
	r.watchLog, r.watchBase = lg, lg.Replacements+1
	r.crashAt, r.replacedAt, r.inFault = p.Now(), 0, true
	victim := peers[int(r.fence)%len(peers)]
	r.c.Sim.Node(victim).Crash()
	return victim, nil
}

// recoverApp crashes and restarts the app server, reopens the FS under a
// bumped fencing token and recovers the store. With at most f peers down a
// recovery must succeed at once, so a failure is an error, not a retry.
func (r *runner) recoverApp(p *simnet.Proc) error {
	r.c.CrashApp()
	r.c.RestartApp()
	start := p.Now()
	r.fence++
	fs, err := core.NewFS(p, r.fsOptions())
	if err != nil {
		return fmt.Errorf("reopen fs: %w", err)
	}
	t1 := p.Now()
	r.a.fs = fs
	if err := r.a.recoverStore(p); err != nil {
		return fmt.Errorf("recover %s: %w", r.a.kind, err)
	}
	r.res.newFS = append(r.res.newFS, t1-start)
	r.res.appRecover = append(r.res.appRecover, p.Now()-t1)
	r.res.recovers = append(r.res.recovers, p.Now()-start)
	r.res.appRecoveries++
	r.recoveries++
	r.faultNCL.observe(r.a.walLog(), true)
	r.serve()
	return nil
}
