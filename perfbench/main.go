// Command perfbench is splitft's end-to-end benchmark. It drives the full
// simulated stack (harness, core, kvstore or litedb, simnet RPC, ycsb
// clients) through public APIs, checks every value it reads back, and
// prints each metric by name and unit, ending with one JSON line:
//
//	perfbench --workload kv-read --seed 1 --seconds 8 --trace 0
//
// --trace 0 prints the end-to-end metrics of one plain run; --trace 1
// prints the per-layer ledger from a CPU-profiled full run, a plain short
// run and a traced short run. See README.md for the two clocks, the
// workloads and how vdigest separates cost-model changes from
// simulator-only ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
}

func (rp *report) add(name, unit string, v float64) {
	if _, dup := rp.Metrics[name]; !dup {
		rp.order = append(rp.order, name)
	}
	rp.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "kv-read, kv-write or lite-recover")
	seed := flag.Int64("seed", 1, "workload seed (cluster and YCSB generators)")
	seconds := flag.Int("seconds", 8, "host seconds the measured phase is sized for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.Parse()
	w := findWorkload(*wl)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload kv-read|kv-write|lite-recover --seed N --seconds S --trace 0|1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d\n",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("  app=%s (SplitFT) rows=%d clients=%d closed-loop server_threads=%d\n",
		w.app, w.rows, w.clients, serverThreads)

	rp := &report{Metrics: make(map[string]metric)}
	var err error
	if *traced == 0 {
		err = endToEnd(rp, w.fullPlan(*seed, *seconds))
	} else {
		err = ledger(rp, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, name := range rp.order {
		m := rp.Metrics[name]
		fmt.Printf("metric %-28s %14.6f %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(rp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rp.Correct {
		return 1
	}
	return 0
}

// describe prints a run's shape, checks and digest.
func describe(label string, pl plan, res *result) {
	fmt.Printf("  [%s] ", label)
	if pl.w.measuresCycles() {
		fmt.Printf("measured phase: %d fault cycles of %v writes", pl.cycles, pl.w.cycleWrite)
	} else {
		fmt.Printf("measured window: %v %s after %v warmup, then %d fault cycles of %v writes",
			pl.window, pl.w.mix.Name, pl.w.warmup, pl.cycles, pl.w.cycleWrite)
	}
	fmt.Printf("\n  [%s] host %.3fs for %d acked ops; fail_ratio %d/%d = %.6f; audited %d keys, %d violations; vdigest %016x\n",
		label, res.hostWin.Seconds(), res.ops, res.failed, res.attempted,
		float64(res.failed)/float64(max(res.attempted, 1)), res.auditedKeys, res.violations, res.digest)
	for _, v := range res.firstViolations {
		fmt.Printf("  [%s] VIOLATION %s\n", label, v)
	}
}

// stallPct is the percentile of write latencies inside peer-replacement
// windows reported as vstall_ms: the highest with at least ten samples
// beyond it on every workload.
const stallPct = 99.0

// endToEnd runs the plain measurement and reports the end-to-end metrics.
func endToEnd(rp *report, pl plan) error {
	res, err := execute(pl)
	if err != nil {
		return err
	}
	describe("plain", pl, res)
	rp.Attempted, rp.Failed = res.attempted, res.failed
	rp.Correct = res.violations == 0
	tail, beyond := percentile(res.lat, pl.w.tailPct)
	fmt.Printf("  vlat_tail_us is p%g over %d samples (%d beyond)\n", pl.w.tailPct, len(res.lat), beyond)

	rp.add("vkops", "KOps/s", float64(res.ops)/res.vwin.Seconds()/1000)
	p50, _ := percentile(res.lat, 50)
	rp.add("vlat_p50_us", "us", p50/1e3)
	rp.add("vlat_tail_us", "us", tail/1e3)
	rp.add("vrecover_ms", "ms", ms(median(res.recovers)))
	stall, stallBeyond := percentile(res.stalls, stallPct)
	fmt.Printf("  vstall_ms is p%g of the %d writes inside replacement windows (%d beyond)\n", stallPct, len(res.stalls), stallBeyond)
	rp.add("vstall_ms", "ms", stall/1e6)
	rp.add("sim_kops_per_host_s", "KOps/s", median(res.hostRates))
	setups := make([]time.Duration, len(res.setups))
	for i, s := range res.setups {
		setups[i] = s.boot + s.load
	}
	rp.add("setup_s", "s", median(setups).Seconds())
	rp.add("heap_live_mb", "MB", float64(res.heapLive)/1e6)
	rp.add("allocs_per_op", "count", float64(res.mallocs)/float64(res.ops))
	return nil
}

// ledger runs the profiled full run, a plain short run and a traced short
// run, and reports the per-layer metrics.
func ledger(rp *report, w *workload, seed int64, seconds int) error {
	fullPl := w.fullPlan(seed, seconds)
	fullPl.profile = true
	full, err := execute(fullPl)
	if err != nil {
		return err
	}
	describe("profiled", fullPl, full)
	shortPl := w.shortPlan(seed)
	plain, err := execute(shortPl)
	if err != nil {
		return err
	}
	describe("plain-short", shortPl, plain)
	shortPl.trace = true
	traced, err := execute(shortPl)
	if err != nil {
		return err
	}
	describe("traced-short", shortPl, traced)
	runs := []*result{full, plain, traced}
	rp.Correct = true
	for _, r := range runs {
		rp.Attempted += r.attempted
		rp.Failed += r.failed
		rp.Correct = rp.Correct && r.violations == 0
	}
	if traced.digest != plain.digest {
		fmt.Printf("  tracing perturbed the simulation: vdigest %016x traced vs %016x plain\n", traced.digest, plain.digest)
		rp.Correct = false
	}

	var boots, loads []time.Duration
	for _, r := range runs {
		for _, s := range r.setups {
			boots = append(boots, s.boot)
			loads = append(loads, s.load)
		}
	}
	rp.add("harness.boot_s", "s", median(boots).Seconds())
	rp.add("harness.load_s", "s", median(loads).Seconds())

	f := full
	ops := float64(f.ops)
	rp.add("simnet.events_per_op", "count", float64(f.events)/ops)
	rp.add("simnet.host_ns_per_event", "ns", float64(f.hostWin.Nanoseconds())/float64(f.events))
	rp.add("simnet.rpc_vus", "us", us(perOp(f.rpcOverhead, f.rpcOps)))
	kv, lite := w.app == "kvstore", w.app == "litedb"
	rp.add("kvstore.get_vus", "us", when(kv, us(perOp(f.getT, f.getN))))
	rp.add("kvstore.put_vus", "us", when(kv, us(perOp(f.putT, f.putN))))
	rp.add("kvstore.queue_vus", "us", when(kv, us(perOp(f.queueT, f.queueN))))
	rp.add("kvstore.flushes", "count", float64(f.flushes))
	rp.add("kvstore.compactions", "count", float64(f.compactions))
	rp.add("kvstore.stall_ms", "ms", ms(f.kvStall))
	rp.add("litedb.set_vus", "us", when(lite, us(perOp(f.putT, f.putN))))
	rp.add("litedb.recover_vms", "ms", when(lite, ms(median(f.appRecover))))
	rp.add("litedb.checkpoints", "count", float64(f.checkpoints))
	rp.add("core.newfs_vms", "ms", ms(median(f.newFS)))
	rp.add("ncl.records_per_op", "count", float64(f.nclPhase.records)/ops)
	rp.add("ncl.replacements", "count", float64(f.nclFaults.repl))
	rp.add("ncl.stall_ms", "ms", ms(f.nclFaults.stall))
	rp.add("dfs.write_amp", "ratio", float64(f.dfsWritten)/float64(max(f.userBytes, 1)))
	rp.add("dfs.syncs", "count", float64(f.dfsSyncs))

	t := traced
	costs := spanLedger(t.spans, t.winStartV, t.winEndV)
	for _, l := range spanLayers {
		c := costs[l.layer]
		rp.add(l.name+".self_vus_per_op", "us", us(c.self)/float64(t.ops))
		rp.add(l.name+".spans_per_op", "count", float64(c.spans)/float64(t.ops))
	}
	var preadBytes int64
	for _, s := range t.spans {
		if s.Layer == "dfs" && s.Op == "pread" && s.Start >= t.winStartV && s.Start <= t.winEndV {
			preadBytes += s.IntAttr("bytes")
		}
	}
	rp.add("dfs.read_bytes_per_op", "bytes", float64(preadBytes)/float64(t.ops))
	for _, ph := range []string{"getpeer", "connect", "rdmaread", "syncpeer"} {
		total, _ := phaseTotal(t.spans, "ncl", "recover."+ph)
		rp.add("ncl.recover_"+ph+"_vms", "ms", ms(total)/float64(max(t.appRecoveries, 1)))
	}
	total, n := phaseTotal(t.spans, "ncl", "replace")
	rp.add("ncl.replace_vms", "ms", ms(perOp(total, int64(n))))
	rp.add("trace.overhead_pct", "%", 100*(t.hostWin.Seconds()-plain.hostWin.Seconds())/plain.hostWin.Seconds())
	fmt.Printf("  traced run: %d spans, %d acked ops\n", len(t.spans), t.ops)

	shares, samples, err := profileShares(f.profiles)
	if err != nil {
		return err
	}
	fmt.Printf("  profiled run: %d CPU samples bucketed by leaf-frame package\n", samples)
	for _, p := range hostPkgs {
		rp.add("host."+p+"_pct", "%", shares[p])
	}
	return nil
}

// percentile returns the pct-th percentile in ns and the number of samples
// ranked beyond it. It is the grouped-data percentile over the virtual
// clock's 1 ns ticks: the target rank falls among the samples tied at some
// value v, and the result is interpolated across v's tick by the rank's
// position among them. Simulated latencies pile up on a few exact values, and
// this keeps the percentile sensitive to how much of the sample lies below
// such a value instead of snapping to it.
func percentile(xs []time.Duration, pct float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	rank := pct / 100 * float64(n)
	v := s[min(max(int(math.Ceil(rank))-1, 0), n-1)]
	lo := sort.Search(n, func(i int) bool { return s[i] >= v })
	hi := sort.Search(n, func(i int) bool { return s[i] > v })
	frac := (rank - float64(lo)) / float64(hi-lo)
	return float64(v) - 0.5 + min(max(frac, 0), 1), n - int(math.Ceil(rank))
}

func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func perOp(total time.Duration, n int64) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

func when(ok bool, v float64) float64 {
	if !ok {
		return 0
	}
	return v
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
