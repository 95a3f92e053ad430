package main

import (
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// tiny shrinks a workload so a test run takes about a second.
func tiny(name string, rows int64) plan {
	w := *findWorkload(name)
	w.rows = rows
	pl := plan{w: &w, seed: 1, reps: 1, cycles: 1}
	if !w.measuresCycles() {
		pl.window = 10 * time.Millisecond
	}
	return pl
}

// virtual is every virtual-clock output of a run.
type virtual struct {
	Ops              int64
	Lat              []time.Duration
	Recovers, Stalls []time.Duration
	Digest           uint64
}

func virtualOf(r *result) virtual {
	return virtual{r.ops, r.lat, r.recovers, r.stalls, r.digest}
}

func mustExecute(t *testing.T, pl plan) *result {
	t.Helper()
	res, err := execute(pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.violations != 0 {
		t.Fatalf("%d audit violations: %v", res.violations, res.firstViolations)
	}
	return res
}

func TestVDigestRepeatsPerSeed(t *testing.T) {
	pl := tiny("kv-write", 20000)
	a, b := mustExecute(t, pl), mustExecute(t, pl)
	if !reflect.DeepEqual(virtualOf(a), virtualOf(b)) {
		t.Fatalf("same seed, different virtual results: vdigest %016x vs %016x", a.digest, b.digest)
	}
	pl.seed = 2
	if c := mustExecute(t, pl); c.digest == a.digest {
		t.Fatalf("seeds 1 and 2 share vdigest %016x", a.digest)
	}
}

func TestTracingDoesNotPerturb(t *testing.T) {
	for _, pl := range []plan{tiny("kv-read", 20000), tiny("lite-recover", 2000)} {
		plain := mustExecute(t, pl)
		pl.trace = true
		traced := mustExecute(t, pl)
		if len(traced.spans) == 0 {
			t.Fatalf("%s: traced run recorded no spans", pl.w.name)
		}
		if !reflect.DeepEqual(virtualOf(plain), virtualOf(traced)) {
			t.Fatalf("%s: vdigest %016x plain vs %016x traced", pl.w.name, plain.digest, traced.digest)
		}
	}
}

// grayCrash runs the chaos suite's correlated gray-members-plus-crash
// schedule against litedb: two of the WAL's three members turn slow, then the
// one up-to-date member dies together with the app. It returns the audit's
// violation count after recovery.
func grayCrash(t *testing.T, unsafeAckQuorum int) int {
	pl := tiny("lite-recover", 2000)
	pl.unsafeAckQuorum = unsafeAckQuorum
	res := &result{hash: fnv.New64a()}
	c := newCluster(pl.w, pl.seed)
	err := c.Run(func(p *simnet.Proc) error {
		r := newRunner(pl, c, res, pl.seed)
		if err := r.open(p); err != nil {
			return err
		}
		if err := r.load(p); err != nil {
			return err
		}
		r.serve()
		r.startClients(p, clientGens(pl.w, pl.seed, writeOnly, 1))
		p.Sleep(50 * time.Millisecond)
		members := r.a.walLog().LivePeers()
		if len(members) != 3 {
			t.Errorf("WAL has %d members, want 3", len(members))
			return nil
		}
		net := c.Sim.Net()
		for _, m := range members[1:] {
			net.SetLinkLatency(c.AppNode, c.Sim.Node(m), 5*time.Millisecond)
		}
		p.Sleep(300 * time.Millisecond)
		c.Sim.Node(members[0]).Crash()
		c.CrashApp()
		r.stopClients(p) // in-flight writes time out unacked
		net.HealAll()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()
		r.fence++
		fs, err := c.NewFS(p, "perfbench", r.fence)
		if err != nil {
			return err
		}
		r.a.fs = fs
		if err := r.a.recoverStore(p); err != nil {
			return err
		}
		return r.audit(p, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.auditedKeys == 0 {
		t.Fatal("audit read no keys")
	}
	return res.violations
}

func TestAuditCatchesUnsafeAckQuorum(t *testing.T) {
	if v := grayCrash(t, 0); v != 0 {
		t.Fatalf("correct commit rule: %d audit violations, want 0", v)
	}
	if v := grayCrash(t, 1); v == 0 {
		t.Fatal("UnsafeAckQuorum=1 lost acked writes, but the audit reported none")
	}
}

func TestPercentileInterpolatesTies(t *testing.T) {
	xs := []time.Duration{10, 10, 10, 10, 20}
	if v, _ := percentile(xs, 50); v <= 9.5 || v >= 10.5 {
		t.Fatalf("p50 = %v, want inside the 10ns tick", v)
	}
	lo, _ := percentile(xs, 20)
	hi, _ := percentile(xs, 60)
	if !(lo < hi) {
		t.Fatalf("p20 %v >= p60 %v within a tie", lo, hi)
	}
	if _, beyond := percentile(make([]time.Duration, 1000), 99); beyond != 10 {
		t.Fatalf("p99 of 1000 has %d beyond, want 10", beyond)
	}
}
