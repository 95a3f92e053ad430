package litedb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"splitft/internal/harness"
	"splitft/internal/simnet"
)

func testConfig(d Durability) Config {
	cfg := DefaultConfig()
	cfg.Durability = d
	cfg.NPages = 128
	cfg.WALBytes = 128 << 10 // ~31 frames before wrap
	return cfg
}

func TestSetGetAllDurabilities(t *testing.T) {
	for _, d := range []Durability{Weak, Strong, SplitFT} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			c := harness.New(harness.Options{Seed: 1, NumPeers: 4})
			err := c.Run(func(p *simnet.Proc) error {
				fs, err := c.NewFS(p, "lite", 0)
				if err != nil {
					return err
				}
				db, err := Open(p, fs, testConfig(d))
				if err != nil {
					return err
				}
				for i := 0; i < 60; i++ {
					if err := db.Set(p, fmt.Sprintf("row%04d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
						return err
					}
				}
				for i := 0; i < 60; i++ {
					v, ok, err := db.Get(p, fmt.Sprintf("row%04d", i))
					if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
						return fmt.Errorf("get row%04d = %q %v %v", i, v, ok, err)
					}
				}
				if err := db.Delete(p, "row0005"); err != nil {
					return err
				}
				if _, ok, _ := db.Get(p, "row0005"); ok {
					return errors.New("deleted row still present")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCircularWALWrapsAndCheckpoints(t *testing.T) {
	c := harness.New(harness.Options{Seed: 2, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "lite", 0)
		db, err := Open(p, fs, testConfig(SplitFT))
		if err != nil {
			return err
		}
		val := bytes.Repeat([]byte("z"), 100)
		for i := 0; i < 200; i++ { // >> 31 frames: multiple wraps
			if err := db.Set(p, fmt.Sprintf("row%04d", i%50), val); err != nil {
				return err
			}
		}
		if db.Checkpoints == 0 {
			return errors.New("WAL never wrapped/checkpointed")
		}
		if db.walOff >= db.cfg.WALBytes {
			return fmt.Errorf("walOff %d beyond capacity", db.walOff)
		}
		// Data durable across the wraps.
		for i := 0; i < 50; i++ {
			if _, ok, _ := db.Get(p, fmt.Sprintf("row%04d", i)); !ok {
				return fmt.Errorf("row%04d lost after wraps", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func crashRecover(t *testing.T, seed int64, d Durability, writes int) (acked, survived int) {
	t.Helper()
	c := harness.New(harness.Options{Seed: seed, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		c.AppNode.Go("app-v1", func(ap *simnet.Proc) {
			fs, err := c.NewFS(ap, "lite", 0)
			if err != nil {
				return
			}
			db, err := Open(ap, fs, testConfig(d))
			if err != nil {
				return
			}
			for i := 0; i < writes; i++ {
				if err := db.Set(ap, fmt.Sprintf("row%04d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
					return
				}
				acked = i + 1
			}
			ap.Sleep(time.Hour)
		})
		p.Sleep(400 * time.Millisecond)
		c.CrashApp()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()
		fs2, err := c.NewFS(p, "lite", 1)
		if err != nil {
			return err
		}
		db2, err := Recover(p, fs2, testConfig(d))
		if err != nil {
			return err
		}
		for i := 0; i < acked; i++ {
			v, ok, err := db2.Get(p, fmt.Sprintf("row%04d", i))
			if err != nil {
				return err
			}
			if ok && string(v) == fmt.Sprintf("val%d", i) {
				survived++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return acked, survived
}

func TestCrashRecoverySplitFTNoLoss(t *testing.T) {
	acked, survived := crashRecover(t, 3, SplitFT, 120)
	if acked == 0 || survived != acked {
		t.Fatalf("acked=%d survived=%d", acked, survived)
	}
}

func TestCrashRecoveryStrongNoLoss(t *testing.T) {
	acked, survived := crashRecover(t, 4, Strong, 50)
	if acked == 0 || survived != acked {
		t.Fatalf("acked=%d survived=%d", acked, survived)
	}
}

func TestCrashRecoveryWeakLoses(t *testing.T) {
	acked, survived := crashRecover(t, 5, Weak, 400)
	if acked == 0 {
		t.Fatal("nothing acked")
	}
	if survived >= acked {
		t.Fatalf("weak lost nothing (%d/%d)", survived, acked)
	}
}

func TestRecoveryAcrossWALWrap(t *testing.T) {
	// Crash after the WAL wrapped: recovery must merge the checkpointed db
	// file with the newest WAL generation (the circular case of Fig 7ii).
	c := harness.New(harness.Options{Seed: 6, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		total := 0
		c.AppNode.Go("app-v1", func(ap *simnet.Proc) {
			fs, _ := c.NewFS(ap, "lite", 0)
			db, err := Open(ap, fs, testConfig(SplitFT))
			if err != nil {
				return
			}
			for i := 0; i < 150; i++ { // wraps at least twice
				if err := db.Set(ap, fmt.Sprintf("row%04d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
					return
				}
				total = i + 1
			}
			ap.Sleep(time.Hour)
		})
		p.Sleep(600 * time.Millisecond)
		c.CrashApp()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()
		fs2, _ := c.NewFS(p, "lite", 1)
		db2, err := Recover(p, fs2, testConfig(SplitFT))
		if err != nil {
			return err
		}
		for i := 0; i < total; i++ {
			v, ok, _ := db2.Get(p, fmt.Sprintf("row%04d", i))
			if !ok || string(v) != fmt.Sprintf("val%d", i) {
				return fmt.Errorf("row%04d lost across wrap (got %q ok=%v)", i, v, ok)
			}
		}
		// And the recovered db keeps working.
		if err := db2.Set(p, "after", []byte("recovery")); err != nil {
			return err
		}
		v, ok, _ := db2.Get(p, "after")
		if !ok || string(v) != "recovery" {
			return errors.New("write after recovery failed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPageOverflowError(t *testing.T) {
	c := harness.New(harness.Options{Seed: 7, NumPeers: 3})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "lite", 0)
		cfg := testConfig(SplitFT)
		cfg.NPages = 1 // everything on one page
		db, err := Open(p, fs, cfg)
		if err != nil {
			return err
		}
		big := bytes.Repeat([]byte("B"), 1000)
		var lastErr error
		for i := 0; i < 10; i++ {
			lastErr = db.Set(p, fmt.Sprintf("big%d", i), big)
			if lastErr != nil {
				break
			}
		}
		if !errors.Is(lastErr, ErrPageFull) {
			return fmt.Errorf("expected page overflow, got %v", lastErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Page codec property: set/get roundtrips for arbitrary key sets.
func TestQuickPageCodec(t *testing.T) {
	f := func(pairs map[string]string) bool {
		img := make([]byte, 8192)
		shadow := map[string]string{}
		for k, v := range pairs {
			if len(k) > 200 || len(v) > 200 {
				continue
			}
			next, err := pageSet(img, k, []byte(v))
			if err != nil {
				continue // overflow: acceptable
			}
			img = next
			shadow[k] = v
		}
		for k, v := range shadow {
			got, ok := pageGet(img, k)
			if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Reads of non-checkpointed pages come from the dirty map, the rest through
// one reused page buffer. Interleave Get and Set (and Delete) across forced
// checkpoints and a crash/Recover, check every read byte-exact against a
// model, and check that values returned earlier never change afterwards
// (they must be copies, not views of the reused buffer).
func TestInterleavedReadsAcrossCheckpointAndRecovery(t *testing.T) {
	type held struct {
		got, want []byte
	}
	var kept []held
	cleanReads := 0
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(9))
	keys := make([]string, 150)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
	}
	// ops runs n random transactions against db, checking each read.
	ops := func(p *simnet.Proc, db *DB, n int) error {
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(10); {
			case r < 5:
				if _, dirty := db.dirty[db.pageOf(k)]; !dirty {
					cleanReads++
				}
				v, ok, err := db.Get(p, k)
				if err != nil {
					return err
				}
				want, present := model[k]
				if ok != present || !bytes.Equal(v, want) {
					return fmt.Errorf("get %s = %q (ok=%v), want %q (ok=%v)", k, v, ok, want, present)
				}
				if ok {
					kept = append(kept, held{got: v, want: bytes.Clone(want)})
				}
			case r < 9:
				v := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 1+rng.Intn(120))
				if err := db.Set(p, k, v); err != nil {
					return err
				}
				model[k] = v
			default:
				if err := db.Delete(p, k); err != nil {
					return err
				}
				delete(model, k)
			}
		}
		return nil
	}
	c := harness.New(harness.Options{Seed: 11, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		var appErr error
		done := false
		c.AppNode.Go("app-v1", func(ap *simnet.Proc) {
			defer func() { done = true }()
			fs, err := c.NewFS(ap, "lite", 0)
			if err != nil {
				appErr = err
				return
			}
			db, err := Open(ap, fs, testConfig(SplitFT))
			if err != nil {
				appErr = err
				return
			}
			if appErr = ops(ap, db, 150); appErr != nil {
				return
			}
			if appErr = db.Checkpoint(ap); appErr != nil {
				return
			}
			appErr = ops(ap, db, 150) // wraps the WAL: more checkpoints
		})
		for !done {
			p.Sleep(time.Millisecond)
		}
		if appErr != nil {
			return appErr
		}
		c.CrashApp()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()
		fs2, err := c.NewFS(p, "lite", 1)
		if err != nil {
			return err
		}
		db2, err := Recover(p, fs2, testConfig(SplitFT))
		if err != nil {
			return err
		}
		for _, k := range keys {
			v, ok, err := db2.Get(p, k)
			want, present := model[k]
			if err != nil || ok != present || !bytes.Equal(v, want) {
				return fmt.Errorf("after recovery get %s = %q (ok=%v, err=%v), want %q", k, v, ok, err, want)
			}
		}
		if err := ops(p, db2, 150); err != nil {
			return err
		}
		if err := db2.Checkpoint(p); err != nil {
			return err
		}
		if db2.DirtyPages() != 0 {
			return fmt.Errorf("%d dirty pages after checkpoint", db2.DirtyPages())
		}
		return ops(p, db2, 150)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range kept {
		if !bytes.Equal(h.got, h.want) {
			t.Fatalf("value returned by read %d changed afterwards: %q, want %q", i, h.got, h.want)
		}
	}
	if len(kept) < 100 || cleanReads < 100 {
		t.Fatalf("%d reads hit a present key and %d a checkpointed page; the test proves little", len(kept), cleanReads)
	}
}

// A page past the end of the database file reads as zeros even when the
// reused page buffer last held another page's content.
func TestReadPagePastEOFIsZero(t *testing.T) {
	c := harness.New(harness.Options{Seed: 12, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "lite", 0)
		if err != nil {
			return err
		}
		db, err := Open(p, fs, testConfig(SplitFT))
		if err != nil {
			return err
		}
		low, high := "", ""
		for i := 0; low == "" || high == ""; i++ {
			k := fmt.Sprintf("k%d", i)
			switch id := db.pageOf(k); {
			case id < 4 && low == "":
				low = k
			case id == db.cfg.NPages-1 && high == "":
				high = k
			}
		}
		if err := db.Set(p, low, []byte("value")); err != nil {
			return err
		}
		if err := db.Checkpoint(p); err != nil {
			return err
		}
		if v, ok, err := db.Get(p, low); err != nil || !ok || string(v) != "value" {
			return fmt.Errorf("get %s = %q %v %v", low, v, ok, err)
		}
		db.mu.Lock(p)
		img, err := db.readPage(p, db.pageOf(high))
		db.mu.Unlock(p)
		if err != nil {
			return err
		}
		if !bytes.Equal(img, make([]byte, db.cfg.PageSize)) {
			return fmt.Errorf("page %d past EOF is not zero", db.pageOf(high))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
