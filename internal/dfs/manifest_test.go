package dfs

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// splice is the reference semantics of a manifest commit: insert one
// segment, trimming the older segments it overlaps. commit must equal a
// sequence of these, one per new segment.
func (m *extManifest) splice(sg extSeg) {
	out := m.segs[:0:0]
	for _, old := range m.segs {
		if old.logEnd <= sg.logStart || old.logStart >= sg.logEnd {
			out = append(out, old)
			continue
		}
		if old.logStart < sg.logStart {
			left := old
			left.logEnd = sg.logStart
			out = append(out, left)
		}
		if old.logEnd > sg.logEnd {
			right := old
			right.extOff += sg.logEnd - old.logStart
			right.logStart = sg.logEnd
			out = append(out, right)
		}
	}
	i := 0
	for i < len(out) && out[i].logStart <= sg.logStart {
		i++
	}
	out = slices.Insert(out, i, sg)
	m.segs = out
	if sg.logEnd > m.size {
		m.size = sg.logEnd
	}
}

func (m *extManifest) clone() *extManifest {
	return &extManifest{size: m.size, segs: slices.Clone(m.segs)}
}

func segsEqual(a, b []extSeg) bool {
	return slices.EqualFunc(a, b, func(x, y extSeg) bool {
		return x.logStart == y.logStart && x.logEnd == y.logEnd &&
			x.ext == y.ext && x.extOff == y.extOff && slices.Equal(x.nodes, y.nodes)
	})
}

// randDisjointSegs draws up to maxN non-empty, pairwise disjoint segments
// inside [0, span), returned in random order. Gaps are often zero, so
// adjacent segments (a multi-chunk flush, a re-formed chunk) are common.
// Every segment gets a fresh extent ID and an arbitrary extent offset, so a
// mis-trimmed extOff shows up as a mismatch.
func randDisjointSegs(rng *rand.Rand, span int64, maxN int, nextExt *uint64) []extSeg {
	var segs []extSeg
	cur := int64(rng.Intn(int(span / 4)))
	for n := rng.Intn(maxN) + 1; n > 0 && cur < span; n-- {
		length := int64(rng.Intn(int(span/8))) + 1
		*nextExt++
		segs = append(segs, extSeg{logStart: cur, logEnd: cur + length,
			ext: *nextExt, extOff: int64(rng.Intn(1 << 20))})
		cur += length
		if rng.Intn(2) == 0 {
			cur += int64(rng.Intn(int(span / 8)))
		}
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	return segs
}

// Property: a one-pass commit equals splicing the same segments one by one
// into a clone — over manifests with holes, new segments adjacent to,
// inside, straddling and covering old ones, and multi-segment flushes —
// and leaves the committed-over manifest untouched.
func TestManifestCommitMatchesSequentialSplice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ext uint64
	for iter := 0; iter < 3000; iter++ {
		span := int64(16 + rng.Intn(4096))
		base := &extManifest{}
		for layers := rng.Intn(4); layers > 0; layers-- {
			for _, sg := range randDisjointSegs(rng, span, 8, &ext) {
				base.splice(sg)
			}
		}
		before := base.clone()
		add := randDisjointSegs(rng, span+span/4, 8, &ext)

		want := base.clone()
		for _, sg := range add {
			want.splice(sg)
		}
		got := base.commit(slices.Clone(add))

		if got.size != want.size || !segsEqual(got.segs, want.segs) {
			t.Fatalf("iter %d: commit of %+v over %+v\n got  size=%d %+v\n want size=%d %+v",
				iter, add, before.segs, got.size, got.segs, want.size, want.segs)
		}
		if base.size != before.size || !segsEqual(base.segs, before.segs) {
			t.Fatalf("iter %d: commit mutated the old manifest", iter)
		}
		for i, sg := range got.segs {
			if sg.logStart >= sg.logEnd || (i > 0 && got.segs[i-1].logEnd > sg.logStart) {
				t.Fatalf("iter %d: segment %d breaks the sorted, disjoint, non-empty invariant: %+v", iter, i, got.segs)
			}
		}
	}
}

// An extent read returns an alias of the replica's append log, not a copy,
// so the bytes it returned must stay put while the replica grows past its
// capacity (grow reallocates) and while its extent is sealed and the file's
// stream re-forms onto a fresh chain (the holder's crash drops the replica).
func TestExtentReadAliasStableAcrossGrowAndReform(t *testing.T) {
	fx := newExtFixture(6, failParams())
	payload := pattern(3 << 20)
	fx.node.Go("test", func(p *simnet.Proc) {
		defer fx.sim.Stop()
		h, err := fx.client.OpenFileExt(p, "/ext/f", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h.Write(p, payload[:200<<10])
		if err := h.Sync(p); err != nil {
			t.Errorf("sync 1: %v", err)
			return
		}
		sg := fx.cluster.files["/ext/f"].ext.segs[0]
		got, err := fx.client.readExtentRange(p, sg, 0, sg.logEnd-sg.logStart)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		want := bytes.Clone(got)
		if !bytes.Equal(want, payload[:200<<10]) {
			t.Error("first read mismatch")
		}
		holder := fx.cluster.extents.byAddr[sg.nodes[0]]
		first := &holder.extents[sg.ext].data[0]

		// Fill most of the extent: the replica grows from 256 KB capacity
		// to 1 MB, reallocating its log.
		h.Write(p, payload[200<<10:800<<10])
		if err := h.Sync(p); err != nil {
			t.Errorf("sync 2: %v", err)
			return
		}
		if &holder.extents[sg.ext].data[0] == first {
			t.Error("the append did not reallocate the replica; the test proves nothing")
		}
		if !bytes.Equal(got, want) {
			t.Error("aliased read bytes changed when the replica grew")
		}

		// Kill the holder, then flush: the chunk on the old extent fails,
		// the extent is sealed, and the stream re-forms elsewhere.
		holder.node.Crash()
		h.Write(p, payload[800<<10:])
		if err := h.Sync(p); err != nil {
			t.Errorf("sync across the re-form: %v", err)
			return
		}
		if _, sealed := fx.cluster.extents.sealedLocal[sg.ext]; !sealed {
			t.Errorf("extent %d not sealed", sg.ext)
		}
		if !bytes.Equal(got, want) {
			t.Error("aliased read bytes changed across seal and re-form")
		}
		again, err := fx.client.readExtentRange(p, sg, 0, sg.logEnd-sg.logStart)
		if err != nil || !bytes.Equal(again, want) {
			t.Errorf("failover re-read mismatch (err=%v)", err)
		}
		if durable, ok := fx.cluster.DurableBytes("/ext/f"); !ok || !bytes.Equal(durable, payload) {
			t.Errorf("durable mismatch after re-form (ok=%v)", ok)
		}
	})
	run(t, fx.sim)
}

// A flush whose chunks all fail must hand back exactly the spans it took,
// merged with whatever was written while it was in flight — the in-place
// span set must not have been shared between the flush and new writes.
func TestFailedFlushRestoresDirtySpans(t *testing.T) {
	fx := newExtFixture(7, failParams())
	fx.node.Go("test", func(p *simnet.Proc) {
		defer fx.sim.Stop()
		h, err := fx.client.OpenFileExt(p, "/ext/f", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f := h.(*ExtentFile)
		for _, s := range []span{{0, 100 << 10}, {300 << 10, 400 << 10}, {700 << 10, 750 << 10}, {2 << 20, 3 << 20}} {
			f.Pwrite(p, pattern(int(s.end-s.start)), s.start)
		}
		taken := slices.Clone(f.dirty)
		for _, sn := range fx.sns {
			sn.Crash()
		}
		// While the flush waits on dead chains, a second writer bridges two
		// of the spans it took and adds one of its own.
		during := []span{{90 << 10, 310 << 10}, {1 << 20, (1 << 20) + 5}}
		p.Go("writer2", func(wp *simnet.Proc) {
			wp.Sleep(5 * time.Millisecond)
			for _, s := range during {
				f.Pwrite(wp, pattern(int(s.end-s.start)), s.start)
			}
		})
		if err := f.Sync(p); err == nil {
			t.Error("sync with every storage node dead succeeded")
			return
		}
		want := slices.Clone(taken)
		for _, s := range during {
			want = addSpan(want, s)
		}
		if !slices.Equal(f.dirty, want) {
			t.Errorf("dirty after failed flush = %v, want %v", f.dirty, want)
		}
		if f.tailValid {
			t.Error("failed flush left the append tail valid")
		}
		if m := fx.cluster.files["/ext/f"].ext; len(m.segs) != 0 {
			t.Errorf("failed flush committed segments: %+v", m.segs)
		}
	})
	run(t, fx.sim)
}

// Offsets and lengths arrive as uint64 on the wire; a negative or
// out-of-extent one must come back as an error from the extent node, not
// panic its handler (which would abort the whole simulation), and the node
// must keep serving afterwards.
func TestExtentNodeRejectsBadRanges(t *testing.T) {
	fx := newExtFixture(8, failParams())
	fx.node.Go("test", func(p *simnet.Proc) {
		defer fx.sim.Stop()
		h, err := fx.client.OpenFileExt(p, "/ext/f", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h.Write(p, pattern(4096))
		if err := h.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		sg := fx.cluster.files["/ext/f"].ext.segs[0]
		addr := sg.nodes[0]
		neg := func(v int64) uint64 { return uint64(v) }
		extSize := uint64(fx.cluster.params.ExtentSize)
		cases := []struct {
			m        simnet.Msg
			outRange bool // rejected as malformed, not as merely absent
		}{
			{simnet.Msg{Code: codeExtRead, U: [4]uint64{sg.ext, neg(-1), 16}}, true},
			{simnet.Msg{Code: codeExtRead, U: [4]uint64{sg.ext, 0, neg(-16)}}, true},
			{simnet.Msg{Code: codeExtRead, U: [4]uint64{sg.ext, 1 << 62, 1 << 62}}, false},
			{simnet.Msg{Code: codeExtAppend, U: [4]uint64{sg.ext, neg(-8)}, B: make([]byte, 8)}, true},
			{simnet.Msg{Code: codeExtAppend, U: [4]uint64{sg.ext, extSize - 4}, B: make([]byte, 8)}, true},
			{simnet.Msg{Code: codeExtAppend, U: [4]uint64{sg.ext, 1 << 62}, B: make([]byte, 8)}, true},
		}
		for _, c := range cases {
			_, err := fx.sim.Net().Call(p, fx.node, addr, c.m)
			if err == nil {
				t.Errorf("code %#x U=%v accepted", uint16(c.m.Code), c.m.U)
			} else if c.outRange != errors.Is(err, errExtRange) {
				t.Errorf("code %#x U=%v: err %v, errExtRange=%v", uint16(c.m.Code), c.m.U, err, c.outRange)
			}
		}
		got, err := fx.client.readExtentRange(p, sg, 0, 4096)
		if err != nil || !bytes.Equal(got, pattern(4096)) {
			t.Errorf("valid read after bad requests: err=%v", err)
		}
	})
	run(t, fx.sim)
}
