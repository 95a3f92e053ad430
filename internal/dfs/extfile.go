package dfs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// Handle is the file-handle surface shared by the flat path (*File) and
// the extent path (*ExtentFile); internal/core programs against it so an
// application doesn't care which backend a path landed on.
type Handle interface {
	Write(p *simnet.Proc, data []byte) (int, error)
	Pwrite(p *simnet.Proc, data []byte, off int64) (int, error)
	Read(p *simnet.Proc, buf []byte) (int, error)
	Pread(p *simnet.Proc, buf []byte, off int64) (int, error)
	Sync(p *simnet.Proc) error
	Close(p *simnet.Proc) error
	Size() int64
	Path() string
	DirtyBytes() int64
	SeekTo(off int64)
}

var (
	_ Handle = (*File)(nil)
	_ Handle = (*ExtentFile)(nil)
)

// extSeg maps one contiguous logical range of a file onto one extent. The
// chain membership is embedded so reads never need a metadata lookup.
type extSeg struct {
	logStart, logEnd int64
	ext              uint64
	extOff           int64
	nodes            []string
}

// extManifest is an extent-backed file's durable metadata: sorted,
// non-overlapping, non-empty segments mapping the logical file onto
// extents. It is immutable once installed on the inode; a flush commits by
// swapping in the merged successor built by commit, so a client crash
// mid-flush leaves the old manifest — and therefore the old file content —
// intact, exactly like an fsync that never returned.
type extManifest struct {
	size int64
	segs []extSeg
}

// commit returns the manifest that results from laying segs over m:
// every old segment a new one overlaps is trimmed to the parts it still
// owns, so an overwrite (e.g. a litedb checkpoint Pwrite) appends fresh
// bytes to the log and shadows the range of whatever extent held them
// before. The segments in segs must each be non-empty and pairwise
// disjoint (a flush's chunks are); their order does not matter, and commit
// sorts them in place. One merge pass over the two sorted lists builds the
// result in a single allocation: O(n + k log k) for k new segments over n
// old ones. m itself is left untouched.
func (m *extManifest) commit(segs []extSeg) *extManifest {
	slices.SortFunc(segs, func(a, b extSeg) int { return cmp.Compare(a.logStart, b.logStart) })
	// Each new segment adds itself and splits at most one old segment in
	// two, so n+2k bounds the result.
	out := make([]extSeg, 0, len(m.segs)+2*len(segs))
	size := m.size
	j := 0
	for _, old := range m.segs {
		for j < len(segs) && segs[j].logEnd <= old.logStart {
			out = append(out, segs[j])
			j++
		}
		// The segs[j] that start before old ends overlap it: keep the part
		// of old before each, and go on with the part after it.
		for j < len(segs) && segs[j].logStart < old.logEnd {
			sg := segs[j]
			if old.logStart < sg.logStart {
				left := old
				left.logEnd = sg.logStart
				out = append(out, left)
			}
			if sg.logEnd >= old.logEnd {
				// sg shadows the rest of old and may reach into the next
				// old segment, which emits it.
				old.logStart = old.logEnd
				break
			}
			out = append(out, sg)
			j++
			old.extOff += sg.logEnd - old.logStart
			old.logStart = sg.logEnd
		}
		if old.logStart < old.logEnd {
			out = append(out, old)
		}
	}
	out = append(out, segs[j:]...)
	if n := len(segs); n > 0 && segs[n-1].logEnd > size {
		size = segs[n-1].logEnd
	}
	return &extManifest{size: size, segs: out}
}

// ExtentFile is an open handle on an extent-backed file. Writes buffer in
// the client like the flat path; Sync packs the dirty spans into chunks
// and streams each down its extent's chain concurrently, then commits the
// manifest. Extent files skip the background writeback plane — they are
// explicit-sync append streams, the pattern every port uses for SSTables,
// checkpoints and journal chunks.
type ExtentFile struct {
	client *Client
	path   string
	df     *durableFile

	view     []byte
	resident []span
	dirty    []span
	size     int64
	offset   int64

	flushing bool
	closed   bool

	// The append tail: where the next flushed byte lands. Invalidated by a
	// failed flush (re-forms may have sealed it) so the next flush starts
	// on a fresh extent.
	tailValid bool
	tailExt   uint64
	tailOff   int64
	tailNodes []string
}

// OpenFileExt opens path on whichever backend it lives on, creating it if
// create is set and it doesn't exist — on the extent plane when extent is
// set and the plane is attached, on the flat path otherwise. Existing
// files open as whatever they were created as (the flag only matters at
// create), so readers need no knowledge of the backend.
func (cl *Client) OpenFileExt(p *simnet.Proc, path string, create, extent bool) (Handle, error) {
	if err := cl.checkAlive(); err != nil {
		return nil, err
	}
	df, ok := cl.cluster.files[path]
	if !ok {
		if !create {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		if extent && cl.cluster.ExtentsEnabled() {
			return cl.createExtentFile(p, path)
		}
		return cl.Create(p, path)
	}
	if df.ext != nil {
		return cl.openExtentFile(p, path, df)
	}
	return cl.Open(p, path)
}

func (cl *Client) createExtentFile(p *simnet.Proc, path string) (*ExtentFile, error) {
	p.Sleep(cl.cluster.params.MetaFixed)
	df := &durableFile{ext: &extManifest{}}
	cl.cluster.files[path] = df
	return &ExtentFile{client: cl, path: path, df: df}, nil
}

func (cl *Client) openExtentFile(p *simnet.Proc, path string, df *durableFile) (*ExtentFile, error) {
	p.Sleep(cl.cluster.params.MetaFixed)
	// The tail is not recovered: appends after reopen start on a fresh
	// extent (log-structured; the partially filled old tail just stays as
	// it is, referenced by the manifest).
	return &ExtentFile{client: cl, path: path, df: df, size: df.ext.size}, nil
}

// Size returns the file's current (buffered) length.
func (f *ExtentFile) Size() int64 { return f.size }

// Path returns the file's path.
func (f *ExtentFile) Path() string { return f.path }

// DirtyBytes reports how much buffered data a Sync would flush right now.
func (f *ExtentFile) DirtyBytes() int64 { return spanBytes(f.dirty) }

// SeekTo sets the cursor for Write/Read to an absolute offset.
func (f *ExtentFile) SeekTo(off int64) { f.offset = off }

// Write appends data at the cursor (buffered; durable only after Sync).
func (f *ExtentFile) Write(p *simnet.Proc, data []byte) (int, error) {
	n, err := f.Pwrite(p, data, f.offset)
	f.offset += int64(n)
	return n, err
}

// Pwrite buffers data at off. Extent files pay the local copy cost only:
// they are outside the writeback plane, so there is no dirty throttling —
// durability cost is paid where it belongs, at Sync.
func (f *ExtentFile) Pwrite(p *simnet.Proc, data []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	cl := f.client
	if err := cl.checkAlive(); err != nil {
		return 0, err
	}
	tsp := p.StartSpan("dfs", "pwrite", trace.Str("path", f.path), trace.Int("bytes", int64(len(data))))
	defer p.EndSpan(tsp)
	pm := cl.cluster.params
	p.Sleep(pm.SyscallFixed + time.Duration(float64(len(data))/pm.MemBandwidth*float64(time.Second)))
	end := off + int64(len(data))
	f.view = grow(f.view, end)
	copy(f.view[off:end], data)
	f.dirty = addSpan(f.dirty, span{start: off, end: end})
	f.resident = addSpan(f.resident, span{start: off, end: end})
	if end > f.size {
		f.size = end
	}
	return len(data), nil
}

// Sync makes all buffered writes durable through chained appends.
func (f *ExtentFile) Sync(p *simnet.Proc) error {
	if f.closed {
		return ErrClosed
	}
	return f.flushExt(p)
}

// pack cuts the dirty spans into chunks, filling the append tail and
// allocating fresh extents (from the lease cache) as extents fill. Chunks
// never cross an extent boundary.
func (f *ExtentFile) pack(p *simnet.Proc, spans []span) ([]chunk, error) {
	pm := f.client.cluster.params
	var chunks []chunk
	for _, s := range spans {
		cur := s.start
		for cur < s.end {
			if !f.tailValid || f.tailOff >= pm.ExtentSize {
				id, nodes, err := f.client.allocExtent(p)
				if err != nil {
					return nil, err
				}
				f.tailValid, f.tailExt, f.tailOff, f.tailNodes = true, id, 0, nodes
			}
			take := s.end - cur
			if room := pm.ExtentSize - f.tailOff; take > room {
				take = room
			}
			chunks = append(chunks, chunk{ext: f.tailExt, extOff: f.tailOff,
				logStart: cur, data: f.view[cur : cur+take], nodes: f.tailNodes})
			f.tailOff += take
			cur += take
		}
	}
	return chunks, nil
}

// flushExt is the extent fsync: pack dirty spans into chunks, pump every
// chunk down its chain concurrently, then commit the merged manifest.
func (f *ExtentFile) flushExt(p *simnet.Proc) error {
	cl := f.client
	if err := cl.checkAlive(); err != nil {
		return err
	}
	tsp := p.StartSpan("dfs", "fsync", trace.Str("path", f.path))
	defer p.EndSpan(tsp)
	pm := cl.cluster.params
	for f.flushing {
		p.Sleep(100 * time.Microsecond)
		if err := cl.checkAlive(); err != nil {
			return err
		}
	}
	f.flushing = true
	defer func() { f.flushing = false }()
	n := spanBytes(f.dirty)
	tsp.SetAttr(trace.Int("bytes", n))
	if n == 0 {
		p.Sleep(pm.SyncCleanFixed)
		cl.cluster.ExtentSyncs++
		return nil
	}
	spans := f.dirty
	f.dirty = nil
	restore := func() {
		for _, s := range spans {
			f.dirty = addSpan(f.dirty, s)
		}
		f.tailValid = false
	}
	chunks, err := f.pack(p, spans)
	if err != nil {
		restore()
		return err
	}
	results := make([][]extSeg, len(chunks))
	errs := make([]error, len(chunks))
	if len(chunks) == 1 {
		results[0], errs[0] = cl.writeChunk(p, chunks[0])
	} else {
		var wg simnet.WaitGroup
		wg.Add(len(chunks))
		for i := range chunks {
			i := i
			cl.pumpSeq++
			p.Go(fmt.Sprintf("dfs-chain-chunk:%d", cl.pumpSeq), func(wp *simnet.Proc) {
				defer wg.Done(wp)
				results[i], errs[i] = cl.writeChunk(wp, chunks[i])
			})
		}
		wg.Wait(p)
	}
	if cl.dead {
		// Died mid-flush: nothing commits; the inode keeps its old manifest.
		return errors.New("dfs: client died during flush")
	}
	for _, e := range errs {
		if e != nil {
			restore()
			return e
		}
	}
	// Commit: merge the new segments into a successor manifest, then install
	// it atomically on the inode (one metadata op).
	man := f.df.ext.commit(slices.Concat(results...))
	p.Sleep(pm.MetaFixed)
	f.df.ext = man
	cl.cluster.ExtentSyncs++
	cl.cluster.ExtentBytes += n
	// The tail continues from the last segment written (a re-form may have
	// moved it off the extent pack chose).
	last := results[len(results)-1]
	sg := last[len(last)-1]
	f.tailExt = sg.ext
	f.tailOff = sg.extOff + (sg.logEnd - sg.logStart)
	f.tailNodes = sg.nodes
	f.tailValid = f.tailOff < pm.ExtentSize
	return nil
}

// Read reads from the cursor.
func (f *ExtentFile) Read(p *simnet.Proc, buf []byte) (int, error) {
	n, err := f.Pread(p, buf, f.offset)
	f.offset += int64(n)
	return n, err
}

// Pread reads len(buf) bytes at off (short at EOF). Locally resident
// ranges cost a memory copy; the rest is fetched from the extents' chain
// members through the manifest.
func (f *ExtentFile) Pread(p *simnet.Proc, buf []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	cl := f.client
	if err := cl.checkAlive(); err != nil {
		return 0, err
	}
	if off >= f.size {
		return 0, nil
	}
	tsp := p.StartSpan("dfs", "pread", trace.Str("path", f.path), trace.Int("bytes", int64(len(buf))))
	defer p.EndSpan(tsp)
	n := int64(len(buf))
	if off+n > f.size {
		n = f.size - off
	}
	want := span{start: off, end: off + n}
	for _, miss := range missingRanges(f.resident, want) {
		if err := f.fetchRange(p, miss); err != nil {
			return 0, err
		}
	}
	pm := cl.cluster.params
	p.Sleep(pm.SyscallFixed + time.Duration(float64(n)/pm.MemBandwidth*float64(time.Second)))
	f.view = grow(f.view, off+n)
	copy(buf[:n], f.view[off:off+n])
	return int(n), nil
}

// missingRanges returns the parts of want not covered by the sorted,
// disjoint resident spans.
func missingRanges(resident []span, want span) []span {
	var out []span
	cur := want.start
	for _, r := range resident {
		if r.end <= cur {
			continue
		}
		if r.start >= want.end {
			break
		}
		if r.start > cur {
			out = append(out, span{start: cur, end: r.start})
		}
		if r.end > cur {
			cur = r.end
		}
	}
	if cur < want.end {
		out = append(out, span{start: cur, end: want.end})
	}
	return out
}

// fetchRange pulls one missing logical range into the view from the
// extents holding it (manifest holes read as zeros).
func (f *ExtentFile) fetchRange(p *simnet.Proc, s span) error {
	f.view = grow(f.view, s.end)
	// The manifest is immutable, so the slice stays valid across the
	// fetches' parks even if a concurrent flush installs a successor.
	segs := f.df.ext.segs
	i := sort.Search(len(segs), func(i int) bool { return segs[i].logEnd > s.start })
	for ; i < len(segs) && segs[i].logStart < s.end; i++ {
		sg := segs[i]
		lo, hi := s.start, s.end
		if sg.logStart > lo {
			lo = sg.logStart
		}
		if sg.logEnd < hi {
			hi = sg.logEnd
		}
		data, err := f.client.readExtentRange(p, sg, lo-sg.logStart, hi-lo)
		if err != nil {
			return err
		}
		copy(f.view[lo:hi], data)
	}
	f.resident = addSpan(f.resident, s)
	return nil
}

// Close flushes remaining dirty data (extent files have no background
// writeback to hand it to) and releases the handle.
func (f *ExtentFile) Close(p *simnet.Proc) error {
	if f.closed {
		return ErrClosed
	}
	if f.DirtyBytes() > 0 && !f.client.dead {
		if err := f.flushExt(p); err != nil {
			return err
		}
	}
	f.closed = true
	return nil
}
