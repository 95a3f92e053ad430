// Package dfs simulates the disaggregated storage backends of the DFT
// paradigm: a CephFS-like distributed file system and, with different
// parameters, a local-ext4-on-SSD file system (used only as a recovery
// baseline, as in the paper's Fig 11b).
//
// Semantics reproduced (§2.1 of the paper):
//
//   - Writes are buffered in the client's (application server's) memory and
//     become durable only on fsync, which replicates them to the storage
//     service. Data written before the last successful fsync survives a
//     client crash; everything after it is lost.
//   - Metadata operations (create/unlink/rename) are synchronous and
//     durable immediately.
//   - A background writeback proc flushes dirty data periodically, and
//     writers stall when dirty data exceeds a high watermark — the
//     "write stalls" that weak-mode applications suffer and SplitFT avoids.
//   - Reads are served through a client block cache with sequential
//     readahead; direct IO bypasses the cache (Fig 11a baselines).
//
// Cost model: a single shared storage pipe per cluster (bandwidth
// reservation in virtual time, crash-safe by construction) plus fixed
// round-trip costs for sync, metadata and fetch operations. DefaultParams
// is calibrated to the paper's CephFS measurements: a small sync write
// costs ~2.3 ms (Table 1, Fig 8 "strong"), sequential write throughput
// spans three orders of magnitude between 512 B and 64 MB IOs (Fig 1d).
package dfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// Params is the storage cost model. The constants live in internal/model
// (the unified hardware cost-model layer); this alias keeps the dfs API
// self-contained.
type Params = model.DFSParams

// DefaultParams returns the baseline profile's dfs cost model, which
// models the paper's CephFS deployment (3 replicas on SATA SSDs behind a
// 25 Gb network).
func DefaultParams() Params {
	return model.Baseline().DFS
}

// LocalExt4Params returns the baseline profile's local-ext4 cost model — a
// local partition on a SATA SSD (the comparison point in Fig 11b; "not
// realistic" for DFT but fast).
func LocalExt4Params() Params {
	return model.Baseline().LocalFS
}

// Errors.
var (
	ErrNotExist = errors.New("dfs: file does not exist")
	ErrExist    = errors.New("dfs: file already exists")
	ErrClosed   = errors.New("dfs: file handle closed")
)

// Cluster is the storage service: durable state that survives any client or
// application crash. (Internally the real service replicates 3x; the model
// collapses that into the cost constants.)
type Cluster struct {
	sim    *simnet.Sim
	name   string
	params Params
	files  map[string]*durableFile
	// diskBusyUntil implements the shared storage pipe as a virtual-time
	// reservation: crash-safe, deterministic FIFO bandwidth sharing.
	diskBusyUntil time.Duration

	// extents is the chained-append extent store (nil until EnableExtents;
	// the classic primary-copy path above is untouched by it).
	extents *extentStore

	// Stats.
	BytesWritten int64
	BytesRead    int64
	Syncs        int64
	// ExtentBytes counts bytes acked through extent chains (the payload
	// once, not per replica); ExtentSyncs counts extent-file fsyncs.
	ExtentBytes int64
	ExtentSyncs int64
}

// durableFile is one inode of the storage service. Small files hold their
// bytes inline (data); large files opened with the extent flag hold a
// manifest mapping logical ranges onto chain-replicated extents (ext).
type durableFile struct {
	data []byte
	ext  *extManifest
}

// NewCluster creates a storage service on s.
func NewCluster(s *simnet.Sim, name string, params Params) *Cluster {
	return &Cluster{sim: s, name: name, params: params, files: make(map[string]*durableFile)}
}

// Params returns the cluster cost model.
func (c *Cluster) Params() Params { return c.params }

// reserveWrite reserves the storage pipe for n bytes and returns the
// reservation's completion time.
func (c *Cluster) reserve(n int64, bw float64) time.Duration {
	start := c.diskBusyUntil
	if now := c.sim.Now(); start < now {
		start = now
	}
	c.diskBusyUntil = start + time.Duration(float64(n)/bw*float64(time.Second))
	return c.diskBusyUntil
}

// DurableSize returns the durable length of path, and whether it exists.
func (c *Cluster) DurableSize(path string) (int64, bool) {
	f, ok := c.files[path]
	if !ok {
		return 0, false
	}
	if f.ext != nil {
		return f.ext.size, true
	}
	return int64(len(f.data)), true
}

// DurableBytes returns a copy of the durable content of path. For an
// extent-backed file the content is reconstructed from the storage nodes'
// replicas (a zero-cost test/debug helper, not a data path).
func (c *Cluster) DurableBytes(path string) ([]byte, bool) {
	f, ok := c.files[path]
	if !ok {
		return nil, false
	}
	if f.ext != nil {
		return c.extents.reconstruct(f.ext), true
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, true
}

// Client is one node's mount of the cluster. Its caches and dirty data die
// with the node; durable state lives in the Cluster.
type Client struct {
	cluster *Cluster
	node    *simnet.Node
	dead    bool

	open  map[*File]struct{}
	dirty int64

	cache     map[blockKey]*blockEnt
	cacheLRU  uint64
	cacheUsed int64

	stallCond *simnet.Cond
	stallMu   simnet.Mutex

	flushNow *simnet.Chan[struct{}]

	// Extent-plane state (nil/zero until the mount touches an extent file):
	// the metadata client, the extent-ID lease cache, the chain members this
	// mount has blamed for failed appends, the egress-link pipe all chained
	// appends serialize through, and a counter naming pump procs.
	meta          ExtentMeta
	allocNext     uint64
	allocEnd      uint64
	suspects      map[string]time.Duration
	reforms       int
	extEgressBusy time.Duration
	pumpSeq       uint64

	// DirectIO disables the block cache and readahead for all reads through
	// this client (Fig 11a "DFS direct IO" baseline).
	DirectIO bool

	// Stats.
	CacheHits    int64
	CacheMisses  int64
	StallTime    time.Duration
	FlushedBytes int64
}

type blockKey struct {
	path string
	idx  int64
}

type blockEnt struct {
	lru  uint64
	size int64
}

// Mount creates a client for node. The mount dies (caches and dirty data
// dropped) when the node crashes; remounting after restart starts clean.
func (c *Cluster) Mount(node *simnet.Node) *Client {
	cl := &Client{
		cluster:  c,
		node:     node,
		open:     make(map[*File]struct{}),
		cache:    make(map[blockKey]*blockEnt),
		flushNow: simnet.NewChan[struct{}](c.sim),
	}
	cl.stallCond = simnet.NewCond(&cl.stallMu)
	node.OnCrash(func() { cl.dead = true })
	node.Go("dfs-writeback", cl.writeback)
	return cl
}

// writeback periodically flushes all dirty data, and immediately when
// kicked by a stalling writer.
func (cl *Client) writeback(p *simnet.Proc) {
	for {
		_, _, _ = cl.flushNow.RecvTimeout(p, cl.cluster.params.WritebackInterval)
		if cl.dead {
			return
		}
		// Snapshot in path order: map iteration order would make runs
		// nondeterministic.
		files := make([]*File, 0, len(cl.open))
		for f := range cl.open {
			files = append(files, f)
		}
		sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
		for _, f := range files {
			if f.dirtyBytes() > 0 {
				f.flush(p, false)
			}
		}
		cl.stallMu.Lock(p)
		cl.stallCond.Broadcast(p)
		cl.stallMu.Unlock(p)
	}
}

func (cl *Client) checkAlive() error {
	if cl.dead {
		return errors.New("dfs: client mount is dead")
	}
	return nil
}

// grow extends buf to length n (geometric capacity growth, zero-filled).
func grow(buf []byte, n int64) []byte {
	if n <= int64(len(buf)) {
		return buf
	}
	if n <= int64(cap(buf)) {
		return buf[:n]
	}
	newCap := int64(cap(buf)) * 2
	if newCap < n {
		newCap = n
	}
	grown := make([]byte, n, newCap)
	copy(grown, buf)
	return grown
}

// span is a dirty byte range [start, end).
type span struct{ start, end int64 }

// addSpan inserts s into sorted, disjoint, non-empty spans, merging
// overlapping and adjacent ranges. Empty spans are dropped: a zero-length
// write dirties nothing, and inserting one would break the non-empty
// invariant everything downstream (flush packing, extent appends) relies on.
// spans is edited in place, like append: callers that hand a span set off
// (a flush taking the dirty list) must replace theirs, not keep adding to it.
func addSpan(spans []span, s span) []span {
	if s.end <= s.start {
		return spans
	}
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end >= s.start })
	j := i
	for j < len(spans) && spans[j].start <= s.end {
		if spans[j].start < s.start {
			s.start = spans[j].start
		}
		if spans[j].end > s.end {
			s.end = spans[j].end
		}
		j++
	}
	return slices.Replace(spans, i, j, s)
}

func spanBytes(spans []span) int64 {
	var n int64
	for _, s := range spans {
		n += s.end - s.start
	}
	return n
}

// File is an open handle. The view holds the client's coherent picture of
// the file (durable content plus buffered writes); dirty spans track what
// fsync must push. A single client writing a file at a time is assumed, as
// in the paper's applications.
type File struct {
	client *Client
	path   string
	// df is the inode this handle writes through. Flushes apply to the
	// inode, not to whatever cl.cluster.files[path] resolves to at landing
	// time: a Rename during a flush moves the inode (data follows the
	// file), and an Unlink orphans it (data goes nowhere) — never does a
	// flush resurrect content into a file that replaced this one at path.
	df         *durableFile
	view       []byte
	dirty      []span
	offset     int64 // cursor for Write/Read
	lastSeqEnd int64
	flushing   bool
	closed     bool
}

// Create creates (or truncates) path and opens it.
func (cl *Client) Create(p *simnet.Proc, path string) (*File, error) {
	if err := cl.checkAlive(); err != nil {
		return nil, err
	}
	p.Sleep(cl.cluster.params.MetaFixed)
	df := &durableFile{}
	cl.cluster.files[path] = df
	f := &File{client: cl, path: path, df: df}
	cl.open[f] = struct{}{}
	return f, nil
}

// Open opens an existing file for read/write; the cursor starts at 0.
func (cl *Client) Open(p *simnet.Proc, path string) (*File, error) {
	if err := cl.checkAlive(); err != nil {
		return nil, err
	}
	p.Sleep(cl.cluster.params.MetaFixed)
	df, ok := cl.cluster.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if df.ext != nil {
		return nil, fmt.Errorf("dfs: %s is extent-backed; open it through OpenFileExt", path)
	}
	f := &File{client: cl, path: path, df: df, view: append([]byte(nil), df.data...)}
	cl.open[f] = struct{}{}
	return f, nil
}

// OpenFile opens path, creating it if create is set and it doesn't exist.
func (cl *Client) OpenFile(p *simnet.Proc, path string, create bool) (*File, error) {
	if _, ok := cl.cluster.files[path]; !ok && create {
		return cl.Create(p, path)
	}
	return cl.Open(p, path)
}

// Exists reports whether path exists durably.
func (cl *Client) Exists(path string) bool {
	_, ok := cl.cluster.files[path]
	return ok
}

// Unlink removes path durably.
func (cl *Client) Unlink(p *simnet.Proc, path string) error {
	if err := cl.checkAlive(); err != nil {
		return err
	}
	p.Sleep(cl.cluster.params.MetaFixed)
	if _, ok := cl.cluster.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	delete(cl.cluster.files, path)
	for k := range cl.cache {
		if k.path == path {
			cl.cacheUsed -= cl.cache[k].size
			delete(cl.cache, k)
		}
	}
	return nil
}

// Rename atomically renames old to new, replacing new if present.
func (cl *Client) Rename(p *simnet.Proc, oldPath, newPath string) error {
	if err := cl.checkAlive(); err != nil {
		return err
	}
	p.Sleep(cl.cluster.params.MetaFixed)
	df, ok := cl.cluster.files[oldPath]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	cl.cluster.files[newPath] = df
	delete(cl.cluster.files, oldPath)
	// Cached blocks are keyed by path: entries for the old name (and for a
	// file the rename replaced) would serve stale hits to future openers.
	for k := range cl.cache {
		if k.path == oldPath || k.path == newPath {
			cl.cacheUsed -= cl.cache[k].size
			delete(cl.cache, k)
		}
	}
	return nil
}

// List returns the durable paths with the given prefix, sorted.
func (cl *Client) List(prefix string) []string {
	var out []string
	for name := range cl.cluster.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Cluster returns the backing storage service.
func (cl *Client) Cluster() *Cluster { return cl.cluster }

func (f *File) dirtyBytes() int64 { return spanBytes(f.dirty) }

// DirtyBytes reports how much buffered data a Sync would flush right now.
func (f *File) DirtyBytes() int64 { return f.dirtyBytes() }

// Size returns the file's current (buffered) length.
func (f *File) Size() int64 { return int64(len(f.view)) }

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// SeekTo sets the cursor for Write/Read to an absolute offset.
func (f *File) SeekTo(off int64) { f.offset = off }

// Write appends data at the cursor (buffered; durable only after Sync).
func (f *File) Write(p *simnet.Proc, data []byte) (int, error) {
	n, err := f.Pwrite(p, data, f.offset)
	f.offset += int64(n)
	return n, err
}

// Pwrite writes data at off (buffered).
func (f *File) Pwrite(p *simnet.Proc, data []byte, off int64) (int, error) {
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
	// Stall if writeback can't keep up (the weak-mode penalty).
	for cl.dirty > pm.DirtyHighWater {
		start := p.Now()
		cl.flushNow.Send(p, struct{}{})
		cl.stallMu.Lock(p)
		cl.stallCond.WaitTimeout(p, 20*time.Millisecond)
		cl.stallMu.Unlock(p)
		cl.StallTime += p.Now() - start
	}
	cost := pm.SyscallFixed + time.Duration(float64(len(data))/pm.MemBandwidth*float64(time.Second))
	if pm.WritebackThrottleMax > 0 && cl.dirty > 0 {
		ratio := float64(cl.dirty) / float64(pm.DirtyHighWater)
		if ratio > 1 {
			ratio = 1
		}
		cost += time.Duration(ratio * float64(pm.WritebackThrottleMax))
	}
	p.Sleep(cost)
	end := off + int64(len(data))
	f.view = grow(f.view, end)
	copy(f.view[off:], data)
	f.dirty = addSpan(f.dirty, span{start: off, end: end})
	cl.dirty += int64(len(data))
	return len(data), nil
}

// Sync makes all buffered writes durable (fsync).
func (f *File) Sync(p *simnet.Proc) error {
	if f.closed {
		return ErrClosed
	}
	return f.flush(p, true)
}

// flush pushes dirty spans to the cluster. foreground distinguishes an
// explicit fsync (pays the replication round trip) from background
// writeback (pays only bandwidth).
func (f *File) flush(p *simnet.Proc, foreground bool) error {
	cl := f.client
	if err := cl.checkAlive(); err != nil {
		return err
	}
	op := "writeback"
	if foreground {
		op = "fsync"
	}
	tsp := p.StartSpan("dfs", op, trace.Str("path", f.path))
	defer p.EndSpan(tsp)
	pm := cl.cluster.params
	// An fsync must not return before earlier in-flight writeback of this
	// file has landed durably.
	for f.flushing {
		p.Sleep(100 * time.Microsecond)
		if err := cl.checkAlive(); err != nil {
			return err
		}
	}
	f.flushing = true
	defer func() { f.flushing = false }()
	n := f.dirtyBytes()
	tsp.SetAttr(trace.Int("bytes", n))
	if n == 0 {
		if foreground {
			p.Sleep(pm.SyncCleanFixed)
			cl.cluster.Syncs++
		}
		return nil
	}
	spans := f.dirty
	f.dirty = nil
	cl.dirty -= n
	done := cl.cluster.reserve(n, pm.WriteBandwidth)
	wait := done - p.Now()
	if foreground {
		wait += pm.SyncFixed
	}
	p.Sleep(wait)
	if cl.dead {
		return errors.New("dfs: client died during flush")
	}
	// Apply the spans durably to this handle's inode (see File.df). The
	// view may have grown past some spans' snapshot; copy what the view
	// holds now (writeback semantics). If the file was unlinked while the
	// flush was in flight the inode is orphaned and the data simply goes
	// nowhere, like kernel writeback to a deleted inode.
	df := f.df
	for _, s := range spans {
		end := s.end
		if end > int64(len(f.view)) {
			end = int64(len(f.view))
		}
		df.data = grow(df.data, end)
		copy(df.data[s.start:end], f.view[s.start:end])
	}
	cl.cluster.BytesWritten += n
	if foreground {
		cl.cluster.Syncs++
	} else {
		cl.FlushedBytes += n
	}
	// Recently written data is cache-resident — but only while the path
	// still names this inode. A file renamed away (or replaced) mid-flush
	// must not warm cache blocks for whatever now lives at the old path.
	if cl.cluster.files[f.path] == df {
		for _, s := range spans {
			cl.insertBlocks(f.path, s.start, s.end)
		}
	}
	return nil
}

// Read reads from the cursor.
func (f *File) Read(p *simnet.Proc, buf []byte) (int, error) {
	n, err := f.Pread(p, buf, f.offset)
	f.offset += int64(n)
	return n, err
}

// Pread reads len(buf) bytes at off, returning the count read (short at
// EOF). Cost depends on cache residency and readahead.
func (f *File) Pread(p *simnet.Proc, buf []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	cl := f.client
	if err := cl.checkAlive(); err != nil {
		return 0, err
	}
	pm := cl.cluster.params
	if off >= int64(len(f.view)) {
		return 0, nil
	}
	tsp := p.StartSpan("dfs", "pread", trace.Str("path", f.path), trace.Int("bytes", int64(len(buf))))
	defer p.EndSpan(tsp)
	n := int64(len(buf))
	if off+n > int64(len(f.view)) {
		n = int64(len(f.view)) - off
	}
	if cl.DirectIO {
		done := cl.cluster.reserve(n, pm.ReadBandwidth)
		p.Sleep(pm.ReadFixed + (done - p.Now()))
		cl.cluster.BytesRead += n
	} else {
		f.chargeCachedRead(p, off, n)
	}
	copy(buf[:n], f.view[off:off+n])
	return int(n), nil
}

// chargeCachedRead charges the cost of reading [off, off+n) through the
// block cache with sequential readahead.
func (f *File) chargeCachedRead(p *simnet.Proc, off, n int64) {
	cl := f.client
	pm := cl.cluster.params
	bs := int64(pm.CacheBlock)
	var missBytes int64
	for b := off / bs; b*bs < off+n; b++ {
		key := blockKey{path: f.path, idx: b}
		if ent, ok := cl.cache[key]; ok {
			cl.cacheLRU++
			ent.lru = cl.cacheLRU
			cl.CacheHits++
			continue
		}
		cl.CacheMisses++
		// Miss: fetch this block, or a whole readahead window if the access
		// is sequential.
		fetchEnd := (b + 1) * bs
		if pm.ReadaheadWindow > 0 && off == f.lastSeqEnd {
			fetchEnd = b*bs + int64(pm.ReadaheadWindow)
		}
		if fetchEnd > int64(len(f.view)) {
			fetchEnd = int64(len(f.view))
		}
		fetchStart := b * bs
		missBytes += fetchEnd - fetchStart
		cl.insertBlocks(f.path, fetchStart, fetchEnd)
	}
	if missBytes > 0 {
		done := cl.cluster.reserve(missBytes, pm.ReadBandwidth)
		p.Sleep(pm.ReadFixed + (done - p.Now()))
		cl.cluster.BytesRead += missBytes
	}
	// Cache-hit portion: local memory copy.
	p.Sleep(pm.SyscallFixed + time.Duration(float64(n-missBytes)/pm.MemBandwidth*float64(time.Second)))
	f.lastSeqEnd = off + n
}

// insertBlocks marks [start, end) of path cache-resident, evicting LRU
// blocks if over capacity.
func (cl *Client) insertBlocks(path string, start, end int64) {
	pm := cl.cluster.params
	bs := int64(pm.CacheBlock)
	for b := start / bs; b*bs < end; b++ {
		key := blockKey{path: path, idx: b}
		if _, ok := cl.cache[key]; ok {
			continue
		}
		cl.cacheLRU++
		cl.cache[key] = &blockEnt{lru: cl.cacheLRU, size: bs}
		cl.cacheUsed += bs
	}
	for cl.cacheUsed > pm.CacheCapacity {
		var victim blockKey
		var oldest uint64 = ^uint64(0)
		for k, e := range cl.cache {
			if e.lru < oldest {
				oldest = e.lru
				victim = k
			}
		}
		cl.cacheUsed -= cl.cache[victim].size
		delete(cl.cache, victim)
	}
}

// Close flushes nothing (POSIX close doesn't imply fsync) and releases the
// handle. Unsynced data remains buffered client-side until writeback.
func (f *File) Close(p *simnet.Proc) error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	// Keep dirty accounting: writeback still owns the spans. Transfer them
	// to a detached flush so the data eventually lands (as the kernel would).
	if f.dirtyBytes() > 0 && !f.client.dead {
		f.closed = false
		err := f.flush(p, false)
		f.closed = true
		if err != nil {
			return err
		}
	}
	delete(f.client.open, f)
	return nil
}
