// Package litedb is the SQLite-style embedded transactional store ported to
// SplitFT (§4.7). It is page-based: keys hash to fixed-size pages of a
// database file on the dfs. Every update transaction appends a full page
// image as a frame to a write-ahead log that is used as a circular buffer:
// when the WAL fills, a checkpoint writes all dirty pages back to the
// database file and the WAL restarts from offset zero with a new salt —
// the overwrite-based log reclamation of Table 2, and the reason NCL's
// recovery must copy whole regions rather than log tails (Fig 7ii).
//
// Frames carry a salt and a CRC, so recovery applies exactly the frames of
// the newest WAL generation and stops at the first torn frame. Frames are
// page images, so replay is idempotent (replaying an already-checkpointed
// generation is harmless).
//
// The store runs in exclusive locking mode (§5 setup): one transaction at a
// time, no cross-connection locking overhead. The SplitFT port is the
// O_NCL flag on the WAL open call.
package litedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// Durability mirrors the other stores' configurations.
type Durability int

const (
	// Weak leaves WAL frames in the dfs client cache (synchronous=off).
	Weak Durability = iota
	// Strong fsyncs the WAL after every transaction (synchronous=full).
	Strong
	// SplitFT keeps the WAL in near-compute logs.
	SplitFT
)

func (d Durability) String() string {
	switch d {
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	default:
		return "splitft"
	}
}

// Config tunes the store. NPages and PageSize fix the database geometry and
// must match between Open and Recover (they are schema, not state).
type Config struct {
	Path       string
	Durability Durability
	PageSize   int
	NPages     int
	// WALBytes is the circular WAL capacity (and ncl region size).
	WALBytes int64
	// LiteDBCosts is the per-transaction CPU cost model; the constants live
	// in internal/model and the fields promote (cfg.TxnCPU etc.).
	model.LiteDBCosts
}

// DefaultConfig returns simulation-scaled settings; CPU costs come from the
// baseline profile.
func DefaultConfig() Config {
	return Config{
		Path:        "/lite/data.db",
		Durability:  SplitFT,
		PageSize:    4096,
		NPages:      2048,
		WALBytes:    4 << 20,
		LiteDBCosts: model.Baseline().Apps.LiteDB,
	}
}

const frameHdrLen = 24 // [8B pageID][8B salt][4B crc][4B reserved]

// ErrPageFull is returned when a page cannot hold its hashed keys; size the
// database with more pages.
var ErrPageFull = errors.New("litedb: page overflow")

// DB is an open database.
type DB struct {
	fs   *core.FS
	node *simnet.Node
	cfg  Config

	mu simnet.Mutex // exclusive locking mode: one txn at a time

	dbFile core.File
	wal    core.File
	dirty  map[int][]byte // pageID -> current page image (not yet checkpointed)
	// page receives non-dirty page reads. It is reused, which is safe
	// because every reader holds mu across the Pread park and copies what
	// it keeps out of it (pageGet, pageSet).
	page    []byte
	salt    uint64
	walOff  int64
	frameSz int64

	// Stats.
	Txns        int64
	Reads       int64
	Checkpoints int64
}

func (db *DB) walPath() string { return db.cfg.Path + "-wal" }

func (db *DB) walFlags() core.OpenFlag {
	if db.cfg.Durability == SplitFT {
		return core.O_NCL | core.O_CREATE
	}
	return core.O_CREATE
}

// Open creates a fresh database.
func Open(p *simnet.Proc, fs *core.FS, cfg Config) (*DB, error) {
	db := &DB{fs: fs, node: fs.Node(), cfg: cfg, dirty: make(map[int][]byte), page: make([]byte, cfg.PageSize), salt: 1}
	db.frameSz = int64(frameHdrLen + cfg.PageSize)
	f, err := fs.OpenFile(p, cfg.Path, core.O_CREATE|core.O_EXTENT, 0)
	if err != nil {
		return nil, err
	}
	db.dbFile = f
	w, err := fs.OpenFile(p, db.walPath(), db.walFlags(), cfg.WALBytes)
	if err != nil {
		return nil, err
	}
	db.wal = w
	return db, nil
}

func (db *DB) pageOf(key string) int {
	return int(crc32.ChecksumIEEE([]byte(key))) % db.cfg.NPages
}

// readPage returns the current image of a page: the dirty copy if present,
// else the database file content (zero page if never written) in db.page,
// valid until the next readPage. Caller holds db.mu.
func (db *DB) readPage(p *simnet.Proc, id int) ([]byte, error) {
	if img, ok := db.dirty[id]; ok {
		return img, nil
	}
	n, err := db.dbFile.Pread(p, db.page, int64(id)*int64(db.cfg.PageSize))
	if err != nil {
		return nil, err
	}
	clear(db.page[n:]) // past EOF reads as zeros
	return db.page, nil
}

// Page content: [2B count] then entries [2B klen][2B vlen][key][value],
// unordered (linear scan within a page, as leaf cells would be).
func pageGet(img []byte, key string) ([]byte, bool) {
	count := int(binary.LittleEndian.Uint16(img[0:2]))
	pos := 2
	for i := 0; i < count; i++ {
		klen := int(binary.LittleEndian.Uint16(img[pos : pos+2]))
		vlen := int(binary.LittleEndian.Uint16(img[pos+2 : pos+4]))
		pos += 4
		k := string(img[pos : pos+klen])
		pos += klen
		if k == key {
			out := make([]byte, vlen)
			copy(out, img[pos:pos+vlen])
			return out, true
		}
		pos += vlen
	}
	return nil, false
}

func pageSet(img []byte, key string, value []byte) ([]byte, error) {
	type cell struct {
		k string
		v []byte
	}
	count := int(binary.LittleEndian.Uint16(img[0:2]))
	cells := make([]cell, 0, count+1)
	pos := 2
	for i := 0; i < count; i++ {
		klen := int(binary.LittleEndian.Uint16(img[pos : pos+2]))
		vlen := int(binary.LittleEndian.Uint16(img[pos+2 : pos+4]))
		pos += 4
		k := string(img[pos : pos+klen])
		pos += klen
		v := img[pos : pos+vlen]
		pos += vlen
		if k != key {
			cells = append(cells, cell{k: k, v: v})
		}
	}
	if value != nil {
		cells = append(cells, cell{k: key, v: value})
	}
	out := make([]byte, len(img))
	need := 2
	for _, c := range cells {
		need += 4 + len(c.k) + len(c.v)
	}
	if need > len(out) {
		return nil, fmt.Errorf("%w: %d bytes needed in a %d-byte page", ErrPageFull, need, len(out))
	}
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(cells)))
	pos = 2
	for _, c := range cells {
		binary.LittleEndian.PutUint16(out[pos:pos+2], uint16(len(c.k)))
		binary.LittleEndian.PutUint16(out[pos+2:pos+4], uint16(len(c.v)))
		pos += 4
		copy(out[pos:], c.k)
		pos += len(c.k)
		copy(out[pos:], c.v)
		pos += len(c.v)
	}
	return out, nil
}

// Get runs a read transaction.
func (db *DB) Get(p *simnet.Proc, key string) ([]byte, bool, error) {
	db.mu.Lock(p)
	defer db.mu.Unlock(p)
	db.node.CPU().Use(p, db.cfg.ReadCPU)
	img, err := db.readPage(p, db.pageOf(key))
	if err != nil {
		return nil, false, err
	}
	db.Reads++
	v, ok := pageGet(img, key)
	return v, ok, nil
}

// Set runs an update transaction: modify the page, append a WAL frame
// (durable per configuration), and keep the page dirty until checkpoint.
func (db *DB) Set(p *simnet.Proc, key string, value []byte) error {
	return db.update(p, key, value)
}

// Delete removes a key.
func (db *DB) Delete(p *simnet.Proc, key string) error {
	return db.update(p, key, nil)
}

func (db *DB) update(p *simnet.Proc, key string, value []byte) error {
	db.mu.Lock(p)
	defer db.mu.Unlock(p)
	p.Sleep(db.cfg.TxnCPU)
	id := db.pageOf(key)
	img, err := db.readPage(p, id)
	if err != nil {
		return err
	}
	newImg, err := pageSet(img, key, value)
	if err != nil {
		return err
	}
	if err := db.appendFrame(p, id, newImg); err != nil {
		return err
	}
	db.dirty[id] = newImg
	db.Txns++
	return nil
}

// appendFrame writes one page image to the circular WAL, checkpointing
// first if the frame would not fit.
func (db *DB) appendFrame(p *simnet.Proc, id int, img []byte) error {
	if db.walOff+db.frameSz > db.cfg.WALBytes {
		if err := db.checkpointLocked(p); err != nil {
			return err
		}
	}
	frame := make([]byte, db.frameSz)
	binary.LittleEndian.PutUint64(frame[0:8], uint64(id))
	binary.LittleEndian.PutUint64(frame[8:16], db.salt)
	binary.LittleEndian.PutUint32(frame[16:20], crc32.ChecksumIEEE(img))
	copy(frame[frameHdrLen:], img)
	if _, err := db.wal.Pwrite(p, frame, db.walOff); err != nil {
		return err
	}
	if db.cfg.Durability == Strong {
		if err := db.wal.Sync(p); err != nil {
			return err
		}
	}
	db.walOff += db.frameSz
	return nil
}

// checkpointLocked writes every dirty page into the database file, syncs
// it, and restarts the WAL at offset zero under a new salt — the overwrite
// reclaim. Caller holds db.mu.
func (db *DB) checkpointLocked(p *simnet.Proc) error {
	ids := make([]int, 0, len(db.dirty))
	for id := range db.dirty {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if _, err := db.dbFile.Pwrite(p, db.dirty[id], int64(id)*int64(db.cfg.PageSize)); err != nil {
			return err
		}
	}
	if err := db.dbFile.Sync(p); err != nil {
		return err
	}
	db.dirty = make(map[int][]byte)
	db.salt++
	db.walOff = 0
	db.Checkpoints++
	return nil
}

// Checkpoint forces a checkpoint (tests and benches).
func (db *DB) Checkpoint(p *simnet.Proc) error {
	db.mu.Lock(p)
	defer db.mu.Unlock(p)
	return db.checkpointLocked(p)
}

// Close releases file handles.
func (db *DB) Close(p *simnet.Proc) {
	db.dbFile.Close(p)
	db.wal.Close(p)
}

// ---- Recovery ----

// Recover rebuilds the database after a crash: open the database file,
// recover the WAL (from NCL peers in SplitFT mode), replay the newest
// generation of frames, then checkpoint and restart the WAL cleanly.
func Recover(p *simnet.Proc, fs *core.FS, cfg Config) (*DB, error) {
	db := &DB{fs: fs, node: fs.Node(), cfg: cfg, dirty: make(map[int][]byte), page: make([]byte, cfg.PageSize), salt: 1}
	db.frameSz = int64(frameHdrLen + cfg.PageSize)
	f, err := fs.OpenFile(p, cfg.Path, core.O_CREATE|core.O_EXTENT, 0)
	if err != nil {
		return nil, err
	}
	db.dbFile = f

	if fs.Exists(p, db.walPath()) {
		// Reopen (NCL recovery in SplitFT mode), replay the newest
		// generation, and keep writing into the same WAL from offset zero
		// under a fresh salt — old frames are simply overwritten, exactly
		// the circular reuse the file saw in normal operation.
		flags := db.walFlags() &^ core.O_CREATE
		w, err := fs.OpenFile(p, db.walPath(), flags, cfg.WALBytes)
		if err != nil {
			return nil, err
		}
		db.salt = db.replayWAL(p, w) + 1
		db.wal = w
	} else {
		w, err := fs.OpenFile(p, db.walPath(), db.walFlags(), cfg.WALBytes)
		if err != nil {
			return nil, err
		}
		db.wal = w
	}
	// Make the replayed state durable so the old generation is disposable.
	if len(db.dirty) > 0 {
		if err := db.checkpointLocked(p); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// replayWAL applies the frames of the newest WAL generation (the salt of
// frame zero) in order, stopping at a salt change or CRC failure. Frames
// are page images, so replay is idempotent. It returns the largest salt
// seen so the new generation is strictly newer.
func (db *DB) replayWAL(p *simnet.Proc, w core.File) uint64 {
	size := w.Size()
	data := make([]byte, size)
	if _, err := w.Pread(p, data, 0); err != nil {
		return db.salt
	}
	p.Sleep(time.Duration(float64(len(data)) / 150e6 * float64(time.Second))) // parse
	if int64(len(data)) < db.frameSz {
		return db.salt
	}
	gen := binary.LittleEndian.Uint64(data[8:16])
	maxSalt := gen
	for off := int64(0); off+db.frameSz <= int64(len(data)); off += db.frameSz {
		fr := data[off : off+db.frameSz]
		id := int(binary.LittleEndian.Uint64(fr[0:8]))
		salt := binary.LittleEndian.Uint64(fr[8:16])
		crc := binary.LittleEndian.Uint32(fr[16:20])
		if salt > maxSalt {
			maxSalt = salt
		}
		img := fr[frameHdrLen:]
		if salt != gen || crc32.ChecksumIEEE(img) != crc || id < 0 || id >= db.cfg.NPages {
			break
		}
		pg := make([]byte, db.cfg.PageSize)
		copy(pg, img)
		db.dirty[id] = pg
	}
	return maxSalt
}

// DirtyPages returns the number of uncheckpointed pages (tests).
func (db *DB) DirtyPages() int { return len(db.dirty) }
