package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"splitft/internal/trace"
)

// ---- virtual clock: span self time per layer ----

// spanLayers maps the ledger's layer names to the span layers the program
// records ("rpc" is simnet's RPC transport, "app" is the benchmark handler's
// span around the store call).
var spanLayers = []struct{ name, layer string }{
	{"simnet", "rpc"}, {"rdma", "rdma"}, {"dfs", "dfs"}, {"raft", "raft"},
	{"controller", "controller"}, {"peer", "peer"}, {"ncl", "ncl"}, {"core", "core"},
	{"app", "app"},
}

type layerCost struct {
	self  time.Duration
	spans int
}

// spanLedger sums, per span layer, the self time and count of the finished
// spans that started in [from, to]. A span's self time is its duration minus
// the part of its interval covered by its children.
func spanLedger(spans []*trace.Span, from, to time.Duration) map[string]layerCost {
	kids := make(map[trace.SpanID][]*trace.Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]layerCost)
	for _, s := range spans {
		if !s.Done() || s.Start < from || s.Start > to {
			continue
		}
		c := out[s.Layer]
		c.spans++
		c.self += selfTime(s, kids[s.ID])
		out[s.Layer] = c
	}
	return out
}

func selfTime(s *trace.Span, kids []*trace.Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if !k.Done() || b > s.End {
			b = s.End
		}
		if a < s.Start {
			a = s.Start
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end time.Duration
	end = s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.Dur() - covered
}

// phaseTotal sums the durations of finished spans of one (layer, op).
func phaseTotal(spans []*trace.Span, layer, op string) (time.Duration, int) {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Layer == layer && s.Op == op && s.Done() {
			total += s.Dur()
			n++
		}
	}
	return total, n
}

// ---- host clock: CPU samples by leaf package ----

// hostPkgs are the buckets of the host-time ledger, in print order.
var hostPkgs = []string{
	"simnet", "wire", "rdma", "dfs", "raft", "controller", "peer", "ncl", "core",
	"kvstore", "litedb", "ycsb", "trace", "runtime", "other",
}

// pkgOf buckets a fully qualified function name by its package.
func pkgOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "splitft/internal/")
	if !ok {
		return "other"
	}
	rest = strings.TrimPrefix(rest, "apps/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, p := range hostPkgs {
		if p == rest {
			return p
		}
	}
	return "other"
}

// profileShares decodes runtime/pprof CPU profiles and returns each
// bucket's share (in %) of the samples whose leaf frame — the innermost
// inlined function of the first location — lies in it, plus the sample
// count.
func profileShares(profiles [][]byte) (map[string]float64, int64, error) {
	counts := make(map[string]int64)
	var total int64
	for _, gz := range profiles {
		if err := countLeafPkgs(gz, counts); err != nil {
			return nil, 0, err
		}
	}
	for _, n := range counts {
		total += n
	}
	shares := make(map[string]float64, len(hostPkgs))
	for _, p := range hostPkgs {
		if total > 0 {
			shares[p] = 100 * float64(counts[p]) / float64(total)
		}
	}
	return shares, total, nil
}

// countLeafPkgs adds one profile's samples to counts by leaf package.
func countLeafPkgs(gz []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc uint64
		n   int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{} // function id -> name string index
		locs    = map[uint64]uint64{} // location id -> leaf function id
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			gotLoc, gotVal := false, false
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1 && !gotLoc:
					s.loc, gotLoc = firstVarint(v, b), true
				case n == 2 && !gotVal:
					s.n, gotVal = int64(firstVarint(v, b)), true
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !gotLine:
					gotLine = true
					return pbFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		name := ""
		if idx, ok := funcs[locs[s.loc]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		counts[pkgOf(name)] += s.n
	}
	return nil
}

// firstVarint returns a scalar field's value, or the first element when the
// field is packed.
func firstVarint(v uint64, b []byte) uint64 {
	if b == nil {
		return v
	}
	x, _ := binary.Uvarint(b)
	return x
}

// pbFields walks one protobuf message, calling fn with each field's number
// and its varint value (wire types 0, 1, 5) or payload (wire type 2; b is
// non-nil then).
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}
