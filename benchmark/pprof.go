package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile written by runtime/pprof is a gzip-compressed
// perftools.profiles.Profile protobuf. The harness needs only the call
// stacks and the CPU value of each sample, so this file decodes that
// subset by hand rather than shelling out to `go tool pprof`.

// profStack is one sample: function names leaf first, and its CPU time.
type profStack struct {
	funcs []string
	cpuNs int64
}

// pbField is one decoded protobuf field: varint value or length-delimited
// bytes, by wire type.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errProfile = errors.New("malformed profile")

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbWalk calls fn for every field of one message.
func pbWalk(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProfile
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errProfile
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field occurrence: packed or single.
func pbUints(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return out, errProfile
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes a CPU profile into stacks of function names.
func parseProfile(raw []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, leaf first
		nTypes   int
	)
	err = pbWalk(body, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s sample
			err := pbWalk(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					s.vals, err = pbUints(g, s.vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line; inlined callees come first
					return pbWalk(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if nTypes == 0 {
		return nil, errProfile
	}

	stacks := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < nTypes {
			return nil, errProfile
		}
		st := profStack{cpuNs: int64(s.vals[nTypes-1])} // cpu/nanoseconds is last
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

const repoImportPrefix = "github.com/alphawan/alphawan/"

// funcPackage returns the import path of a pprof function name such as
// "github.com/a/b/internal/medium.(*Medium).Transmit" or
// "github.com/a/b/events.(*Topic[go.shape.int]).Publish".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments carry their own slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a package to the cpu_share module it is charged to, or ""
// when the package is not one of the named layers.
func moduleOf(pkg string) string {
	if pkg == "main" || strings.HasPrefix(pkg, repoImportPrefix+"benchmark") {
		return "bench"
	}
	if !strings.HasPrefix(pkg, repoImportPrefix) {
		return ""
	}
	last := pkg[strings.LastIndexByte(pkg, '/')+1:]
	for _, m := range cpuShareModules {
		if m == last {
			return m
		}
	}
	return ""
}

func isGCFunc(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	return strings.HasPrefix(name, "gc") || name == "bgsweep" || name == "bgscavenge"
}

// classify charges one stack to a module: the collector if the stack runs
// through it, the kernel if the leaf is a system call, otherwise the
// innermost frame that belongs to a named layer — so a layer pays for the
// runtime and library work it calls (allocation, map access, AES, sorting)
// but not for the layers it calls into.
func classify(funcs []string) string {
	if len(funcs) == 0 {
		return "other"
	}
	for _, fn := range funcs {
		if isGCFunc(fn) {
			return "runtime.gc"
		}
	}
	if leaf := funcPackage(funcs[0]); leaf == "syscall" || strings.HasSuffix(leaf, "/syscall") {
		return "syscall"
	}
	inRuntime := false
	for _, fn := range funcs {
		pkg := funcPackage(fn)
		if m := moduleOf(pkg); m != "" {
			return m
		}
		if pkg == "runtime" {
			inRuntime = true
		}
	}
	if inRuntime {
		return "runtime"
	}
	return "other"
}

// foldProfile returns each module's share of the profile's CPU time. The
// shares sum to 1 (an empty profile yields an empty map).
func foldProfile(stacks []profStack) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range stacks {
		by[classify(s.funcs)] += s.cpuNs
		total += s.cpuNs
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for m, ns := range by {
		shares[m] = float64(ns) / float64(total)
	}
	return shares
}
