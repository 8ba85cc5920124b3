package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// A tiny protobuf writer, enough to can a profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uintField(num int, v uint64) { p.varint(uint64(num)<<3 | 0); p.varint(v) }
func (p *pb) bytesField(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pb) packed(num int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytesField(num, inner.Bytes())
}

// cannedProfile builds a CPU profile whose stacks (leaf first) each cost
// 10 ms. Location i+1 holds function i+1; a stack entry of the form
// "a<b" puts a (inlined callee) and b (its caller) into one location.
func cannedProfile(t *testing.T, stacks [][]string) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof pb
	for _, name := range []string{"samples", "cpu"} { // sample_type ×2
		var vt pb
		vt.uintField(1, intern(name))
		vt.uintField(2, intern("unit"))
		prof.bytesField(1, vt.Bytes())
	}
	funcID := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var f pb
		f.uintField(1, id)
		f.uintField(2, intern(name))
		prof.bytesField(5, f.Bytes())
		return id
	}
	nextLoc := uint64(1)
	for _, st := range stacks {
		var locs []uint64
		for _, entry := range st {
			var loc pb
			loc.uintField(1, nextLoc)
			for _, name := range bytes.Split([]byte(entry), []byte("<")) {
				var line pb
				line.uintField(1, fn(string(name)))
				loc.bytesField(4, line.Bytes())
			}
			prof.bytesField(4, loc.Bytes())
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var s pb
		s.packed(1, locs...)
		s.packed(2, 1, 10_000_000)
		prof.bytesField(2, s.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write(prof.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

const repo = "github.com/alphawan/alphawan/internal/"

func TestFoldProfileByPackage(t *testing.T) {
	raw := cannedProfile(t, [][]string{
		// medium's own work, twice.
		{repo + "medium.(*Medium).judge", repo + "medium.(*Medium).Transmit", repo + "node.(*Node).Send", "main.runNodeCity"},
		{repo + "medium.evalInterferer", repo + "medium.(*Medium).judge", "main.runNodeCity"},
		// An allocation made by netserver is netserver's cost.
		{"runtime.mallocgc", "runtime.growslice", repo + "netserver.(*Server).appendLog", repo + "udpfwd.(*BatchBridge).worker"},
		// AES inside cmac inside frame inside netserver: cmac's.
		{"crypto/aes.encryptBlockAsm", repo + "crypto/cmac.(*CMAC).Write", repo + "frame.(*Decoder).DecodeTo", repo + "netserver.(*Server).HandleUplink"},
		// A generic method, inlined into its caller's location.
		{repo + "events.(*Topic[go.shape.struct { a/b.T }]).Publish<" + repo + "gateway.(*Gateway).deliver", repo + "radio.(*Radio).finish"},
		// Background mark worker and an assist under an allocation: GC.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.gcAssistAlloc", "runtime.mallocgc", repo + "soa.(*Core).insertTx"},
		// A system call made by udpfwd: the kernel's.
		{"internal/runtime/syscall.Syscall6", "syscall.Syscall6", repo + "udpfwd.(*mmsgIO).recv"},
		// The scheduler with nothing of ours on the stack.
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"},
		// A repository package that is not a named layer charges its caller.
		{repo + "lora.Params.Airtime", repo + "traffic.(*PoissonUser).tick", repo + "des.(*Sim).RunUntil"},
		// The harness itself, and something unknown.
		{"strconv.AppendInt", "main.(*liveTraffic).appendRxpk", "main.(*liveRun).send"},
		{"os.(*File).Write", "fmt.Fprintf"},
	})
	stacks, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 12 {
		t.Fatalf("parsed %d stacks, want 12", len(stacks))
	}
	if got := stacks[4].funcs; len(got) != 3 || funcPackage(got[0]) != repo+"events" || funcPackage(got[1]) != repo+"gateway" {
		t.Errorf("inlined location expands to %v", got)
	}
	shares := foldProfile(stacks)
	want := map[string]float64{
		"medium": 2, "netserver": 1, "cmac": 1, "events": 1, "runtime.gc": 2,
		"syscall": 1, "runtime": 1, "traffic": 1, "bench": 1, "other": 1,
	}
	total := 0.0
	for m, share := range shares {
		total += share
		if math.Abs(share-want[m]/12) > 1e-12 {
			t.Errorf("%s: share %.4f, want %v/12", m, share, want[m])
		}
	}
	for m := range want {
		if _, ok := shares[m]; !ok {
			t.Errorf("%s: missing from the fold", m)
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"main.main":                                       "main",
		"runtime.mallocgc":                                "runtime",
		"crypto/aes.encryptBlockAsm":                      "crypto/aes",
		repo + "alphawan/cp.(*Scorer).Rescore":            repo + "alphawan/cp",
		repo + "events.(*Topic[go.shape.*uint8]).Publish": repo + "events",
		repo + "runner.RunCells.func1":                    repo + "runner",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage accepted")
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write([]byte{0x0a, 0x7f, 0x01}) // a length that overruns the message
	zw.Close()
	if _, err := parseProfile(out.Bytes()); err == nil {
		t.Error("truncated message accepted")
	}
}
