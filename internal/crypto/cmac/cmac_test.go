package cmac

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// RFC 4493 §4 test vectors (AES-128 key 2b7e1516...).
var rfcKey, _ = hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")

var rfcMsg, _ = hex.DecodeString(
	"6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710")

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRFC4493Vectors(t *testing.T) {
	cases := []struct {
		name string
		n    int
		want string
	}{
		{"empty", 0, "bb1d6929e95937287fa37d129b756746"},
		{"16B", 16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{"40B", 40, "dfa66747de9ae63030ca32611497c827"},
		{"64B", 64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Sum(rfcKey, rfcMsg[:c.n])
			if err != nil {
				t.Fatal(err)
			}
			if want := mustHex(t, c.want); !bytes.Equal(got, want) {
				t.Errorf("Sum = %x, want %x", got, want)
			}
		})
	}
}

func TestSubkeyDerivation(t *testing.T) {
	// RFC 4493 §4: K1 = fbeed618357133667c85e08f7236a8de,
	// K2 = f7ddac306ae266ccf90bc11ee46d513b.
	h, err := New(rfcKey)
	if err != nil {
		t.Fatal(err)
	}
	m := h.(*CMAC)
	if want := mustHex(t, "fbeed618357133667c85e08f7236a8de"); !bytes.Equal(m.k1[:], want) {
		t.Errorf("K1 = %x, want %x", m.k1, want)
	}
	if want := mustHex(t, "f7ddac306ae266ccf90bc11ee46d513b"); !bytes.Equal(m.k2[:], want) {
		t.Errorf("K2 = %x, want %x", m.k2, want)
	}
}

func TestIncrementalWriteEqualsOneShot(t *testing.T) {
	f := func(msg []byte, split uint8) bool {
		h1, _ := New(rfcKey)
		h1.Write(msg)
		one := h1.Sum(nil)

		h2, _ := New(rfcKey)
		cut := 0
		if len(msg) > 0 {
			cut = int(split) % (len(msg) + 1)
		}
		h2.Write(msg[:cut])
		h2.Write(msg[cut:])
		two := h2.Sum(nil)
		return bytes.Equal(one, two)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByteAtATime(t *testing.T) {
	h, _ := New(rfcKey)
	for _, b := range rfcMsg {
		h.Write([]byte{b})
	}
	got := h.Sum(nil)
	want := mustHex(t, "51f0bebf7e3b9d92fc49741779363cfe")
	if !bytes.Equal(got, want) {
		t.Errorf("byte-at-a-time Sum = %x, want %x", got, want)
	}
}

func TestResetReuse(t *testing.T) {
	h, _ := New(rfcKey)
	h.Write(rfcMsg[:40])
	first := h.Sum(nil)
	h.Reset()
	h.Write(rfcMsg[:40])
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Error("Reset must restore initial state")
	}
}

func TestSumDoesNotMutateState(t *testing.T) {
	h, _ := New(rfcKey)
	h.Write(rfcMsg[:16])
	a := h.Sum(nil)
	b := h.Sum(nil)
	if !bytes.Equal(a, b) {
		t.Error("Sum must be idempotent")
	}
}

func TestVerify(t *testing.T) {
	tag, _ := Sum(rfcKey, rfcMsg[:16])
	if !Verify(rfcKey, rfcMsg[:16], tag) {
		t.Error("full tag must verify")
	}
	if !Verify(rfcKey, rfcMsg[:16], tag[:4]) {
		t.Error("LoRaWAN-style 4-byte truncated tag must verify")
	}
	bad := append([]byte{}, tag...)
	bad[0] ^= 1
	if Verify(rfcKey, rfcMsg[:16], bad) {
		t.Error("corrupted tag must not verify")
	}
	if Verify(rfcKey, rfcMsg[:16], nil) {
		t.Error("empty tag must not verify")
	}
	if Verify(rfcKey, rfcMsg[:16], append(tag, 0)) {
		t.Error("over-long tag must not verify")
	}
}

func TestBadKeyLength(t *testing.T) {
	if _, err := New([]byte("short")); err == nil {
		t.Error("5-byte key must be rejected")
	}
	if _, err := Sum([]byte("short"), nil); err == nil {
		t.Error("Sum with bad key must fail")
	}
	if Verify([]byte("short"), nil, make([]byte, 16)) {
		t.Error("Verify with bad key must fail closed")
	}
}

func TestDistinctMessagesDistinctTags(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		ta, _ := Sum(rfcKey, a)
		tb, _ := Sum(rfcKey, b)
		return !bytes.Equal(ta, tb) // collision would be astronomically unlikely
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSum16(b *testing.B) {
	msg := rfcMsg[:16]
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		Sum(rfcKey, msg)
	}
}
