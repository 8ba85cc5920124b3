// Package cmac implements AES-CMAC (RFC 4493) on top of the standard
// library's AES block cipher. LoRaWAN uses AES-CMAC to compute the 4-byte
// Message Integrity Code (MIC) on every frame and to derive session keys
// during join; the Go standard library does not ship CMAC, so this package
// provides it.
//
// Two APIs are exposed: the one-shot helpers (New/Sum/Verify) and the
// reusable CMAC type for hot paths. A CMAC caches the expanded AES key
// schedule and the derived subkeys, so a session that authenticates many
// messages under one key pays the key expansion once and can compute tags
// with zero heap allocations via Reset/Write/SumInto.
package cmac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
	"hash"
)

// Size is the CMAC output size in bytes (one AES block).
const Size = aes.BlockSize

// New returns a hash.Hash computing AES-CMAC with the given key. The key
// must be 16, 24, or 32 bytes (AES-128/192/256); LoRaWAN uses AES-128.
func New(key []byte) (hash.Hash, error) {
	return NewCMAC(key)
}

// NewCMAC returns a reusable CMAC instance for the given key. The key must
// be 16, 24, or 32 bytes (AES-128/192/256).
func NewCMAC(key []byte) (*CMAC, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cmac: %w", err)
	}
	return FromCipher(block), nil
}

// FromCipher builds a CMAC over an already-expanded block cipher, sharing
// the key schedule with the caller (e.g. a session that also runs AES-CTR
// style payload encryption under the same key).
func FromCipher(block cipher.Block) *CMAC {
	c := &CMAC{block: block}
	c.deriveSubkeys()
	c.Reset()
	return c
}

// Sum computes the AES-CMAC of msg under key in one call.
func Sum(key, msg []byte) ([]byte, error) {
	h, err := NewCMAC(key)
	if err != nil {
		return nil, err
	}
	h.Write(msg)
	return h.Sum(nil), nil
}

// Verify reports whether tag is a valid (possibly truncated) AES-CMAC of
// msg under key. Comparison is constant-time; the expected tag lives in a
// stack buffer, so Verify does not allocate beyond the key schedule.
func Verify(key, msg, tag []byte) bool {
	c, err := NewCMAC(key)
	if err != nil {
		return false
	}
	c.Write(msg)
	return c.VerifyTag(tag)
}

// CMAC is a reusable AES-CMAC computation: the expanded AES key schedule
// and the RFC 4493 subkeys are derived once, and Reset/Write/SumInto runs
// allocation-free. It implements hash.Hash. Not safe for concurrent use.
type CMAC struct {
	block cipher.Block
	k1    [Size]byte
	k2    [Size]byte
	// x is the running CBC-MAC state; buf holds a partial final block.
	x    [Size]byte
	buf  [Size]byte
	used int
	// tag is finalization scratch. Arguments of cipher.Block interface
	// calls escape, so finalizing through this (already heap-resident)
	// field instead of a caller stack buffer keeps SumInto allocation-free.
	tag [Size]byte
}

// deriveSubkeys computes K1 and K2 per RFC 4493 §2.3.
func (m *CMAC) deriveSubkeys() {
	var l [Size]byte
	m.block.Encrypt(l[:], l[:])
	dbl(&m.k1, &l)
	dbl(&m.k2, &m.k1)
}

// dbl doubles a value in GF(2^128) with the CMAC reduction polynomial.
func dbl(dst, src *[Size]byte) {
	var carry byte
	for i := Size - 1; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	// If the MSB was set, XOR the low byte with 0x87.
	dst[Size-1] ^= 0x87 * carry
}

// Reset restores the initial state, keeping the cached key schedule.
func (m *CMAC) Reset() {
	m.x = [Size]byte{}
	m.used = 0
}

func (m *CMAC) Size() int      { return Size }
func (m *CMAC) BlockSize() int { return Size }

func (m *CMAC) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		// Flush a *full* buffered block only when more input follows, so
		// that the final block (complete or partial) stays in buf for the
		// subkey XOR in Sum.
		if m.used == Size {
			for i := 0; i < Size; i++ {
				m.x[i] ^= m.buf[i]
			}
			m.block.Encrypt(m.x[:], m.x[:])
			m.used = 0
		}
		c := copy(m.buf[m.used:], p)
		m.used += c
		p = p[c:]
	}
	return n, nil
}

func (m *CMAC) Sum(b []byte) []byte {
	var out [Size]byte
	m.SumInto(&out)
	return append(b, out[:]...)
}

// SumInto finalizes the tag into dst without allocating. Like Sum it does
// not mutate the running state, so more data may be written afterwards.
func (m *CMAC) SumInto(dst *[Size]byte) {
	var last [Size]byte
	if m.used == Size {
		// Complete final block: XOR with K1.
		for i := 0; i < Size; i++ {
			last[i] = m.buf[i] ^ m.k1[i]
		}
	} else {
		// Partial (or empty) final block: pad with 10* and XOR with K2.
		copy(last[:], m.buf[:m.used])
		last[m.used] = 0x80
		for i := 0; i < Size; i++ {
			last[i] ^= m.k2[i]
		}
	}
	for i := 0; i < Size; i++ {
		m.tag[i] = m.x[i] ^ last[i]
	}
	m.block.Encrypt(m.tag[:], m.tag[:])
	*dst = m.tag
}

// VerifyTag finalizes the tag into a stack buffer and compares it against
// tag (possibly truncated) in constant time, without allocating. Like
// SumInto it leaves the running state intact.
func (m *CMAC) VerifyTag(tag []byte) bool {
	if len(tag) == 0 || len(tag) > Size {
		return false
	}
	var full [Size]byte
	m.SumInto(&full)
	return subtle.ConstantTimeCompare(full[:len(tag)], tag) == 1
}
