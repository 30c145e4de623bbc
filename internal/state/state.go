// Package state implements the OpenMB middlebox-state taxonomy (§3.1 of the
// paper) and the representations the southbound API moves across the wire:
// encrypted per-flow and shared chunks, and the hierarchical configuration
// tree.
//
// The taxonomy classifies every piece of middlebox state along two
// dimensions. Its role: configuring (policies and parameters the MB only
// reads), supporting (details on past traffic guiding MB decisions; read and
// written by the MB), or reporting (quantified observations; only written by
// the MB). And its partitioning: per-flow or shared across all traffic.
// The controller's semantics for move, clone, and merge are keyed off this
// classification — e.g. shared supporting state is cloned on migration while
// shared reporting state must never be cloned (double counting).
package state

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sync"

	"openmb/internal/packet"
)

// Class is the role a piece of state plays in MB operation.
type Class uint8

const (
	// Config state defines and tunes MB behavior; the MB only reads it
	// and the controller owns its creation and updates.
	Config Class = iota + 1
	// Supporting state records details on past traffic that guide MB
	// decisions and actions; the MB reads and writes it.
	Supporting
	// Reporting state quantifies observations and decisions; the MB only
	// writes it, for consumption by external entities.
	Reporting
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Config:
		return "config"
	case Supporting:
		return "supporting"
	case Reporting:
		return "reporting"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Scope is the partitioning of a piece of state.
type Scope uint8

const (
	// PerFlow state applies to a single flow (transport connection,
	// session, or host pair, per the MB's own keying granularity).
	PerFlow Scope = iota + 1
	// Shared state applies to all traffic at the MB.
	Shared
)

// String returns the lowercase scope name.
func (s Scope) String() string {
	switch s {
	case PerFlow:
		return "perflow"
	case Shared:
		return "shared"
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// Chunk is one exported piece of per-flow state: the [HeaderFieldList :
// EncryptedChunk] pair of §4.1.2. Key is the flow identifier at the MB's own
// granularity; Blob is the (optionally encrypted) serialized state. The
// controller treats Blob as opaque.
type Chunk struct {
	Key  packet.FlowKey `json:"key"`
	Blob []byte         `json:"blob"`
}

// Size returns the wire footprint of the chunk in bytes (key plus blob).
func (c Chunk) Size() int { return packet.FlowKeyWireSize + len(c.Blob) }

// Sealer encrypts and authenticates state blobs before they leave a
// middlebox, so that supporting state remains opaque to the controller and
// control applications (§4.1.2: "MBs can encrypt chunks of per-flow
// supporting state before exporting"). All instances of one MB type share a
// key, so a blob sealed by one instance opens at its peer but nowhere else.
//
// The construction is AES-128-CTR with an HMAC-SHA256 tag over iv || ct
// (encrypt-then-MAC); a sealed blob is iv(16) || ct || tag(32). Everything
// that depends only on the secret is built once: the AES key schedule in
// NewSealer, and keyed HMAC states that Seal and Open borrow from a pool and
// Reset, so a call allocates only its output and the CTR stream. A Sealer is
// safe for concurrent use and must not be copied.
type Sealer struct {
	block cipher.Block
	macs  sync.Pool // *sealMAC, keyed
}

// sealMAC is one reusable keyed HMAC state and the buffer Open sums into.
type sealMAC struct {
	h   hash.Hash
	sum [sealTagLen]byte
}

// tag appends the HMAC of body to dst and leaves m ready for the next blob.
func (m *sealMAC) tag(dst, body []byte) []byte {
	m.h.Write(body)
	dst = m.h.Sum(dst)
	m.h.Reset()
	return dst
}

// NewSealer derives a sealer from a shared secret. Deriving rather than
// using the secret directly lets tests use short human-readable secrets.
func NewSealer(secret string) *Sealer {
	s := &Sealer{}
	encKey := sha256.Sum256([]byte("openmb-enc:" + secret))
	block, err := aes.NewCipher(encKey[:16])
	if err != nil {
		panic("state: aes: " + err.Error())
	}
	s.block = block
	macKey := sha256.Sum256([]byte("openmb-mac:" + secret))
	s.macs.New = func() any { return &sealMAC{h: hmac.New(sha256.New, macKey[:])} }
	return s
}

const (
	sealIVLen  = aes.BlockSize
	sealTagLen = sha256.Size
)

// ErrSealOpen is returned when a sealed blob fails authentication.
var ErrSealOpen = errors.New("state: sealed blob failed authentication")

// Seal encrypts plaintext and returns iv || ciphertext || tag.
func (s *Sealer) Seal(plaintext []byte) []byte {
	n := sealIVLen + len(plaintext)
	out := make([]byte, n, n+sealTagLen)
	iv := out[:sealIVLen]
	if _, err := rand.Read(iv); err != nil {
		// crypto/rand failure is unrecoverable and cannot be handled
		// meaningfully by callers moving state.
		panic("state: crypto/rand: " + err.Error())
	}
	cipher.NewCTR(s.block, iv).XORKeyStream(out[sealIVLen:], plaintext)
	m := s.macs.Get().(*sealMAC)
	out = m.tag(out, out)
	s.macs.Put(m)
	return out
}

// Open authenticates and decrypts a blob produced by Seal. The tag is
// checked, in constant time, before anything is decrypted.
func (s *Sealer) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < sealIVLen+sealTagLen {
		return nil, ErrSealOpen
	}
	body := sealed[:len(sealed)-sealTagLen]
	m := s.macs.Get().(*sealMAC)
	ok := hmac.Equal(sealed[len(body):], m.tag(m.sum[:0], body))
	s.macs.Put(m)
	if !ok {
		return nil, ErrSealOpen
	}
	pt := make([]byte, len(body)-sealIVLen)
	cipher.NewCTR(s.block, body[:sealIVLen]).XORKeyStream(pt, body[sealIVLen:])
	return pt, nil
}
