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
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
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

// Sealer encrypts and authenticates state blobs before they leave a
// middlebox, so that supporting state remains opaque to the controller and
// control applications (§4.1.2: "MBs can encrypt chunks of per-flow
// supporting state before exporting"). All instances of one MB type share a
// key, so a blob sealed by one instance opens at its peer but nowhere else.
//
// The construction is AES-128-GCM; a sealed blob is nonce(12) || ct ||
// tag(16), and every blob opens alone. The key schedule and GCM's tables
// are built once, in NewSealer; the nonce state and Open's scratch buffer
// live on the FrameSealers that Seal and Frame borrow from a pool. A Sealer
// is safe for concurrent use and must not be copied.
type Sealer struct {
	aead   cipher.AEAD
	frames sync.Pool // *FrameSealer
}

// FrameSealer seals or opens a run of blobs — one per-flow get, one put
// frame. The first blob it seals takes a fresh random 96-bit nonce; each
// later blob's nonce is the previous one plus 1. That is all GCM asks of its
// nonces: none may repeat under the key, and none need be unpredictable.
//
// A FrameSealer is borrowed with Sealer.Frame, used by one goroutine, and
// given back with Release. Sealing after an Open starts a fresh random
// nonce: a FrameSealer that opened blobs serves a put, not the get whose
// nonces it sealed.
type FrameSealer struct {
	s       *Sealer
	nonce   [sealNonceLen]byte // the next blob's nonce, once sealing
	sealing bool               // nonce continues a run AppendSeal started
	scratch []byte             // Open's plaintext, before it replaces the ciphertext
}

// NewSealer derives a sealer from a shared secret. Deriving rather than
// using the secret directly lets tests use short human-readable secrets.
func NewSealer(secret string) *Sealer {
	key := sha256.Sum256([]byte("openmb-enc:" + secret))
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		panic("state: aes: " + err.Error())
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic("state: gcm: " + err.Error())
	}
	s := &Sealer{aead: aead}
	s.frames.New = func() any { return &FrameSealer{s: s} }
	return s
}

const (
	sealNonceLen = 12
	sealTagLen   = 16
	// sealOverhead is the bytes a sealed blob adds to its plaintext.
	sealOverhead = sealNonceLen + sealTagLen
)

// ErrSealOpen is returned when a sealed blob fails authentication.
var ErrSealOpen = errors.New("state: sealed blob failed authentication")

// Frame borrows a FrameSealer with no run started.
func (s *Sealer) Frame() *FrameSealer { return s.frames.Get().(*FrameSealer) }

// Release ends f's run and gives f back to its Sealer.
func (f *FrameSealer) Release() {
	f.sealing = false
	f.s.frames.Put(f)
}

// Seal encrypts plaintext and returns nonce || ciphertext || tag, under a
// fresh random nonce.
func (s *Sealer) Seal(plaintext []byte) []byte {
	f := s.Frame()
	out := f.AppendSeal(make([]byte, 0, len(plaintext)+sealOverhead), plaintext)
	f.Release()
	return out
}

// Open authenticates and decrypts a blob produced by Seal into a new slice,
// leaving sealed as it was.
func (s *Sealer) Open(sealed []byte) ([]byte, error) { return s.open(nil, sealed) }

// open authenticates and decrypts sealed, appending the plaintext to dst.
func (s *Sealer) open(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < sealOverhead {
		return nil, ErrSealOpen
	}
	pt, err := s.aead.Open(dst, sealed[:sealNonceLen], sealed[sealNonceLen:], nil)
	if err != nil {
		return nil, ErrSealOpen
	}
	return pt, nil
}

// AppendSeal appends nonce || ciphertext || tag for plaintext to dst and
// returns the extended slice; plaintext must not overlap dst's spare
// capacity. With room in dst it allocates nothing.
func (f *FrameSealer) AppendSeal(dst, plaintext []byte) []byte {
	if !f.sealing {
		if _, err := rand.Read(f.nonce[:]); err != nil {
			// crypto/rand failure is unrecoverable and cannot be handled
			// meaningfully by callers moving state.
			panic("state: crypto/rand: " + err.Error())
		}
		f.sealing = true
	}
	dst = slices.Grow(dst, len(plaintext)+sealOverhead)
	dst = f.s.aead.Seal(append(dst, f.nonce[:]...), f.nonce[:], plaintext, nil)
	// The next blob's nonce is this one plus 1, over all 96 bits.
	for i := len(f.nonce) - 1; i >= 0; i-- {
		if f.nonce[i]++; f.nonce[i] != 0 {
			break
		}
	}
	return dst
}

// Open authenticates a sealed blob and decrypts it in place, returning the
// plaintext as a subslice of sealed; a blob that fails is left untouched.
// GCM clears its output on a failed tag, so the plaintext goes to f's
// scratch buffer first and replaces the ciphertext only once it is
// authentic. Blobs open in any order.
func (f *FrameSealer) Open(sealed []byte) ([]byte, error) {
	f.sealing = false
	pt, err := f.s.open(f.scratch[:0], sealed)
	if err != nil {
		return nil, err
	}
	f.scratch = pt
	out := sealed[sealNonceLen : sealNonceLen+len(pt)]
	copy(out, pt)
	return out, nil
}
