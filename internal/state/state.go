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
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/bits"
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

// Size returns the wire footprint of the chunk in bytes (key plus blob).
func (c Chunk) Size() int { return packet.FlowKeyWireSize + len(c.Blob) }

// Sealer encrypts and authenticates state blobs before they leave a
// middlebox, so that supporting state remains opaque to the controller and
// control applications (§4.1.2: "MBs can encrypt chunks of per-flow
// supporting state before exporting"). All instances of one MB type share a
// key, so a blob sealed by one instance opens at its peer but nowhere else.
//
// The construction is AES-128-CTR with an HMAC-SHA256 tag over iv || ct
// (encrypt-then-MAC); a sealed blob is iv(16) || ct || tag(32), and every
// blob opens alone. Everything that depends only on the secret is built
// once: the AES key schedule in NewSealer, and keyed HMAC states held by the
// FrameSealers that Seal, Open and Frame borrow from a pool. A Sealer is safe
// for concurrent use and must not be copied.
type Sealer struct {
	block  cipher.Block
	frames sync.Pool // *FrameSealer, keyed
}

// FrameSealer seals or opens a run of blobs — one per-flow get, one put
// frame — as one AES-CTR message. The first blob it seals takes a fresh
// random IV; each later blob's IV is the counter block where its ciphertext
// starts. After each blob the counter advances by max(1, ⌈len/16⌉) blocks
// and the unused tail of the last keystream block is discarded, so no
// counter block is used twice and no two blobs of a run share an IV. That
// is all CTR asks of its IVs: counter blocks that never repeat under the
// key, not unpredictable ones. The blobs are byte for byte what Seal would
// produce for the same IVs.
//
// A FrameSealer is borrowed with Sealer.Frame, used by one goroutine, and
// given back with Release. Sealing after an Open starts a fresh random
// stream: continuing an opened stream would reuse the peer's counter blocks.
type FrameSealer struct {
	s       *Sealer
	mac     hash.Hash // keyed HMAC-SHA256, Reset after every blob
	sum     [sealTagLen]byte
	stream  cipher.Stream // nil until the first blob
	at      [sealIVLen]byte
	sealing bool                // the stream is one AppendSeal started
	pad     [aes.BlockSize]byte // keystream discarded at the end of a blob
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
	s.frames.New = func() any { return &FrameSealer{s: s, mac: hmac.New(sha256.New, macKey[:])} }
	return s
}

const (
	sealIVLen  = aes.BlockSize
	sealTagLen = sha256.Size
	// sealOverhead is the bytes a sealed blob adds to its plaintext.
	sealOverhead = sealIVLen + sealTagLen
)

// ErrSealOpen is returned when a sealed blob fails authentication.
var ErrSealOpen = errors.New("state: sealed blob failed authentication")

// Frame borrows a FrameSealer with no stream started.
func (s *Sealer) Frame() *FrameSealer { return s.frames.Get().(*FrameSealer) }

// Release ends f's stream and gives f back to its Sealer.
func (f *FrameSealer) Release() {
	f.stream, f.sealing = nil, false
	f.s.frames.Put(f)
}

// Seal encrypts plaintext and returns iv || ciphertext || tag, under a fresh
// random IV.
func (s *Sealer) Seal(plaintext []byte) []byte {
	f := s.Frame()
	out := f.AppendSeal(make([]byte, 0, len(plaintext)+sealOverhead), plaintext)
	f.Release()
	return out
}

// Open authenticates and decrypts a blob produced by Seal into a new slice,
// leaving sealed as it was. The tag is checked, in constant time, before
// anything is decrypted.
func (s *Sealer) Open(sealed []byte) ([]byte, error) {
	f := s.Frame()
	defer f.Release()
	ct, err := f.verify(sealed)
	if err != nil {
		return nil, err
	}
	pt := make([]byte, len(ct))
	f.xor(sealed[:sealIVLen], pt, ct)
	return pt, nil
}

// AppendSeal appends iv || ciphertext || tag for plaintext to dst and
// returns the extended slice; plaintext must not overlap dst's spare
// capacity. With room in dst it allocates nothing after f's first blob.
func (f *FrameSealer) AppendSeal(dst, plaintext []byte) []byte {
	if !f.sealing {
		if _, err := rand.Read(f.at[:]); err != nil {
			// crypto/rand failure is unrecoverable and cannot be handled
			// meaningfully by callers moving state.
			panic("state: crypto/rand: " + err.Error())
		}
		f.stream, f.sealing = nil, true
	}
	start := len(dst)
	dst = slices.Grow(dst, len(plaintext)+sealOverhead)
	dst = append(dst, f.at[:]...)
	ct := dst[len(dst) : len(dst)+len(plaintext)]
	f.xor(dst[start:len(dst)], ct, plaintext)
	dst = dst[:len(dst)+len(plaintext)]
	f.mac.Write(dst[start:])
	dst = f.mac.Sum(dst)
	f.mac.Reset()
	return dst
}

// Open authenticates a sealed blob and decrypts it in place, returning the
// plaintext as a subslice of sealed. The tag is checked, in constant time,
// before anything is decrypted; a blob that fails is left untouched. A blob
// whose IV is the counter f's stream stands at continues the stream; any
// other starts a new stream at its IV, so blobs open in any order.
func (f *FrameSealer) Open(sealed []byte) ([]byte, error) {
	ct, err := f.verify(sealed)
	if err != nil {
		return nil, err
	}
	f.sealing = false
	f.xor(sealed[:sealIVLen], ct, ct)
	return ct, nil
}

// verify checks sealed's tag and returns its ciphertext.
func (f *FrameSealer) verify(sealed []byte) ([]byte, error) {
	if len(sealed) < sealOverhead {
		return nil, ErrSealOpen
	}
	body := sealed[:len(sealed)-sealTagLen]
	f.mac.Write(body)
	ok := hmac.Equal(sealed[len(body):], f.mac.Sum(f.sum[:0]))
	f.mac.Reset()
	if !ok {
		return nil, ErrSealOpen
	}
	return body[sealIVLen:], nil
}

// xor applies the keystream for a blob at iv to src, into dst, and advances
// the stream past the blob: ⌈len/16⌉ blocks, at least one, the rest of the
// last block discarded.
func (f *FrameSealer) xor(iv, dst, src []byte) {
	if f.stream == nil || [sealIVLen]byte(iv) != f.at {
		f.at = [sealIVLen]byte(iv)
		f.stream = cipher.NewCTR(f.s.block, f.at[:])
	}
	f.stream.XORKeyStream(dst, src)
	blocks := max(1, (len(src)+aes.BlockSize-1)/aes.BlockSize)
	if tail := blocks*aes.BlockSize - len(src); tail > 0 {
		f.stream.XORKeyStream(f.pad[:tail], f.pad[:tail])
	}
	hi, lo := binary.BigEndian.Uint64(f.at[:8]), binary.BigEndian.Uint64(f.at[8:])
	lo, carry := bits.Add64(lo, uint64(blocks), 0)
	binary.BigEndian.PutUint64(f.at[:8], hi+carry)
	binary.BigEndian.PutUint64(f.at[8:], lo)
}
