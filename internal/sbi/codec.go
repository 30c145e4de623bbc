package sbi

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"openmb/internal/packet"
	"openmb/internal/state"
)

// Codec names a wire encoding for Messages. The hello frame is always JSON;
// the codec announced in it governs every frame after.
type Codec string

// Supported codecs.
const (
	// CodecJSON is the paper-faithful compatibility and debug codec:
	// newline-delimited JSON with base64 blobs, readable with a terminal.
	// It is also what an empty codec announcement in a hello means, so
	// peers that predate the negotiation keep working.
	CodecJSON Codec = "json"
	// CodecBinary is the default: length-prefixed compact binary frames
	// with raw (non-base64) blob and packet payloads and pooled encode
	// buffers. Runtimes announce it at hello unless configured otherwise
	// (mbox.Options.Codec).
	CodecBinary Codec = "binary"
)

// ParseCodec validates a codec name. "" means JSON: an absent announcement
// on the wire has always meant the paper's JSON framing, and that meaning is
// frozen for compatibility (the *default* for new runtimes is binary, chosen
// at the mbox.Options layer, and announced explicitly).
func ParseCodec(s string) (Codec, error) {
	switch Codec(s) {
	case "", CodecJSON:
		return CodecJSON, nil
	case CodecBinary:
		return CodecBinary, nil
	}
	return "", fmt.Errorf("sbi: unknown codec %q", s)
}

// wireCodec frames Messages over buffered streams. Implementations are bound
// to one Conn's reader/writer; encode and decode are each externally
// serialized by the Conn's send/receive mutexes. Both codecs' encode appends
// the frame to the buffered writer and leaves the flush to the Conn (see
// Conn's coalesced-flushing notes).
type wireCodec interface {
	name() Codec
	encode(m *Message) error
	decode() (*Message, error)
}

// ---------------------------------------------------------------------------
// JSON codec: one JSON object per line, exactly the paper prototype's format.

type jsonCodec struct {
	enc *json.Encoder
	bw  *bufio.Writer
	br  *bufio.Reader
}

func newJSONCodec(br *bufio.Reader, bw *bufio.Writer) *jsonCodec {
	return &jsonCodec{enc: json.NewEncoder(bw), bw: bw, br: br}
}

func (c *jsonCodec) name() Codec { return CodecJSON }

func (c *jsonCodec) encode(m *Message) error {
	return c.enc.Encode(m)
}

func (c *jsonCodec) decode() (*Message, error) {
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, fmt.Errorf("sbi: truncated frame: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// ---------------------------------------------------------------------------
// Binary codec: length-prefixed compact frames.
//
// Frame layout:
//
//	u32  big-endian body length
//	body:
//	  u8      message type
//	  u32     big-endian field-presence bitmap
//	  uvarint id
//	  ...fields present in the bitmap, in bit order
//
// Strings and byte fields are uvarint-length-prefixed; blobs and packets are
// raw bytes (no base64). Flow keys use packet.FlowKey's fixed 13-byte form.
// Encode buffers are pooled. A decoded message's blobs and packets alias its
// frame body; a frame without events is decoded into a Message, body and
// chunk slice from framePools, and Message.Release gives them back.

// maxBinaryFrame bounds a frame body so a corrupt or hostile length prefix
// cannot force an arbitrary allocation.
const maxBinaryFrame = 64 << 20

// Field-presence bits.
const (
	fName uint32 = 1 << iota
	fKind
	fCodec
	fOp
	fPath
	fValues
	fMatch
	fBlob
	fEnable
	fTTL
	fCompressed
	fBatch
	fChunk
	fChunks
	fCount
	fEntries
	fStats
	fEvent
	fError
	// fRetired keeps the bit of a field the protocol no longer carries, so
	// the fields after it keep their positions. It is not in knownFields: a
	// frame that sets it is rejected.
	fRetired
	fEvents
	fAddr
	fDir
	fWindow
)

// knownFields masks every bit this implementation understands; frames with
// other bits set are from a different, incompatible binary protocol.
const knownFields = (fWindow<<1 - 1) &^ fRetired

// Event-presence bits (one byte).
const (
	efKey uint8 = 1 << iota
	efShared
	efCode
	efPacket
	efValues
	efClass
)

// knownEventBits masks the event-presence bits this implementation
// understands, mirroring knownFields at the message level.
const knownEventBits = efClass<<1 - 1

// errKeyNotBinary rejects flow keys the 13-byte fixed encoding cannot
// represent (non-IPv4 addresses); silently zeroing them would collapse
// distinct flows onto one key at the decoder.
var errKeyNotBinary = fmt.Errorf("sbi: binary encode: flow key is not IPv4")

// flowKeyBinaryOK reports whether k survives the 13-byte encoding: each
// address is IPv4 or unset (the wildcard, encoded as 0.0.0.0).
func flowKeyBinaryOK(k packet.FlowKey) bool {
	_, ok := k.ID()
	return ok
}

var msgTypeToByte = map[MsgType]byte{
	MsgHello: 1, MsgRequest: 2, MsgChunk: 3, MsgDone: 4, MsgEvent: 5, MsgError: 6,
}

var byteToMsgType = map[byte]MsgType{
	1: MsgHello, 2: MsgRequest, 3: MsgChunk, 4: MsgDone, 5: MsgEvent, 6: MsgError,
}

var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// A received frame's Message, body and chunk slice come from framePools
// unless it carries events, which the event router may hold. The frames
// nobody releases (requests but puts and credits, replies but put ACKs)
// were all 6–109 bytes, 0.3 % of those lent on move-idle and 2.8 % on
// scaleup-live; so those of up to smallFrame bytes use framePools[0] and
// take no 3–8 KB chunk frame body with them (one shared pool read 12 % more
// bytes a chunk on move-idle). Bodies past maxPooledFrame are dropped.
const smallFrame, maxPooledFrame = 256, 1 << 20

// framePoison overwrites a released body, and releasedMessage the Message,
// under the race detector, so a read after Release fails loudly (a sealed
// blob no longer opens) instead of seeing whatever frame reused them.
const framePoison = 0xA5

var releasedMessage = Message{Type: "released", ID: ^uint64(0), Op: "released", Count: -1, Error: "released"}

// frameBuf is one pooled frame's storage.
type frameBuf struct {
	msg    Message
	body   []byte
	chunks []state.Chunk
}

// knownOps interns the op names, so decoding a request's op allocates nothing.
var knownOps = map[string]Op{}

func init() {
	for _, op := range []Op{OpGetConfig, OpSetConfig, OpDelConfig, OpGetSupportPerflow, OpPutSupportPerflow,
		OpDelSupportPerflow, OpGetSupportShared, OpPutSupportShared, OpGetReportPerflow, OpPutReportPerflow,
		OpDelReportPerflow, OpGetReportShared, OpPutReportShared, OpStats, OpSetEventFilter, OpReprocess, OpCredit,
		OpEndTransaction, OpPing, OpPong, OpTraceFlow, OpTraceDump, OpDirUpdate, OpDirSync, OpPeerLeave, OpRedirect, OpReleaseMB} {
		knownOps[string(op)] = op
	}
}

var framePools = [2]sync.Pool{{New: newFrameBuf}, {New: newFrameBuf}}

func newFrameBuf() any           { return new(frameBuf) }
func framePool(n int) *sync.Pool { return &framePools[min(n/(smallFrame+1), 1)] }

type binaryCodec struct {
	bw  *bufio.Writer
	br  *bufio.Reader
	hdr [4]byte // the length prefix decode reads
}

func newBinaryCodec(br *bufio.Reader, bw *bufio.Writer) *binaryCodec {
	return &binaryCodec{bw: bw, br: br}
}

func (c *binaryCodec) name() Codec { return CodecBinary }

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendChunk(b []byte, ch *state.Chunk) []byte {
	b = ch.Key.AppendBinary(b)
	return appendBytes(b, ch.Blob)
}

func (c *binaryCodec) encode(m *Message) error {
	bp := encBufPool.Get().(*[]byte)
	body := (*bp)[:0]
	// Reserve the length prefix; filled in after the body is complete.
	body = append(body, 0, 0, 0, 0)

	tb, ok := msgTypeToByte[m.Type]
	if !ok {
		encBufPool.Put(bp)
		return fmt.Errorf("sbi: binary encode: unknown message type %q", m.Type)
	}
	keysOK := m.Chunk == nil || flowKeyBinaryOK(m.Chunk.Key)
	for i := range m.Chunks {
		keysOK = keysOK && flowKeyBinaryOK(m.Chunks[i].Key)
	}
	if m.Event != nil {
		keysOK = keysOK && flowKeyBinaryOK(m.Event.Key)
	}
	for _, ev := range m.Events {
		keysOK = keysOK && flowKeyBinaryOK(ev.Key)
	}
	if !keysOK {
		encBufPool.Put(bp)
		return errKeyNotBinary
	}
	body = append(body, tb)

	var flags uint32
	if m.Name != "" {
		flags |= fName
	}
	if m.Kind != "" {
		flags |= fKind
	}
	if m.Codec != "" {
		flags |= fCodec
	}
	if m.Op != "" {
		flags |= fOp
	}
	if m.Path != "" {
		flags |= fPath
	}
	if len(m.Values) > 0 {
		flags |= fValues
	}
	if !m.Match.IsAll() {
		flags |= fMatch
	}
	if len(m.Blob) > 0 {
		flags |= fBlob
	}
	if m.Enable {
		flags |= fEnable
	}
	if m.TTLNanos != 0 {
		flags |= fTTL
	}
	if m.Compressed {
		flags |= fCompressed
	}
	if m.Batch != 0 {
		flags |= fBatch
	}
	if m.Chunk != nil {
		flags |= fChunk
	}
	if len(m.Chunks) > 0 {
		flags |= fChunks
	}
	if m.Count != 0 {
		flags |= fCount
	}
	if len(m.Entries) > 0 {
		flags |= fEntries
	}
	if m.Stats != nil {
		flags |= fStats
	}
	if m.Event != nil {
		flags |= fEvent
	}
	if m.Error != "" {
		flags |= fError
	}
	if len(m.Events) > 0 {
		flags |= fEvents
	}
	if m.Addr != "" {
		flags |= fAddr
	}
	if len(m.Dir) > 0 {
		flags |= fDir
	}
	if m.Window != 0 {
		flags |= fWindow
	}
	body = binary.BigEndian.AppendUint32(body, flags)
	body = appendUvarint(body, m.ID)

	if flags&fName != 0 {
		body = appendString(body, m.Name)
	}
	if flags&fKind != 0 {
		body = appendString(body, m.Kind)
	}
	if flags&fCodec != 0 {
		body = appendString(body, string(m.Codec))
	}
	if flags&fOp != 0 {
		body = appendString(body, string(m.Op))
	}
	if flags&fPath != 0 {
		body = appendString(body, m.Path)
	}
	if flags&fValues != 0 {
		body = appendUvarint(body, uint64(len(m.Values)))
		for _, v := range m.Values {
			body = appendString(body, v)
		}
	}
	if flags&fMatch != 0 {
		body = appendString(body, m.Match.String())
	}
	if flags&fBlob != 0 {
		body = appendBytes(body, m.Blob)
	}
	if flags&fTTL != 0 {
		body = appendUvarint(body, uint64(m.TTLNanos))
	}
	if flags&fBatch != 0 {
		body = appendUvarint(body, uint64(m.Batch))
	}
	if flags&fChunk != 0 {
		body = appendChunk(body, m.Chunk)
	}
	if flags&fChunks != 0 {
		body = appendUvarint(body, uint64(len(m.Chunks)))
		for i := range m.Chunks {
			body = appendChunk(body, &m.Chunks[i])
		}
	}
	if flags&fCount != 0 {
		body = appendUvarint(body, uint64(m.Count))
	}
	if flags&fEntries != 0 {
		body = appendUvarint(body, uint64(len(m.Entries)))
		for _, e := range m.Entries {
			body = appendString(body, e.Path)
			body = appendUvarint(body, uint64(len(e.Values)))
			for _, v := range e.Values {
				body = appendString(body, v)
			}
		}
	}
	if flags&fStats != 0 {
		s := m.Stats
		for _, v := range [...]int{
			s.SupportPerflowChunks, s.SupportPerflowBytes,
			s.ReportPerflowChunks, s.ReportPerflowBytes,
			s.SupportSharedBytes, s.ReportSharedBytes,
		} {
			body = appendUvarint(body, uint64(v))
		}
	}
	if flags&fEvent != 0 {
		body = appendEvent(body, m.Event)
	}
	if flags&fError != 0 {
		body = appendString(body, m.Error)
	}
	if flags&fEvents != 0 {
		body = appendUvarint(body, uint64(len(m.Events)))
		for _, ev := range m.Events {
			body = appendEvent(body, ev)
		}
	}
	if flags&fAddr != 0 {
		body = appendString(body, m.Addr)
	}
	if flags&fDir != 0 {
		body = appendUvarint(body, uint64(len(m.Dir)))
		for _, de := range m.Dir {
			body = appendString(body, de.Name)
			body = appendString(body, de.Node)
			body = appendUvarint(body, de.Version)
		}
	}
	if flags&fWindow != 0 {
		body = appendUvarint(body, uint64(m.Window))
	}

	if len(body)-4 > maxBinaryFrame {
		encBufPool.Put(bp)
		return fmt.Errorf("sbi: binary encode: frame of %d bytes exceeds limit", len(body)-4)
	}
	binary.BigEndian.PutUint32(body[:4], uint32(len(body)-4))
	_, err := c.bw.Write(body)
	*bp = body
	encBufPool.Put(bp)
	return err
}

func appendEvent(b []byte, ev *Event) []byte {
	var ef uint8
	hasKey := ev.Key != (packet.FlowKey{})
	if hasKey {
		ef |= efKey
	}
	if ev.Shared {
		ef |= efShared
	}
	if ev.Code != "" {
		ef |= efCode
	}
	if len(ev.Packet) > 0 {
		ef |= efPacket
	}
	if len(ev.Values) > 0 {
		ef |= efValues
	}
	if ev.Class != 0 {
		ef |= efClass
	}
	b = append(b, ef)
	b = appendString(b, string(ev.Kind))
	if hasKey {
		b = ev.Key.AppendBinary(b)
	}
	if ef&efCode != 0 {
		b = appendString(b, ev.Code)
	}
	if ef&efPacket != 0 {
		b = appendBytes(b, ev.Packet)
	}
	if ef&efValues != 0 {
		b = appendUvarint(b, uint64(len(ev.Values)))
		for k, v := range ev.Values {
			b = appendString(b, k)
			b = appendString(b, v)
		}
	}
	b = appendUvarint(b, ev.Seq)
	if ef&efClass != 0 {
		b = append(b, byte(ev.Class))
	}
	return b
}

// binReader walks a frame body.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("sbi: binary decode: truncated %s", what)
	}
}

func (r *binReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

// take returns n raw bytes aliasing the frame buffer.
func (r *binReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *binReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if n == 0 {
		// nil, not an empty slice, so decoded messages compare equal to
		// their JSON-decoded counterparts.
		return nil
	}
	return r.take(int(n), what)
}

func (r *binReader) string(what string) string {
	return string(r.bytes(what))
}

func (r *binReader) flowKey(what string) packet.FlowKey {
	raw := r.take(packet.FlowKeyWireSize, what)
	if r.err != nil {
		return packet.FlowKey{}
	}
	k, err := packet.DecodeFlowKey(raw)
	if err != nil && r.err == nil {
		r.err = err
	}
	return k
}

func (r *binReader) chunk(what string) state.Chunk {
	key := r.flowKey(what)
	blob := r.bytes(what)
	return state.Chunk{Key: key, Blob: blob}
}

// carriesEvents reports whether the n-byte frame body next in br sets an
// event field, by peeking its type byte and field bitmap without consuming
// them. A body too short to hold them, which decode rejects, counts as one.
func carriesEvents(br *bufio.Reader, n uint32) bool {
	if n < 5 {
		return true
	}
	h, err := br.Peek(5)
	return err != nil || binary.BigEndian.Uint32(h[1:])&(fEvent|fEvents) != 0
}

func (c *binaryCodec) decode() (*Message, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n > maxBinaryFrame {
		return nil, fmt.Errorf("sbi: binary decode: frame of %d bytes exceeds limit", n)
	}
	var m *Message
	var body []byte
	if carriesEvents(c.br, n) {
		m, body = &Message{}, make([]byte, n)
	} else {
		fb := framePool(int(n)).Get().(*frameBuf)
		if cap(fb.body) < int(n) {
			fb.body = make([]byte, n, max(n, smallFrame))
		}
		fb.body = fb.body[:n]
		fb.msg = Message{frame: fb}
		m, body = &fb.msg, fb.body
	}
	if _, err := io.ReadFull(c.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("sbi: truncated frame: %w", err)
	}
	r := &binReader{b: body}

	mt, ok := byteToMsgType[r.byte("type")]
	if !ok {
		return nil, fmt.Errorf("sbi: binary decode: unknown message type")
	}
	m.Type = mt
	flagBytes := r.take(4, "flags")
	if r.err != nil {
		return nil, r.err
	}
	flags := binary.BigEndian.Uint32(flagBytes)
	if flags&^uint32(knownFields) != 0 {
		return nil, fmt.Errorf("sbi: binary decode: unknown field bits %#x", flags&^uint32(knownFields))
	}
	m.ID = r.uvarint("id")

	if flags&fName != 0 {
		m.Name = r.string("name")
	}
	if flags&fKind != 0 {
		m.Kind = r.string("kind")
	}
	if flags&fCodec != 0 {
		m.Codec = Codec(r.string("codec"))
	}
	if flags&fOp != 0 {
		b := r.bytes("op")
		if m.Op = knownOps[string(b)]; m.Op == "" {
			m.Op = Op(b)
		}
	}
	if flags&fPath != 0 {
		m.Path = r.string("path")
	}
	if flags&fValues != 0 {
		n := r.uvarint("values")
		for i := uint64(0); i < n && r.err == nil; i++ {
			m.Values = append(m.Values, r.string("values"))
		}
	}
	if flags&fMatch != 0 {
		s := r.string("match")
		if r.err == nil {
			match, err := packet.ParseFieldMatch(s)
			if err != nil {
				return nil, err
			}
			m.Match = match
		}
	}
	if flags&fBlob != 0 {
		m.Blob = r.bytes("blob")
	}
	m.Enable = flags&fEnable != 0
	if flags&fTTL != 0 {
		m.TTLNanos = int64(r.uvarint("ttl"))
	}
	m.Compressed = flags&fCompressed != 0
	if flags&fBatch != 0 {
		m.Batch = int(r.uvarint("batch"))
	}
	// A pooled frame's chunks live in its chunk slice: the lone chunk of a
	// one-chunk frame first, then a batch's.
	lone := 0
	if flags&fChunk != 0 {
		if fb := m.frame; fb != nil {
			fb.chunks = append(fb.chunks[:0], r.chunk("chunk"))
			if r.err == nil {
				m.Chunk, lone = &fb.chunks[0], 1
			}
		} else if ch := r.chunk("chunk"); r.err == nil {
			m.Chunk = &ch
		}
	}
	if flags&fChunks != 0 {
		n := r.uvarint("chunks")
		// Every chunk is a key and at least one length byte, so the count
		// is checked against the bytes that remain before it sizes the
		// slice: a hostile count cannot make the decoder allocate more
		// than a well-formed frame of this length would.
		if r.err == nil && n > uint64(len(body)-r.off)/(packet.FlowKeyWireSize+1) {
			return nil, fmt.Errorf("sbi: binary decode: chunk count %d exceeds frame", n)
		}
		if r.err == nil && n > 0 {
			if fb := m.frame; fb != nil {
				if uint64(cap(fb.chunks)-lone) < n {
					fb.chunks = append(make([]state.Chunk, 0, uint64(lone)+n), fb.chunks[:lone]...)
					if lone == 1 {
						m.Chunk = &fb.chunks[0]
					}
				}
				m.Chunks = fb.chunks[lone:lone]
			} else {
				m.Chunks = make([]state.Chunk, 0, n)
			}
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			m.Chunks = append(m.Chunks, r.chunk("chunks"))
		}
	}
	if flags&fCount != 0 {
		m.Count = int(r.uvarint("count"))
	}
	if flags&fEntries != 0 {
		n := r.uvarint("entries")
		for i := uint64(0); i < n && r.err == nil; i++ {
			var e state.Entry
			e.Path = r.string("entries")
			nv := r.uvarint("entries")
			for j := uint64(0); j < nv && r.err == nil; j++ {
				e.Values = append(e.Values, r.string("entries"))
			}
			m.Entries = append(m.Entries, e)
		}
	}
	if flags&fStats != 0 {
		var s StatsReply
		s.SupportPerflowChunks = int(r.uvarint("stats"))
		s.SupportPerflowBytes = int(r.uvarint("stats"))
		s.ReportPerflowChunks = int(r.uvarint("stats"))
		s.ReportPerflowBytes = int(r.uvarint("stats"))
		s.SupportSharedBytes = int(r.uvarint("stats"))
		s.ReportSharedBytes = int(r.uvarint("stats"))
		if r.err == nil {
			m.Stats = &s
		}
	}
	if flags&fEvent != 0 {
		ev, err := decodeEvent(r)
		if err != nil {
			return nil, err
		}
		m.Event = ev
	}
	if flags&fError != 0 {
		m.Error = r.string("error")
	}
	if flags&fEvents != 0 {
		n := r.uvarint("events")
		// Each event costs at least its presence byte, kind length, and
		// seq — a count beyond the frame size is corrupt.
		if r.err == nil && n > uint64(len(body)) {
			return nil, fmt.Errorf("sbi: binary decode: event count %d exceeds frame", n)
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			ev, err := decodeEvent(r)
			if err != nil {
				return nil, err
			}
			m.Events = append(m.Events, ev)
		}
	}
	if flags&fAddr != 0 {
		m.Addr = r.string("addr")
	}
	if flags&fDir != 0 {
		n := r.uvarint("dir")
		// Each entry costs at least two length bytes and a version byte.
		if r.err == nil && n > uint64(len(body)) {
			return nil, fmt.Errorf("sbi: binary decode: dir entry count %d exceeds frame", n)
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			var de DirEntry
			de.Name = r.string("dir name")
			de.Node = r.string("dir node")
			de.Version = r.uvarint("dir version")
			m.Dir = append(m.Dir, de)
		}
	}
	if flags&fWindow != 0 {
		m.Window = int(r.uvarint("window"))
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

func decodeEvent(r *binReader) (*Event, error) {
	ef := r.byte("event")
	if ef&^knownEventBits != 0 {
		return nil, fmt.Errorf("sbi: binary decode: unknown event field bits %#x", ef&^knownEventBits)
	}
	ev := &Event{}
	ev.Kind = EventKind(r.string("event kind"))
	if ef&efKey != 0 {
		ev.Key = r.flowKey("event key")
	}
	ev.Shared = ef&efShared != 0
	if ef&efCode != 0 {
		ev.Code = r.string("event code")
	}
	if ef&efPacket != 0 {
		ev.Packet = r.bytes("event packet")
	}
	if ef&efValues != 0 {
		n := r.uvarint("event values")
		for i := uint64(0); i < n && r.err == nil; i++ {
			if ev.Values == nil { // never sized by the peer's count
				ev.Values = map[string]string{}
			}
			k := r.string("event values")
			ev.Values[k] = r.string("event values")
		}
	}
	ev.Seq = r.uvarint("event seq")
	if ef&efClass != 0 {
		ev.Class = state.Class(r.byte("event class"))
	}
	if r.err != nil {
		return nil, r.err
	}
	return ev, nil
}
