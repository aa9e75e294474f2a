package wire

import (
	"encoding/binary"
	"fmt"
)

// Batch framing: one FBatch type byte, then for each coalesced
// envelope a fixed 4-byte little-endian length followed by the
// envelope's own encoding. The entry count is implicit — entries run
// to the end of the frame. The fixed-width length lets the builder
// reserve the slot, stream the envelope payload straight into the
// shared writer, and patch the length afterwards: no intermediate
// per-message buffer exists on the encode side, and the decode side
// sub-slices the single receive buffer.

// BatchBuilder accumulates envelopes for one peer into a single
// frame. It is not safe for concurrent use.
type BatchBuilder struct {
	w        *Writer
	count    int
	entryOff int // offset of the open entry's length slot, -1 if none
}

// NewBatchBuilder returns an empty builder backed by a pooled writer.
// Call Release when done with it.
func NewBatchBuilder() *BatchBuilder {
	b := &BatchBuilder{w: GetWriter(), entryOff: -1}
	b.w.Byte(byte(FBatch))
	return b
}

// BeginEntry opens a new envelope entry and returns the writer the
// caller appends the payload into. EndEntry must be called before the
// next BeginEntry or TakeFrame.
func (b *BatchBuilder) BeginEntry(t FrameType, src, dst uint32, trace, deadline uint64) *Writer {
	if b.entryOff >= 0 {
		panic("wire: BeginEntry with entry open")
	}
	b.entryOff = b.w.Fixed32()
	AppendEnvelopeHdr(b.w, t, src, dst, trace, deadline)
	return b.w
}

// EndEntry closes the entry opened by BeginEntry.
func (b *BatchBuilder) EndEntry() {
	if b.entryOff < 0 {
		panic("wire: EndEntry without entry open")
	}
	b.w.Patch32(b.entryOff, uint32(b.w.Len()-b.entryOff-4))
	b.entryOff = -1
	b.count++
}

// Count returns the number of closed entries.
func (b *BatchBuilder) Count() int { return b.count }

// Len returns the frame size so far (flush-threshold input).
func (b *BatchBuilder) Len() int { return b.w.Len() }

// Headroom is the room TakeFramed leaves in front of a frame: enough
// for a reliable-layer packet header (type byte, six varints and a few
// selective acks), which transport.Reliable writes there in place
// instead of copying the frame behind a fresh header.
const Headroom = 32

// maxEntryHdr bounds an entry's framing: its length slot and an
// envelope header with both optional fields.
const maxEntryHdr = 4 + 1 + 2*binary.MaxVarintLen32 + 2*binary.MaxVarintLen64

// Fits reports whether one more entry of n payload bytes keeps the
// TakeFramed buffer, headroom included, within limit bytes.
func (b *BatchBuilder) Fits(n, limit int) bool {
	return Headroom+b.w.Len()+maxEntryHdr+n <= limit
}

// frame returns the accumulated frame in the builder's own buffer. A
// single-entry batch is the plain envelope — the batch framing is
// dropped, so a lone flush costs no extra bytes and decodes everywhere
// an unbatched envelope would.
func (b *BatchBuilder) frame() []byte {
	if b.entryOff >= 0 {
		panic("wire: frame taken with entry open")
	}
	if b.count == 1 {
		return b.w.Bytes()[5:] // skip FBatch byte + length slot
	}
	return b.w.Bytes()
}

// reset empties the builder for the next frame.
func (b *BatchBuilder) reset() {
	b.w.Reset()
	b.w.Byte(byte(FBatch))
	b.count = 0
}

// TakeFrame copies the accumulated frame out and resets the builder
// for reuse.
func (b *BatchBuilder) TakeFrame() []byte {
	f := b.frame()
	out := make([]byte, len(f))
	copy(out, f)
	b.reset()
	return out
}

// TakeFramed is TakeFrame into a buffer that starts with Headroom free
// bytes, marked by an FRoom first byte, followed by the frame. It is
// the frame's one copy on the send path: transport.Reliable writes its
// packet header into the room, and sending strips the room for every
// other transport (SplitHeadroom).
func (b *BatchBuilder) TakeFramed() []byte {
	f := b.frame()
	out := make([]byte, Headroom+len(f))
	out[0] = byte(FRoom)
	copy(out[Headroom:], f)
	b.reset()
	return out
}

// SplitHeadroom returns the frame a TakeFramed buffer carries and the
// size of the free room in front of it. Any other buffer is a bare
// frame with no room.
func SplitHeadroom(buf []byte) (frame []byte, room int) {
	if len(buf) > Headroom && FrameType(buf[0]) == FRoom {
		return buf[Headroom:], Headroom
	}
	return buf, 0
}

// Release returns the builder's writer to the pool.
func (b *BatchBuilder) Release() {
	PutWriter(b.w)
	b.w = nil
}

// IsBatch reports whether frame is an FBatch frame.
func IsBatch(frame []byte) bool {
	return len(frame) > 0 && FrameType(frame[0]) == FBatch
}

// BatchIter walks the envelopes of an FBatch frame. Decoded payloads
// sub-slice the frame buffer — zero-copy, so the buffer must outlive
// the envelopes (receive buffers are never reused in this codebase).
type BatchIter struct {
	data []byte
	pos  int
}

// NewBatchIter validates the frame header and returns an iterator.
func NewBatchIter(frame []byte) (*BatchIter, error) {
	if len(frame) > MaxFrame {
		return nil, fmt.Errorf("wire: batch of %d bytes exceeds limit", len(frame))
	}
	if !IsBatch(frame) {
		return nil, fmt.Errorf("wire: not a batch frame")
	}
	return &BatchIter{data: frame, pos: 1}, nil
}

// Next decodes the next envelope into env. It returns false with a nil
// error at the end of the batch.
func (it *BatchIter) Next(env *Envelope) (bool, error) {
	if it.pos == len(it.data) {
		return false, nil
	}
	if it.pos+4 > len(it.data) {
		return false, fmt.Errorf("wire: truncated batch entry header at %d", it.pos)
	}
	n := int(uint32(it.data[it.pos]) | uint32(it.data[it.pos+1])<<8 | uint32(it.data[it.pos+2])<<16 | uint32(it.data[it.pos+3])<<24)
	it.pos += 4
	if n < 1 || n > len(it.data)-it.pos {
		return false, fmt.Errorf("wire: batch entry of %d bytes at %d overruns frame", n, it.pos)
	}
	if err := DecodeEnvelopeInto(env, it.data[it.pos:it.pos+n]); err != nil {
		return false, err
	}
	it.pos += n
	return true, nil
}

// DecodeBatch decodes every envelope of a batch frame. Payloads
// sub-slice frame.
func DecodeBatch(frame []byte) ([]Envelope, error) {
	it, err := NewBatchIter(frame)
	if err != nil {
		return nil, err
	}
	var out []Envelope
	var env Envelope
	for {
		ok, err := it.Next(&env)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, env)
	}
}
