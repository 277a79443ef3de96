// Package wire is the deque service's binary protocol: compact
// length-prefixed frames carrying deque operations from clients
// (cmd/dqload, tests) to the server (cmd/dequed) over any byte stream.
//
// # Framing
//
// Every frame is a 4-byte big-endian length (of everything after the
// length field) followed by a fixed header and an optional payload of
// 4-byte big-endian uint32 values — the deque's native payload width.
//
//	request:  len:u32 | tag:u32 op:u8 side:u8 key:u64 count:u32 | values…
//	response: len:u32 | tag:u32 status:u8          count:u32 | values…
//
// tag is an opaque client token echoed verbatim in the response, so a
// pipelining client can correlate out of a strictly-ordered stream. key
// is the shard-routing key (KeyAffinity hashes it; other policies ignore
// it). count is the value count for pushes, the requested maximum for
// OpPopN, and the accepted/returned count in responses.
//
// Pipelining is the framing's whole design: requests are processed and
// answered strictly in order per connection, so a client may write any
// number of frames before reading, and the server flushes its write
// buffer only when the read side runs dry.
//
// # Batch mapping
//
// OpPushN/OpPopN map 1:1 onto the PushLeftN/PopRightN family: one frame,
// one batch call, one response carrying the accepted prefix length
// (pushes) or the popped values (pops). StatusFull responses to OpPushN
// carry the accepted count n — exactly the (n, ErrFull) batch contract:
// values[:n] landed, values[n:] had no effect.
//
// # Backpressure
//
// Statuses map 1:1 onto the deque's error contract (package repro
// errors.go): StatusFull is ErrFull (capacity; retry after pops),
// StatusContended is ErrContended (bounded-attempt budget spent),
// StatusCanceled is a server-side context abort (drain hard-stop).
// Status.Err returns the matching sentinel so client code can errors.Is
// against the same values in-process callers use.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// Op codes.
const (
	OpPing     uint8 = iota + 1 // no-op round trip; responds OK
	OpLen                       // exact pool length in response count
	OpPush                      // push values[0] on side
	OpPop                       // pop one value from side
	OpPushN                     // push count values in order on side
	OpPopN                      // pop up to count values from side
	OpRelax                     // observed-relaxation snapshot (see RelaxStats)
	OpStats                     // per-op-class latency snapshot (see OpStat)
	OpPushPrio                  // DEPQ push: values[0] under priority key (see below)
	OpPopMin                    // DEPQ pop from the urgent end; response [value, band]
	OpPopMax                    // DEPQ pop from the shed end; response [value, band]
	OpDepq                      // observed-inversion snapshot (see DepqStats)
)

// DEPQ frame mapping (cmd/schedd). OpPushPrio reuses the routing-key
// field as the priority band — the scheduler routes by priority, so the
// two fields are the same concept — with side pinned to Left (a DEPQ
// admits at each band's left end by construction; any other side is
// StatusBad, not silently ignored). OpPopMin/OpPopMax/OpDepq are
// payload-less AND side-less: the op itself names the end, so a stray
// side, count, or payload means a confused or hostile peer and the frame
// is rejected rather than partially honored. Pop responses carry
// [value, band] with Count 2; StatusFull on OpPushPrio is the
// load-shedding signal (the job was refused admission, nothing landed).

// Sides.
const (
	Left  uint8 = 0
	Right uint8 = 1
)

// Statuses.
const (
	StatusOK        uint8 = 0 // operation applied (pushes: all values)
	StatusEmpty     uint8 = 1 // pop found the pool empty (no values)
	StatusFull      uint8 = 2 // ErrFull: count carries the accepted prefix
	StatusContended uint8 = 3 // ErrContended: nothing happened, retry later
	StatusCanceled  uint8 = 4 // server canceled the op (hard drain)
	StatusBad       uint8 = 5 // malformed but parseable request
	StatusDraining  uint8 = 6 // reserved: server draining (currently unused —
	// a draining server answers everything it reads and closes instead)
)

// Limits. MaxBatch bounds count for batch ops; MaxFrame bounds the whole
// frame and is derived from it (header + MaxBatch values).
const (
	MaxBatch   = 1 << 16
	reqHeader  = 4 + 1 + 1 + 8 + 4 // tag op side key count
	respHeader = 4 + 1 + 4         // tag status count
	MaxFrame   = reqHeader + 4*MaxBatch
	lenPrefix  = 4
)

// ErrFrame reports a malformed or oversized frame; the connection is no
// longer synchronized and must be closed.
var ErrFrame = errors.New("wire: malformed frame")

// Request is one client->server frame.
type Request struct {
	Tag    uint32
	Op     uint8
	Side   uint8
	Key    uint64
	Count  uint32
	Values []uint32
}

// Response is one server->client frame.
type Response struct {
	Tag    uint32
	Status uint8
	Count  uint32
	Values []uint32
}

// Err maps a response status to the deque's error contract: nil for
// OK/Empty (emptiness is a result, not an error, exactly as in the
// in-process API), the core sentinels for Full/Contended, and descriptive
// errors otherwise.
func (r *Response) Err() error {
	switch r.Status {
	case StatusOK, StatusEmpty:
		return nil
	case StatusFull:
		return core.ErrFull
	case StatusContended:
		return core.ErrContended
	case StatusCanceled:
		return context.Canceled
	case StatusBad:
		return fmt.Errorf("%w: server rejected request", ErrFrame)
	default:
		return fmt.Errorf("wire: unknown status %d", r.Status)
	}
}

// StatusOf maps an operation error to its wire status (the inverse of
// Response.Err): nil is StatusOK, the core sentinels map to their
// statuses, context aborts to StatusCanceled, anything else to StatusBad.
func StatusOf(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, core.ErrFull):
		return StatusFull
	case errors.Is(err, core.ErrContended):
		return StatusContended
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return StatusCanceled
	default:
		return StatusBad
	}
}

// AppendRequest appends req's frame to dst and returns the extended
// slice. Count is taken from req.Count; for pushes it must equal
// len(req.Values).
func AppendRequest(dst []byte, req *Request) []byte {
	body := reqHeader + 4*len(req.Values)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = binary.BigEndian.AppendUint32(dst, req.Tag)
	dst = append(dst, req.Op, req.Side)
	dst = binary.BigEndian.AppendUint64(dst, req.Key)
	dst = binary.BigEndian.AppendUint32(dst, req.Count)
	for _, v := range req.Values {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	return dst
}

// AppendResponse appends resp's frame to dst and returns the extended
// slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	body := respHeader + 4*len(resp.Values)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = binary.BigEndian.AppendUint32(dst, resp.Tag)
	dst = append(dst, resp.Status)
	dst = binary.BigEndian.AppendUint32(dst, resp.Count)
	for _, v := range resp.Values {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	return dst
}

// WriteRequest encodes req straight into bw's free buffer space (see
// writeBuf) and queues it without flushing.
func WriteRequest(bw *bufio.Writer, req *Request) error {
	dst, err := writeBuf(bw, lenPrefix+reqHeader+4*len(req.Values))
	if err != nil {
		return err
	}
	_, err = bw.Write(AppendRequest(dst, req))
	return err
}

// WriteResponse encodes resp straight into bw's free buffer space (see
// writeBuf) and queues it without flushing.
func WriteResponse(bw *bufio.Writer, resp *Response) error {
	dst, err := writeBuf(bw, lenPrefix+respHeader+4*len(resp.Values))
	if err != nil {
		return err
	}
	_, err = bw.Write(AppendResponse(dst, resp))
	return err
}

// writeBuf returns the slice to append an n-byte frame to: bw's
// AvailableBuffer, so the frame is encoded in place and bw.Write's copy
// is onto itself. When the frame does not fit beside what is already
// queued, bw is flushed first — exactly what bw.Write would have done.
// Only a frame larger than the whole buffer (a batch near MaxBatch) gets
// nil, so the append allocates and bw writes it through.
func writeBuf(bw *bufio.Writer, n int) ([]byte, error) {
	if n > bw.Available() {
		if n > bw.Size() {
			return nil, nil
		}
		if err := bw.Flush(); err != nil {
			return nil, err
		}
	}
	return bw.AvailableBuffer(), nil
}

// readFrame returns the body of the next length-prefixed frame. A frame
// that fits in br's buffer — every frame but a batch near MaxBatch — is
// not copied: body aliases br's buffer, is valid only until the next call
// on br, and the caller releases it with br.Discard(skip) once decoded. A
// larger frame is copied into *scratch (grown as needed) and already
// consumed, with skip 0. io.EOF before the first length byte is a clean
// end of stream and passes through unchanged; any other truncation is
// io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader, scratch *[]byte) (body []byte, skip int, err error) {
	// One Peek sees the length prefix and, in a pipelined burst, usually
	// the whole frame behind it: Peek(Buffered()) never refills.
	p, err := br.Peek(max(lenPrefix, br.Buffered()))
	if err != nil {
		if len(p) > 0 {
			err = unexpected(err)
		}
		return nil, 0, err // len(p) == 0: clean EOF between frames
	}
	n := int(binary.BigEndian.Uint32(p))
	if n > MaxFrame {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds %d", ErrFrame, n, MaxFrame)
	}
	skip = lenPrefix + n
	if skip <= br.Size() {
		if len(p) < skip {
			if p, err = br.Peek(skip); err != nil {
				return nil, 0, unexpected(err)
			}
		}
		return p[lenPrefix:skip], skip, nil
	}
	_, _ = br.Discard(lenPrefix) // the prefix is buffered: cannot fail
	buf := *scratch
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	*scratch = buf
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, 0, unexpected(err)
	}
	return buf, 0, nil
}

// unexpected maps io.EOF inside a frame to io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeValues parses the big-endian uint32 values of payload b into dst
// (reused when large enough).
func decodeValues(dst []uint32, b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return dst, fmt.Errorf("%w: %d payload bytes", ErrFrame, len(b))
	}
	count := len(b) / 4
	if cap(dst) < count {
		dst = make([]uint32, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return dst, nil
}

// ReadRequest reads and decodes the next request frame, reusing req's
// Values capacity. scratch is used (and returned grown) only by a frame
// larger than br's buffer; every other frame is decoded in place. A
// clean EOF between frames returns io.EOF.
func ReadRequest(br *bufio.Reader, req *Request, scratch []byte) ([]byte, error) {
	body, skip, err := readFrame(br, &scratch)
	if err != nil {
		return scratch, err
	}
	if len(body) < reqHeader {
		err = fmt.Errorf("%w: request frame of %d bytes", ErrFrame, len(body))
	} else {
		req.Tag = binary.BigEndian.Uint32(body[0:])
		req.Op = body[4]
		req.Side = body[5]
		req.Key = binary.BigEndian.Uint64(body[6:])
		req.Count = binary.BigEndian.Uint32(body[14:])
		req.Values, err = decodeValues(req.Values, body[reqHeader:])
	}
	_, _ = br.Discard(skip) // the frame is buffered: cannot fail
	return scratch, err
}

// ReadResponse reads and decodes the next response frame, reusing resp's
// Values capacity. scratch is used (and returned grown) only by a frame
// larger than br's buffer; every other frame is decoded in place. A
// clean EOF between frames returns io.EOF.
func ReadResponse(br *bufio.Reader, resp *Response, scratch []byte) ([]byte, error) {
	body, skip, err := readFrame(br, &scratch)
	if err != nil {
		return scratch, err
	}
	if len(body) < respHeader {
		err = fmt.Errorf("%w: response frame of %d bytes", ErrFrame, len(body))
	} else {
		resp.Tag = binary.BigEndian.Uint32(body[0:])
		resp.Status = body[4]
		resp.Count = binary.BigEndian.Uint32(body[5:])
		resp.Values, err = decodeValues(resp.Values, body[respHeader:])
	}
	_, _ = br.Discard(skip) // the frame is buffered: cannot fail
	return scratch, err
}

// Validate applies the semantic frame contract the server enforces before
// touching the pool: known op and side, count within MaxBatch, and a
// payload consistent with the op. It returns StatusOK or the status the
// server should answer with.
func (req *Request) Validate() uint8 {
	if req.Side != Left && req.Side != Right {
		return StatusBad
	}
	switch req.Op {
	case OpPing, OpLen, OpRelax, OpStats:
		if len(req.Values) != 0 {
			return StatusBad
		}
		return StatusOK
	case OpPush:
		if len(req.Values) != 1 || req.Count != 1 {
			return StatusBad
		}
	case OpPop:
		if len(req.Values) != 0 {
			return StatusBad
		}
	case OpPushN:
		if req.Count == 0 || req.Count > MaxBatch || int(req.Count) != len(req.Values) {
			return StatusBad
		}
	case OpPopN:
		if req.Count == 0 || req.Count > MaxBatch || len(req.Values) != 0 {
			return StatusBad
		}
	case OpPushPrio:
		// Key carries the priority band; admission is left-end only.
		if req.Side != Left || len(req.Values) != 1 || req.Count != 1 {
			return StatusBad
		}
	case OpPopMin, OpPopMax, OpDepq:
		// Payload-less and side-less: the op names the end. Anything extra
		// is a desynchronized or malformed peer, not ignorable noise.
		if req.Side != Left || req.Count != 0 || len(req.Values) != 0 {
			return StatusBad
		}
	default:
		return StatusBad
	}
	return StatusOK
}
