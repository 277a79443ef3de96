package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// Edge cases of the in-place decoder: frames that straddle a buffer
// refill, that fill the buffer exactly, and that are larger than it (the
// copying fallback). TestTruncatedAndOversizedFrames covers how a stream
// can end.

// batch returns n distinct values.
func batch(n int) []uint32 {
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = uint32(i)*2654435761 + 1
	}
	return vs
}

func sameRequest(t *testing.T, what string, got, want *Request) {
	t.Helper()
	if got.Tag != want.Tag || got.Op != want.Op || got.Side != want.Side ||
		got.Key != want.Key || got.Count != want.Count || len(got.Values) != len(want.Values) {
		t.Fatalf("%s: got %+v, want %+v", what, *got, *want)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: value %d = %d, want %d", what, i, got.Values[i], want.Values[i])
		}
	}
}

func sameResponse(t *testing.T, what string, got, want *Response) {
	t.Helper()
	if got.Tag != want.Tag || got.Status != want.Status || got.Count != want.Count ||
		len(got.Values) != len(want.Values) {
		t.Fatalf("%s: got tag %d status %d count %d with %d values, want tag %d status %d count %d with %d values",
			what, got.Tag, got.Status, got.Count, len(got.Values),
			want.Tag, want.Status, want.Count, len(want.Values))
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: value %d = %d, want %d", what, i, got.Values[i], want.Values[i])
		}
	}
}

// readRequests decodes len(want) frames from br and then expects io.EOF.
func readRequests(t *testing.T, what string, br *bufio.Reader, want []Request) {
	t.Helper()
	var got Request
	var scratch []byte
	for i := range want {
		var err error
		if scratch, err = ReadRequest(br, &got, scratch); err != nil {
			t.Fatalf("%s: frame %d: %v", what, i, err)
		}
		sameRequest(t, what, &got, &want[i])
	}
	if _, err := ReadRequest(br, &got, scratch); err != io.EOF {
		t.Fatalf("%s: after the last frame: err = %v, want io.EOF", what, err)
	}
}

// readResponses is readRequests for responses.
func readResponses(t *testing.T, what string, br *bufio.Reader, want []Response) {
	t.Helper()
	var got Response
	var scratch []byte
	for i := range want {
		var err error
		if scratch, err = ReadResponse(br, &got, scratch); err != nil {
			t.Fatalf("%s: frame %d: %v", what, i, err)
		}
		sameResponse(t, what, &got, &want[i])
	}
	if _, err := ReadResponse(br, &got, scratch); err != io.EOF {
		t.Fatalf("%s: after the last frame: err = %v, want io.EOF", what, err)
	}
}

func requestStream(reqs []Request) []byte {
	var b []byte
	for i := range reqs {
		b = AppendRequest(b, &reqs[i])
	}
	return b
}

func responseStream(resps []Response) []byte {
	var b []byte
	for i := range resps {
		b = AppendResponse(b, &resps[i])
	}
	return b
}

// mixedRequests has small frames, a mid-size batch and an empty-payload
// frame, so a small buffer sees every frame shape straddle a refill.
var mixedRequests = []Request{
	{Tag: 1, Op: OpPush, Side: Left, Key: 42, Count: 1, Values: []uint32{0xDEADBEEF}},
	{Tag: 2, Op: OpPop, Side: Right, Key: ^uint64(0)},
	{Tag: 3, Op: OpPushN, Side: Right, Key: 9, Count: 40, Values: batch(40)},
	{Tag: 4, Op: OpPopN, Side: Left, Count: 128},
	{Tag: 5, Op: OpPing},
}

var mixedResponses = []Response{
	{Tag: 1, Status: StatusOK, Count: 1},
	{Tag: 2, Status: StatusOK, Count: 1, Values: []uint32{7}},
	{Tag: 3, Status: StatusFull, Count: 17},
	{Tag: 4, Status: StatusOK, Count: 40, Values: batch(40)},
	{Tag: 5, Status: StatusEmpty},
}

// TestDecodeStraddlesRefill delivers the stream one byte per Read, so
// every frame's prefix and body straddle buffer refills, through both the
// default buffer and the smallest one bufio allows (where the 40-value
// batch is larger than the buffer and takes the copying path).
func TestDecodeStraddlesRefill(t *testing.T) {
	for _, size := range []int{4096, 16} {
		br := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(requestStream(mixedRequests))), size)
		readRequests(t, "requests", br, mixedRequests)
		br = bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(responseStream(mixedResponses))), size)
		readResponses(t, "responses", br, mixedResponses)
	}
}

// TestDecodeFrameFillsBuffer sizes the reader to one frame exactly, after
// a small frame that leaves the buffer part-consumed: the big frame still
// decodes in place (bufio slides the remainder down), and a frame one
// value longer falls back to copying.
func TestDecodeFrameFillsBuffer(t *testing.T) {
	for _, extra := range []int{0, 1} {
		reqs := []Request{
			{Tag: 1, Op: OpPing},
			{Tag: 2, Op: OpPushN, Side: Left, Count: 20, Values: batch(20)},
			{Tag: 3, Op: OpPop, Side: Right},
		}
		size := len(AppendRequest(nil, &reqs[1]))
		reqs[1].Count, reqs[1].Values = uint32(20+extra), batch(20+extra)
		br := bufio.NewReaderSize(bytes.NewReader(requestStream(reqs)), size)
		if br.Size() != size {
			t.Fatalf("reader size %d, want %d", br.Size(), size)
		}
		readRequests(t, "requests", br, reqs)

		resps := []Response{
			{Tag: 1, Status: StatusOK},
			{Tag: 2, Status: StatusOK, Count: 20, Values: batch(20)},
			{Tag: 3, Status: StatusEmpty},
		}
		size = len(AppendResponse(nil, &resps[1]))
		resps[1].Count, resps[1].Values = uint32(20+extra), batch(20+extra)
		br = bufio.NewReaderSize(bytes.NewReader(responseStream(resps)), size)
		readResponses(t, "responses", br, resps)
	}
}

// TestDecodeLargerThanBuffer sends MaxBatch-value frames — far larger
// than any read buffer — through the copying fallback, with a small frame
// on each side to check the stream stays in sync.
func TestDecodeLargerThanBuffer(t *testing.T) {
	vs := batch(MaxBatch)
	reqs := []Request{
		{Tag: 1, Op: OpPush, Side: Left, Count: 1, Values: []uint32{5}},
		{Tag: 2, Op: OpPushN, Side: Right, Key: 3, Count: MaxBatch, Values: vs},
		{Tag: 3, Op: OpPopN, Side: Left, Count: MaxBatch},
	}
	if st := reqs[1].Validate(); st != StatusOK {
		t.Fatalf("max batch push: Validate = %d", st)
	}
	readRequests(t, "requests", bufio.NewReader(bytes.NewReader(requestStream(reqs))), reqs)

	resps := []Response{
		{Tag: 1, Status: StatusOK, Count: 1},
		{Tag: 3, Status: StatusOK, Count: MaxBatch, Values: vs},
		{Tag: 4, Status: StatusEmpty},
	}
	readResponses(t, "responses", bufio.NewReader(bytes.NewReader(responseStream(resps))), resps)
}

// TestWriteFrameInPlace checks that WriteRequest and WriteResponse put
// exactly AppendRequest's and AppendResponse's bytes on the stream,
// whether the frame fits beside what is queued, needs a flush first, or
// is larger than the whole buffer.
func TestWriteFrameInPlace(t *testing.T) {
	reqs := []Request{
		{Tag: 1, Op: OpPush, Side: Left, Count: 1, Values: []uint32{5}},
		{Tag: 2, Op: OpPushN, Side: Right, Count: 30, Values: batch(30)},
		{Tag: 3, Op: OpPushN, Side: Right, Count: MaxBatch, Values: batch(MaxBatch)},
		{Tag: 4, Op: OpPop, Side: Right},
	}
	var got bytes.Buffer
	bw := bufio.NewWriterSize(&got, 128)
	for i := range reqs {
		if err := WriteRequest(bw, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), requestStream(reqs)) {
		t.Fatal("WriteRequest stream differs from AppendRequest's")
	}

	got.Reset()
	for i := range mixedResponses {
		if err := WriteResponse(bw, &mixedResponses[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), responseStream(mixedResponses)) {
		t.Fatal("WriteResponse stream differs from AppendResponse's")
	}
}
