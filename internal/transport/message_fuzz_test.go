package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// frameRead is one ReadMessage result, reduced to what the fuzz
// target compares: the message (zero on error), the bytes consumed and
// the class of the error.
type frameRead struct {
	typ  MsgType
	seq  uint64
	body []byte
	n    int
	err  error // one of the frameErrClasses, or nil
}

// frameErrClasses are the errors a frame read can end in.
var frameErrClasses = []error{io.EOF, io.ErrUnexpectedEOF, ErrBadFrame, ErrFrameTooLarge}

func classifyFrameErr(t *testing.T, err error) error {
	t.Helper()
	if err == nil {
		return nil
	}
	for _, c := range frameErrClasses {
		if errors.Is(err, c) {
			return c
		}
	}
	t.Fatalf("unclassified frame error %v", err)
	return nil
}

// referenceFrames parses back-to-back frames straight off the whole
// stream, up to and including the first failed read: the oracle
// FuzzFrameReader holds ReadMessage to.
func referenceFrames(data []byte) []frameRead {
	var out []frameRead
	for {
		switch {
		case len(data) == 0:
			return append(out, frameRead{err: io.EOF})
		case len(data) < 4:
			return append(out, frameRead{err: io.ErrUnexpectedEOF})
		}
		n := binary.BigEndian.Uint32(data)
		switch {
		case n < 9:
			return append(out, frameRead{n: 4, err: ErrBadFrame})
		case n > MaxFrameSize:
			return append(out, frameRead{n: 4, err: ErrFrameTooLarge})
		case uint64(len(data)-4) < uint64(n):
			return append(out, frameRead{n: 4, err: ErrBadFrame})
		}
		p := data[4 : 4+n]
		out = append(out, frameRead{typ: MsgType(p[0]), seq: binary.BigEndian.Uint64(p[1:9]), body: p[9:], n: 4 + int(n)})
		data = data[4+n:]
	}
}

// splitReader hands its data out in reads whose lengths are the
// successive bytes of sizes (a zero reads as one), and the rest in one
// read once sizes runs out.
type splitReader struct {
	data  []byte
	sizes []byte
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.sizes) > 0 {
		n = min(n, max(1, int(r.sizes[0])))
		r.sizes = r.sizes[1:]
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// readAllFrames runs ReadMessage over br up to and including its first
// error.
func readAllFrames(t *testing.T, br *bufio.Reader) []frameRead {
	var out []frameRead
	for {
		m, n, err := ReadMessage(br)
		if err != nil {
			return append(out, frameRead{n: n, err: classifyFrameErr(t, err)})
		}
		out = append(out, frameRead{typ: m.Type, seq: m.Seq, body: m.Body, n: n})
	}
}

func sameFrameReads(a, b []frameRead) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.n != y.n || x.err != y.err || x.typ != y.typ || x.seq != y.seq || !bytes.Equal(x.body, y.body) {
			return false
		}
	}
	return true
}

// FuzzFrameReader holds the one frame read path against arbitrary
// back-to-back frame bytes. The stream is read whole and split into
// reads at fuzzer-chosen boundaries (sizes), through a minimal and a
// full-size buffered reader; every way must yield the same messages,
// byte counts and terminal error (io.EOF, io.ErrUnexpectedEOF,
// ErrBadFrame, ErrFrameTooLarge) as a direct parse of the whole
// stream. The seed corpus is testdata/fuzz/FuzzFrameReader.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, sizes []byte) {
		want := referenceFrames(stream)
		for _, size := range []int{16, frameReaderSize} {
			whole := readAllFrames(t, bufio.NewReaderSize(bytes.NewReader(stream), size))
			if !sameFrameReads(whole, want) {
				t.Fatalf("whole stream, %d-byte reader: got %+v, want %+v", size, whole, want)
			}
			split := readAllFrames(t, bufio.NewReaderSize(&splitReader{data: stream, sizes: sizes}, size))
			if !sameFrameReads(split, want) {
				t.Fatalf("split reads %v, %d-byte reader: got %+v, want %+v", sizes, size, split, want)
			}
		}
	})
}
