// Package bufpool is the one pool of scratch buffers behind the
// encode and receive paths (wire codecs, xmlenc marshalers, the
// transport's send, receive and invoke paths, the facade's
// Unmarshal). Working buffers come from one process-wide pool and
// results are copied out at exact size, so the steady-state cost of
// encoding is the bytes of the result itself, not grow-and-throw
// scratch garbage. Put is the one place that decides how long a
// buffer lives: storage above maxRetained is dropped rather than
// pooled, so one large or hostile payload does not pin its size.
package bufpool

import "sync"

// maxRetained bounds the capacity a pooled buffer keeps across Put
// (the bound fmt applies to its print buffers, golang.org/issue/23199).
// Every payload of the steady state fits well below it.
const maxRetained = 64 << 10

// Buffer is a pooled scratch buffer. Append-style callers append to
// B directly; writers use it as an io.Writer (its writes never fail).
type Buffer struct {
	B []byte
}

func (b *Buffer) Write(p []byte) (int, error) {
	b.B = append(b.B, p...)
	return len(p), nil
}

func (b *Buffer) WriteString(s string) (int, error) {
	b.B = append(b.B, s...)
	return len(s), nil
}

func (b *Buffer) WriteByte(c byte) error {
	b.B = append(b.B, c)
	return nil
}

var pool = sync.Pool{
	New: func() interface{} { return new(Buffer) },
}

// Get returns a pooled buffer of length 0.
func Get() *Buffer { return pool.Get().(*Buffer) }

// Put returns b to the pool, keeping its storage for the next user
// unless it grew past maxRetained. b must not be used afterwards.
func Put(b *Buffer) {
	if cap(b.B) > maxRetained {
		b.B = nil
	}
	b.B = b.B[:0]
	pool.Put(b)
}

// Finish copies b's contents out at exact size and returns b to the
// pool.
func Finish(b *Buffer) []byte {
	out := make([]byte, len(b.B))
	copy(out, b.B)
	Put(b)
	return out
}
