package harness

import (
	"bytes"
	"fmt"
	"hash/maphash"
)

// BodySum identifies a response body up to the order of its lines: the
// engine does not fix SELECT row order (two identical requests to one
// process may list the same rows differently), and all four result
// writers and the Turtle writer put a row, a binding or a statement on
// its own line. Hash is the sum of the lines' hashes, each line without
// its trailing '\r' (CSV) and ',' (the JSON row separator, which lands on
// every row but whichever comes last). Sums compare within one process
// only: the line hash is seeded per process.
type BodySum struct {
	Len  int64
	Hash uint64
}

func (s BodySum) String() string { return fmt.Sprintf("%d bytes/%016x", s.Len, s.Hash) }

var lineSeed = maphash.MakeSeed()

func hashLine(line []byte) uint64 {
	return maphash.Bytes(lineSeed, bytes.TrimRight(line, "\r,"))
}

// Digest accumulates a BodySum over successive chunks of a body.
type Digest struct {
	sum   BodySum
	carry []byte // the unfinished last line of the previous chunks
}

// Write feeds the next chunk; it never fails (Digest is an io.Writer).
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.sum.Len += int64(n)
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			d.carry = append(d.carry, p...)
			return n, nil
		}
		line := p[:i]
		if len(d.carry) > 0 {
			d.carry = append(d.carry, line...)
			line = d.carry
		}
		d.sum.Hash += hashLine(line)
		d.carry = d.carry[:0]
		p = p[i+1:]
	}
}

// Sum returns the digest of everything written; a last line without a
// newline counts as a line.
func (d *Digest) Sum() BodySum {
	s := d.sum
	if len(d.carry) > 0 {
		s.Hash += hashLine(d.carry)
	}
	return s
}
