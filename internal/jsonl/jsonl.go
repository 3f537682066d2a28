// Package jsonl provides a line reader for JSONL streams with no upper
// bound on line length, which cmd/mtstat reads every stream through.
// bufio.Scanner with a fixed maximum buffer fails with "token too long"
// once a record — e.g. a per-PC table serialized for a large sweep —
// outgrows it; this reader grows its buffer to whatever the longest
// line needs instead of failing.
package jsonl

import (
	"bufio"
	"bytes"
	"io"
)

// Reader yields one line at a time from an underlying stream. The
// returned line slices are valid until the next Line call, like
// bufio.Scanner's Bytes — the buffer is reused across lines.
type Reader struct {
	br   *bufio.Reader
	long []byte // assembly buffer for lines longer than the bufio buffer
}

// NewReader wraps r; the initial buffer handles common line lengths and
// longer lines grow it on demand.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Line returns the next line with its trailing newline (and any
// carriage return before it) removed. At end of stream it returns the
// final unterminated line if there is one, then (nil, io.EOF); any
// other error is returned as-is.
func (r *Reader) Line() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == nil {
		return trimEOL(line), nil
	}
	if err == bufio.ErrBufferFull {
		// The line outgrew the bufio buffer: assemble the fragments in
		// the reusable long-line buffer.
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if len(r.long) == 0 && err == io.EOF {
			return nil, io.EOF
		}
		return trimEOL(r.long), nil
	}
	if err == io.EOF && len(line) > 0 {
		return trimEOL(line), nil
	}
	return nil, err
}

// trimEOL strips one trailing "\n" or "\r\n".
func trimEOL(b []byte) []byte {
	b = bytes.TrimSuffix(b, []byte("\n"))
	return bytes.TrimSuffix(b, []byte("\r"))
}
