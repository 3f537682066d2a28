package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"time"
)

// streamWriter stands in for an obs output file: it counts bytes and
// records, times the writes, and keeps a 64-bit FNV-1a hash of every
// record (line) so the stream's content can be checked independent of
// record order, which follows run completion order. The sink serialises
// its writes, so streamWriter needs no lock of its own. Its time is the
// benchmark's, not the simulator's: obs.write_s reports it, and the
// profile attributes it to the bench bucket.
type streamWriter struct {
	bytes  int64
	busy   time.Duration
	hashes []uint64
	h      uint64 // hash of the record being written
	open   bool   // a record has started and not yet ended
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// newStreamWriter sizes the hash list from the golden record count, so
// the timed section does not grow it.
func newStreamWriter(g *golden, name string) *streamWriter {
	w := &streamWriter{}
	if g != nil {
		w.hashes = make([]uint64, 0, g.Streams[name].Records)
	}
	return w
}

func (w *streamWriter) Write(p []byte) (int, error) {
	start := time.Now()
	w.bytes += int64(len(p))
	h, open := w.h, w.open
	for _, c := range p {
		if !open {
			h, open = fnvOffset, true
		}
		if c == '\n' {
			w.hashes = append(w.hashes, h)
			open = false
			continue
		}
		h = (h ^ uint64(c)) * fnvPrime
	}
	w.h, w.open = h, open
	w.busy += time.Since(start)
	return len(p), nil
}

// streamDigest summarises one stream: its size and the SHA-256 of its
// sorted record hashes.
type streamDigest struct {
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	Digest  string `json:"digest"`
}

func (w *streamWriter) digest() streamDigest {
	hs := append([]uint64(nil), w.hashes...)
	if w.open {
		hs = append(hs, w.h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	sum := sha256.New()
	var buf [8]byte
	for _, h := range hs {
		binary.LittleEndian.PutUint64(buf[:], h)
		sum.Write(buf[:])
	}
	return streamDigest{Records: len(hs), Bytes: w.bytes, Digest: hex.EncodeToString(sum.Sum(nil))}
}
