package checkpoint

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// This file is the reusable core of the snapshot container's integrity
// discipline: an FNV-64a digest accumulated over every byte of the body,
// appended as a fixed-width "checksum %016x" trailer line and verified
// before any field of the body is parsed, and the atomic tmp+rename write
// that puts a container on disk. The checkpoint format itself and the model
// files of the serving registry (spca.Model.Save) share these helpers, so a
// torn write or flipped bit is prevented and detected the same way in both.

// TrailerWriter counts and hashes the bytes written through it, so a writer
// can finish a byte-deterministic container with an FNV-64a checksum trailer.
// The trailer line itself is counted in Bytes but never hashed.
type TrailerWriter struct {
	w io.Writer
	n int64
	h hash.Hash64
}

// NewTrailerWriter wraps w; every byte written is hashed.
func NewTrailerWriter(w io.Writer) *TrailerWriter {
	return &TrailerWriter{w: w, h: fnv.New64a()}
}

func (t *TrailerWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	t.h.Write(p[:n])
	t.n += int64(n)
	return n, err
}

// WriteTrailer appends the "checksum %016x" trailer line covering everything
// written so far.
func (t *TrailerWriter) WriteTrailer() error {
	n, err := fmt.Fprintf(t.w, "checksum %016x\n", t.h.Sum64())
	t.n += int64(n)
	return err
}

// Bytes returns the total bytes written, including the trailer.
func (t *TrailerWriter) Bytes() int64 { return t.n }

// VerifyTrailer checks the trailing checksum line of a container written
// through a TrailerWriter and returns the body with the trailer stripped.
// Every failure wraps ErrBadSnapshot, so callers distinguish corruption from
// I/O errors with errors.Is.
func VerifyTrailer(data []byte) ([]byte, error) {
	if len(data) < trailerLen {
		return nil, fmt.Errorf("%w: truncated before checksum trailer", ErrBadSnapshot)
	}
	body := data[:len(data)-trailerLen]
	trailer := data[len(data)-trailerLen:]
	if !bytes.HasPrefix(trailer, []byte("checksum ")) || trailer[trailerLen-1] != '\n' {
		return nil, fmt.Errorf("%w: missing checksum trailer", ErrBadSnapshot)
	}
	want, perr := strconv.ParseUint(string(trailer[len("checksum "):trailerLen-1]), 16, 64)
	if perr != nil {
		return nil, fmt.Errorf("%w: bad checksum trailer %q", ErrBadSnapshot, string(trailer[:trailerLen-1]))
	}
	h := fnv.New64a()
	h.Write(body)
	if got := h.Sum64(); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (trailer says %016x, body hashes to %016x)", ErrBadSnapshot, want, got)
	}
	return body, nil
}

// WriteFile writes the file at path atomically: write fills a temporary file
// in the same directory, which is renamed to path only once it is complete
// and closed, so a crash mid-write never leaves a torn file under the final
// name.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
