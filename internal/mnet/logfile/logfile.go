// Package logfile is the file plumbing the three log codecs share: it
// creates or opens a log file, buffers it, and gzips or gunzips it when
// the path ends in ".gz", so each codec supplies only its encode and
// decode.
package logfile

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
	"strings"
)

// Write creates path and runs encode on a buffered writer over it,
// gzip-compressed when the path ends in ".gz". It returns the first error
// of encode, the gzip close, the flush and the file close.
func Write(path string, encode func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	var w io.Writer = bw
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(bw)
		w = gz
	}
	if err := encode(w); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read opens a file written by Write and runs decode on a buffered reader
// over it, gunzipped when the path ends in ".gz".
func Read[T any](path string, decode func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	var r io.Reader = bufio.NewReader(f)
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return zero, err
		}
		defer gz.Close() //wearlint:ignore errdrop read-side gzip close; corruption already surfaces as Read errors
		r = gz
	}
	return decode(r)
}
