package proxylog

import (
	"fmt"
	"io"
	"strings"

	"wearwild/internal/mnet/logfile"
)

// WriteFile writes records to a file. The format is chosen by extension:
// ".csv" or ".bin", optionally followed by ".gz" for gzip compression.
func WriteFile(path string, records []Record) error {
	write, _, err := codecFor(path)
	if err != nil {
		return err
	}
	return logfile.Write(path, func(w io.Writer) error { return write(w, records) })
}

// ReadFile reads a file written by WriteFile.
func ReadFile(path string) ([]Record, error) {
	_, read, err := codecFor(path)
	if err != nil {
		return nil, err
	}
	return logfile.Read(path, read)
}

// codecFor picks the encoding named by the extension under an optional
// ".gz".
func codecFor(path string) (func(io.Writer, []Record) error, func(io.Reader) ([]Record, error), error) {
	switch name := strings.TrimSuffix(path, ".gz"); {
	case strings.HasSuffix(name, ".csv"):
		return WriteCSV, ReadCSV, nil
	case strings.HasSuffix(name, ".bin"):
		return WriteBinary, ReadBinary, nil
	}
	return nil, nil, fmt.Errorf("proxylog: unknown log extension in %q", path)
}
