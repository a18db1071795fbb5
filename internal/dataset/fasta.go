package dataset

// FASTA/FASTQ readers. Real genome reads arrive in these formats, so a
// library positioned for the paper's DNA use case has to ingest them; the
// synthetic generator then only covers the no-data case.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// readFASTA parses FASTA records: a '>' header line followed by one or more
// sequence lines (which are concatenated). Sequences are upper-cased;
// blank lines are ignored. Returns the sequences in file order.
func readFASTA(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []string
	var cur strings.Builder
	inRecord := false
	flush := func() {
		if inRecord {
			out = append(out, strings.ToUpper(cur.String()))
			cur.Reset()
		}
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "":
			continue
		case text[0] == '>':
			flush()
			inRecord = true
		case text[0] == ';': // comment lines (legacy FASTA)
			continue
		default:
			if !inRecord {
				return nil, fmt.Errorf("dataset: FASTA line %d: sequence before any '>' header", line)
			}
			cur.WriteString(text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// readFASTQ parses FASTQ records: four lines per read ('@' header, sequence,
// '+' separator, quality). Quality strings are validated for length and
// discarded. Multi-line sequences are not supported (per the de-facto
// standard for short reads).
func readFASTQ(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []string
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			t := strings.TrimRight(sc.Text(), "\r")
			return t, true
		}
		return "", false
	}
	for {
		header, ok := next()
		if !ok {
			break
		}
		if strings.TrimSpace(header) == "" {
			continue
		}
		if header[0] != '@' {
			return nil, fmt.Errorf("dataset: FASTQ line %d: expected '@' header, got %q", line, header)
		}
		seq, ok := next()
		if !ok {
			return nil, fmt.Errorf("dataset: FASTQ line %d: truncated record (no sequence)", line)
		}
		sep, ok := next()
		if !ok || len(sep) == 0 || sep[0] != '+' {
			return nil, fmt.Errorf("dataset: FASTQ line %d: expected '+' separator", line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("dataset: FASTQ line %d: truncated record (no quality)", line)
		}
		if len(qual) != len(seq) {
			return nil, fmt.Errorf("dataset: FASTQ line %d: quality length %d != sequence length %d",
				line, len(qual), len(seq))
		}
		out = append(out, strings.ToUpper(seq))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LoadSequences reads a file of DNA reads, dispatching on the extension in
// any case: .fasta/.fa, .fastq/.fq, else one sequence per line.
func LoadSequences(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".fasta", ".fa":
		return readFASTA(f)
	case ".fastq", ".fq":
		return readFASTQ(f)
	default:
		return Load(path)
	}
}
