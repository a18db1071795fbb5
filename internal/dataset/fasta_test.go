package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadFASTA(t *testing.T) {
	wrapped := strings.Repeat("ACGT", 40) // 160 bases, written as 70 + 70 + 20
	cases := []struct {
		name, in string
		want     []string
	}{
		{"headers_comments_blank_lines_lower_case", `>read1 description here
ACGT
ACGT
; a legacy comment
>read2

ttnn
`, []string{"ACGTACGT", "TTNN"}},
		{"wrapped_70_columns_and_empty", ">seq0\n" + wrapped[:70] + "\n" + wrapped[70:140] + "\n" + wrapped[140:] +
			"\n>seq1\nTT\n>seq2\n\n", []string{wrapped, "TT", ""}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := readFASTA(strings.NewReader(c.in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("got %q, want %q", got, c.want)
			}
		})
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := readFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header accepted")
	}
	got, err := readFASTA(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestReadFASTQ(t *testing.T) {
	in := `@read1
ACGTACGT
+
IIIIIIII
@read2
ttgg
+read2
!!!!
`
	got, err := readFASTQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ACGTACGT", "TTGG"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestReadFASTQErrors(t *testing.T) {
	cases := []string{
		"ACGT\nACGT\n+\nIIII\n", // missing @
		"@r\nACGT\n",            // truncated
		"@r\nACGT\nX\nIIII\n",   // bad separator
		"@r\nACGT\n+\nIII\n",    // quality length mismatch
	}
	for _, c := range cases {
		if _, err := readFASTQ(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}

func TestLoadSequencesDispatch(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		file, body string
		want       []string
	}{
		{"reads.fasta", ">a\nACGT\n>b\nTT\n", []string{"ACGT", "TT"}},
		{"reads.fq", "@a\nACGT\n+\nIIII\n", []string{"ACGT"}},
		{"reads.txt", "ACGT\nTT\n", []string{"ACGT", "TT"}},
		// The extension matches in any case: an upper-case one read one
		// string per line would return headers and qualities as reads.
		{"reads.FASTQ", "@a\nACGT\n+\nIIII\n", []string{"ACGT"}},
		{"reads.FA", ">a\nAC\nGT\n", []string{"ACGT"}},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.file)
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSequences(path)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: %q, %v; want %q", c.file, got, err, c.want)
		}
	}
	if _, err := LoadSequences(filepath.Join(dir, "missing.fa")); err == nil {
		t.Error("missing file accepted")
	}
}
