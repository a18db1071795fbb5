package lsm

// Segment files. Each flush or compaction writes one immutable file holding
// every record (live and dead) of a segment, varint-framed in the style of
// the trie serialization: magic + version, header fields, then records.
// Files are written to a .tmp sibling and renamed into place, so a crash
// mid-write leaves only garbage .tmp files that recovery sweeps away.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// segMagic identifies the segment format; the trailing digit is the version.
var segMagic = []byte("SIMSEG1\n")

// errBadSegment reports a file that is not a segment of the supported version.
var errBadSegment = errors.New("lsm: bad segment format")

const walName = "wal.log"

// segPath names the segment file for a generation.
func segPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016d.seg", gen))
}

// writeSegmentTmp writes seg to its .tmp sibling and returns the tmp path;
// the caller renames it into place (the compactor keeps the two steps apart
// so the crash hook can fire between them).
func writeSegmentTmp(dir string, seg *segment) (string, error) {
	tmp := segPath(dir, seg.gen) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if _, err := bw.Write(segMagic); err == nil {
		err = put(seg.gen)
		if err == nil {
			err = put(seg.maxSeq)
		}
		recs := seg.records()
		if err == nil {
			err = put(uint64(len(recs)))
		}
		for _, r := range recs {
			if err != nil {
				break
			}
			flag := byte(0)
			if r.live {
				flag = 1
			}
			if err = bw.WriteByte(flag); err != nil {
				break
			}
			if err = put(uint64(uint32(r.id))); err != nil {
				break
			}
			if err = put(uint64(len(r.s))); err != nil {
				break
			}
			_, err = bw.WriteString(r.s)
		}
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			err = f.Sync()
		}
	} else {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// writeSegmentFile writes seg and renames it into place in one step (the
// flush path, which has no crash hook between write and rename).
func writeSegmentFile(dir string, seg *segment) error {
	tmp, err := writeSegmentTmp(dir, seg)
	if err != nil {
		return err
	}
	return os.Rename(tmp, segPath(dir, seg.gen))
}

// readSegmentFile loads one segment file's header and records (records come
// back sorted by id, as written).
func readSegmentFile(path string) (gen, maxSeq uint64, recs []record, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: %v", errBadSegment, err)
	}
	if string(head) != string(segMagic) {
		return 0, 0, nil, fmt.Errorf("%w: magic mismatch", errBadSegment)
	}
	get := func() (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", errBadSegment, err)
		}
		return v, nil
	}
	if gen, err = get(); err != nil {
		return 0, 0, nil, err
	}
	if maxSeq, err = get(); err != nil {
		return 0, 0, nil, err
	}
	count, err := get()
	if err != nil {
		return 0, 0, nil, err
	}
	if count > 1<<31 {
		return 0, 0, nil, fmt.Errorf("%w: absurd record count %d", errBadSegment, count)
	}
	recs = make([]record, 0, count)
	prev := int32(-1)
	for i := uint64(0); i < count; i++ {
		flag, err := br.ReadByte()
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%w: %v", errBadSegment, err)
		}
		if flag > 1 {
			return 0, 0, nil, fmt.Errorf("%w: bad record flag %d", errBadSegment, flag)
		}
		idv, err := get()
		if err != nil {
			return 0, 0, nil, err
		}
		if idv > 1<<31 {
			return 0, 0, nil, fmt.Errorf("%w: absurd id %d", errBadSegment, idv)
		}
		id := int32(uint32(idv))
		if id <= prev {
			return 0, 0, nil, fmt.Errorf("%w: records out of id order", errBadSegment)
		}
		prev = id
		n, err := get()
		if err != nil {
			return 0, 0, nil, err
		}
		if n > 1<<20 {
			return 0, 0, nil, fmt.Errorf("%w: absurd string length %d", errBadSegment, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, 0, nil, fmt.Errorf("%w: %v", errBadSegment, err)
		}
		recs = append(recs, record{id: id, s: string(buf), live: flag == 1})
	}
	return gen, maxSeq, recs, nil
}

// segFile is one on-disk segment discovered during recovery.
type segFile struct {
	path   string
	gen    uint64
	maxSeq uint64
	recs   []record
}

// loadSegments sweeps .tmp leftovers, loads every segment file in dir, and
// returns them ordered oldest first by (maxSeq, gen) — the apply order for
// newest-wins recovery.
func loadSegments(dir string) ([]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []segFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		path := filepath.Join(dir, name)
		gen, maxSeq, recs, err := readSegmentFile(path)
		if err != nil {
			return nil, fmt.Errorf("lsm: loading %s: %w", name, err)
		}
		files = append(files, segFile{path: path, gen: gen, maxSeq: maxSeq, recs: recs})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].maxSeq != files[j].maxSeq {
			return files[i].maxSeq < files[j].maxSeq
		}
		return files[i].gen < files[j].gen
	})
	return files, nil
}
