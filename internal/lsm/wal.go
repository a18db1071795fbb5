package lsm

// Write-ahead log. Every mutation is appended (one Write syscall per record)
// before it is applied to the delta, so an unflushed delta is recoverable
// after a crash. A flush makes the delta durable as a segment file and then
// resets the WAL to just its header; a crash between those two steps leaves
// records in the WAL that are already covered by the segment — replay filters
// them by sequence number, and the operations themselves are idempotent
// anyway (re-inserting a live id and re-tombstoning a dead one are no-ops).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// walMagic identifies the log format; the trailing digit is the version.
var walMagic = []byte("SIMWAL1\n")

const (
	walOpInsert byte = 1
	walOpDelete byte = 2
)

// errBadWAL reports a log file that is not a WAL of the supported version.
var errBadWAL = errors.New("lsm: bad WAL format")

// walRec is one logged mutation.
type walRec struct {
	seq  uint64
	id   int32
	s    string
	live bool
}

// wal is the append handle. Writes are unbuffered: each record reaches the
// kernel before the mutation is acknowledged.
type wal struct {
	f *os.File
}

// openWAL opens (creating if needed) the log for appending. A fresh or empty
// file gets the header written; an existing file is positioned at its end.
// Replay is the reader's job (readWAL) — this handle only appends.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return nil, err
		}
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f}, nil
}

// append logs one record durably (single write syscall).
func (w *wal) append(r walRec) error {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(r.s)+1)
	buf = binary.AppendUvarint(buf, r.seq)
	op := walOpDelete
	if r.live {
		op = walOpInsert
	}
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(uint32(r.id)))
	buf = binary.AppendUvarint(buf, uint64(len(r.s)))
	buf = append(buf, r.s...)
	_, err := w.f.Write(buf)
	return err
}

// reset truncates the log back to just its header, called after a flush made
// the delta durable as a segment file.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := w.f.Write(walMagic)
	return err
}

func (w *wal) close() error { return w.f.Close() }

// readWAL replays the log at path. A missing file is an empty log. A torn
// tail — a record cut short by a crash mid-write — ends replay at the last
// complete record rather than failing; a corrupt header or absurd field still
// fails loudly.
func readWAL(path string) ([]walRec, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.EOF {
			return nil, nil // zero-length file: treated as empty
		}
		return nil, fmt.Errorf("%w: %v", errBadWAL, err)
	}
	if string(head) != string(walMagic) {
		return nil, fmt.Errorf("%w: magic mismatch", errBadWAL)
	}
	var recs []walRec
	for {
		seq, err := binary.ReadUvarint(br)
		if err != nil {
			break // EOF or torn varint: end of replayable log
		}
		op, err := br.ReadByte()
		if err != nil {
			break
		}
		if op != walOpInsert && op != walOpDelete {
			return nil, fmt.Errorf("%w: unknown op %d", errBadWAL, op)
		}
		id, err := binary.ReadUvarint(br)
		if err != nil {
			break
		}
		if id > 1<<31 {
			return nil, fmt.Errorf("%w: absurd id %d", errBadWAL, id)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			break
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("%w: absurd string length %d", errBadWAL, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			break // torn payload
		}
		recs = append(recs, walRec{
			seq:  seq,
			id:   int32(uint32(id)),
			s:    string(buf),
			live: op == walOpInsert,
		})
	}
	return recs, nil
}
