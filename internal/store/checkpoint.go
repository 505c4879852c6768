package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"flock/internal/crawler"
	"flock/internal/httpkit"
)

// FileCheckpoint implements crawler.Checkpoint on the single file at
// Path. Every write goes through atomicWriteFile (a sibling temp file,
// then a rename), so a crash mid-save leaves the previous checkpoint
// intact and a resumed crawl never sees a torn file.
//
// The file (schemas v3 to v5) is a snapshot, then zero or more frames,
// then a trailer:
//
//	snapshot  one gzip member: the crawler.Progress as JSON (its schema
//	          is crawler.ProgressVersion; Progress.UnmarshalJSON reads
//	          every older one)
//	frame     one gzip member: {"health": [...], "records": [...]}, the
//	          records applied since the previous write and the health
//	          registry export at save time
//	trailer   16 bytes: "flockck3", the frame count and the CRC-32
//	          (IEEE) of every byte before the CRC, both big-endian uint32
//
// Load decodes the snapshot and replays the frames' records through
// crawler.Progress.Apply; the last frame's health export wins. v1 and v2
// files are a bare snapshot with no frames and no trailer, read by the
// same decoder. A v3 or later file cut anywhere, or with any byte
// changed, fails to load rather than yield an older state.
//
// Saves only append. A save appends one frame, the records applied since
// the previous write, when the checkpoint holds the file state of the
// progress it is given: the journaling progress it wrote or loaded last.
// Otherwise (a first save, any other progress, or one that does not
// journal) it writes a fresh snapshot. Load adopts the file it read when
// the file is sealed and its snapshot's Version is
// crawler.ProgressVersion, so a resumed crawl appends to that file; a
// file of an older schema gets one fresh snapshot on its first save. A
// progress returned by Load must therefore change only through
// crawler.Progress.Apply, or its frames miss the change. The file holds
// the first snapshot plus each record once. Each write rewrites the file
// from the compressed bytes kept in memory and compresses only the new
// member, at gzip.BestSpeed because the crawl waits for it. A failed
// write leaves that state as it was, so the next save writes the same
// records again.
type FileCheckpoint struct {
	Path string

	mu sync.Mutex
	zw *gzip.Writer // reused for every member
	// buf receives each new member before it joins data.
	buf bytes.Buffer
	// The state of the last successful write or adopted Load: the
	// progress written or returned, the progress's Seq at the time, the
	// file bytes before the trailer with their CRC-32 and the frame count.
	last   *crawler.Progress
	seq    int
	data   []byte
	crc    uint32
	frames int
}

// frame is one gzip member after the snapshot.
type frame struct {
	Health  []httpkit.HostHealth `json:"health"`
	Records []crawler.Record     `json:"records"`
}

const (
	trailerMagic = "flockck3"
	trailerLen   = len(trailerMagic) + 8
	// legacyVersion is the newest schema whose files have no trailer.
	legacyVersion = 2
)

// NewFileCheckpoint builds a checkpoint backed by path. The parent
// directory is created on first Save.
func NewFileCheckpoint(path string) *FileCheckpoint {
	return &FileCheckpoint{Path: path}
}

// Load reads the last saved progress. A missing file is not an error: it
// returns (nil, nil), meaning "fresh crawl". A sealed file of the current
// schema becomes the checkpoint's file state, so saves of the returned
// progress append to it.
func (f *FileCheckpoint) Load() (*crawler.Progress, error) {
	raw, err := os.ReadFile(f.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open checkpoint: %w", err)
	}
	prog, body, frames, err := decodeCheckpoint(raw)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", f.Path, err)
	}
	if body != nil && prog.Version == crawler.ProgressVersion {
		f.mu.Lock()
		f.last, f.seq = prog, prog.Seq()
		f.data, f.crc, f.frames = body, crc32.ChecksumIEEE(body), frames
		f.mu.Unlock()
	}
	return prog, nil
}

// decodeCheckpoint parses a checkpoint file (see FileCheckpoint). For a
// sealed file it also returns the bytes before the trailer and the frame
// count; body is nil for a v1 or v2 file.
func decodeCheckpoint(raw []byte) (prog *crawler.Progress, body []byte, frames int, err error) {
	body, frames, sealed, err := openTrailer(raw)
	if err != nil {
		return nil, nil, 0, err
	}
	r := bytes.NewReader(body)
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, nil, 0, err
	}
	prog = &crawler.Progress{}
	if err := readMember(zr, prog); err != nil {
		return nil, nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	if !sealed {
		switch {
		case prog.Version > legacyVersion:
			return nil, nil, 0, fmt.Errorf("v%d snapshot without a trailer: file truncated", prog.Version)
		case r.Len() > 0:
			return nil, nil, 0, errors.New("trailing data after the snapshot")
		}
		return prog, nil, 0, nil
	}
	n := 0
	for ; ; n++ {
		if err := zr.Reset(r); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, 0, fmt.Errorf("frame %d: %w", n, err)
		}
		var fr frame
		if err := readMember(zr, &fr); err != nil {
			return nil, nil, 0, fmt.Errorf("frame %d: %w", n, err)
		}
		for _, rec := range fr.Records {
			if err := prog.Apply(rec); err != nil {
				return nil, nil, 0, fmt.Errorf("frame %d: %w", n, err)
			}
		}
		prog.Health = fr.Health
	}
	if n != frames {
		return nil, nil, 0, fmt.Errorf("%d frames, trailer says %d", n, frames)
	}
	return prog, body, frames, nil
}

// openTrailer splits the trailer off raw and checks its CRC. A file
// without one (v1/v2) comes back whole with sealed false.
func openTrailer(raw []byte) (body []byte, frames int, sealed bool, err error) {
	if len(raw) < trailerLen || string(raw[len(raw)-trailerLen:][:len(trailerMagic)]) != trailerMagic {
		return raw, 0, false, nil
	}
	tr := raw[len(raw)-trailerLen+len(trailerMagic):]
	if crc32.ChecksumIEEE(raw[:len(raw)-4]) != binary.BigEndian.Uint32(tr[4:]) {
		return nil, 0, false, errors.New("checksum mismatch")
	}
	return raw[:len(raw)-trailerLen], int(binary.BigEndian.Uint32(tr)), true, nil
}

// readMember decodes the JSON value in zr's current gzip member, then
// drains the member so its CRC-32 and length check runs: the decoder
// stops at the end of the value, before the gzip trailer.
func readMember(zr *gzip.Reader, v any) error {
	zr.Multistream(false)
	if err := json.NewDecoder(zr).Decode(v); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return fmt.Errorf("corrupted: %w", err)
	}
	return nil
}

// Save persists the progress: one more frame, or a fresh snapshot when
// the checkpoint holds no file state for prog (see FileCheckpoint).
func (f *FileCheckpoint) Save(prog *crawler.Progress) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(f.Path), 0o755); err != nil {
		return fmt.Errorf("store: checkpoint dir: %w", err)
	}
	if recs, ok := prog.Journal(f.seq); ok && prog == f.last {
		member, err := f.compress(frame{Health: prog.Health, Records: recs})
		if err != nil {
			return err
		}
		return f.write(prog, len(f.data), member, f.frames+1)
	}
	member, err := f.compress(prog)
	if err != nil {
		return err
	}
	return f.write(prog, 0, member, 0)
}

// compress encodes v as JSON into one gzip member, in f.buf.
func (f *FileCheckpoint) compress(v any) ([]byte, error) {
	f.buf.Reset()
	if f.zw == nil {
		f.zw, _ = gzip.NewWriterLevel(&f.buf, gzip.BestSpeed) // a valid level cannot fail
	} else {
		f.zw.Reset(&f.buf)
	}
	if err := json.NewEncoder(f.zw).Encode(v); err != nil {
		return nil, fmt.Errorf("store: encode checkpoint: %w", err)
	}
	if err := f.zw.Close(); err != nil {
		return nil, fmt.Errorf("store: flush checkpoint: %w", err)
	}
	return f.buf.Bytes(), nil
}

// write replaces the file with the first keep bytes of data (all of them
// or none), then member and a trailer for frames frames. Only on success
// does it adopt that file as the in-memory state and trim the progress's
// journal to what the file now holds.
func (f *FileCheckpoint) write(prog *crawler.Progress, keep int, member []byte, frames int) error {
	crc := uint32(0)
	if keep > 0 {
		crc = f.crc
	}
	crc = crc32.Update(crc, crc32.IEEETable, member)
	tr := binary.BigEndian.AppendUint32([]byte(trailerMagic), uint32(frames))
	tr = binary.BigEndian.AppendUint32(tr, crc32.Update(crc, crc32.IEEETable, tr))
	err := atomicWriteFile(f.Path, 0o644, func(w io.Writer) error {
		for _, b := range [][]byte{f.data[:keep], member, tr} {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("store: write checkpoint: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.data = append(f.data[:keep], member...)
	f.crc, f.frames = crc, frames
	f.last, f.seq = prog, prog.Seq()
	prog.TrimJournal(f.seq)
	return nil
}
