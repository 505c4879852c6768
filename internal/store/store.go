// Package store persists crawl datasets: gzip-compressed JSONL files
// plus a manifest, with the anonymization pass the paper describes in
// §3.4 ("We anonymize the data before use ... anonymized data will be
// made available to the public").
//
// Anonymization replaces every user identifier (Twitter IDs, Twitter
// usernames, Mastodon usernames) with a salted-hash pseudonym,
// consistently across the whole dataset so joins keep working. Instance
// domains are retained: the paper's published analyses are at instance
// granularity.
//
// # Dataset layout
//
// A dataset directory holds eight data files and manifest.json. A data
// file is JSONL, one row per line, stored as one gzip member per 128
// consecutive rows (blockRows); the last member may be shorter, and a
// file with no rows is one empty member. Concatenated members are one
// valid gzip stream, so zcat reads a file whole. Map-backed files list
// their rows in ascending key order.
//
// The manifest (version 2) keeps the counts that figures prints and adds
// files: per data file its name, row count and SHA-256, and per member
// its compressed bytes, JSON bytes and rows. Load checks each file's
// checksum and that its members tile it, then inflates and decodes all
// members in parallel into presized row slices. Each member is read to
// its end, so gzip checks its CRC-32 and length.
//
// Blocks are cut by row index alone. Save encodes and compresses every
// block on its own through internal/parallel, so the bytes it writes are
// the same at any worker count, and it never holds a file's JSON, only
// each block's compressed bytes. Cutting by encoded size would need the
// JSON first. Members compress at gzip.BestSpeed, as checkpoints do.
//
// The two timeline files hold most of a dataset's JSON, so their rows
// have a hand codec (timelineRow, on internal/jsonx) that writes and
// reads the bytes encoding/json would. Save appends each such row to a
// reused buffer and writes it on; Load streams each of their members
// one line at a time and never holds one whole. encoding/json encodes
// and decodes the other six files, and stays the timeline rows'
// fallback: it writes any row the codec cannot write exactly, and Load
// decodes a member again through it whenever the codec's reading is not
// exactly as the manifest says, so Load accepts and returns what it did
// before the codec.
//
// Save writes the manifest last, after every data file has been renamed
// into place. A save torn between two files leaves the old manifest
// behind, and Load then fails on a checksum instead of returning a mix of
// two datasets.
//
// Version 1 directories, with one gzip member per file and no files
// list, still load. Each file is read to its end, and the loaded counts
// must match the manifest's.
package store

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"flock/internal/crawler"
	"flock/internal/match"
	"flock/internal/parallel"
	"flock/internal/vclock"
)

// Anonymizer maps identifiers to stable pseudonyms.
type Anonymizer struct {
	salt []byte
}

// NewAnonymizer creates an anonymizer with the given salt. The salt must
// be kept secret for the pseudonyms to be one-way.
func NewAnonymizer(salt string) *Anonymizer {
	return &Anonymizer{salt: []byte(salt)}
}

// Pseudonym returns the stable pseudonym for an identifier.
func (a *Anonymizer) Pseudonym(id string) string {
	h := sha256.New()
	h.Write(a.salt)
	h.Write([]byte(id))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Anonymize returns a deep-copied dataset with all user identifiers
// replaced. The input is not modified.
func (a *Anonymizer) Anonymize(ds *crawler.Dataset) *crawler.Dataset {
	out := crawler.NewDataset()
	out.Instances = append(out.Instances, ds.Instances...)

	for _, ct := range ds.CollectedTweets {
		ct.AuthorID = a.Pseudonym(ct.AuthorID)
		ct.ID = a.Pseudonym("tweet:" + ct.ID)
		out.CollectedTweets = append(out.CollectedTweets, ct)
	}
	for _, p := range ds.Pairs {
		q := p
		q.TwitterID = a.Pseudonym(p.TwitterID)
		q.TwitterUsername = a.Pseudonym("tu:" + p.TwitterUsername)
		q.Handle = match.Handle{Username: a.Pseudonym("mu:" + p.Handle.Username), Domain: p.Handle.Domain}
		q.MastodonAccountID = a.Pseudonym("ma:" + p.MastodonAccountID)
		if p.Moved != nil {
			moved := *p.Moved
			moved.Handle = match.Handle{Username: a.Pseudonym("mu:" + p.Moved.Handle.Username), Domain: p.Moved.Handle.Domain}
			moved.AccountID = a.Pseudonym("ma:" + p.Moved.AccountID)
			q.Moved = &moved
		}
		out.Pairs = append(out.Pairs, q)
	}
	for id, tl := range ds.TwitterTimelines {
		cp := &crawler.TwitterTimeline{State: tl.State, Posts: append([]crawler.Post(nil), tl.Posts...)}
		for i := range cp.Posts {
			cp.Posts[i].ID = a.Pseudonym("tweet:" + cp.Posts[i].ID)
		}
		out.TwitterTimelines[a.Pseudonym(id)] = cp
	}
	for id, tl := range ds.MastodonTimelines {
		cp := &crawler.MastodonTimeline{State: tl.State, Posts: append([]crawler.Post(nil), tl.Posts...)}
		for i := range cp.Posts {
			cp.Posts[i].ID = a.Pseudonym("status:" + cp.Posts[i].ID)
		}
		out.MastodonTimelines[a.Pseudonym(id)] = cp
	}
	for id, refs := range ds.TwitterFollowees {
		cp := make([]crawler.FolloweeRef, len(refs))
		for i, r := range refs {
			cp[i] = crawler.FolloweeRef{TwitterID: a.Pseudonym(r.TwitterID), Username: a.Pseudonym("tu:" + r.Username)}
		}
		out.TwitterFollowees[a.Pseudonym(id)] = cp
	}
	for id, handles := range ds.MastodonFollowing {
		cp := make([]string, len(handles))
		for i, h := range handles {
			cp[i] = a.pseudonymHandle(h)
		}
		out.MastodonFollowing[a.Pseudonym(id)] = cp
	}
	for domain, acts := range ds.Activity {
		out.Activity[domain] = append([]crawler.WeekActivity(nil), acts...)
	}
	return out
}

// pseudonymHandle anonymizes "@user@domain", keeping the domain.
func (a *Anonymizer) pseudonymHandle(h string) string {
	if len(h) > 1 && h[0] == '@' {
		rest := h[1:]
		for i := 0; i < len(rest); i++ {
			if rest[i] == '@' {
				return "@" + a.Pseudonym("mu:"+rest[:i]) + rest[i:]
			}
		}
	}
	return a.Pseudonym(h)
}

// Manifest describes a stored dataset.
type Manifest struct {
	Version    int       `json:"version"`
	CreatedAt  time.Time `json:"created_at"`
	Anonymized bool      `json:"anonymized"`
	Counts     struct {
		Instances int `json:"instances"`
		Tweets    int `json:"collected_tweets"`
		Pairs     int `json:"pairs"`
	} `json:"counts"`
	// Files lists the data files in a fixed order. Version 1 manifests
	// have none.
	Files []DataFile `json:"files,omitempty"`
}

// DataFile is a version 2 manifest's record of one data file.
type DataFile struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	SHA256  string   `json:"sha256"`
	Members []Member `json:"members"`
}

// Member is one gzip member of a data file: its compressed size, the
// size of the JSON lines it inflates to, and their number.
type Member struct {
	Bytes     int `json:"bytes"`
	JSONBytes int `json:"json_bytes"`
	Rows      int `json:"rows"`
}

const (
	// version is the manifest version Save writes.
	version = 2
	// blockRows is the row count of every gzip member of a version 2 data
	// file but the last.
	blockRows = 128
)

// file names inside a dataset directory.
const (
	manifestFile  = "manifest.json"
	instancesFile = "instances.jsonl.gz"
	tweetsFile    = "collected_tweets.jsonl.gz"
	pairsFile     = "pairs.jsonl.gz"
	twitterTLFile = "twitter_timelines.jsonl.gz"
	mastoTLFile   = "mastodon_timelines.jsonl.gz"
	followeeFile  = "twitter_followees.jsonl.gz"
	mfollowFile   = "mastodon_following.jsonl.gz"
	activityFile  = "activity.jsonl.gz"
)

// Map-backed rows pair a key with its payload for JSONL storage; both
// timeline files store timelineRow (timeline.go).
type followeeRow struct {
	TwitterID string                `json:"twitter_id"`
	Followees []crawler.FolloweeRef `json:"followees"`
}
type mfollowRow struct {
	TwitterID string   `json:"twitter_id"`
	Handles   []string `json:"handles"`
}
type activityRow struct {
	Domain string                 `json:"domain"`
	Weeks  []crawler.WeekActivity `json:"weeks"`
}

// A table is one data file's rows in stored order. Save encodes them
// block by block; Load decodes every member into them, then puts them
// into the dataset.
type table interface {
	file() string
	len() int
	// encode writes rows [lo, hi) to d, one JSON line each.
	encode(d *deflater, lo, hi int) error
	// resize makes room for n rows.
	resize(n int)
	// decode decodes rows until dec's stream ends into [lo, lo+n), or
	// appends them when n < 0 (the count is unknown).
	decode(dec *json.Decoder, lo, n int) error
	// decodeLines does for the gzip member data what decode does for
	// its JSON, one line at a time, for rows with a hand codec. It
	// reports false, and may have written rows, when the rows have none
	// or the member is not as m says (see inflate).
	decodeLines(in *inflater, data []byte, lo int, m Member) bool
	put()
}

// A rowCodec is a row type's hand codec, which Save and Load use in
// place of encoding/json.
type rowCodec interface {
	// appendJSON appends the row's JSON line as json.Encoder writes it,
	// or reports false for a row it cannot write exactly.
	appendJSON(b []byte) ([]byte, bool)
	// decodeJSON sets the row to what json.Decoder decodes from line
	// into a zero row, when line holds that value and then only
	// whitespace, and reports whether it did.
	decodeJSON(line []byte) bool
}

// rowTable is the table of a data file whose rows have type T.
type rowTable[T any] struct {
	name string
	rows []T
	to   func([]T) // puts loaded rows into the dataset
}

func (t *rowTable[T]) file() string { return t.name }
func (t *rowTable[T]) len() int     { return len(t.rows) }
func (t *rowTable[T]) put()         { t.to(t.rows) }

func (t *rowTable[T]) resize(n int) {
	if n > 0 {
		t.rows = make([]T, n)
	}
}

func (t *rowTable[T]) encode(d *deflater, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if c, ok := any(&t.rows[i]).(rowCodec); ok {
			var exact bool
			if d.line, exact = c.appendJSON(d.line[:0]); exact {
				if _, err := d.Write(d.line); err != nil {
					return err
				}
				continue
			}
		}
		if err := d.enc.Encode(&t.rows[i]); err != nil {
			return err
		}
	}
	return nil
}

func (t *rowTable[T]) decode(dec *json.Decoder, lo, n int) error {
	dst := t.rows[lo:lo]
	if n >= 0 {
		dst = t.rows[lo : lo : lo+n]
	}
	var row, zero T
	for {
		row = zero
		if err := dec.Decode(&row); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		if len(dst) == n {
			return fmt.Errorf("more than %d rows", n)
		}
		dst = append(dst, row)
	}
	if n < 0 {
		t.rows = dst
	} else if len(dst) != n {
		return fmt.Errorf("%d rows, want %d", len(dst), n)
	}
	return nil
}

func (t *rowTable[T]) decodeLines(in *inflater, data []byte, lo int, m Member) bool {
	if _, ok := any((*T)(nil)).(rowCodec); !ok || !in.open(data) {
		return false
	}
	n := m.Rows
	dst := t.rows[lo:lo]
	if n >= 0 {
		dst = t.rows[lo : lo : lo+n]
	}
	for {
		line, err := in.line()
		if err == io.EOF {
			break
		}
		var row T
		if err != nil || len(dst) == n || !any(&row).(rowCodec).decodeJSON(line) {
			return false
		}
		dst = append(dst, row)
	}
	ok := (n < 0 || len(dst) == n) && in.src.Len() == 0 && (m.JSONBytes < 0 || in.n == m.JSONBytes)
	if ok && n < 0 {
		t.rows = dst
	}
	return ok
}

// tables lists ds's data files in manifest order. Save encodes the rows
// found there; Load, given an empty dataset, fills each table and puts
// its rows into ds.
func tables(ds *crawler.Dataset) []table {
	return []table{
		&rowTable[crawler.IndexedInstance]{instancesFile, ds.Instances,
			func(rs []crawler.IndexedInstance) { ds.Instances = rs }},
		&rowTable[crawler.CollectedTweet]{tweetsFile, ds.CollectedTweets,
			func(rs []crawler.CollectedTweet) { ds.CollectedTweets = rs }},
		&rowTable[crawler.AccountPair]{pairsFile, ds.Pairs,
			func(rs []crawler.AccountPair) { ds.Pairs = rs }},
		keyed(twitterTLFile, ds.TwitterTimelines,
			func(id string, tl *crawler.TwitterTimeline) timelineRow { return timelineRow{id, tl} },
			func(r timelineRow) (string, *crawler.TwitterTimeline) { return r.TwitterID, r.Timeline }),
		keyed(mastoTLFile, ds.MastodonTimelines,
			func(id string, tl *crawler.MastodonTimeline) timelineRow {
				return timelineRow{id, (*crawler.TwitterTimeline)(tl)}
			},
			func(r timelineRow) (string, *crawler.MastodonTimeline) {
				return r.TwitterID, (*crawler.MastodonTimeline)(r.Timeline)
			}),
		keyed(followeeFile, ds.TwitterFollowees,
			func(id string, fs []crawler.FolloweeRef) followeeRow { return followeeRow{id, fs} },
			func(r followeeRow) (string, []crawler.FolloweeRef) { return r.TwitterID, r.Followees }),
		keyed(mfollowFile, ds.MastodonFollowing,
			func(id string, hs []string) mfollowRow { return mfollowRow{id, hs} },
			func(r mfollowRow) (string, []string) { return r.TwitterID, r.Handles }),
		keyed(activityFile, ds.Activity,
			func(domain string, ws []crawler.WeekActivity) activityRow { return activityRow{domain, ws} },
			func(r activityRow) (string, []crawler.WeekActivity) { return r.Domain, r.Weeks }),
	}
}

// keyed is the table of a map-backed data file: row builds a row from an
// entry, and kv takes one apart.
func keyed[V, R any](name string, m map[string]V, row func(string, V) R, kv func(R) (string, V)) table {
	return &rowTable[R]{name, rowsByKey(m, row), func(rs []R) {
		for _, r := range rs {
			k, v := kv(r)
			m[k] = v
		}
	}}
}

// rowsByKey turns a map into storage rows in ascending key order, so the
// same dataset always writes the same bytes.
func rowsByKey[V, R any](m map[string]V, row func(string, V) R) []R {
	rows := make([]R, 0, len(m))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		rows = append(rows, row(k, m[k]))
	}
	return rows
}

// memberCount is the number of gzip members in a file of n rows.
func memberCount(n int) int {
	if n <= 0 {
		return 1
	}
	return (n-1)/blockRows + 1
}

// Save writes the dataset to dir (created if missing), stamping the
// manifest with the wall clock.
func Save(dir string, ds *crawler.Dataset, anonymized bool) error {
	return SaveAt(dir, ds, anonymized, vclock.Wall())
}

// SaveAt is Save with an explicit manifest timestamp, so replays driven
// by a virtual clock produce byte-identical datasets: map-backed parts
// are written in sorted key order.
func SaveAt(dir string, ds *crawler.Dataset, anonymized bool, at time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tabs := tables(ds)
	type block struct{ tab, lo, hi int }
	var blocks []block
	for i, t := range tabs {
		for k := range memberCount(t.len()) {
			lo := k * blockRows
			blocks = append(blocks, block{i, lo, min(lo+blockRows, t.len())})
		}
	}
	members := parallel.MapSlice(0, len(blocks), func(i int) deflated {
		b := blocks[i]
		return deflate(tabs[b.tab], b.lo, b.hi)
	})
	for _, d := range members {
		if d.err != nil {
			return d.err
		}
	}

	m := Manifest{Version: version, CreatedAt: at.UTC(), Anonymized: anonymized}
	m.Counts.Instances = len(ds.Instances)
	m.Counts.Tweets = len(ds.CollectedTweets)
	m.Counts.Pairs = len(ds.Pairs)
	for _, t := range tabs {
		n := memberCount(t.len())
		f, err := writeFile(dir, t, members[:n])
		if err != nil {
			return err
		}
		m.Files = append(m.Files, f)
		members = members[n:]
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, manifestFile), 0o644, func(w io.Writer) error {
		_, werr := w.Write(mb)
		return werr
	})
}

// deflated is one block of rows as a gzip member.
type deflated struct {
	Member
	data []byte
	err  error
}

// deflater streams JSON lines through bw into zw, counting them in n.
// enc writes through the deflater itself, and line holds the last row a
// hand codec wrote.
type deflater struct {
	zw   *gzip.Writer
	bw   *bufio.Writer
	enc  *json.Encoder
	line []byte
	n    int
}

func (d *deflater) Write(p []byte) (int, error) {
	d.n += len(p)
	return d.bw.Write(p)
}

// deflaters keeps one deflater per running Save task, so their
// compressors, about 1.2 MB each at BestSpeed, are reused.
var deflaters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a valid level cannot fail
	d := &deflater{zw: zw, bw: bufio.NewWriter(zw)}
	d.enc = json.NewEncoder(d)
	return d
}}

// deflate encodes rows [lo, hi) of t into one gzip member of its own.
func deflate(t table, lo, hi int) deflated {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	var buf bytes.Buffer
	d.zw.Reset(&buf)
	d.bw.Reset(d.zw)
	d.n = 0
	err := t.encode(d, lo, hi)
	if err == nil {
		err = d.bw.Flush()
	}
	if err == nil {
		err = d.zw.Close()
	}
	if err != nil {
		err = fmt.Errorf("store: encoding %s: %w", t.file(), err)
	}
	return deflated{Member{Bytes: buf.Len(), JSONBytes: d.n, Rows: hi - lo}, buf.Bytes(), err}
}

// writeFile writes t's data file in dir from its members and returns its
// manifest record, hashing the bytes as they are written.
func writeFile(dir string, t table, members []deflated) (DataFile, error) {
	f := DataFile{Name: t.file(), Rows: t.len(), Members: make([]Member, len(members))}
	path := filepath.Join(dir, f.Name)
	h := sha256.New()
	err := atomicWriteFile(path, 0o644, func(w io.Writer) error {
		w = io.MultiWriter(w, h)
		for i, d := range members {
			f.Members[i] = d.Member
			if _, err := w.Write(d.data); err != nil {
				return fmt.Errorf("store: write %s: %w", path, err)
			}
		}
		return nil
	})
	f.SHA256 = hex.EncodeToString(h.Sum(nil))
	return f, err
}

// Load reads a dataset from dir.
func Load(dir string) (*crawler.Dataset, *Manifest, error) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, nil, fmt.Errorf("store: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, nil, fmt.Errorf("store: manifest: %w", err)
	}
	ds := crawler.NewDataset()
	tabs := tables(ds)
	if !(m.Version == 1 && m.Files == nil || m.Version == version && len(m.Files) == len(tabs)) {
		return nil, nil, fmt.Errorf("store: manifest: version %d with %d files", m.Version, len(m.Files))
	}

	// A version 1 file is one member with unknown counts.
	type file struct {
		raw     []byte
		members []Member
		err     error
	}
	files := parallel.MapSlice(0, len(tabs), func(i int) file {
		path := filepath.Join(dir, tabs[i].file())
		raw, err := os.ReadFile(path)
		if err != nil {
			return file{err: fmt.Errorf("store: %w", err)}
		}
		if m.Files == nil {
			return file{raw: raw, members: []Member{{Bytes: len(raw), JSONBytes: -1, Rows: -1}}}
		}
		if err := m.Files[i].check(tabs[i].file(), raw); err != nil {
			return file{err: fmt.Errorf("store: %s: %w", path, err)}
		}
		return file{raw: raw, members: m.Files[i].Members}
	})
	type task struct {
		tab, member, lo int
		data            []byte
	}
	var tasks []task
	for i, f := range files {
		if f.err != nil {
			return nil, nil, f.err
		}
		if m.Files != nil {
			tabs[i].resize(m.Files[i].Rows)
		}
		off := 0
		for k, mem := range f.members {
			tasks = append(tasks, task{i, k, k * blockRows, f.raw[off : off+mem.Bytes]})
			off += mem.Bytes
		}
	}
	errs := parallel.MapSlice(0, len(tasks), func(i int) error {
		t := tasks[i]
		if err := inflate(tabs[t.tab], t.data, t.lo, files[t.tab].members[t.member]); err != nil {
			return fmt.Errorf("store: %s member %d: %w", filepath.Join(dir, tabs[t.tab].file()), t.member, err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, t := range tabs {
		t.put()
	}
	if len(ds.Instances) != m.Counts.Instances || len(ds.CollectedTweets) != m.Counts.Tweets || len(ds.Pairs) != m.Counts.Pairs {
		return nil, nil, fmt.Errorf("store: loaded %d instances, %d tweets and %d pairs; manifest counts %d, %d and %d",
			len(ds.Instances), len(ds.CollectedTweets), len(ds.Pairs), m.Counts.Instances, m.Counts.Tweets, m.Counts.Pairs)
	}
	return ds, &m, nil
}

// check verifies a data file's bytes against its manifest record: the
// name, the checksum, and members that tile the file in blocks of
// blockRows rows.
func (f *DataFile) check(name string, raw []byte) error {
	sum := sha256.Sum256(raw)
	switch {
	case f.Name != name:
		return fmt.Errorf("manifest lists %q in its place", f.Name)
	case f.SHA256 != hex.EncodeToString(sum[:]):
		return errors.New("checksum mismatch")
	case f.Rows < 0 || len(f.Members) != memberCount(f.Rows):
		return fmt.Errorf("%d members for %d rows", len(f.Members), f.Rows)
	}
	off := 0
	for k, mem := range f.Members {
		if mem.Rows != min(blockRows, f.Rows-k*blockRows) || mem.Bytes <= 0 || mem.Bytes > len(raw)-off || mem.JSONBytes < 0 {
			return fmt.Errorf("member %d does not fit the file", k)
		}
		off += mem.Bytes
	}
	if off != len(raw) {
		return fmt.Errorf("members cover %d of %d bytes", off, len(raw))
	}
	return nil
}

// An inflater reads one gzip member at a time for Load: zr inflates it
// from src, and br splits it into lines, n counting their bytes. long
// holds a line longer than br's buffer.
type inflater struct {
	src  bytes.Reader
	zr   gzip.Reader
	br   *bufio.Reader
	long []byte
	n    int
}

// inflaters keeps inflaters for Load, so their decompressors and line
// buffers are reused.
var inflaters = sync.Pool{New: func() any {
	return &inflater{br: bufio.NewReaderSize(nil, 64<<10)}
}}

// inflate decodes the gzip member data into rows [lo, lo+m.Rows) of t. It
// reads the member to its end, so gzip checks its CRC-32 and length.
//
// Rows with a hand codec stream through it one line at a time. When
// anything there is not as the manifest says (a line the codec
// declines, a read or gzip error, a row or JSON byte count that differs,
// bytes after the member), the member is decoded again from its
// compressed bytes through encoding/json, which accepts or fails it
// exactly as before the codec existed.
func inflate(t table, data []byte, lo int, m Member) error {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	if t.decodeLines(in, data, lo, m) {
		return nil
	}
	br := bytes.NewReader(data)
	if err := in.zr.Reset(br); err != nil {
		return err
	}
	in.zr.Multistream(false)
	cr := &countingReader{r: &in.zr}
	if err := t.decode(json.NewDecoder(cr), lo, m.Rows); err != nil {
		return err
	}
	switch {
	case br.Len() > 0:
		return fmt.Errorf("%d bytes after the gzip member", br.Len())
	case m.JSONBytes >= 0 && cr.n != m.JSONBytes:
		return fmt.Errorf("%d bytes of JSON, manifest says %d", cr.n, m.JSONBytes)
	}
	return nil
}

// open starts reading the gzip member data line by line.
func (in *inflater) open(data []byte) bool {
	in.src.Reset(data)
	if in.zr.Reset(&in.src) != nil {
		return false
	}
	in.zr.Multistream(false)
	in.br.Reset(&in.zr)
	in.n = 0
	return true
}

// line returns the member's next line, its newline included, or io.EOF
// after the last. The line is valid until the next call.
func (in *inflater) line() ([]byte, error) {
	line, err := in.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		in.long = append(in.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = in.br.ReadSlice('\n')
			in.long = append(in.long, line...)
		}
		line = in.long
	}
	in.n += len(line)
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	return line, err
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
