package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flock/internal/crawler"
)

func TestFileCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt", "crawl.json.gz")
	ck := NewFileCheckpoint(path)

	// Missing file means fresh crawl, not an error.
	prog, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if prog != nil {
		t.Fatalf("expected nil progress for missing file, got %+v", prog)
	}

	ds := crawler.NewDataset()
	ds.CollectedTweets = []crawler.CollectedTweet{{
		ID: "t1", AuthorID: "a1", Time: time.Unix(1_700_000_000, 0).UTC(),
		Text: "bye bye twitter", Class: crawler.ClassKeyword,
	}}
	ds.TwitterTimelines["a1"] = &crawler.TwitterTimeline{State: crawler.StateOK}
	want := &crawler.Progress{
		Version: crawler.ProgressVersion,
		Phase:   3,
		Dataset: ds,
		Done:    map[string]bool{"a1": true},
	}
	if err := ck.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Phase != 3 {
		t.Fatalf("got %+v", got)
	}
	if len(got.Dataset.CollectedTweets) != 1 || got.Dataset.CollectedTweets[0].ID != "t1" {
		t.Fatalf("dataset lost: %+v", got.Dataset)
	}
	if !got.Dataset.CollectedTweets[0].Time.Equal(want.Dataset.CollectedTweets[0].Time) {
		t.Fatal("timestamps changed across round trip")
	}
	if tl := got.Dataset.TwitterTimelines["a1"]; tl == nil || tl.State != crawler.StateOK {
		t.Fatalf("timeline lost: %+v", got.Dataset.TwitterTimelines)
	}
	if !got.Done["a1"] {
		t.Fatalf("done set lost: %+v", got.Done)
	}
}

func TestFileCheckpointSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.json.gz")
	ck := NewFileCheckpoint(path)
	if err := ck.Save(&crawler.Progress{Version: crawler.ProgressVersion, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(&crawler.Progress{Version: crawler.ProgressVersion, Phase: 2}); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "crawl.json.gz" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory not clean after saves: %v", names)
	}
	got, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != 2 {
		t.Fatalf("phase = %d, want 2", got.Phase)
	}
}

// sizedProgress is a progress big enough that JSON decoding finishes
// well before the gzip trailer.
func sizedProgress() *crawler.Progress {
	prog := &crawler.Progress{Version: crawler.ProgressVersion, Phase: 2, Dataset: crawler.NewDataset(), Done: map[string]bool{}}
	for i := 0; i < 200; i++ {
		prog.Done[string(rune('a'+i%26))+"-query-"+string(rune('0'+i%10))] = true
		prog.Dataset.CollectedTweets = append(prog.Dataset.CollectedTweets, crawler.CollectedTweet{
			ID: "tweet-id-padding-padding-padding", AuthorID: "author", Text: "bye bye twitter",
		})
	}
	return prog
}

// saveSized saves sizedProgress, then returns the raw file bytes.
func saveSized(t testing.TB, ck *FileCheckpoint) []byte {
	t.Helper()
	if err := ck.Save(sizedProgress()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// framedFile saves a checkpoint as a snapshot followed by three frames of
// ten tweet-collection records each, and returns the progress it saved
// with the raw file bytes.
func framedFile(t testing.TB, ck *FileCheckpoint) (*crawler.Progress, []byte) {
	t.Helper()
	prog := &crawler.Progress{Version: crawler.ProgressVersion, Dataset: crawler.NewDataset()}
	prog.StartJournal()
	// A snapshot big enough that three small frames stay lighter.
	instances := make([]crawler.IndexedInstance, 300)
	for i := range instances {
		instances[i] = crawler.IndexedInstance{Name: fmt.Sprintf("inst%03d-%x.example", i, i*7919), Users: i * 31, Statuses: i * 977, Up: i%3 != 0}
	}
	if err := prog.Apply(crawler.Record{Phase: 1, End: true, Instances: &instances}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(prog); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		applyQueries(t, prog, batch, 10)
		if err := ck.Save(prog); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, frames, sealed, err := openTrailer(raw); err != nil || !sealed || frames != 3 {
		t.Fatalf("trailer: %d frames, sealed=%v, err=%v; want 3 frames", frames, sealed, err)
	}
	return prog, raw
}

// applyQueries applies n completed tweet-collection queries to prog.
func applyQueries(t testing.TB, prog *crawler.Progress, batch, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%d%03d", batch, i)
		err := prog.Apply(crawler.Record{Phase: 2, Key: "q" + id, Class: crawler.ClassKeyword, Tweets: []crawler.TweetJSON{{
			ID: id, AuthorID: "a" + id, Text: "bye bye twitter " + id, CreatedAt: "2022-11-01T00:00:00Z",
		}}})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// memberEnds returns the offset where each gzip member of a v3 file ends.
func memberEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	r := bytes.NewReader(raw[:len(raw)-trailerLen])
	zr, err := gzip.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for {
		zr.Multistream(false)
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(raw)-trailerLen-r.Len())
		if err := zr.Reset(r); err == io.EOF {
			return ends
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// mustEqualJSON fails unless got and want encode to the same JSON.
func mustEqualJSON(t testing.TB, got, want *crawler.Progress) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("loaded progress differs from the saved one:\n got %s\nwant %s", g, w)
	}
}

// readTrailer reads the checkpoint file at path and returns its bytes
// before the trailer and its frame count; the file must be sealed.
func readTrailer(t testing.TB, path string) (body []byte, frames int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, frames, sealed, err := openTrailer(raw)
	if err != nil || !sealed {
		t.Fatalf("trailer: sealed=%v, err=%v", sealed, err)
	}
	return body, frames
}

// TestFileCheckpointAppendsFrames: after a progress's first snapshot,
// every save of it appends one frame and leaves the bytes of the earlier
// saves as they were.
func TestFileCheckpointAppendsFrames(t *testing.T) {
	ck := NewFileCheckpoint(filepath.Join(t.TempDir(), "crawl.json.gz"))
	prog := &crawler.Progress{Version: crawler.ProgressVersion, Dataset: crawler.NewDataset()}
	prog.StartJournal()
	if err := prog.Apply(crawler.Record{Phase: 1, End: true}); err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for batch := 0; batch < 10; batch++ {
		applyQueries(t, prog, batch, 20)
		if err := ck.Save(prog); err != nil {
			t.Fatal(err)
		}
		body, frames := readTrailer(t, ck.Path)
		if frames != batch {
			t.Fatalf("save %d left %d frames, want %d", batch, frames, batch)
		}
		if !bytes.HasPrefix(body, prev) {
			t.Fatalf("save %d rewrote the bytes of the saves before it", batch)
		}
		prev = body
	}
	if _, ok := prog.Journal(0); ok {
		t.Fatal("written records were not trimmed from the journal")
	}
	got, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualJSON(t, got, prog)
}

// resumeSave loads the checkpoint file at path through a fresh
// FileCheckpoint, applies one batch of queries to the progress it
// returns, or to a copy of it when other is set, and saves that.
func resumeSave(t testing.TB, path string, other bool) *crawler.Progress {
	t.Helper()
	ck := NewFileCheckpoint(path)
	prog, err := ck.Load()
	if err == nil && other {
		prog, err = prog.Clone()
	}
	if err != nil {
		t.Fatal(err)
	}
	prog.StartJournal()
	applyQueries(t, prog, 9, 10)
	if err := ck.Save(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFileCheckpointResumeAppends: the first save after Load appends a
// frame to the sealed current-schema file Load read. A file of an older
// schema, or a save of another progress, gets a fresh snapshot.
func TestFileCheckpointResumeAppends(t *testing.T) {
	_, framed := framedFile(t, NewFileCheckpoint(filepath.Join(t.TempDir(), "framed.json.gz")))
	atPhase1 := func(version int) *crawler.Progress {
		return &crawler.Progress{Version: version, Phase: 1, Dataset: crawler.NewDataset()}
	}
	v3 := NewFileCheckpoint(filepath.Join(t.TempDir(), "v3.json.gz"))
	if err := v3.Save(atPhase1(3)); err != nil {
		t.Fatal(err)
	}
	v3raw, err := os.ReadFile(v3.Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		raw    []byte
		other  bool
		frames int
	}{
		{"framed", framed, false, 4},
		{"v2", legacyFile(t, atPhase1(legacyVersion)), false, 0},
		{"v3", v3raw, false, 0},
		{"other progress", framed, true, 0},
	} {
		path := filepath.Join(t.TempDir(), "crawl.json.gz")
		if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		prog := resumeSave(t, path, tc.other)
		body, frames := readTrailer(t, path)
		if frames != tc.frames {
			t.Fatalf("%s: %d frames after the resumed save, want %d", tc.name, frames, tc.frames)
		}
		if old := tc.raw[:len(tc.raw)-trailerLen]; tc.frames > 0 && !bytes.HasPrefix(body, old) {
			t.Fatalf("%s: the resumed save rewrote the loaded file", tc.name)
		}
		got, err := NewFileCheckpoint(path).Load()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mustEqualJSON(t, got, prog)
	}
}

// TestFileCheckpointFailedSaveKeepsRecords: a save that fails leaves the
// checkpoint's state alone, so the next successful save still writes the
// records the failed one held.
func TestFileCheckpointFailedSaveKeepsRecords(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "ckpt")
	ck := NewFileCheckpoint(filepath.Join(parent, "crawl.json.gz"))
	prog, _ := framedFile(t, ck)

	applyQueries(t, prog, 7, 5)
	// A regular file where the parent directory was makes the save fail
	// (permission bits would not stop root).
	if err := os.RemoveAll(parent); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(prog); err == nil {
		t.Fatal("save under a regular file succeeded")
	}
	if err := os.Remove(parent); err != nil {
		t.Fatal(err)
	}

	applyQueries(t, prog, 8, 5)
	if err := ck.Save(prog); err != nil {
		t.Fatal(err)
	}
	got, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualJSON(t, got, prog)
	if len(got.Done) != 40 {
		t.Fatalf("loaded %d queries, want all 40", len(got.Done))
	}
}

// corruptionInputs are the checkpoint files the corruption tests run on:
// a v2 file, whose only integrity check is the gzip member's CRC-32 and
// length, a bare v3 snapshot, a v3 snapshot with three frames, and that
// file once a fresh checkpoint loaded it and appended a fourth.
func corruptionInputs(t *testing.T) map[string][]byte {
	legacy := sizedProgress()
	legacy.Version = legacyVersion
	_, framed := framedFile(t, NewFileCheckpoint(filepath.Join(t.TempDir(), "b.json.gz")))
	appended := filepath.Join(t.TempDir(), "c.json.gz")
	if err := os.WriteFile(appended, framed, 0o644); err != nil {
		t.Fatal(err)
	}
	resumeSave(t, appended, false)
	raw, err := os.ReadFile(appended)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"legacy":   legacyFile(t, legacy),
		"snapshot": saveSized(t, NewFileCheckpoint(filepath.Join(t.TempDir(), "a.json.gz"))),
		"framed":   framed,
		"appended": raw,
	}
}

func TestFileCheckpointLoadDetectsTailCorruption(t *testing.T) {
	for name, raw := range corruptionInputs(t) {
		path := filepath.Join(t.TempDir(), "crawl.json.gz")
		ck := NewFileCheckpoint(path)
		// Flip a byte near the end of the file: the CRC of the gzip
		// member (legacy) or the trailer's frame count (v3). The payload
		// still decodes; only the checksums can notice.
		flips := []int{len(raw) - 6}
		if name == "framed" || name == "appended" {
			// And one in the middle of each frame.
			ends := memberEnds(t, raw)
			for i := 1; i < len(ends); i++ {
				flips = append(flips, (ends[i-1]+ends[i])/2)
			}
		}
		for _, at := range flips {
			bad := append([]byte(nil), raw...)
			bad[at] ^= 0xFF
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if prog, err := ck.Load(); err == nil {
				t.Fatalf("%s: checkpoint with byte %d/%d flipped loaded silently: %+v", name, at, len(raw), prog)
			}
		}
	}
}

func TestFileCheckpointLoadDetectsTruncation(t *testing.T) {
	for name, raw := range corruptionInputs(t) {
		path := filepath.Join(t.TempDir(), "crawl.json.gz")
		ck := NewFileCheckpoint(path)
		cuts := []int{4, len(raw) / 2, len(raw) - 5}
		if name == "framed" || name == "appended" {
			// Every member boundary, exactly and one byte either side.
			for _, end := range memberEnds(t, raw) {
				cuts = append(cuts, end-1, end, end+1)
			}
		}
		for _, cut := range cuts {
			if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if prog, err := ck.Load(); err == nil {
				t.Fatalf("%s: checkpoint truncated to %d/%d bytes loaded silently: %+v", name, cut, len(raw), prog)
			}
		}

		// The intact file still loads after all that abuse.
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"legacy": 2, "snapshot": 2, "framed": 1, "appended": 1}[name]
		if prog, err := ck.Load(); err != nil || prog == nil || prog.Phase != want {
			t.Fatalf("%s: intact checkpoint failed to load: %+v, %v", name, prog, err)
		}
	}
}

// legacyFile encodes v the way schema v1 and v2 saved a progress: one
// gzip member holding one JSON value.
func legacyFile(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFileCheckpointLoad: Load never panics, and any file it accepts
// saves and loads back to the same JSON, both as a fresh snapshot and
// resumed: loaded through a FileCheckpoint and saved again, which
// appends to a sealed file of the current schema. Each input is also
// tried with its trailer checksum recomputed, so mutations reach the gzip
// members, the JSON and the record replay behind the file checksum.
func FuzzFileCheckpointLoad(f *testing.F) {
	// v2 files kept one done set per phase, and the timeline phases none:
	// mid-mapping (with a stale set of the phase before), then mid-way
	// through the Twitter timelines.
	f.Add(legacyFile(f, json.RawMessage(`{"version":2,"phase":2,"dataset":{"Instances":[{"name":"mastodon.social","up":true}]},`+
		`"done_queries":{"mastodon":true},"done_authors":{"a1":true,"a2":true}}`)))
	_, framed := framedFile(f, NewFileCheckpoint(filepath.Join(f.TempDir(), "seed.json.gz")))
	f.Add(framed)
	f.Add(legacyFile(f, json.RawMessage(`{"version":2,"phase":3,"dataset":{"Pairs":[{"TwitterID":"a1"},{"TwitterID":"a2"}],`+
		`"TwitterTimelines":{"a1":{"State":"ok","Posts":[{"ID":"p1","Toxicity":-1}]}}}}`)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if n := len(raw); n >= trailerLen && string(raw[n-trailerLen:n-8]) == trailerMagic {
			sealed := append([]byte(nil), raw...)
			binary.BigEndian.PutUint32(sealed[n-4:], crc32.ChecksumIEEE(sealed[:n-4]))
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			prog, body, _, err := decodeCheckpoint(in)
			if err != nil {
				continue
			}
			ck := NewFileCheckpoint(filepath.Join(t.TempDir(), "rt.json.gz"))
			if err := ck.Save(prog); err != nil {
				t.Fatalf("accepted progress does not save: %v", err)
			}
			again, err := ck.Load()
			if err != nil {
				t.Fatalf("saved progress does not load: %v", err)
			}
			mustEqualJSON(t, again, prog)

			ck = NewFileCheckpoint(filepath.Join(t.TempDir(), "resume.json.gz"))
			if err := os.WriteFile(ck.Path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := ck.Load()
			if err != nil {
				t.Fatalf("accepted file does not load: %v", err)
			}
			loaded.StartJournal()
			if err := ck.Save(loaded); err != nil {
				t.Fatalf("loaded progress does not save: %v", err)
			}
			raw, err := os.ReadFile(ck.Path)
			if err != nil {
				t.Fatal(err)
			}
			if body != nil && prog.Version == crawler.ProgressVersion && !bytes.HasPrefix(raw, body) {
				t.Fatal("the save after Load rewrote the sealed file it read")
			}
			again, err = NewFileCheckpoint(ck.Path).Load()
			if err != nil {
				t.Fatalf("resumed save does not load: %v", err)
			}
			mustEqualJSON(t, again, prog)
		}
	})
}
