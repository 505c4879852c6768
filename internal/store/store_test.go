package store

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"flock/internal/crawler"
	"flock/internal/match"
)

// sampleDataset builds a small dataset by hand.
func sampleDataset() *crawler.Dataset {
	ds := crawler.NewDataset()
	ds.Instances = []crawler.IndexedInstance{
		{Name: "mastodon.social", Users: 1000, Up: true},
		{Name: "tiny.town", Users: 3, Up: false},
	}
	at := time.Date(2022, 11, 1, 10, 0, 0, 0, time.UTC)
	ds.CollectedTweets = []crawler.CollectedTweet{
		{ID: "100", AuthorID: "7", Time: at, Text: "bye! @alice@mastodon.social", Source: "Twitter Web App", Class: crawler.ClassKeyword},
	}
	ds.Pairs = []crawler.AccountPair{
		{
			TwitterID:         "7",
			TwitterUsername:   "alice",
			Handle:            match.Handle{Username: "alice", Domain: "mastodon.social"},
			MatchSource:       match.SourceTweet,
			SameUsername:      true,
			MastodonVerified:  true,
			MastodonAccountID: "9001",
			MastodonCreatedAt: at,
			Moved: &crawler.MovedRecord{
				Handle:    match.Handle{Username: "alice", Domain: "tiny.town"},
				AccountID: "42",
				MovedAt:   at.Add(time.Hour),
			},
		},
	}
	ds.TwitterTimelines["7"] = &crawler.TwitterTimeline{
		State: crawler.StateOK,
		Posts: []crawler.Post{{ID: "100", Time: at, Text: "hi", Source: "Twitter Web App", Toxicity: 0.1}},
	}
	ds.MastodonTimelines["7"] = &crawler.MastodonTimeline{
		State: crawler.StateOK,
		Posts: []crawler.Post{{ID: "200", Time: at, Text: "hello fedi", Domain: "mastodon.social", Toxicity: -1}},
	}
	ds.TwitterFollowees["7"] = []crawler.FolloweeRef{{TwitterID: "8", Username: "bob"}}
	ds.MastodonFollowing["7"] = []string{"@bob@tiny.town"}
	ds.Activity["mastodon.social"] = []crawler.WeekActivity{
		{Week: at.Truncate(24 * time.Hour), Statuses: 10, Logins: 5, Registrations: 2},
	}
	return ds
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := sampleDataset()
	if err := Save(dir, ds, false); err != nil {
		t.Fatal(err)
	}
	got, m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.Pairs != 1 || m.Anonymized {
		t.Fatalf("manifest %+v", m)
	}
	if len(got.Instances) != 2 || got.Instances[1].Name != "tiny.town" {
		t.Fatalf("instances %v", got.Instances)
	}
	if len(got.CollectedTweets) != 1 || got.CollectedTweets[0].Text != ds.CollectedTweets[0].Text {
		t.Fatal("collected tweets lost")
	}
	p := got.Pairs[0]
	if p.TwitterUsername != "alice" || p.Moved == nil || p.Moved.Handle.Domain != "tiny.town" {
		t.Fatalf("pair %+v", p)
	}
	if !p.Moved.MovedAt.Equal(ds.Pairs[0].Moved.MovedAt) {
		t.Fatal("moved time lost")
	}
	tl := got.TwitterTimelines["7"]
	if tl == nil || tl.State != crawler.StateOK || len(tl.Posts) != 1 || tl.Posts[0].Toxicity != 0.1 {
		t.Fatalf("twitter timeline %+v", tl)
	}
	if got.MastodonTimelines["7"].Posts[0].Domain != "mastodon.social" {
		t.Fatal("status domain lost")
	}
	if got.TwitterFollowees["7"][0].Username != "bob" {
		t.Fatal("followees lost")
	}
	if got.MastodonFollowing["7"][0] != "@bob@tiny.town" {
		t.Fatal("mastodon following lost")
	}
	if got.Activity["mastodon.social"][0].Statuses != 10 {
		t.Fatal("activity lost")
	}
}

// TestSaveAtByteIdentical saves one dataset, whose files span several
// gzip members, at GOMAXPROCS 1, 2 and 8: every file, the manifest
// included, must come out byte for byte the same, including those built
// from the dataset's maps, whose iteration order varies from one range
// to the next. Each file's members must tile it.
func TestSaveAtByteIdentical(t *testing.T) {
	ds := syntheticDataset(300, 130, 2)
	at := time.Date(2022, 11, 1, 10, 0, 0, 0, time.UTC)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var dirs []string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		if err := SaveAt(dir, ds, false, at); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(fileNames) {
		t.Fatalf("saved %d files, want %d", len(entries), len(fileNames))
	}
	for _, name := range fileNames {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs[1:] {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s differs between GOMAXPROCS 1 and %s", name, dir)
			}
		}
	}

	_, m, err := Load(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]int{}
	for _, f := range m.Files {
		fi, err := os.Stat(filepath.Join(dirs[0], f.Name))
		if err != nil {
			t.Fatal(err)
		}
		size, rows := 0, 0
		for _, mem := range f.Members {
			size += mem.Bytes
			rows += mem.Rows
		}
		if int64(size) != fi.Size() || rows != f.Rows {
			t.Errorf("%s: members hold %d bytes and %d rows, file has %d and %d", f.Name, size, rows, fi.Size(), f.Rows)
		}
		members[f.Name] = len(f.Members)
	}
	if members[tweetsFile] < 3 || members[twitterTLFile] < 2 {
		t.Fatalf("members per file %v: want at least 3 for tweets and 2 for Twitter timelines", members)
	}
}

// fileNames lists every file of a dataset directory.
var fileNames = []string{manifestFile, instancesFile, tweetsFile, pairsFile, twitterTLFile,
	mastoTLFile, followeeFile, mfollowFile, activityFile}

// datasetJSON is the dataset as JSON, for exact comparisons.
func datasetJSON(t testing.TB, ds *crawler.Dataset) string {
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLoadV1Fixture loads testdata/v1, written by the version 1 SaveAt
// of sampleDataset: one gzip member per file and no files list.
func TestLoadV1Fixture(t *testing.T) {
	got, m, err := Load("testdata/v1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || m.Files != nil {
		t.Fatalf("manifest %+v, want a version 1 one", m)
	}
	if datasetJSON(t, got) != datasetJSON(t, sampleDataset()) {
		t.Fatal("v1 fixture does not load as sampleDataset")
	}
}

// TestLoadRejectsTornSave swaps in one data file from another save, as
// a save cut short before its manifest would leave it.
func TestLoadRejectsTornSave(t *testing.T) {
	old, next := t.TempDir(), t.TempDir()
	if err := Save(old, sampleDataset(), false); err != nil {
		t.Fatal(err)
	}
	if err := Save(next, syntheticDataset(10, 2, 1), false); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(next, pairsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, pairsFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(old); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Load of a torn save: %v, want a checksum error", err)
	}
}

// savedFiles returns the files of two saved datasets with the dataset
// each must load as: the v1 fixture and a v2 save whose tweets span
// three members.
func savedFiles(t testing.TB) (v1, v2 map[string][]byte, v1want, v2want string) {
	readDir := func(dir string) map[string][]byte {
		files := map[string][]byte{}
		for _, name := range fileNames {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = b
		}
		return files
	}
	ds := syntheticDataset(300, 20, 2)
	dir := t.TempDir()
	if err := SaveAt(dir, ds, false, time.Date(2022, 11, 1, 10, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	return readDir("testdata/v1"), readDir(dir), datasetJSON(t, sampleDataset()), datasetJSON(t, ds)
}

// writeDir writes files to a new directory, passing the manifest
// through edit first unless edit is nil.
func writeDir(t testing.TB, files map[string][]byte, edit func(*Manifest)) string {
	dir := t.TempDir()
	for name, b := range files {
		if name == manifestFile && edit != nil {
			var m Manifest
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatal(err)
			}
			edit(&m)
			var err error
			if b, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// damage copies the files src into a new directory with file name
// damaged: it drops the last cut bytes of the file, or of an empty gzip
// member put in its place when blank is set, and XORs the byte at off
// with x. For a data file of a v2 save it then rewrites the file's
// checksum in the manifest, so the member, CRC-32 and row checks are
// what must catch the damage.
func damage(t testing.TB, src map[string][]byte, name string, off uint32, x byte, cut uint32, blank bool) string {
	data := bytes.Clone(src[name])
	if blank {
		var empty bytes.Buffer
		if err := gzip.NewWriter(&empty).Close(); err != nil {
			t.Fatal(err)
		}
		data = empty.Bytes()
	}
	data = data[:len(data)-min(int(cut), len(data))]
	if len(data) > 0 {
		data[int(off)%len(data)] ^= x
	}
	files := maps.Clone(src)
	files[name] = data
	if name == manifestFile {
		return writeDir(t, files, nil)
	}
	return writeDir(t, files, func(m *Manifest) {
		if f := entry(m, name); f != nil {
			sum := sha256.Sum256(data)
			f.SHA256 = hex.EncodeToString(sum[:])
		}
	})
}

// entry is m's record of the data file name, or nil.
func entry(m *Manifest, name string) *DataFile {
	if i := slices.IndexFunc(m.Files, func(f DataFile) bool { return f.Name == name }); i >= 0 {
		return &m.Files[i]
	}
	return nil
}

// TestLoadChecksManifest changes one field of a v2 manifest at a time,
// on the tweets file's three members where it names a file. Load must
// refuse each.
func TestLoadChecksManifest(t *testing.T) {
	_, v2, _, _ := savedFiles(t)
	tweets := func(m *Manifest) *DataFile { return entry(m, tweetsFile) }
	for _, c := range []struct {
		field string
		edit  func(*Manifest)
	}{
		{"version", func(m *Manifest) { m.Version = 3 }},
		{"counts", func(m *Manifest) { m.Counts.Tweets-- }},
		{"name", func(m *Manifest) { tweets(m).Name = pairsFile }},
		{"rows", func(m *Manifest) { tweets(m).Rows-- }},
		{"sha256", func(m *Manifest) { tweets(m).SHA256 = m.Files[0].SHA256 }},
		{"member bytes", func(m *Manifest) { tweets(m).Members[0].Bytes++; tweets(m).Members[1].Bytes-- }},
		{"member json_bytes", func(m *Manifest) { tweets(m).Members[1].JSONBytes++ }},
		{"member rows", func(m *Manifest) { tweets(m).Members[0].Rows--; tweets(m).Members[2].Rows++ }},
	} {
		if _, _, err := Load(writeDir(t, v2, c.edit)); err == nil {
			t.Errorf("Load accepted a manifest with its %s changed", c.field)
		}
	}
	if _, _, err := Load(writeDir(t, v2, func(*Manifest) {})); err != nil {
		t.Fatalf("Load of the manifest re-encoded unchanged: %v", err)
	}
}

// trailerDamage is what Load let through before it read every member to
// its end and compared counts: a flipped CRC-32 byte, a flipped length
// byte, a file cut before its 8-byte trailer and an empty gzip in the
// file's place. back counts off from the end of the file.
var trailerDamage = []struct {
	back  int
	x     byte
	cut   uint32
	blank bool
}{{8, 0xff, 0, false}, {4, 0x01, 0, false}, {0, 0, 8, false}, {0, 0, 0, true}}

func TestLoadRejectsTrailerDamage(t *testing.T) {
	v1, v2, _, _ := savedFiles(t)
	for _, c := range []struct {
		src  map[string][]byte
		name string
	}{{v1, pairsFile}, {v2, tweetsFile}} {
		for _, d := range trailerDamage {
			dir := damage(t, c.src, c.name, uint32(len(c.src[c.name])-d.back), d.x, d.cut, d.blank)
			if _, _, err := Load(dir); err == nil {
				t.Errorf("%s with damage %+v loaded", c.name, d)
			}
		}
	}
}

// TestLoadRejectsBytesAfterMember appends a byte to pairs.jsonl.gz.
// In v2 the checksum is updated to match, with and without the last
// member's size.
func TestLoadRejectsBytesAfterMember(t *testing.T) {
	v1, v2, _, _ := savedFiles(t)
	for _, c := range []struct {
		src  map[string][]byte
		grow bool
	}{{v1, false}, {v2, false}, {v2, true}} {
		files := maps.Clone(c.src)
		files[pairsFile] = append(bytes.Clone(c.src[pairsFile]), 0)
		dir := writeDir(t, files, func(m *Manifest) {
			if f := entry(m, pairsFile); f != nil {
				sum := sha256.Sum256(files[pairsFile])
				f.SHA256 = hex.EncodeToString(sum[:])
				if c.grow {
					f.Members[len(f.Members)-1].Bytes++
				}
			}
		})
		if _, m, err := Load(dir); err == nil {
			t.Errorf("v%d pairs file with a trailing byte loaded (member grown: %v)", m.Version, c.grow)
		}
	}
}

// FuzzLoad damages one file, the manifest included, of the v1 fixture
// or of a v2 save (see damage). Load must fail or return exactly the
// saved dataset.
func FuzzLoad(f *testing.F) {
	v1, v2, v1want, v2want := savedFiles(f)
	for _, c := range []struct {
		isV2 bool
		name string
	}{{false, pairsFile}, {true, tweetsFile}} {
		src := v1
		if c.isV2 {
			src = v2
		}
		for _, d := range trailerDamage {
			f.Add(c.isV2, uint8(slices.Index(fileNames, c.name)), uint32(len(src[c.name])-d.back), d.x, d.cut, d.blank)
		}
	}
	f.Fuzz(func(t *testing.T, isV2 bool, file uint8, off uint32, x byte, cut uint32, blank bool) {
		src, want := v1, v1want
		if isV2 {
			src, want = v2, v2want
		}
		name := fileNames[int(file)%len(fileNames)]
		if blank && !isV2 && !slices.Contains([]string{instancesFile, tweetsFile, pairsFile}, name) {
			t.Skip("a v1 manifest counts no rows of this file, so a valid empty one cannot be told apart")
		}
		got, _, err := Load(damage(t, src, name, off, x, cut, blank))
		if err == nil && datasetJSON(t, got) != want {
			t.Fatalf("damaged %s loaded as a different dataset", name)
		}
	})
}

func TestLoadMissingDir(t *testing.T) {
	if _, _, err := Load(t.TempDir()); err == nil {
		t.Fatal("load of empty dir succeeded")
	}
}

func TestAnonymizerStable(t *testing.T) {
	a := NewAnonymizer("salt1")
	if a.Pseudonym("alice") != a.Pseudonym("alice") {
		t.Fatal("pseudonym not stable")
	}
	if a.Pseudonym("alice") == a.Pseudonym("bob") {
		t.Fatal("collision")
	}
	b := NewAnonymizer("salt2")
	if a.Pseudonym("alice") == b.Pseudonym("alice") {
		t.Fatal("salt has no effect")
	}
}

func TestAnonymizeRemovesIdentifiers(t *testing.T) {
	ds := sampleDataset()
	anon := NewAnonymizer("secret").Anonymize(ds)

	// No raw identifiers anywhere.
	if anon.Pairs[0].TwitterUsername == "alice" || anon.Pairs[0].TwitterID == "7" {
		t.Fatal("twitter identity leaked")
	}
	if anon.Pairs[0].Handle.Username == "alice" {
		t.Fatal("mastodon username leaked")
	}
	// Domains are retained by design.
	if anon.Pairs[0].Handle.Domain != "mastodon.social" {
		t.Fatal("domain should be retained")
	}
	if anon.Pairs[0].Moved.Handle.Domain != "tiny.town" {
		t.Fatal("moved domain should be retained")
	}
	// Original untouched.
	if ds.Pairs[0].TwitterUsername != "alice" {
		t.Fatal("input mutated")
	}
}

func TestAnonymizeKeepsJoins(t *testing.T) {
	ds := sampleDataset()
	anon := NewAnonymizer("secret").Anonymize(ds)
	// The pair's pseudonymized TwitterID must still key the timelines
	// and followee maps.
	id := anon.Pairs[0].TwitterID
	if anon.TwitterTimelines[id] == nil {
		t.Fatal("twitter timeline join broken")
	}
	if anon.MastodonTimelines[id] == nil {
		t.Fatal("mastodon timeline join broken")
	}
	if len(anon.TwitterFollowees[id]) != 1 {
		t.Fatal("followee join broken")
	}
	// Followee pseudonyms must be consistent with how a pair for that
	// followee would be pseudonymized.
	a := NewAnonymizer("secret")
	if anon.TwitterFollowees[id][0].TwitterID != a.Pseudonym("8") {
		t.Fatal("followee pseudonym inconsistent")
	}
	// Mastodon following keeps domains.
	h := anon.MastodonFollowing[id][0]
	if !strings.HasSuffix(h, "@tiny.town") {
		t.Fatalf("handle domain lost: %q", h)
	}
	if strings.Contains(h, "bob") {
		t.Fatalf("handle username leaked: %q", h)
	}
}

func TestAnonymizedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	anon := NewAnonymizer("s").Anonymize(sampleDataset())
	if err := Save(dir, anon, true); err != nil {
		t.Fatal(err)
	}
	got, m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Anonymized {
		t.Fatal("manifest flag lost")
	}
	if got.Coverage().Pairs != 1 {
		t.Fatal("coverage after round trip")
	}
}
