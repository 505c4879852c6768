package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flock/internal/crawler"
	"flock/internal/jsonx"
)

// inflated is the JSON a data file inflates to.
func inflated(t testing.TB, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadV2Fixture loads testdata/v2, which the SaveAt of
// sampleDataset wrote when members compressed at gzip's default level,
// then saves the dataset again. Only the compressed bytes may differ:
// every data file must inflate to the same JSON lines, and every member
// hold the same rows and JSON bytes.
func TestLoadV2Fixture(t *testing.T) {
	got, old, err := Load("testdata/v2")
	if err != nil {
		t.Fatal(err)
	}
	if datasetJSON(t, got) != datasetJSON(t, sampleDataset()) {
		t.Fatal("v2 fixture does not load as sampleDataset")
	}
	dir := t.TempDir()
	if err := SaveAt(dir, sampleDataset(), false, old.CreatedAt); err != nil {
		t.Fatal(err)
	}
	_, m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.CreatedAt != old.CreatedAt || m.Counts != old.Counts || len(m.Files) != len(old.Files) {
		t.Fatalf("manifest %+v, fixture's %+v", m, old)
	}
	for i, f := range m.Files {
		o := old.Files[i]
		same := f.Name == o.Name && f.Rows == o.Rows && len(f.Members) == len(o.Members)
		for k := 0; same && k < len(f.Members); k++ {
			same = f.Members[k].Rows == o.Members[k].Rows && f.Members[k].JSONBytes == o.Members[k].JSONBytes
		}
		if !same {
			t.Errorf("%s: saved as %+v, fixture has %+v", f.Name, f, o)
		}
		if !bytes.Equal(inflated(t, filepath.Join(dir, f.Name)), inflated(t, filepath.Join("testdata/v2", o.Name))) {
			t.Errorf("%s inflates to other JSON than the fixture's", f.Name)
		}
	}
}

// timelineDataset is syntheticDataset with the timelines a crawl also
// stores: a deleted account's (no posts), an empty one and a nil one.
func timelineDataset(users, posts int) *crawler.Dataset {
	ds := syntheticDataset(10, users, posts)
	ds.TwitterTimelines["deleted"] = &crawler.TwitterTimeline{State: crawler.StateDeleted}
	ds.MastodonTimelines["silent"] = &crawler.MastodonTimeline{State: crawler.StateNoStatuses, Posts: []crawler.Post{}}
	ds.MastodonTimelines["nil"] = nil
	return ds
}

// TestTimelineMembersStream: every member of both timeline files loads
// through the hand codec, line by line, with no fallback to
// encoding/json, and the dataset loads back whole.
func TestTimelineMembersStream(t *testing.T) {
	ds := timelineDataset(300, 3)
	dir := t.TempDir()
	if err := SaveAt(dir, ds, false, time.Date(2022, 11, 1, 10, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	got, m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if datasetJSON(t, got) != datasetJSON(t, ds) {
		t.Fatal("dataset did not load back as saved")
	}
	tabs := tables(crawler.NewDataset())
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	for i, f := range m.Files {
		if f.Name != twitterTLFile && f.Name != mastoTLFile {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		tabs[i].resize(f.Rows)
		off := 0
		for k, mem := range f.Members {
			if !tabs[i].decodeLines(in, raw[off:off+mem.Bytes], k*blockRows, mem) {
				t.Errorf("%s member %d fell back to encoding/json", f.Name, k)
			}
			off += mem.Bytes
		}
	}
}

// timelineLines are the JSON lines of timelineDataset's timeline files.
func timelineLines(t testing.TB, users, posts int) [][]byte {
	var lines [][]byte
	for _, tab := range tables(timelineDataset(users, posts)) {
		if rows, ok := tab.(*rowTable[timelineRow]); ok {
			for i := range rows.rows {
				b, err := json.Marshal(&rows.rows[i])
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, append(b, '\n'))
			}
		}
	}
	return lines
}

// FuzzTimelineRow: the row codec's decoder either declines a line or
// decodes it as encoding/json does into a zero row, with only
// whitespace after the value. Seeds are rows Save writes and lines that
// each test a rule encoding/json has: folded and repeated keys, null
// for strings, numbers, times, slices and pointers, an empty array,
// escapes, invalid UTF-8, numbers out of range, bad times and trailing
// bytes.
func FuzzTimelineRow(f *testing.F) {
	for _, line := range timelineLines(f, 3, 2) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"Twitter_ID":"7","timeline":null}`,
		`{"twitter_id":"7","timeline":{"state":"ok"}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"id":"1"}]}}`,
		`{"twitter_id":"a","twitter_id":"b"}`,
		`{"twitter_id":"a","twitter_id":null}`,
		`{"twitter_id":"7","timeline":{"State":"ok"},"timeline":{"Posts":[]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"ID":"1","Text":"a"}],"Posts":[{"ID":"2"}]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"ID":"1","ID":"2"}]}}`,
		`{"twitter_id":null,"timeline":{"State":null,"Posts":null}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[null,{}]}}`,
		`{"twitter_id":"7","timeline":{}}`,
		`{"twitter_id":"7","timeline":null}`,
		`null`,
		`{}`,
		`[]`,
		``,
		`{"twitter_id":"😀é\ud800\udbff\"\\\/\b\f\n\r\t<"}`,
		"{\"twitter_id\":\"\xff\xed\xa0\x80caf\xc3\xa9\"}",
		`{"twitter_id":"7"}`,
		"{\"tw\xc4\xb1tter_id\":\"7\"}",
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"Time":"2022-11-01T10:00:00.123456789+05:30","Toxicity":-0}]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"Time":null,"Toxicity":null}]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"Time":"2022-13-01T10:00:00Z"}]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"Time":"2022-11-01T10:00:00Z"}]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"Toxicity":1e400}]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"Toxicity":1E+2,"Domain":"x"}]}}`,
		`{"twitter_id":"7","timeline":{"State":"ok","Posts":[{"Toxicity":"0.5"}]}}`,
		`{"twitter_id":"7","x":[{"y":[1,2.5e-3,true,false,null,"z"]}]}`,
		`{"twitter_id":"7","x":` + strings.Repeat("[", 70) + strings.Repeat("]", 70) + `}`,
		`{"twitter_id":"7"} {"twitter_id":"8"}`,
		`{"twitter_id":"7"}x`,
		"{\"twitter_id\":\"7\"} \t\r\n",
		`{"twitter_id":7}`,
		`{"twitter_id":"7","timeline":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast, want timelineRow
		if !fast.decodeJSON(line) {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("decoded %q, which encoding/json refuses: %v", line, err)
		}
		if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("decoded %q, which has %q after its value", line, rest)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decoded %q as %#v, encoding/json as %#v", line, fast, want)
		}
	})
}

// FuzzTimelineRowAppend: AppendString and AppendFloat write what
// json.Marshal writes, and the row codec's encoder what json.Encoder
// writes; each declines exactly where encoding/json fails, and the
// decoder takes back whatever the encoder writes. Seeds cover HTML
// characters, control bytes, U+2028, invalid UTF-8, floats either side
// of the exponent cutoffs, NaN, infinities, and times outside the years
// 0 to 9999 or with a zone offset of a day.
func FuzzTimelineRowAppend(f *testing.F) {
	f.Add("7", "ok", "hi <b>&amp;</b> \x01\"\\\xff", 0.1, int64(1667296800), int64(5), int32(0), false)
	f.Add("", "", "", -1.0, int64(0), int64(0), int32(3600), true)
	for _, x := range []float64{1e21, 1e-7, 1e20, 1e-6, -0.0, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324} {
		f.Add("7", "ok", "x", x, int64(1667296800), int64(0), int32(-19800), false)
	}
	for _, sec := range []int64{253402300800, -62135596801, -62135596800, 253402300799} {
		f.Add("7", "ok", "x", 0.5, sec, int64(999999999), int32(0), false)
	}
	f.Add("7", "ok", "x", 0.5, int64(0), int64(0), int32(86400), false)
	f.Fuzz(func(t *testing.T, id, state, text string, tox float64, sec, nsec int64, zone int32, noPosts bool) {
		want, err := json.Marshal(text)
		if got := jsonx.AppendString(nil, text); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal %s (%v)", text, got, want, err)
		}
		want, err = json.Marshal(tox)
		if got, ok := jsonx.AppendFloat(nil, tox); ok != (err == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, %v; json.Marshal %s, %v", tox, got, ok, want, err)
		}
		row := timelineRow{id, &crawler.TwitterTimeline{State: crawler.CrawlState(state)}}
		if !noPosts {
			at := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
			row.Timeline.Posts = []crawler.Post{{ID: id, Time: at, Text: text, Source: state, Domain: text, Toxicity: tox}, {}}
		}
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(&row)
		got, ok := row.appendJSON(nil)
		if ok != (err == nil) || ok && !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("appendJSON = %s, %v; json.Encoder %s, %v", got, ok, buf.Bytes(), err)
		}
		if back := (timelineRow{}); ok && !back.decodeJSON(got) {
			t.Fatalf("decodeJSON declined appendJSON's %s", got)
		}
	})
}

// BenchmarkTimelineRows encodes and decodes the timeline rows of a
// dataset shaped like BenchmarkSaveLoad's, with the hand codec and with
// encoding/json.
func BenchmarkTimelineRows(b *testing.B) {
	lines := timelineLines(b, 240, 175)
	rows := make([]timelineRow, len(lines))
	size := 0
	for i, line := range lines {
		if !rows[i].decodeJSON(line) {
			b.Fatal("row declined")
		}
		size += len(line)
	}
	var sink []byte
	var enc bytes.Buffer
	for _, c := range []struct {
		name string
		row  func(i int) bool
	}{
		{"encode/codec", func(i int) (ok bool) { sink, ok = rows[i].appendJSON(sink[:0]); return ok }},
		{"encode/encoding_json", func(i int) bool { enc.Reset(); return json.NewEncoder(&enc).Encode(&rows[i]) == nil }},
		{"decode/codec", func(i int) bool { return new(timelineRow).decodeJSON(lines[i]) }},
		{"decode/encoding_json", func(i int) bool { return json.Unmarshal(lines[i], new(timelineRow)) == nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for range b.N {
				for i := range rows {
					if !c.row(i) {
						b.Fatal("row failed")
					}
				}
			}
		})
	}
}
