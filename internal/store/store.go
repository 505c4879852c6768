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
package store

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"flock/internal/crawler"
	"flock/internal/match"
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
}

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

// timeline rows pair a key with its payload for JSONL storage.
type twitterTLRow struct {
	TwitterID string                   `json:"twitter_id"`
	Timeline  *crawler.TwitterTimeline `json:"timeline"`
}
type mastoTLRow struct {
	TwitterID string                    `json:"twitter_id"`
	Timeline  *crawler.MastodonTimeline `json:"timeline"`
}
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
	var m Manifest
	m.Version = 1
	m.CreatedAt = at.UTC()
	m.Anonymized = anonymized
	m.Counts.Instances = len(ds.Instances)
	m.Counts.Tweets = len(ds.CollectedTweets)
	m.Counts.Pairs = len(ds.Pairs)
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	err = atomicWriteFile(filepath.Join(dir, manifestFile), 0o644, func(w io.Writer) error {
		_, werr := w.Write(mb)
		return werr
	})
	if err != nil {
		return err
	}

	if err := writeJSONL(filepath.Join(dir, instancesFile), ds.Instances); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, tweetsFile), ds.CollectedTweets); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, pairsFile), ds.Pairs); err != nil {
		return err
	}
	ttl := rowsByKey(ds.TwitterTimelines, func(id string, tl *crawler.TwitterTimeline) twitterTLRow {
		return twitterTLRow{TwitterID: id, Timeline: tl}
	})
	if err := writeJSONL(filepath.Join(dir, twitterTLFile), ttl); err != nil {
		return err
	}
	mtl := rowsByKey(ds.MastodonTimelines, func(id string, tl *crawler.MastodonTimeline) mastoTLRow {
		return mastoTLRow{TwitterID: id, Timeline: tl}
	})
	if err := writeJSONL(filepath.Join(dir, mastoTLFile), mtl); err != nil {
		return err
	}
	frs := rowsByKey(ds.TwitterFollowees, func(id string, fs []crawler.FolloweeRef) followeeRow {
		return followeeRow{TwitterID: id, Followees: fs}
	})
	if err := writeJSONL(filepath.Join(dir, followeeFile), frs); err != nil {
		return err
	}
	mfs := rowsByKey(ds.MastodonFollowing, func(id string, hs []string) mfollowRow {
		return mfollowRow{TwitterID: id, Handles: hs}
	})
	if err := writeJSONL(filepath.Join(dir, mfollowFile), mfs); err != nil {
		return err
	}
	ars := rowsByKey(ds.Activity, func(domain string, weeks []crawler.WeekActivity) activityRow {
		return activityRow{Domain: domain, Weeks: weeks}
	})
	return writeJSONL(filepath.Join(dir, activityFile), ars)
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
	if err := readJSONL(filepath.Join(dir, instancesFile), &ds.Instances); err != nil {
		return nil, nil, err
	}
	if err := readJSONL(filepath.Join(dir, tweetsFile), &ds.CollectedTweets); err != nil {
		return nil, nil, err
	}
	if err := readJSONL(filepath.Join(dir, pairsFile), &ds.Pairs); err != nil {
		return nil, nil, err
	}
	var ttl []twitterTLRow
	if err := readJSONL(filepath.Join(dir, twitterTLFile), &ttl); err != nil {
		return nil, nil, err
	}
	for _, row := range ttl {
		ds.TwitterTimelines[row.TwitterID] = row.Timeline
	}
	var mtl []mastoTLRow
	if err := readJSONL(filepath.Join(dir, mastoTLFile), &mtl); err != nil {
		return nil, nil, err
	}
	for _, row := range mtl {
		ds.MastodonTimelines[row.TwitterID] = row.Timeline
	}
	var frs []followeeRow
	if err := readJSONL(filepath.Join(dir, followeeFile), &frs); err != nil {
		return nil, nil, err
	}
	for _, row := range frs {
		ds.TwitterFollowees[row.TwitterID] = row.Followees
	}
	var mfs []mfollowRow
	if err := readJSONL(filepath.Join(dir, mfollowFile), &mfs); err != nil {
		return nil, nil, err
	}
	for _, row := range mfs {
		ds.MastodonFollowing[row.TwitterID] = row.Handles
	}
	var ars []activityRow
	if err := readJSONL(filepath.Join(dir, activityFile), &ars); err != nil {
		return nil, nil, err
	}
	for _, row := range ars {
		ds.Activity[row.Domain] = row.Weeks
	}
	return ds, &m, nil
}

// writeJSONL writes one JSON document per line, gzip-compressed, via an
// atomic temp-file+rename.
func writeJSONL[T any](path string, rows []T) error {
	return atomicWriteFile(path, 0o644, func(w io.Writer) error {
		gz := gzip.NewWriter(w)
		bw := bufio.NewWriter(gz)
		enc := json.NewEncoder(bw)
		for i := range rows {
			if err := enc.Encode(&rows[i]); err != nil {
				return fmt.Errorf("store: encoding %s: %w", path, err)
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return gz.Close()
	})
}

// readJSONL reads a gzip JSONL file into out (a pointer to a slice).
func readJSONL[T any](path string, out *[]T) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("store: gunzip %s: %w", path, err)
	}
	defer gz.Close()
	dec := json.NewDecoder(bufio.NewReader(gz))
	for dec.More() {
		var row T
		if err := dec.Decode(&row); err != nil {
			return fmt.Errorf("store: decoding %s: %w", path, err)
		}
		*out = append(*out, row)
	}
	return nil
}
