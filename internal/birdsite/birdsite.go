// Package birdsite simulates the Twitter v2 API surface the paper's data
// collection used (§3.1–3.3):
//
//   - GET /2/tweets/search/all   — full-archive search with a query
//     language subset (keywords, "quoted phrases", #hashtags, url:domain,
//     from:user, OR groups), time windows and cursor pagination
//   - GET /2/users/by/username/X — user lookup with bio/location/url/
//     pinned tweet metadata (the §3.1 handle-match inputs)
//   - GET /2/users/:id           — user lookup by ID
//   - GET /2/users/:id/tweets    — user timeline (§3.2)
//   - GET /2/users/:id/following — followees, paginated (§3.3)
//
// Response shapes follow the v2 API closely enough that the crawler code
// reads like real Twitter client code. The service reproduces the
// account-state failures the paper hit: suspended (403), deleted (404),
// protected (401) accounts.
package birdsite

import (
	"cmp"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"

	"flock/internal/ids"
	"flock/internal/parallel"
	"flock/internal/textkit"
	"flock/internal/world"
)

// Host is the API hostname the service binds on the fabric.
const Host = "api.birdsite.test"

// Service owns the indexed tweet corpus and user directory.
type Service struct {
	w *world.World

	// flat corpus sorted by (Time, ID) ascending.
	tweets []tweetRef
	// inverted index: token -> positions in tweets (ascending).
	postings map[string][]int32
	// user directory.
	byUsername map[string]*world.User
	byID       map[string]*world.User
}

// tweetRef locates one tweet in the world.
type tweetRef struct {
	UserID int
	Idx    int // index within TweetsByUser[UserID]
}

// New indexes the world and returns the service. Indexing cost is paid
// once; queries are posting-list intersections.
//
// The corpus, in (Time, ID) order, is cut into two contiguous ranges per
// worker, each indexed by its own indexer, and each token's lists are
// joined in range order. Positions ascend across the ranges and a tweet
// lies in one range, so the lists are those of one serial pass over the
// corpus, wherever the cuts fall. Every word comes from the
// allocation-free textkit.NextWord, so a token's key is allocated once
// per range, when it is first seen there, and a position is posted once
// per token per tweet by checking its list's last entry.
func New(w *world.World) *Service {
	s := &Service{
		w:          w,
		tweets:     sortedTweets(w),
		byUsername: make(map[string]*world.User, len(w.Users)),
		byID:       make(map[string]*world.User, len(w.Users)),
	}
	for _, u := range w.Users {
		s.byUsername[strings.ToLower(u.Username)] = u
		s.byID[u.TwitterID.String()] = u
	}
	// from[uid] is uid's from: token, for users with tweets.
	from := make([][]byte, len(w.TweetsByUser))
	for uid, tweets := range w.TweetsByUser {
		if len(tweets) > 0 {
			from[uid] = []byte("from:" + strings.ToLower(w.Users[uid].Username))
		}
	}
	n := len(s.tweets)
	ranges := min(n, 2*parallel.Workers(0))
	parts := parallel.MapSlice(0, ranges, func(r int) *indexer {
		// The user count is about a range's token count: its authors'
		// from: tokens and a vocabulary of a few hundred words.
		ix := &indexer{ids: make(map[string]int32, len(w.Users))}
		for pos := r * n / ranges; pos < (r+1)*n/ranges; pos++ {
			ref := s.tweets[pos]
			ix.addText(s.get(ref).Text, int32(pos))
			// Unconditional, after the text's tokens: a text that names
			// from:<its author> posts the position twice.
			id := ix.id(from[ref.UserID])
			ix.lists[id] = append(ix.lists[id], int32(pos))
		}
		return ix
	})
	s.postings = make(map[string][]int32, len(w.Users))
	for _, ix := range parts {
		for id, k := range ix.keys {
			if l := s.postings[k]; l != nil {
				s.postings[k] = append(l, ix.lists[id]...)
			} else {
				s.postings[k] = ix.lists[id]
			}
		}
	}
	return s
}

// sortedTweets lists every tweet of w by (Time, ID) ascending.
// Time.UnixNano orders as Time.Before does for every time in years
// 1678–2262, which holds all of a world's times.
func sortedTweets(w *world.World) []tweetRef {
	type keyed struct {
		at  int64
		id  ids.Snowflake
		ref tweetRef
	}
	n := 0
	for _, tweets := range w.TweetsByUser {
		n += len(tweets)
	}
	ks := make([]keyed, 0, n)
	for uid, tweets := range w.TweetsByUser {
		for i := range tweets {
			ks = append(ks, keyed{tweets[i].Time.UnixNano(), tweets[i].ID, tweetRef{UserID: uid, Idx: i}})
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	refs := make([]tweetRef, len(ks))
	for i, k := range ks {
		refs[i] = k.ref
	}
	return refs
}

func (s *Service) get(ref tweetRef) *world.Tweet {
	return &s.w.TweetsByUser[ref.UserID][ref.Idx]
}

// urlRe finds https?:// URLs for domain extraction at index time.
var urlRe = regexp.MustCompile(`https?://([a-zA-Z0-9.-]+)(/[^\s]*)?`)

// indexCut is what the index strips from both ends of every word. Query
// words are cut the same way, so a query can name every indexed token.
var indexCut = textkit.NewCut(".,;:!?()[]\"'—", ".,;:!?()[]\"'—")

// indexer accumulates posting lists. ids numbers the tokens densely in
// first-seen order; keys and lists are indexed by that number.
type indexer struct {
	ids   map[string]int32
	keys  []string
	lists [][]int32
}

// id returns tok's number, allocating its key only when tok is new: the
// lookup ix.ids[string(tok)] does not allocate.
func (ix *indexer) id(tok []byte) int32 {
	if id, ok := ix.ids[string(tok)]; ok {
		return id
	}
	k := string(tok)
	id := int32(len(ix.keys))
	ix.ids[k] = id
	ix.keys = append(ix.keys, k)
	ix.lists = append(ix.lists, nil)
	return id
}

// post adds pos to tok's list unless it is there already. Positions
// arrive in ascending order, so a token posted for this tweet before is
// its list's last entry.
func (ix *indexer) post(tok []byte, pos int32) {
	id := ix.id(tok)
	if l := ix.lists[id]; len(l) == 0 || l[len(l)-1] != pos {
		ix.lists[id] = append(l, pos)
	}
}

// addText posts the searchable tokens of the tweet at pos: a url:domain
// marker for every linked host, then every word of the text with its URLs
// blanked out, a #hashtag as both "#tag" and "tag".
func (ix *indexer) addText(text string, pos int32) {
	// urlRe cannot match a text without "://", and few texts have one.
	if strings.Contains(text, "://") {
		for _, m := range urlRe.FindAllStringSubmatch(text, -1) {
			ix.post([]byte("url:"+strings.ToLower(m[1])), pos)
		}
		text = urlRe.ReplaceAllString(text, " ")
	}
	var arr [64]byte
	for w, i := textkit.NextWord(text, 0, indexCut, arr[:0]); i >= 0; w, i = textkit.NextWord(text, i, indexCut, arr[:0]) {
		ix.post(w, pos)
		if w[0] == '#' && len(w) > 1 {
			ix.post(w[1:], pos)
		}
	}
}

// Query grammar: clauses separated by OR; a clause is a conjunction of
// terms. Terms: word, #tag, "quoted phrase" (AND of its words, then
// verified as substring), url:domain, from:user.
type query struct {
	clauses [][]term
}

type term struct {
	tok    string // posting-list token
	phrase string // non-empty for quoted phrases (verified on text)
}

// parseQuery parses the operator subset. It is liberal: unknown syntax
// degrades to keyword terms, like the real API's matching behaviour.
// Keywords and a phrase's words are cut like the index's words; a word
// that is nothing but cut characters adds no term.
func parseQuery(q string) query {
	var out query
	var arr [64]byte
	for _, clause := range splitTopOR(q) {
		var terms []term
		rest := strings.TrimSpace(clause)
		for rest != "" {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				break
			}
			if rest[0] == '"' {
				end := strings.IndexByte(rest[1:], '"')
				if end < 0 {
					rest = rest[1:]
					continue
				}
				phrase := rest[1 : 1+end]
				rest = rest[min(len(rest), end+2):]
				n := 0
				for w, i := textkit.NextWord(phrase, 0, indexCut, arr[:0]); i >= 0; w, i = textkit.NextWord(phrase, i, indexCut, arr[:0]) {
					terms = append(terms, term{tok: string(w)})
					n++
				}
				if n > 1 {
					terms = append(terms, term{phrase: strings.ToLower(phrase)})
				}
				continue
			}
			sp := strings.IndexByte(rest, ' ')
			var word string
			if sp < 0 {
				word, rest = rest, ""
			} else {
				word, rest = rest[:sp], rest[sp+1:]
			}
			lw := strings.ToLower(word)
			switch {
			case strings.HasPrefix(lw, "url:"):
				dom := strings.Trim(strings.TrimPrefix(lw, "url:"), `"`)
				terms = append(terms, term{tok: "url:" + dom})
			case strings.HasPrefix(lw, "from:"):
				terms = append(terms, term{tok: lw})
			default:
				if w, i := textkit.NextWord(word, 0, indexCut, arr[:0]); i >= 0 {
					terms = append(terms, term{tok: string(w)})
				}
			}
		}
		if len(terms) > 0 {
			out.clauses = append(out.clauses, terms)
		}
	}
	return out
}

// splitTopOR splits on the OR keyword outside quotes.
func splitTopOR(q string) []string {
	var parts []string
	var cur strings.Builder
	inQuote := false
	fields := strings.Fields(q)
	for _, f := range fields {
		if !inQuote && f == "OR" {
			parts = append(parts, cur.String())
			cur.Reset()
			continue
		}
		// Track quote state across fields.
		if strings.Count(f, `"`)%2 == 1 {
			inQuote = !inQuote
		}
		if cur.Len() > 0 {
			cur.WriteByte(' ')
		}
		cur.WriteString(f)
	}
	parts = append(parts, cur.String())
	return parts
}

// search evaluates q over the corpus within [start, end), returning
// ascending positions.
func (s *Service) search(q query, start, end time.Time) []int32 {
	resultSet := map[int32]bool{}
	for _, clause := range q.clauses {
		var acc []int32
		first := true
		failed := false
		for _, t := range clause {
			if t.phrase != "" {
				continue // verified later
			}
			pl := s.postings[t.tok]
			if len(pl) == 0 {
				failed = true
				break
			}
			if first {
				acc = append([]int32(nil), pl...)
				first = false
			} else {
				acc = intersect(acc, pl)
				if len(acc) == 0 {
					failed = true
					break
				}
			}
		}
		if failed || first {
			continue
		}
		for _, pos := range acc {
			tw := s.get(s.tweets[pos])
			if tw.Time.Before(start) || !tw.Time.Before(end) {
				continue
			}
			ok := true
			for _, t := range clause {
				if t.phrase != "" && !strings.Contains(strings.ToLower(tw.Text), t.phrase) {
					ok = false
					break
				}
			}
			if ok {
				resultSet[pos] = true
			}
		}
	}
	out := make([]int32, 0, len(resultSet))
	for pos := range resultSet {
		out = append(out, pos)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// intersect merges two ascending posting lists.
func intersect(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
