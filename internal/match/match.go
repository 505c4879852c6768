// Package match implements §3.1's account-mapping methodology: finding
// Mastodon handles in tweets and Twitter profile metadata, and the
// hierarchical mapping rule that links a Twitter account to a Mastodon
// account.
//
// Handles appear in two syntaxes: "@alice@example.com" and
// "https://example.com/@alice". Both are extracted; candidate domains
// are validated against the known-instance list (from the index crawl),
// which kills the overwhelming false-positive source: email addresses
// and @mentions of @user@nonsense.
//
// The hierarchy: (1) search the account's profile metadata (display
// name, bio/description, location, URL field, pinned tweet); a hit there
// maps immediately. (2) Otherwise search the account's collected tweet
// texts; a hit there maps ONLY if the Mastodon username equals the
// Twitter username — the paper's precision guard against tweets that
// merely mention someone else's handle.
package match

import (
	"regexp"
	"strings"
)

// Handle is a parsed Mastodon handle.
type Handle struct {
	Username string
	Domain   string
}

// String renders the canonical @user@domain form.
func (h Handle) String() string {
	return "@" + h.Username + "@" + h.Domain
}

// Source records which §3.1 path produced a mapping.
type Source int

const (
	// SourceNone: no mapping found.
	SourceNone Source = iota
	// SourceMetadata: handle found in profile metadata (step 1).
	SourceMetadata
	// SourceTweet: handle found in tweet text with equal usernames
	// (step 2).
	SourceTweet
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceMetadata:
		return "metadata"
	case SourceTweet:
		return "tweet"
	}
	return "none"
}

// atFormRe matches @user@domain. The leading boundary keeps email
// addresses (user@domain with no leading @) out.
var atFormRe = regexp.MustCompile(`(?:^|[^\w@])@([A-Za-z0-9_]{1,64})@([A-Za-z0-9][A-Za-z0-9.-]*\.[A-Za-z]{2,})`)

// urlFormRe matches https://domain/@user.
var urlFormRe = regexp.MustCompile(`https?://([A-Za-z0-9][A-Za-z0-9.-]*\.[A-Za-z]{2,})/@([A-Za-z0-9_]{1,64})\b`)

// KnownInstances is the domain whitelist from the instance index crawl.
type KnownInstances map[string]bool

// NewKnownInstances builds the set from a domain list, lowercased.
func NewKnownInstances(domains []string) KnownInstances {
	m := make(KnownInstances, len(domains))
	for _, d := range domains {
		m[strings.ToLower(d)] = true
	}
	return m
}

// Extract returns all handles in text whose domain is a known instance,
// in order of appearance, deduplicated.
func Extract(text string, known KnownInstances) []Handle {
	var out []Handle
	seen := map[Handle]bool{}
	add := func(username, domain string) {
		domain = strings.ToLower(domain)
		if known != nil && !known[domain] {
			return
		}
		h := Handle{Username: username, Domain: domain}
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, m := range atFormRe.FindAllStringSubmatch(text, -1) {
		add(m[1], m[2])
	}
	for _, m := range urlFormRe.FindAllStringSubmatch(text, -1) {
		add(m[2], m[1])
	}
	return out
}

// Profile carries the §3.1 metadata fields of a Twitter account.
type Profile struct {
	Username    string
	DisplayName string
	Description string
	Location    string
	URL         string
	PinnedTweet string
}

// metadataText concatenates the searchable metadata surface.
func (p Profile) metadataText() string {
	return p.DisplayName + "\n" + p.Description + "\n" + p.Location + "\n" + p.URL + "\n" + p.PinnedTweet
}

// Result is the outcome of mapping one Twitter account.
type Result struct {
	Handle Handle
	Source Source
}

// Map applies the hierarchical rule to one account: profile metadata
// first, then tweet texts with the exact-username requirement
// (case-insensitive, like Twitter usernames). It returns ok=false if no
// acceptable handle is found.
func Map(p Profile, tweets []string, known KnownInstances) (Result, bool) {
	if hs := Extract(p.metadataText(), known); len(hs) > 0 {
		return Result{Handle: hs[0], Source: SourceMetadata}, true
	}
	for _, text := range tweets {
		for _, h := range Extract(text, known) {
			if strings.EqualFold(h.Username, p.Username) {
				return Result{Handle: h, Source: SourceTweet}, true
			}
		}
	}
	return Result{}, false
}

// MapLoose is the ablation variant without the exact-username guard: any
// handle in tweet text maps. Benchmarked against Map to show the guard's
// precision effect (see BenchmarkAblationMatcherStrategy).
func MapLoose(p Profile, tweets []string, known KnownInstances) (Result, bool) {
	if hs := Extract(p.metadataText(), known); len(hs) > 0 {
		return Result{Handle: hs[0], Source: SourceMetadata}, true
	}
	for _, text := range tweets {
		if hs := Extract(text, known); len(hs) > 0 {
			return Result{Handle: hs[0], Source: SourceTweet}, true
		}
	}
	return Result{}, false
}
