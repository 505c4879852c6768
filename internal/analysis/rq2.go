package analysis

import (
	"sort"
	"strings"

	"flock/internal/crawler"
	"flock/internal/stats"
	"flock/internal/vclock"
)

// NetworkSizes is the Fig. 7 result: CDFs of follower/followee counts on
// both platforms plus the §5.1 in-text statistics.
type NetworkSizes struct {
	TwitterFollowers  *stats.ECDF
	TwitterFollowees  *stats.ECDF
	MastodonFollowers *stats.ECDF
	MastodonFollowees *stats.ECDF

	MedianTwitterFollowers  float64
	MedianTwitterFollowees  float64
	MedianMastodonFollowers float64
	MedianMastodonFollowees float64

	// NoTwitterFollowersFrac etc. (paper: 0.11%, 0.35%, 6.01%, 3.6%).
	NoTwitterFollowersFrac  float64
	NoTwitterFolloweesFrac  float64
	NoMastodonFollowersFrac float64
	NoMastodonFolloweesFrac float64
	// MoreMastodonFollowersFrac: users with more followers on Mastodon
	// than Twitter (paper: 1.65%).
	MoreMastodonFollowersFrac float64
}

// SocialNetworkSizes computes Fig. 7 over all verified pairs.
func (e Engine) SocialNetworkSizes(ds *crawler.Dataset) *NetworkSizes {
	out := &NetworkSizes{}
	var twF, twE, mF, mE []float64
	var noTwF, noTwE, noMF, noME, moreM int
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if !p.MastodonVerified {
			continue
		}
		twF = append(twF, float64(p.TwitterFollowers))
		twE = append(twE, float64(p.TwitterFollowing))
		mF = append(mF, float64(p.MastodonFollowers))
		mE = append(mE, float64(p.MastodonFollowing))
		if p.TwitterFollowers == 0 {
			noTwF++
		}
		if p.TwitterFollowing == 0 {
			noTwE++
		}
		if p.MastodonFollowers == 0 {
			noMF++
		}
		if p.MastodonFollowing == 0 {
			noME++
		}
		if p.MastodonFollowers > p.TwitterFollowers {
			moreM++
		}
	}
	n := len(twF)
	if n == 0 {
		return out
	}
	out.TwitterFollowers = stats.NewECDF(twF)
	out.TwitterFollowees = stats.NewECDF(twE)
	out.MastodonFollowers = stats.NewECDF(mF)
	out.MastodonFollowees = stats.NewECDF(mE)
	out.MedianTwitterFollowers = out.TwitterFollowers.Median()
	out.MedianTwitterFollowees = out.TwitterFollowees.Median()
	out.MedianMastodonFollowers = out.MastodonFollowers.Median()
	out.MedianMastodonFollowees = out.MastodonFollowees.Median()
	fn := float64(n)
	out.NoTwitterFollowersFrac = float64(noTwF) / fn
	out.NoTwitterFolloweesFrac = float64(noTwE) / fn
	out.NoMastodonFollowersFrac = float64(noMF) / fn
	out.NoMastodonFolloweesFrac = float64(noME) / fn
	out.MoreMastodonFollowersFrac = float64(moreM) / fn
	return out
}

// Contagion is the Fig. 8 / §5.2 result over the followee sample.
type Contagion struct {
	// FracMigrated / FracBefore / FracSameInstance are the Fig. 8 CDFs:
	// per sampled user, the fraction of their Twitter followees that
	// (i) migrated, (ii) migrated before the user, (iii) landed on the
	// same instance (of those that migrated).
	FracMigrated     *stats.ECDF
	FracBefore       *stats.ECDF
	FracSameInstance *stats.ECDF

	MeanFracMigrated     float64 // paper: 5.99%
	NoneMigratedFrac     float64 // paper: 3.94%
	UserFirstFrac        float64 // paper: 4.98%
	UserLastFrac         float64 // paper: 4.58%
	MeanFracBefore       float64 // paper: 45.76%
	MeanFracSameInstance float64 // paper: 14.72%
	// MastodonSocialShareOfSame: of users whose followees co-located,
	// the share on mastodon.social (paper: 30.68%).
	MastodonSocialShareOfSame float64
	SampleSize                int
	FolloweeEdges             int
}

// RQ2Contagion computes the social-influence results.
func (e Engine) RQ2Contagion(ds *crawler.Dataset) *Contagion {
	out := &Contagion{}
	pairs := ds.PairByTwitterID()

	var fracMigrated, fracBefore, fracSame []float64
	var none, first, last, sameTotal, sameOnSocial int
	// Sorted user IDs make the per-user fold order (and hence every
	// float accumulation below) independent of Go map iteration order.
	for _, userID := range sortedKeys(ds.TwitterFollowees) {
		followees := ds.TwitterFollowees[userID]
		me := pairs[userID]
		if me == nil || !me.MastodonVerified {
			continue
		}
		out.SampleSize++
		out.FolloweeEdges += len(followees)
		if len(followees) == 0 {
			continue
		}
		migrated, before, sameInst := 0, 0, 0
		myDomain := me.FinalDomain()
		for _, f := range followees {
			fp := pairs[f.TwitterID]
			if fp == nil || !fp.MastodonVerified {
				continue
			}
			migrated++
			if fp.MastodonCreatedAt.Before(me.MastodonCreatedAt) {
				before++
			}
			if fp.FinalDomain() == myDomain {
				sameInst++
			}
		}
		fracMigrated = append(fracMigrated, float64(migrated)/float64(len(followees)))
		if migrated == 0 {
			none++
			continue
		}
		fracBefore = append(fracBefore, float64(before)/float64(migrated))
		fracSame = append(fracSame, float64(sameInst)/float64(migrated))
		if before == 0 {
			first++ // user migrated before every migrating followee
		}
		if before == migrated {
			last++ // every migrating followee went first
		}
		if sameInst > 0 {
			sameTotal++
			if myDomain == "mastodon.social" {
				sameOnSocial++
			}
		}
	}
	out.FracMigrated = stats.NewECDF(fracMigrated)
	out.FracBefore = stats.NewECDF(fracBefore)
	out.FracSameInstance = stats.NewECDF(fracSame)
	out.MeanFracMigrated = stats.Mean(fracMigrated)
	out.MeanFracBefore = stats.Mean(fracBefore)
	out.MeanFracSameInstance = stats.Mean(fracSame)
	if out.SampleSize > 0 {
		out.NoneMigratedFrac = float64(none) / float64(out.SampleSize)
		out.UserFirstFrac = float64(first) / float64(out.SampleSize)
		out.UserLastFrac = float64(last) / float64(out.SampleSize)
	}
	if sameTotal > 0 {
		out.MastodonSocialShareOfSame = float64(sameOnSocial) / float64(sameTotal)
	}
	return out
}

// Switching is the §5.3 / Figs. 9–10 result.
type Switching struct {
	// SwitcherFrac: share of pairs with a moved record (paper: 4.09%).
	SwitcherFrac float64
	// PostTakeoverFrac: switches dated after the takeover (paper: 97.22%).
	PostTakeoverFrac float64
	// Chord is the Fig. 9 first-instance -> second-instance flow matrix.
	Chord *stats.Chord
	// FlagshipToTopicalFrac: switches leaving a flagship/general server
	// for a smaller one (the Fig. 9 "common pattern").
	FlagshipToTopicalFrac float64

	// Fig. 10 CDFs over switchers with followee data: fraction of
	// migrated followees on the first instance, on the second instance,
	// and (of those on the second) who arrived before the user switched.
	FracFirst            *stats.ECDF
	FracSecond           *stats.ECDF
	FracSecondBefore     *stats.ECDF
	MeanFracFirst        float64 // paper: 11.4%
	MeanFracSecond       float64 // paper: 46.98%
	MeanFracSecondBefore float64 // paper: 77.42%
	Switchers            int
	SwitchersWithEgo     int
}

// RQ2Switching computes the instance-switching results.
func (e Engine) RQ2Switching(ds *crawler.Dataset) *Switching {
	out := &Switching{Chord: stats.NewChord()}
	if len(ds.Pairs) == 0 {
		return out
	}
	pairs := ds.PairByTwitterID()

	// Count migrants per first-instance domain to spot flagships (top 3
	// by incoming migrants approximate the paper's flagship set). The
	// domain universe is bounded by the instance index, so pre-sizing
	// avoids rehash churn on large crawls.
	perDomain := make(map[string]int, len(ds.Instances))
	for i := range ds.Pairs {
		perDomain[ds.Pairs[i].Handle.Domain]++
	}
	type dc struct {
		d string
		n int
	}
	ranked := make([]dc, 0, len(perDomain))
	for d, n := range perDomain {
		ranked = append(ranked, dc{d, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].d < ranked[j].d
	})
	bigDomains := make(map[string]bool, 3)
	k := 3
	if k >= len(ranked) {
		k = len(ranked) - 1 // always leave at least one non-big domain
	}
	for i := 0; i < k; i++ {
		bigDomains[ranked[i].d] = true
	}

	// One pass over the switchers in pair order: the Fig. 9 flows, then
	// each switcher's Fig. 10 ego network.
	var fFirst, fSecond, fSecondBefore []float64
	postTakeover := 0
	fromBig := 0
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if p.Moved == nil {
			continue
		}
		out.Switchers++
		out.Chord.Add(p.Handle.Domain, p.Moved.Handle.Domain, 1)
		if vclock.PostTakeover(p.Moved.MovedAt) {
			postTakeover++
		}
		if bigDomains[p.Handle.Domain] && !bigDomains[p.Moved.Handle.Domain] {
			fromBig++
		}
		followees, ok := ds.TwitterFollowees[p.TwitterID]
		if !ok {
			continue
		}
		out.SwitchersWithEgo++
		migrated, onFirst, onSecond, secondBefore := 0, 0, 0, 0
		for _, f := range followees {
			fp := pairs[f.TwitterID]
			if fp == nil || !fp.MastodonVerified {
				continue
			}
			migrated++
			// "at some point also join": first or final domain matches.
			joinsFirst := fp.Handle.Domain == p.Handle.Domain || fp.FinalDomain() == p.Handle.Domain
			joinsSecond := fp.Handle.Domain == p.Moved.Handle.Domain || fp.FinalDomain() == p.Moved.Handle.Domain
			if joinsFirst {
				onFirst++
			}
			if joinsSecond {
				onSecond++
				// When did they arrive at the second instance?
				arrival := fp.MastodonCreatedAt
				if fp.Moved != nil && fp.Moved.Handle.Domain == p.Moved.Handle.Domain {
					arrival = fp.Moved.MovedAt
				}
				if arrival.Before(p.Moved.MovedAt) {
					secondBefore++
				}
			}
		}
		if migrated == 0 {
			continue
		}
		fFirst = append(fFirst, float64(onFirst)/float64(migrated))
		fSecond = append(fSecond, float64(onSecond)/float64(migrated))
		if onSecond > 0 {
			fSecondBefore = append(fSecondBefore, float64(secondBefore)/float64(onSecond))
		}
	}
	out.SwitcherFrac = float64(out.Switchers) / float64(len(ds.Pairs))
	if out.Switchers > 0 {
		out.PostTakeoverFrac = float64(postTakeover) / float64(out.Switchers)
		out.FlagshipToTopicalFrac = float64(fromBig) / float64(out.Switchers)
	}
	out.FracFirst = stats.NewECDF(fFirst)
	out.FracSecond = stats.NewECDF(fSecond)
	out.FracSecondBefore = stats.NewECDF(fSecondBefore)
	out.MeanFracFirst = stats.Mean(fFirst)
	out.MeanFracSecond = stats.Mean(fSecond)
	out.MeanFracSecondBefore = stats.Mean(fSecondBefore)
	return out
}

// domainIsPersonal is a heuristic used in reporting: personal servers in
// the simulation use the owner's name with a ".page" suffix.
func domainIsPersonal(domain string) bool {
	return strings.HasSuffix(domain, ".page")
}
