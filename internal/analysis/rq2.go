package analysis

import (
	"sort"
	"strings"

	"flock/internal/crawler"
	"flock/internal/parallel"
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
	type row struct {
		ok                 bool
		twF, twE, mF, mE   float64
		noTwF, noTwE, noMF bool
		noME, moreM        bool
	}
	slots := parallel.MapSlice(e.Workers, len(ds.Pairs), func(i int) row {
		p := &ds.Pairs[i]
		if !p.MastodonVerified {
			return row{}
		}
		return row{
			ok:    true,
			twF:   float64(p.TwitterFollowers),
			twE:   float64(p.TwitterFollowing),
			mF:    float64(p.MastodonFollowers),
			mE:    float64(p.MastodonFollowing),
			noTwF: p.TwitterFollowers == 0,
			noTwE: p.TwitterFollowing == 0,
			noMF:  p.MastodonFollowers == 0,
			noME:  p.MastodonFollowing == 0,
			moreM: p.MastodonFollowers > p.TwitterFollowers,
		}
	})
	var twF, twE, mF, mE []float64
	var noTwF, noTwE, noMF, noME, moreM int
	n := 0
	for _, r := range slots {
		if !r.ok {
			continue
		}
		n++
		twF = append(twF, r.twF)
		twE = append(twE, r.twE)
		mF = append(mF, r.mF)
		mE = append(mE, r.mE)
		if r.noTwF {
			noTwF++
		}
		if r.noTwE {
			noTwE++
		}
		if r.noMF {
			noMF++
		}
		if r.noME {
			noME++
		}
		if r.moreM {
			moreM++
		}
	}
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

	// Sorted user IDs make the per-user fold order (and hence every
	// float accumulation below) independent of Go map iteration order.
	ids := sortedKeys(ds.TwitterFollowees)

	type egoRow struct {
		ok            bool
		followees     int
		fracMigrated  float64
		migrated      int
		fracBefore    float64
		fracSame      float64
		anyBefore     bool
		anyAfter      bool
		sameColocated bool
		myDomain      string
	}
	slots := parallel.MapSlice(e.Workers, len(ids), func(i int) egoRow {
		userID := ids[i]
		followees := ds.TwitterFollowees[userID]
		me := pairs[userID]
		if me == nil || !me.MastodonVerified {
			return egoRow{}
		}
		r := egoRow{ok: true, followees: len(followees)}
		if len(followees) == 0 {
			return r
		}
		migrated := 0
		before := 0
		sameInst := 0
		myDomain := me.FinalDomain()
		myJoin := me.MastodonCreatedAt
		for _, f := range followees {
			fp := pairs[f.TwitterID]
			if fp == nil || !fp.MastodonVerified {
				continue
			}
			migrated++
			if fp.MastodonCreatedAt.Before(myJoin) {
				before++
				r.anyBefore = true
			} else {
				r.anyAfter = true
			}
			if fp.FinalDomain() == myDomain {
				sameInst++
			}
		}
		r.fracMigrated = float64(migrated) / float64(len(followees))
		r.migrated = migrated
		if migrated > 0 {
			r.fracBefore = float64(before) / float64(migrated)
			r.fracSame = float64(sameInst) / float64(migrated)
			r.sameColocated = sameInst > 0
			r.myDomain = myDomain
		}
		return r
	})

	var fracMigrated, fracBefore, fracSame []float64
	var none, first, last int
	sameByDomain := map[string]int{}
	sameTotal := 0
	for _, r := range slots {
		if !r.ok {
			continue
		}
		out.SampleSize++
		out.FolloweeEdges += r.followees
		if r.followees == 0 {
			continue
		}
		fracMigrated = append(fracMigrated, r.fracMigrated)
		if r.migrated == 0 {
			none++
			continue
		}
		fracBefore = append(fracBefore, r.fracBefore)
		fracSame = append(fracSame, r.fracSame)
		if !r.anyBefore {
			first++ // user migrated before every migrating followee
		}
		if !r.anyAfter {
			last++
		}
		if r.sameColocated {
			sameByDomain[r.myDomain]++
			sameTotal++
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
		out.MastodonSocialShareOfSame = float64(sameByDomain["mastodon.social"]) / float64(sameTotal)
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

	var switchers []*crawler.AccountPair
	postTakeover := 0
	fromBig := 0
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if p.Moved == nil {
			continue
		}
		switchers = append(switchers, p)
		out.Chord.Add(p.Handle.Domain, p.Moved.Handle.Domain, 1)
		if vclock.PostTakeover(p.Moved.MovedAt) {
			postTakeover++
		}
		if bigDomains[p.Handle.Domain] && !bigDomains[p.Moved.Handle.Domain] {
			fromBig++
		}
	}
	out.Switchers = len(switchers)
	out.SwitcherFrac = float64(len(switchers)) / float64(len(ds.Pairs))
	if len(switchers) > 0 {
		out.PostTakeoverFrac = float64(postTakeover) / float64(len(switchers))
		out.FlagshipToTopicalFrac = float64(fromBig) / float64(len(switchers))
	}

	// Fig. 10: ego networks of switchers, one slot per switcher.
	type egoRow struct {
		hasEgo          bool
		migrated        int
		fFirst, fSecond float64
		hasSecond       bool
		fSecondBefore   float64
	}
	slots := parallel.MapSlice(e.Workers, len(switchers), func(i int) egoRow {
		p := switchers[i]
		followees, ok := ds.TwitterFollowees[p.TwitterID]
		if !ok {
			return egoRow{}
		}
		r := egoRow{hasEgo: true}
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
		r.migrated = migrated
		if migrated > 0 {
			r.fFirst = float64(onFirst) / float64(migrated)
			r.fSecond = float64(onSecond) / float64(migrated)
			if onSecond > 0 {
				r.hasSecond = true
				r.fSecondBefore = float64(secondBefore) / float64(onSecond)
			}
		}
		return r
	})
	var fFirst, fSecond, fSecondBefore []float64
	for _, r := range slots {
		if !r.hasEgo {
			continue
		}
		out.SwitchersWithEgo++
		if r.migrated == 0 {
			continue
		}
		fFirst = append(fFirst, r.fFirst)
		fSecond = append(fSecond, r.fSecond)
		if r.hasSecond {
			fSecondBefore = append(fSecondBefore, r.fSecondBefore)
		}
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
